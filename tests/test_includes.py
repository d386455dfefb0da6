"""The on-the-fly inclusion and equivalence search: a differential against
the product-based search it replaced, checks against a concrete search at
benchmark sizes, and edge cases of the interval sweep and the implicit
sink, each pinned to the product-based search's answer."""

import operator
import random
from collections import deque

import pytest
from hypothesis import given

from symfa import (
    And, INF, Interval, Lit, NEG_INF, Not, Sfa, accepts, classify,
    complement, complete_sfa, determinize, includes, minimize,
)
from symfa.algebra import INTERVAL_INT, INTERVAL_NAT, prop_algebra
from symfa.sfa import transition_table

from conftest import exact_target, machine_pairs, random_prop_nfa


# ---------------------------------------------------------------------------
# Reference: the product-based search that includes ran before, kept
# verbatim in behaviour.  It builds the whole product of m1 with the
# complement of m2 (subset), or of the two completed machines (equiv),
# then searches it breadth first.


def ref_product(m1, m2, accept):
    if m1.algebra != m2.algebra:
        raise ValueError("algebra mismatch")

    def name(q1, q2):
        return "(%s,%s)" % (q1, q2)

    start = (m1.initial, m2.initial)
    seen = {start}
    order = [start]
    queue = deque([start])
    trans = []
    while queue:
        q1, q2 = queue.popleft()
        src = name(q1, q2)
        for (p1, d1), (s1, _) in zip(m1.out(q1), m1.edges[q1]):
            if not s1:
                continue
            for (p2, d2), (s2, _) in zip(m2.out(q2), m2.edges[q2]):
                sem = m1.algebra.intersect(s1, s2)
                if not sem:
                    continue
                trans.append((src, And(p1, p2), name(d1, d2)))
                if (d1, d2) not in seen:
                    seen.add((d1, d2))
                    order.append((d1, d2))
                    queue.append((d1, d2))
    accepting = [name(a, b) for a, b in order
                 if accept(a in m1.accepting, b in m2.accepting)]
    return Sfa(m1.algebra, [name(a, b) for a, b in order], name(*start),
               accepting, trans)


def ref_shortest_accepted(m):
    alg = m.algebra
    if m.initial in m.accepting:
        return ()
    seen = {m.initial}
    queue = deque([(m.initial, ())])
    while queue:
        q, w = queue.popleft()
        edges = []
        for sem, dst in m.edges[q]:
            d = alg.min(sem)
            if d is not None:
                edges.append((d, dst))
        for d, dst in sorted(edges, key=lambda e: e[0]):
            if dst in seen:
                continue
            seen.add(dst)
            if dst in m.accepting:
                return w + (d,)
            queue.append((dst, w + (d,)))
    return None


def ref_includes(m1, m2, mode="subset"):
    if not classify(m1).deterministic or not classify(m2).deterministic:
        raise ValueError("includes needs deterministic inputs")
    if mode == "subset":
        diff = ref_product(m1, complement(m2), operator.and_)
    else:
        diff = ref_product(complete_sfa(m1), complete_sfa(m2), operator.ne)
    w = ref_shortest_accepted(diff)
    return True if w is None else w


def deterministic_forms(m):
    """m itself when deterministic, and its determinized, completed and
    minimized forms."""
    det = determinize(m)
    done = complete_sfa(det)
    forms = [det, done, minimize(done, "neat"), minimize(done, "normalized")]
    if classify(m).deterministic:
        forms.append(m)
    return forms


@given(machine_pairs())
def test_includes_matches_product_search(pair):
    m1, m2 = pair
    for a in deterministic_forms(m1):
        for b in deterministic_forms(m2):
            for mode in ("subset", "equiv"):
                # repr: the same letters of the same types, in the same order
                assert repr(includes(a, b, mode)) \
                    == repr(ref_includes(a, b, mode))


# ---------------------------------------------------------------------------
# Benchmark sizes: exact ten-state interval targets and prop NFAs up to
# k = 6, against a breadth-first search over concrete transition tables


def mutant(rng, m):
    """m with one transition redirected or one state's acceptance flipped,
    minimized: a machine whose language is often near m's."""
    trans = list(m.transitions)
    accepting = set(m.accepting)
    if rng.random() < 0.5:
        i = rng.randrange(len(trans))
        src, pred, _ = trans[i]
        trans[i] = (src, pred, rng.choice(m.states))
    else:
        accepting ^= {rng.choice(m.states)}
    return minimize(Sfa(m.algebra, m.states, m.initial, accepting, trans),
                    "neat")


def concrete_shortest(m1, m2, mode):
    """Length of a shortest word of L(m1) - L(m2) (subset) or of the
    symmetric difference (equiv), by breadth-first search over the pairs
    of states of two deterministic complete machines, one letter per
    region of their guards' common refinement; None when there is none."""
    alg = m1.algebra
    letters = [alg.min(r) for r in alg.regions(
        [s for m in (m1, m2) for row in m.edges.values() for s, _ in row])]
    t1, t2 = transition_table(m1, letters), transition_table(m2, letters)

    def differs(q1, q2):
        a1, a2 = q1 in m1.accepting, q2 in m2.accepting
        return a1 and not a2 if mode == "subset" else a1 != a2

    start = (m1.initial, m2.initial)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if differs(q1, q2):
            return depth[q1, q2]
        for a in letters:
            nxt = (t1[q1, a], t2[q2, a])
            if nxt not in depth:
                depth[nxt] = depth[q1, q2] + 1
                queue.append(nxt)
    return None


def check_against_concrete(m1, m2, lang1, lang2):
    """includes(m1, m2) in both modes against concrete_shortest and the
    product search; lang1 and lang2 decide membership independently."""
    for mode in ("subset", "equiv"):
        w = includes(m1, m2, mode)
        assert repr(w) == repr(ref_includes(m1, m2, mode))
        length = concrete_shortest(m1, m2, mode)
        if w is True:
            assert length is None
            continue
        assert len(w) == length
        a1, a2 = lang1(w), lang2(w)
        assert (a1 and not a2) if mode == "subset" else a1 != a2


def test_includes_on_ten_state_targets():
    rng = random.Random(20)
    witnesses = 0
    for _ in range(12):
        m1 = exact_target(rng, 10)
        m2 = mutant(rng, m1) if rng.random() < 0.7 else exact_target(rng, 10)
        for a, b in ((m1, m2), (m2, m1)):
            check_against_concrete(a, b, lambda w: accepts(a, w),
                                   lambda w: accepts(b, w))
            witnesses += includes(a, b, "equiv") is not True
    # most pairs differ, so most checks test a witness
    assert witnesses >= 12


@pytest.mark.parametrize("k", [4, 5, 6])
def test_includes_on_prop_nfas(k):
    rng = random.Random(k)
    for _ in range(8):
        n1, n2 = random_prop_nfa(rng, k), random_prop_nfa(rng, k)
        d1 = complete_sfa(determinize(n1))
        for other in (n2, n1):
            d2 = minimize(complete_sfa(determinize(other)), "normalized")
            check_against_concrete(d1, d2, lambda w: accepts(n1, w),
                                   lambda w: accepts(other, w))


# ---------------------------------------------------------------------------
# Edge cases of the sweep and the implicit sink; every expected value is
# what the product-based search returns


def one_step(alg, guard):
    """Accepts exactly the one-letter words whose letter satisfies guard;
    incomplete."""
    return Sfa(alg, ("q0", "q1"), "q0", ("q1",), (("q0", guard, "q1"),))


def test_sup_and_inf_tails_differ_by_inf():
    # [5,inf) holds inf, [5,inf) & ![inf,inf) only the finite letters
    closed = one_step(INTERVAL_NAT, Interval(5, INF))
    finite = one_step(INTERVAL_NAT, And(Interval(5, INF),
                                        Not(Interval(INF, INF))))
    for mode in ("subset", "equiv"):
        assert includes(closed, finite, mode) == (INF,)
        assert includes(closed, finite, mode) == ref_includes(closed, finite,
                                                              mode)
    assert includes(finite, closed) is True
    assert includes(finite, closed, "equiv") == (INF,)


def test_negative_infinity_lower_end():
    wide = Sfa(INTERVAL_INT, ("q0", "q1"), "q0", ("q1",), (
        ("q0", Interval(NEG_INF, 0), "q1"),
        ("q1", Interval(NEG_INF, INF), "q1"),
    ))
    narrow = Sfa(INTERVAL_INT, ("q0", "q1"), "q0", ("q1",), (
        ("q0", Interval(-5, 0), "q1"),
        ("q1", Interval(-5, INF), "q1"),
    ))
    for mode in ("subset", "equiv"):
        w = includes(wide, narrow, mode)
        assert w == (NEG_INF,) and isinstance(w[0], float)
    assert includes(narrow, wide) is True
    assert includes(narrow, wide, "equiv") == (NEG_INF,)
    assert includes(complete_sfa(narrow), wide, "equiv") == (NEG_INF,)


def test_incomplete_first_machine_with_infeasible_guard():
    m = Sfa(INTERVAL_NAT, ("q0", "q1", "q2"), "q0", ("q1",), (
        ("q0", And(Interval(0, 3), Interval(7, 9)), "q1"),
        ("q0", Interval(3, 7), "q2"),
        ("q2", Interval(10, 20), "q1"),
    ))
    # accepts nothing: its accepting state sits behind an empty guard
    nothing = Sfa(INTERVAL_NAT, ("r0", "r1"), "r0", ("r1",), (
        ("r0", Interval(0, INF), "r0"),
        ("r0", Interval(0, 0), "r1"),
    ))
    later = Sfa(INTERVAL_NAT, ("r0", "r1", "r2"), "r0", ("r2",), (
        ("r0", Interval(4, 100), "r1"),
        ("r1", Interval(15, 100), "r2"),
    ))
    assert includes(m, nothing) == (3, 10)
    assert includes(m, later) == (3, 10)
    assert includes(m, later, "equiv") == (3, 10)
    assert includes(later, m) == (4, 20)


def test_state_named_sink():
    m = Sfa(INTERVAL_NAT, ("q0", "sink"), "q0", ("sink",), (
        ("q0", Interval(0, 5), "sink"),
        ("sink", Interval(0, INF), "sink"),
    ))
    # incomplete, with an accepting initial state named sink
    n = Sfa(INTERVAL_NAT, ("sink", "q1"), "sink", ("q1",), (
        ("sink", Interval(0, 3), "q1"),
    ))
    assert includes(m, n) == (3,)
    assert includes(m, n, "equiv") == (3,)
    assert includes(n, m) is True
    assert includes(n, m, "equiv") == (3,)
    p3 = prop_algebra(3)
    everything_p0 = Sfa(p3, ("s",), "s", ("s",), (("s", Lit(0), "s"),))
    one_not_p1 = Sfa(p3, ("t", "sink"), "t", ("sink",), (
        ("t", Lit(1, False), "sink"),
    ))
    assert includes(everything_p0, one_not_p1) == ()
    assert includes(one_not_p1, everything_p0) == ("000",)


def test_state_named_none():
    """The virtual sink is no state name: a machine with a state named
    None classifies, completes and compares like a renamed copy."""
    def pair(name):
        # incomplete on both states, so the gaps come into play
        partial = Sfa(INTERVAL_NAT, (name, "a"), name, ("a",), (
            (name, Interval(0, 5), "a"),
            ("a", Interval(3, INF), name),
        ))
        total = Sfa(INTERVAL_NAT, (name, "a"), name, ("a",), (
            (name, Interval(0, INF), "a"),
            ("a", Interval(0, INF), name),
        ))
        return partial, total

    def renamed(m):
        return Sfa(m.algebra, ["z" if q is None else q for q in m.states],
                   "z" if m.initial is None else m.initial,
                   ["z" if q is None else q for q in m.accepting],
                   [("z" if s is None else s, p, "z" if d is None else d)
                    for s, p, d in m.transitions])

    machines, copies = pair(None), pair("z")
    assert [classify(m) for m in machines] == [classify(m)
                                               for m in copies]
    assert not classify(machines[0]).complete
    assert classify(machines[1]).complete
    assert [renamed(complete_sfa(m)) for m in machines] == [
        complete_sfa(m) for m in copies]
    others = [*copies, exact_target(random.Random(4), 3)]
    for m, copy in zip(machines, copies):
        for other in others:
            for mode in ("subset", "equiv"):
                assert includes(m, other, mode) == includes(copy, other,
                                                            mode)
                assert includes(other, m, mode) == includes(other, copy,
                                                            mode)
    assert includes(machines[0], copies[0], "equiv") is True
    assert includes(machines[0], machines[1]) is True
    assert includes(machines[1], machines[0]) == (5,)


@pytest.mark.parametrize("alg1, alg2", [
    (INTERVAL_NAT, INTERVAL_INT), (prop_algebra(3), prop_algebra(4)),
])
@pytest.mark.parametrize("mode", ["subset", "equiv"])
def test_mismatched_algebras_raise(alg1, alg2, mode):
    m1 = Sfa(alg1, ("q",), "q", ("q",), ())
    m2 = Sfa(alg2, ("q",), "q", ("q",), ())
    with pytest.raises(ValueError, match="algebra mismatch"):
        includes(m1, m2, mode)
