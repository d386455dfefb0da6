import random
import time

import pytest
from hypothesis import given, strategies as st

from symfa import (
    And, INF, Interval, Not, Or, Sfa, TOP, accepts, classify, complement,
    complete_sfa, denote, determinize, equiv, includes, is_empty, minimize,
    product,
)
from symfa.algebra import INTERVAL_INT, INTERVAL_NAT, prop_algebra, Lit
from symfa.generate import random_sfa

from conftest import (
    ALGEBRAS, identical, machine_pairs, machines, rename_and_rebracket,
)


def one_letter_machine(lo, hi):
    # accepts exactly the one-letter words with letter in [lo, hi)
    return complete_sfa(Sfa(INTERVAL_NAT, ("s", "t"), "s", ("t",), (
        ("s", Interval(lo, hi), "t"),
    )))


def test_product_intersection():
    m = product(one_letter_machine(0, 100), one_letter_machine(50, 200))
    assert accepts(m, (60,))
    assert not accepts(m, (10,))
    assert not accepts(m, (150,))
    assert not accepts(m, (60, 60))


def test_product_union():
    m = product(one_letter_machine(0, 100), one_letter_machine(50, 200),
                "union")
    assert accepts(m, (10,))
    assert accepts(m, (150,))
    assert not accepts(m, (300,))


def test_complement():
    m = complement(one_letter_machine(10, 20))
    assert accepts(m, ())
    assert accepts(m, (5,))
    assert not accepts(m, (15,))
    assert accepts(m, (15, 15))
    assert equiv(complement(m), one_letter_machine(10, 20)) is True


ONE = Sfa(INTERVAL_NAT, ("q",), "q", ("q",), (("q", TOP, "q"),))
GAPPED = Sfa(INTERVAL_NAT, ("q",), "q", ("q",), (("q", Interval(0, 5), "q"),))
PROP_ONE = Sfa(prop_algebra(2), ("q",), "q", ("q",), (("q", TOP, "q"),))


@pytest.mark.parametrize("args, message", [
    ((ONE, ONE, "xor"), "mode must be intersect or union"),
    ((ONE, GAPPED, "union"),
     "union product needs deterministic complete inputs"),
    ((GAPPED, ONE, "union"),
     "union product needs deterministic complete inputs"),
    ((ONE, PROP_ONE), "algebra mismatch"),
], ids=["mode", "incomplete-right", "incomplete-left", "algebras"])
def test_product_refuses_bad_input(args, message):
    with pytest.raises(ValueError) as exc:
        product(*args)
    assert str(exc.value) == message


def test_complement_rejects_nondeterministic():
    m = Sfa(INTERVAL_NAT, ("a", "b"), "a", ("b",), (
        ("a", Interval(0, 10), "b"),
        ("a", Interval(5, 20), "a"),
    ))
    with pytest.raises(ValueError):
        complement(m)


def test_determinize():
    m = Sfa(INTERVAL_NAT, ("a", "b", "c"), "a", ("c",), (
        ("a", Interval(0, 10), "b"),
        ("a", Interval(5, 20), "c"),
        ("b", TOP, "b"),
        ("c", TOP, "c"),
    ))
    det = determinize(m)
    flags = classify(det)
    assert flags.deterministic
    for w in ((3,), (7,), (12,), (3, 3), (7, 1)):
        assert accepts(det, w) == accepts(m, w)


def test_determinize_lists_minterms_positive_first():
    # signs over ([0,10), [5,20)) in the order ++, +-, -+; the minterm
    # outside both guards has no destination
    a, b = Interval(0, 10), Interval(5, 20)
    m = Sfa(INTERVAL_NAT, ("a", "b", "c"), "a", ("c",), (
        ("a", a, "b"), ("a", b, "c"),
    ))
    det = determinize(m)
    assert det.transitions[:3] == (
        ("{a}", And(a, b), "{b,c}"),
        ("{a}", And(a, Not(b)), "{b}"),
        ("{a}", And(Not(a), b), "{c}"),
    )
    assert [sem for sem, _ in det.edges["{a}"]] == [
        ((5, 10),), ((0, 5),), ((10, 20),)]


def test_determinize_prop():
    p2 = prop_algebra(2)
    m = Sfa(p2, ("a", "b", "c"), "a", ("b", "c"), (
        ("a", Lit(0, True), "b"),
        ("a", Lit(1, True), "c"),
    ))
    det = determinize(m)
    assert classify(det).deterministic
    for v in p2.letters():
        assert accepts(det, (v,)) == accepts(m, (v,))


def test_minimize_collapses_equivalent_states():
    # b and c are indistinguishable
    m = Sfa(INTERVAL_NAT, ("a", "b", "c"), "a", ("b", "c"), (
        ("a", Interval(0, 50), "b"),
        ("a", Interval(50, INF), "c"),
        ("b", TOP, "b"),
        ("c", TOP, "c"),
    ))
    small = minimize(m, "neat")
    assert len(small.states) == 2
    assert equiv(small, m) is True


def test_minimize_idempotent_and_canonical():
    rng = random.Random(5)
    for _ in range(25):
        m = random_sfa(rng, max_states=5)
        assert identical(minimize(m, "neat"), m)
        variant = rename_and_rebracket(rng, m)
        assert identical(minimize(variant, "neat"), m)


def test_minimize_normalized_form():
    rng = random.Random(6)
    m = random_sfa(rng, max_states=4)
    norm = minimize(m, "normalized")
    assert classify(norm).normalized
    assert equiv(norm, m) is True


def test_is_empty():
    assert is_empty(Sfa(INTERVAL_NAT, ("a",), "a", (), (("a", TOP, "a"),)))
    assert not is_empty(one_letter_machine(0, 10))
    # accepting state unreachable through satisfiable predicates
    m = Sfa(INTERVAL_NAT, ("a", "b"), "a", ("b",), (
        ("a", Interval(5, 5), "b"),
    ))
    assert is_empty(m)


def test_includes_and_witness():
    small = one_letter_machine(10, 20)
    big = one_letter_machine(0, 100)
    assert includes(small, big, "subset") is True
    witness = includes(big, small, "subset")
    assert witness == (0,)
    assert accepts(big, witness) and not accepts(small, witness)


def test_equiv_witness_is_shortest():
    m1 = one_letter_machine(0, 100)
    m2 = complete_sfa(Sfa(INTERVAL_NAT, ("s", "t"), "s", ("t",), (
        ("s", Or(Interval(0, 100), Interval(300, 400)), "t"),
    )))
    witness = includes(m1, m2, "equiv")
    assert witness == (300,)


def test_equiv_witness_is_shortest_on_either_side():
    # L(m1)\L(m2) holds only words of length >= 3, L(m2)\L(m1) the
    # one-letter words: the shortest witness comes from the second side
    at_least_3 = Sfa(INTERVAL_NAT, ("l0", "l1", "l2", "l3"), "l0", ("l3",), (
        ("l0", TOP, "l1"), ("l1", TOP, "l2"), ("l2", TOP, "l3"),
        ("l3", TOP, "l3"),
    ))
    exactly_1 = complete_sfa(Sfa(INTERVAL_NAT, ("e0", "e1"), "e0", ("e1",), (
        ("e0", TOP, "e1"),
    )))
    assert includes(at_least_3, exactly_1, "equiv") == (0,)
    assert includes(exactly_1, at_least_3, "equiv") == (0,)


def test_minimize_names_states_in_dfs_preorder():
    # ascending-letter depth-first order: a, then b (on 0) and its
    # successor d, and only then c (on 10)
    m = Sfa(INTERVAL_NAT, ("a", "b", "c", "d"), "a", ("d",), (
        ("a", Interval(0, 10), "b"), ("a", Interval(10, INF), "c"),
        ("b", TOP, "d"), ("c", TOP, "c"), ("d", TOP, "d"),
    ))
    small = minimize(m, "neat")
    assert small.accepting == {"s2"}
    assert small.transitions == (
        ("s0", Interval(0, 10), "s1"), ("s0", Interval(10, INF), "s3"),
        ("s1", Interval(0, INF), "s2"), ("s2", Interval(0, INF), "s2"),
        ("s3", Interval(0, INF), "s3"),
    )


def test_minimize_long_chain():
    # a chain deeper than the interpreter's recursion limit.  Moore
    # refinement needs one round per state here; over integer rows the
    # 1500 rounds take ~1.5 s on a 2-vCPU KVM guest, so the bound leaves
    # more than 2x headroom
    n = 1500
    names = ["c%d" % i for i in range(n)]
    m = Sfa(INTERVAL_NAT, names, "c0", (names[-1],),
            [(names[i], TOP, names[min(i + 1, n - 1)]) for i in range(n)])
    start = time.perf_counter()
    small = minimize(m, "neat")
    assert time.perf_counter() - start < 4.0
    assert small.states == tuple("s%d" % i for i in range(n))
    assert small.accepting == {"s%d" % (n - 1)}
    assert accepts(small, (0,) * (n - 1))
    assert not accepts(small, (0,) * (n - 2))


def assert_edges_are_denotations(m):
    """m's edge table lists its transitions by state, each with the
    denotation of its guard."""
    rank = {q: i for i, q in enumerate(m.states)}
    by_state = sorted(m.transitions, key=lambda t: rank[t[0]])
    assert [(q, sem, d) for q in m.states for sem, d in m.edges[q]] \
        == [(q, denote(m.algebra, p), d) for q, p, d in by_state]


@given(machine_pairs())
def test_stored_denotations_equal_denote(pair):
    m1, m2 = pair
    det1, det2 = determinize(m1), determinize(m2)
    done1, done2 = complete_sfa(det1), complete_sfa(det2)
    outputs = [product(m1, m2), product(done1, done2, "union"), det1,
               complement(det1), minimize(done1, "neat"),
               minimize(done1, "normalized")]
    if done1 is not det1:
        outputs.append(done1)
    for out in outputs:
        # the edge table is the machine's own data, built with it
        assert "edges" in vars(out)
        assert_edges_are_denotations(out)


def test_minimize_prop_guards_are_aligned_cubes():
    # p0 | p1 holds on valuations 01, 10, 11: the cubes !p0 & p1 and p0,
    # never the overlapping p0 and p1
    p2 = prop_algebra(2)
    m = Sfa(p2, ("a", "b"), "a", ("b",), (
        ("a", Or(Lit(0), Lit(1)), "b"),
        ("a", And(Lit(0, False), Lit(1, False)), "a"),
        ("b", TOP, "b"),
    ))
    neat = minimize(m, "neat")
    assert neat.transitions == (
        ("s0", And(Lit(0, False), Lit(1, False)), "s0"),
        ("s0", And(Lit(0, False), Lit(1, True)), "s1"),
        ("s0", Lit(0, True), "s1"),
        ("s1", TOP, "s1"),
    )
    assert minimize(m, "normalized").transitions[1] == (
        "s0", Or(And(Lit(0, False), Lit(1, True)), Lit(0, True)), "s1")


def rewrite_guard(p):
    """An equivalent guard in other syntax: De Morgan on every And and Or,
    a double negation on every atom."""
    if isinstance(p, And):
        return Not(Or(Not(rewrite_guard(p.left)),
                      Not(rewrite_guard(p.right))))
    if isinstance(p, Or):
        return Not(And(Not(rewrite_guard(p.left)),
                       Not(rewrite_guard(p.right))))
    if isinstance(p, Not):
        return Not(rewrite_guard(p.child))
    return Not(Not(p))


prop_machines = st.sampled_from(
    [alg for alg in ALGEBRAS if not alg.monotonic]).flatmap(machines)


@given(prop_machines)
def test_prop_minimize_neat_is_deterministic_and_complete(m):
    done = complete_sfa(determinize(m))
    flags = classify(minimize(done, "neat"))
    assert flags.deterministic and flags.complete and flags.neat
    for form in ("neat", "normalized"):
        assert equiv(minimize(done, form), done)


@given(prop_machines)
def test_prop_minimize_is_canonical(m):
    # equal output for a renamed machine whose guards are written in
    # other syntax, and a fixed point
    done = complete_sfa(determinize(m))
    ren = {q: "r%d" % i for i, q in enumerate(reversed(done.states))}
    variant = Sfa(done.algebra, [ren[q] for q in done.states],
                  ren[done.initial], [ren[q] for q in done.accepting],
                  [(ren[s], rewrite_guard(p), ren[d])
                   for s, p, d in done.transitions])
    for form in ("neat", "normalized"):
        once = minimize(done, form)
        assert identical(minimize(variant, form), once)
        assert identical(minimize(once, form), once)


def test_ops_against_concrete_walk():
    rng = random.Random(11)
    pool = [100, 200, 300]
    for _ in range(20):
        m1 = random_sfa(rng, max_out=3, endpoint_pool=pool)
        m2 = random_sfa(rng, max_out=3, endpoint_pool=pool)
        inter = product(m1, m2)
        union = product(m1, m2, "union")
        comp = complement(m1)
        letters = [0, 100, 150, 200, 250, 300, INF]
        words = [()] + [(a,) for a in letters] \
            + [(a, b) for a in letters for b in letters]
        for w in words:
            a1, a2 = accepts(m1, w), accepts(m2, w)
            assert accepts(inter, w) == (a1 and a2)
            assert accepts(union, w) == (a1 or a2)
            assert accepts(comp, w) == (not a1)


@pytest.mark.parametrize("alg", [INTERVAL_NAT, INTERVAL_INT])
def test_random_sfa_takes_no_cut_at_inf(alg):
    """A cut at inf in endpoint_pool would make [x,inf), closed at the
    top, overlap [inf,inf); the generator keeps only cuts below inf."""
    for seed in range(50):
        m = random_sfa(random.Random(seed), alg=alg,
                       endpoint_pool=[3, 9, INF])
        flags = classify(m)
        assert flags.deterministic and flags.complete and flags.feasible
        assert {p.hi for _, p, _ in m.transitions} <= {3, 9, INF}
