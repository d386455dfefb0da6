"""The refinement core behind dfa_learn.minimize_dfa and ops.minimize,
checked against reference copies of the dict-keyed versions they
replaced: minimize_dfa on random complete Dfas, and ops.minimize in both
forms (text and edge table) over every algebra family.  Also: the
operations read only the deterministic and complete flags, ops.minimize
builds no Dfa, and one machine's two forms share one refinement."""

import operator
import random

import pytest
from hypothesis import given, strategies as st

from symfa import (
    classify, complement, complete_sfa, determinize, includes, minimize,
    product,
)
from symfa import dfa_learn, sfa
from symfa.query_learn import SfaTeacher
from symfa.algebra import INTERVAL_NAT, Interval, or_all
from symfa.dfa_learn import Dfa, minimize_dfa
from symfa.sfa import Sfa, format_sfa

from conftest import (
    ALGEBRAS, build_four_state_target, build_two_state_target, exact_target,
    machines, random_prop_nfa,
)
from test_ops_concrete import nfa_union


# ---------------------------------------------------------------------------
# Reference copies: Moore refinement over a (state, letter)-keyed table, a
# concrete Dfa for ops.minimize, and guards joined region by region


def ref_minimize_dfa(d):
    reach = [d.initial]
    seen = {d.initial}
    i = 0
    while i < len(reach):
        q = reach[i]
        i += 1
        for a in d.alphabet:
            dst = d.delta[q, a]
            if dst not in seen:
                seen.add(dst)
                reach.append(dst)
    block = {q: (q in d.accepting) for q in reach}
    while True:
        sig = {q: (block[q],) + tuple(block[d.delta[q, a]]
                                      for a in d.alphabet)
               for q in reach}
        ids = {}
        new_block = {}
        for q in reach:
            new_block[q] = ids.setdefault(sig[q], len(ids))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order = []
    placed = set()
    stack = [block[d.initial]]
    while stack:
        b = stack.pop()
        if b in placed:
            continue
        placed.add(b)
        order.append(b)
        for a in reversed(d.alphabet):
            stack.append(block[d.delta[rep[b], a]])
    name = {b: "s%d" % i for i, b in enumerate(order)}
    delta = {}
    for b in order:
        for a in d.alphabet:
            delta[name[b], a] = name[block[d.delta[rep[b], a]]]
    return Dfa(d.algebra, d.alphabet, [name[b] for b in order],
               name[block[d.initial]],
               [name[b] for b in order if rep[b] in d.accepting], delta)


def ref_transition_table(m, letters):
    alg = m.algebra
    return {(q, a): next(dst for sem, dst in row
                         if alg.contains(sem, a))
            for q, row in m.edges.items() for a in letters}


def ref_minimize(m, form):
    flags = classify(m)
    assert flags.deterministic and flags.complete
    alg = m.algebra
    regions = alg.regions([sem for row in m.edges.values()
                           for sem, _ in row])
    letters = [alg.min(r) for r in regions]
    d = ref_minimize_dfa(Dfa(alg, letters, m.states, m.initial, m.accepting,
                             ref_transition_table(m, letters)))
    region_of = dict(zip(letters, regions))
    position = {q: i for i, q in enumerate(d.states)}
    trans = []
    for q in d.states:
        groups = {}
        for a in d.alphabet:
            groups.setdefault(d.delta[q, a], []).append(region_of[a])
        for dst in sorted(groups, key=position.__getitem__):
            sem = alg.union_all(groups[dst])
            pieces = [alg.to_pred(s) for s in alg.pieces(sem)]
            if form == "neat":
                trans.extend((q, p, dst) for p in pieces)
            else:
                trans.append((q, or_all(pieces), dst))
    return Sfa(alg, d.states, d.initial, d.accepting, trans)


# ---------------------------------------------------------------------------
# minimize_dfa


@st.composite
def complete_dfas(draw):
    """Complete Dfas of 1-12 states over 1-5 letters.  Every state but an
    optional island gets random successors; nothing leads to the island,
    and random successors leave further states unreachable.  Acceptance
    is empty, full or random."""
    n = draw(st.integers(1, 12))
    letters = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5,
                            unique=True))
    names = ["q%d" % i for i in range(n)]
    target = st.sampled_from(tuple(names))
    delta = {(q, a): draw(target) for q in names for a in letters}
    if draw(st.booleans()):
        names.append("island")
        delta.update(((("island", a), draw(target)) for a in letters))
    kind = draw(st.sampled_from(["none", "all", "random"]))
    if kind == "none":
        accepting = []
    elif kind == "all":
        accepting = names
    else:
        accepting = draw(st.lists(st.sampled_from(names), unique=True))
    return Dfa(INTERVAL_NAT, letters, names, draw(target), accepting, delta)


@given(complete_dfas())
def test_minimize_dfa_matches_reference(d):
    small = minimize_dfa(d)
    assert small == ref_minimize_dfa(d)
    # an already minimal machine comes back unchanged
    assert minimize_dfa(small) == small == ref_minimize_dfa(small)


def test_minimize_dfa_drops_unreachable_states():
    d = Dfa(INTERVAL_NAT, [0, 5], ["a", "b", "u"], "a", ["b", "u"], {
        ("a", 0): "b", ("a", 5): "a", ("b", 0): "b", ("b", 5): "a",
        ("u", 0): "u", ("u", 5): "a",
    })
    small = minimize_dfa(d)
    assert small == ref_minimize_dfa(d)
    assert small.states == ("s0", "s1")
    assert small.delta == {("s0", 0): "s1", ("s0", 5): "s0",
                           ("s1", 0): "s1", ("s1", 5): "s0"}


# ---------------------------------------------------------------------------
# ops.minimize


def assert_minimize_matches_reference(m):
    for form in ("neat", "normalized"):
        out, ref = minimize(m, form), ref_minimize(m, form)
        assert format_sfa(out) == format_sfa(ref)
        assert out.edges == ref.edges


@given(st.sampled_from(ALGEBRAS).flatmap(machines))
def test_minimize_matches_reference(m):
    assert_minimize_matches_reference(complete_sfa(determinize(m)))


def test_minimize_matches_reference_on_ten_state_targets():
    rng = random.Random(10)
    for _ in range(5):
        a, b = exact_target(rng, 10), exact_target(rng, 10)
        for mode in ("intersect", "union"):
            assert_minimize_matches_reference(product(a, b, mode))
        assert_minimize_matches_reference(
            complete_sfa(determinize(nfa_union(a, b))))
        assert_minimize_matches_reference(a)


def test_minimize_matches_reference_on_prop_nfas():
    rng = random.Random(7)
    for k in (4, 5, 6):
        nfa = random_prop_nfa(rng, k)
        assert_minimize_matches_reference(complete_sfa(determinize(nfa)))


def test_minimize_builds_no_dfa(monkeypatch):
    rng = random.Random(3)
    inputs = [exact_target(rng, 6), build_four_state_target(),
              complete_sfa(determinize(random_prop_nfa(rng, 4)))]
    built = []
    real = Dfa.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(dfa_learn.Dfa, "__init__", counting)
    for m in inputs:
        for form in ("neat", "normalized"):
            minimize(m, form)
    assert built == []


def fresh_copy(m):
    """m's rows in a new machine, which keeps none of m's tables."""
    return Sfa._from_rows(m.algebra, m.states, m.initial, m.accepting,
                          m._rows.items())


def spy_minimize_table(monkeypatch):
    calls = []
    real = sfa._minimize_table
    monkeypatch.setattr(sfa, "_minimize_table",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("forms", [("neat", "normalized"),
                                   ("normalized", "neat")])
def test_both_forms_share_one_minimal_table(monkeypatch, forms):
    rng = random.Random(28)
    inputs = [exact_target(rng, 6), build_four_state_target()]
    for n in (4, 6):
        a, b = exact_target(rng, n), exact_target(rng, n)
        inputs += [product(a, b, "union"),
                   complete_sfa(determinize(nfa_union(a, b)))]
    inputs += [complete_sfa(determinize(random_prop_nfa(rng, k)))
               for k in (3, 4, 5, 6)]
    calls = spy_minimize_table(monkeypatch)
    for m in inputs:
        del calls[:]
        outs = [minimize(m, form) for form in forms + forms]
        assert len(calls) == 1
        # a fresh machine on each call, equal to the first of its form
        assert outs[:2] == outs[2:]
        assert not any(map(operator.is_, outs[:2], outs[2:]))
        again = [minimize(fresh_copy(m), form) for form in forms]
        assert len(calls) == 3
        assert list(map(format_sfa, outs[:2])) == list(map(format_sfa, again))


def test_minimize_errors_read_no_table(monkeypatch):
    rng = random.Random(28)
    nfa = nfa_union(exact_target(rng, 4), exact_target(rng, 4))
    gapped = Sfa(INTERVAL_NAT, ["a"], "a", ["a"],
                 [("a", Interval(0, 5), "a")])
    done = exact_target(rng, 4)
    calls = spy_minimize_table(monkeypatch)
    assert not classify(nfa).deterministic
    assert classify(gapped).deterministic and not classify(gapped).complete
    for m in (nfa, gapped, done):
        with pytest.raises(ValueError, match="^form must be neat or "
                                             "normalized$"):
            minimize(m, "tidy")
    for m in (nfa, gapped):
        for form in ("neat", "normalized"):
            with pytest.raises(ValueError, match="^minimize needs a "
                               "deterministic complete input$"):
                minimize(m, form)
    assert calls == []


# ---------------------------------------------------------------------------
# Flags


def test_operations_read_only_the_partition_flags(monkeypatch):
    """minimize, includes, union product, complement and SfaTeacher check
    determinism and completeness only: no guard is tested for being
    basic.  classify still reports every flag."""
    calls = []
    real = sfa._is_basic
    monkeypatch.setattr(sfa, "_is_basic",
                        lambda pred: calls.append(pred) or real(pred))
    a, b = build_two_state_target(), build_four_state_target()
    minimize(a)
    includes(a, b)
    includes(a, b, "equiv")
    product(a, b, "union")
    complement(a)
    SfaTeacher(b)
    assert calls == []
    flags = classify(a)
    assert flags.deterministic and flags.complete and flags.neat
    assert calls

