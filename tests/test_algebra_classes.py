"""The algebra interface against brute-force membership: every method of
IntervalAlgebra and PropAlgebra, checked letter by letter over
sample_letters(alg), which hits every region that the guards of
guards(alg) can tell apart (every valuation, for prop).  Membership comes
from a reference evaluator of the predicate trees, never from denote."""

import pytest
from hypothesis import given, strategies as st

from symfa import And, BOT, INF, Interval, Lit, Not, Sfa, TOP
from symfa.algebra import (
    GAP, INTERVAL_INT, INTERVAL_NAT, SUP, Algebra, IntervalAlgebra,
    PropAlgebra, denote, format_letter, prop_algebra,
)
from symfa.ops import equiv
from symfa.sfa_learn import char_sfa, infer_sfa

from conftest import ALGEBRAS, guards, sample_letters


def holds(psi, d):
    """Reference membership: [lo,hi) holds lo <= d < hi, closed at the top
    when hi is inf; p<i> holds where bit i of the letter is 1."""
    if psi == TOP or psi == BOT:
        return psi == TOP
    if isinstance(psi, Interval):
        return psi.lo <= d and (d < psi.hi or psi.hi == INF)
    if isinstance(psi, Lit):
        return (d[psi.index] == "1") == psi.positive
    if isinstance(psi, Not):
        return not holds(psi.child, d)
    if isinstance(psi, And):
        return holds(psi.left, d) and holds(psi.right, d)
    return holds(psi.left, d) or holds(psi.right, d)


def truth(alg, psi):
    return {d for d in sample_letters(alg) if holds(psi, d)}


def members(alg, sem):
    return {d for d in sample_letters(alg) if alg.contains(sem, d)}


def cases(min_size=1, max_size=4):
    """An algebra and a list of guards over it."""
    return st.sampled_from(ALGEBRAS).flatmap(lambda alg: st.tuples(
        st.just(alg), st.lists(guards(alg), min_size=min_size,
                               max_size=max_size)))


def least(letters):
    return min(letters) if letters else None


def disjoint(sets):
    return sum(map(len, sets)) == len(set().union(*sets))


@given(cases(2, 4))
def test_boolean_operations_match_membership(case):
    alg, preds = case
    every = set(sample_letters(alg))
    sems = [denote(alg, p) for p in preds]
    for p, s in zip(preds, sems):
        assert members(alg, s) == truth(alg, p)
        assert alg.min(s) == least(truth(alg, p))
        assert members(alg, alg.complement(s)) == every - truth(alg, p)
    a, b = sems[:2]
    assert (members(alg, alg.intersect(a, b))
            == truth(alg, preds[0]) & truth(alg, preds[1]))
    assert (members(alg, alg.union_all(sems))
            == set().union(*(truth(alg, p) for p in preds)))
    assert members(alg, alg.full()) == every
    assert members(alg, alg.empty) == set()
    assert alg.min(alg.empty) is None


@given(cases(0, 4))
def test_regions_partition_the_domain(case):
    alg, preds = case
    sems = [denote(alg, p) for p in preds]
    regions = [members(alg, r) for r in alg.regions(sems)]
    assert all(regions)
    assert disjoint(regions)
    assert set().union(*regions) == set(sample_letters(alg))
    for r in regions:
        for p in preds:
            assert r <= truth(alg, p) or not r & truth(alg, p)
    firsts = [alg.min(r) for r in alg.regions(sems)]
    assert firsts == [min(r) for r in regions]
    assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)


@given(cases(1, 1))
def test_pieces_split_the_set(case):
    alg, (psi,) = case
    pieces = alg.pieces(denote(alg, psi))
    sets = [members(alg, s) for s in pieces]
    assert all(sets)
    assert disjoint(sets)
    assert set().union(*sets) == truth(alg, psi)
    assert [min(s) for s in sets] == sorted(min(s) for s in sets)
    for s in pieces:
        assert truth(alg, alg.to_pred(s)) == members(alg, s)


@given(cases(0, 4))
def test_partition_flags_match_a_scan(case):
    """sweep lays a state's row out in letter order: its own pieces sorted
    by lower end, and the stretches that none covers as canonical GAP
    pieces, which hold exactly the letters outside the union."""
    alg, preds = case
    sets = [truth(alg, p) for p in preds]
    sems = [denote(alg, p) for p in preds]
    pieces, overlap = alg.sweep([(s, i) for i, s in enumerate(sems)])
    gaps = [(lo, hi) for lo, hi, dst in pieces if dst is GAP]
    flags = (not overlap, not gaps)
    assert flags == (disjoint(sets),
                     set().union(*sets) == set(sample_letters(alg)))
    los = [lo for lo, _, _ in pieces]
    assert los == sorted(los)
    assert ({piece for piece in pieces if piece[2] is not GAP}
            == {(lo, hi, i) for i, s in enumerate(sems) for lo, hi in s})
    assert len(pieces) - len(gaps) == sum(map(len, sems))
    # canonical: non-empty, ascending, never adjacent
    assert all(lo < hi for lo, hi in gaps)
    assert all(hi < lo for (_, hi), (lo, _) in zip(gaps, gaps[1:]))
    assert (members(alg, tuple(gaps))
            == set(sample_letters(alg)) - set().union(*sets))
    if not overlap:
        # the pieces and the GAP stretches tile the domain, in order
        ends = [alg.dmin] + [hi for _, hi, _ in pieces]
        assert los == ends[:-1] and ends[-1] is SUP
        assert all(len([1 for lo, hi, _ in pieces
                        if alg.contains(((lo, hi),), d)]) == 1
                   for d in sample_letters(alg))


def region_row(alg, preds, owners):
    """The edges of a deterministic complete state: the regions of preds,
    each owned by one of owners, joined per owner with runs."""
    regions = alg.regions([denote(alg, p) for p in preds])
    letters = [alg.min(r) for r in regions]
    row_owners = [owners[i % len(owners)] for i in range(len(regions))]
    joined = alg.runs(zip(letters, row_owners))
    for o, sem in joined.items():
        assert members(alg, sem) == set().union(*(
            members(alg, r) for r, ro in zip(regions, row_owners) if ro == o))
    return [(sem, o) for o, sem in joined.items()]


@given(cases(0, 4), st.lists(st.sampled_from("xyz"), min_size=1))
def test_row_successors_match_a_scan(case, owners):
    alg, preds = case
    row = region_row(alg, preds, owners)
    letters = sorted(sample_letters(alg))
    expected = [next(o for s, o in row if d in members(alg, s))
                for d in letters]
    assert alg.row_successors(alg.sweep(row)[0], letters) == expected


@given(st.sampled_from(ALGEBRAS).flatmap(lambda alg: st.tuples(
    st.just(alg), st.lists(guards(alg), max_size=3),
    st.lists(guards(alg), max_size=3))),
    st.lists(st.sampled_from("xyz"), min_size=1), st.booleans())
def test_meet_matches_a_pairwise_scan(case, owners, gapped):
    alg, preds1, preds2 = case
    # with gapped, the first edge of each row goes, so rows need not cover;
    # what a row leaves uncovered meets the other row as GAP
    rows = [region_row(alg, preds, owners)[gapped:]
            for preds in (preds1, preds2)]
    every = set(sample_letters(alg))
    sides = [[(members(alg, s), d) for s, d in row]
             + [(every - set().union(*(members(alg, s) for s, _ in row)),
                 GAP)] for row in rows]
    common = {(d1, d2): c1 & c2 for c1, d1 in sides[0] for c2, d2 in sides[1]}
    steps = alg.meet(alg.sweep(rows[0])[0], alg.sweep(rows[1])[0])
    # a step per non-empty intersection, or per piece of one over intervals
    assert [a for a, _ in steps] == sorted(a for a, _ in steps)
    assert all(a in common[pair] for a, pair in steps)
    first = {}
    for a, pair in steps:
        first.setdefault(pair, a)
    assert first == {pair: min(c) for pair, c in common.items() if c}


@given(cases(1, 3), st.booleans())
def test_guards_and_gap_guards_denote_their_sets(case, neat):
    alg, preds = case
    sem = alg.union_all([denote(alg, p) for p in preds])
    # minimize's guards: one per piece with neat, else one for the set
    sems = alg.pieces(sem) if neat else [sem]
    guards = [(alg.to_pred(s), s) for s in sems]
    # a gap guard is None or a builder, called here
    gaps = [(alg.to_pred(s) if p is None else p(), s) for p, s in
            alg.gap_guards(lambda: preds, alg.complement(sem))]
    for pairs in (guards, gaps):
        sets = [members(alg, s) for _, s in pairs]
        assert disjoint(sets)
        for guard, s in pairs:
            assert truth(alg, guard) == members(alg, s)
    assert set().union(*(members(alg, s) for s in sems)) \
        == members(alg, sem)


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_letters_check_and_parse(alg):
    for d in sample_letters(alg):
        assert alg.check_letter(d) == d
        assert alg.parse_letter(format_letter(d)) == d
    other = Lit(0) if alg.monotonic else Interval(0, 1)
    with pytest.raises(ValueError):
        alg.parse_atom(other)
    with pytest.raises(ValueError):
        alg.denote_atom(other)


def test_constructors_build_the_family_class():
    assert type(INTERVAL_NAT) is IntervalAlgebra
    assert type(INTERVAL_INT) is IntervalAlgebra
    assert type(prop_algebra(3)) is PropAlgebra
    assert Algebra("interval-nat") == INTERVAL_NAT
    assert hash(Algebra("prop", 3)) == hash(prop_algebra(3))
    assert Algebra("prop", 3) != Algebra("prop", 2) != INTERVAL_NAT
    assert (INTERVAL_NAT.kind, INTERVAL_NAT.k) == ("interval-nat", 0)
    assert (prop_algebra(3).kind, prop_algebra(3).k) == ("prop", 3)
    assert str(INTERVAL_INT) == "interval-int"
    assert str(prop_algebra(3)) == "prop 3"
    for bad in (("bogus",), ("prop", 0), ("prop", 17), ("interval-nat", 2)):
        with pytest.raises(ValueError):
            Algebra(*bad)


def test_inf_is_a_letter_of_the_round_trip():
    """inf is the greatest letter of interval-nat: a target that sends the
    finite letters from 5 up and the letter inf to different states has a
    characteristic sample that uses inf, and infer_sfa learns it back."""
    target = Sfa(INTERVAL_NAT, ("s0", "s1", "s2"), "s0", ("s1",), (
        ("s0", Interval(0, 5), "s0"),
        ("s0", And(Interval(5, INF), Not(Interval(INF, INF))), "s1"),
        ("s0", Interval(INF, INF), "s2"),
        ("s1", Interval(0, INF), "s2"),
        ("s2", Interval(0, INF), "s2"),
    ))
    sample = char_sfa(target)
    assert any(INF in w for w in sample)
    assert sample[(INF,)] == 0 and sample[(5,)] == 1
    assert equiv(infer_sfa(INTERVAL_NAT, sample), target)

