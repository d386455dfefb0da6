"""Prop denotations are canonical interval lists over the bit-string
letters.  Denotation equality (Sfa keys, pred_equiv) relies on canonical
form, so every result of the set operations is checked for it, and for
its members against a frozenset-of-valuations reference evaluator that
shares no code with the algebra."""

from hypothesis import given, strategies as st

from symfa import And, BOT, Lit, Not, Or, SUP, TOP
from symfa.algebra import denote, prop_algebra

from conftest import guards

PROPS = [prop_algebra(k) for k in range(1, 6)]


def reference(k, psi):
    """The valuations, as ints, that satisfy psi: bit k-1-i of a valuation
    is the value of p<i>."""
    every = frozenset(range(2 ** k))
    if psi == TOP or psi == BOT:
        return every if psi == TOP else frozenset()
    if isinstance(psi, Lit):
        bit = 1 << (k - 1 - psi.index)
        return frozenset(v for v in every if bool(v & bit) == psi.positive)
    if isinstance(psi, Not):
        return every - reference(k, psi.child)
    left, right = reference(k, psi.left), reference(k, psi.right)
    return left & right if isinstance(psi, And) else left | right


def members(k, sem):
    """The valuations of a canonical list, read from its endpoints."""
    return frozenset(v for lo, hi in sem for v in range(
        int(lo, 2), 2 ** k if hi is SUP else int(hi, 2)))


def assert_canonical(alg, sem):
    """Sorted, disjoint and non-adjacent pieces with lo < hi, whose
    endpoints are letters (hi may be SUP)."""
    letters = set(alg.letters())
    assert type(sem) is tuple
    for lo, hi in sem:
        assert lo in letters and (hi is SUP or hi in letters)
        assert lo < hi
    for (_, hi), (lo, _) in zip(sem, sem[1:]):
        assert hi is not SUP and hi < lo


def cases(min_size, max_size):
    return st.sampled_from(PROPS).flatmap(lambda alg: st.tuples(
        st.just(alg), st.lists(guards(alg), min_size=min_size,
                               max_size=max_size)))


@given(cases(1, 4))
def test_operations_give_canonical_lists(case):
    alg, preds = case
    k, every = alg.k, frozenset(range(2 ** alg.k))
    sems = [denote(alg, p) for p in preds]
    refs = [reference(k, p) for p in preds]
    results = [(s, r) for s, r in zip(sems, refs)]
    results += [(alg.complement(s), every - r) for s, r in zip(sems, refs)]
    results.append((alg.intersect(sems[0], sems[-1]), refs[0] & refs[-1]))
    results.append((alg.union_all(sems), frozenset().union(*refs)))
    for neg, sem in alg.minterms(sems).items():
        region = every
        for r, n in zip(refs, neg):
            region = region - r if n else region & r
        results.append((sem, region))
    for sem, ref in results:
        assert_canonical(alg, sem)
        assert members(k, sem) == ref
        assert denote(alg, alg.to_pred(sem)) == sem


@given(cases(1, 1))
def test_pieces_are_aligned_cubes_that_tile_the_set(case):
    alg, (psi,) = case
    sem = denote(alg, psi)
    pieces = alg.pieces(sem)
    cubes = []
    for piece in pieces:
        assert len(piece) == 1
        assert_canonical(alg, piece)
        cube = members(alg.k, piece)
        size, least = len(cube), min(cube)
        assert size & (size - 1) == 0 and least % size == 0
        cubes.append(cube)
    assert sum(map(len, cubes)) == len(members(alg.k, sem))
    assert frozenset().union(*cubes) == members(alg.k, sem)
    assert [min(c) for c in cubes] == sorted(min(c) for c in cubes)
