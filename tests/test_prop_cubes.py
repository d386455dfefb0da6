"""PropAlgebra's cube walk and its letter list.  pieces and to_pred read
one tiling walk that formats each cube boundary once; they must give
exactly what the per-cube definition below gives.  letters() copies one
cached tuple per k, which the benchmark clears before every job."""

import random

import pytest

from symfa import SUP, Lit
from symfa.algebra import (
    _prop_letters, _span, and_all, format_pred, or_all, prop_algebra,
)


def reference_cubes(k, a):
    """(least valuation, size) of each cube, ascending: every piece tiled
    greedily by the largest aligned power of two that fits."""
    top = 2 ** k
    for lo, hi in a:
        v, end = int(lo, 2), top if hi is SUP else int(hi, 2)
        while v < end:
            size = v & -v or top
            while v + size > end:
                size //= 2
            yield v, size
            v += size


def reference_pieces(k, a):
    """Both bounds of every cube formatted by _span."""
    return [(_span(k, v, size),) for v, size in reference_cubes(k, a)]


def reference_to_pred(k, a):
    return or_all(and_all(Lit(j, bool(v >> (k - 1 - j) & 1))
                          for j in range(k + 1 - size.bit_length()))
                  for v, size in reference_cubes(k, a))


def random_denotation(rng, k):
    """A canonical list with pieces between sorted distinct cuts in
    0..2^k, so no two pieces touch."""
    top = 2 ** k
    cuts = sorted(rng.sample(range(top + 1), 2 * rng.randint(
        1, min(8, (top + 1) // 2))))
    fmt = "0%db" % k
    return tuple((format(lo, fmt), SUP if hi == top else format(hi, fmt))
                 for lo, hi in zip(cuts[::2], cuts[1::2]))


def edge_denotations(alg):
    k, zeros, ones = alg.k, alg.dmin, alg.dmax
    out = [alg.empty, alg.full(), ((zeros, SUP),), ((ones, SUP),)]
    if k > 1:
        below_ones = format(2 ** k - 2, "0%db" % k)
        after_zeros = format(1, "0%db" % k)
        out += [((zeros, after_zeros),),
                ((below_ones, SUP),),
                ((zeros, after_zeros), (below_ones, SUP)),
                ((after_zeros, SUP),)]
    return out


def denotations(k):
    alg, rng = prop_algebra(k), random.Random(k)
    return edge_denotations(alg) + [random_denotation(rng, k)
                                    for _ in range(40)]


@pytest.mark.parametrize("k", range(1, 13))
def test_pieces_and_to_pred_match_the_per_cube_definition(k):
    alg = prop_algebra(k)
    for sem in denotations(k):
        assert alg.pieces(sem) == reference_pieces(k, sem)
        assert (format_pred(alg.to_pred(sem))
                == format_pred(reference_to_pred(k, sem)))


def test_piece_bounds_that_end_a_piece_are_its_own_letters():
    alg = prop_algebra(4)
    sem = (("0001", "0111"), ("1010", SUP))
    pieces = alg.pieces(sem)
    assert pieces[0][0][0] is sem[0][0] and pieces[-1][0][1] is SUP
    assert [p for (p,) in pieces] == [
        ("0001", "0010"), ("0010", "0100"), ("0100", "0110"),
        ("0110", "0111"), ("1010", "1100"), ("1100", SUP)]
    # an inner bound is one string, shared by the cubes on either side
    assert all(a[0][1] is b[0][0] for a, b in zip(pieces, pieces[1:])
               if a[0][1] == b[0][0])


def test_letters_is_a_fresh_list_per_call():
    for k in (1, 3, 10):
        alg = prop_algebra(k)
        first = alg.letters()
        assert first == [format(v, "0%db" % k) for v in range(2 ** k)]
        first.pop()
        first[0] = "x"
        assert alg.letters() == list(_prop_letters(k))
        assert len(alg.letters()) == 2 ** k
        assert alg.letters() is not alg.letters()


def test_the_letter_cache_is_a_module_function_cache():
    # the benchmark clears every functools cache on a symfa module's
    # function before each job: it finds them by these attributes
    assert _prop_letters.__module__ == "symfa.algebra"
    _prop_letters.cache_clear()
    prop_algebra(6).letters()
    prop_algebra(6).letters()
    info = _prop_letters.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    _prop_letters.cache_clear()
    assert _prop_letters.cache_info().currsize == 0
