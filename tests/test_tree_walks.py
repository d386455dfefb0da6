"""One walk for predicate trees: denote, format_pred, pred_size, the neat
check, tree equality and repr all read algebra._nodes, a preorder list
built on an explicit stack.  Each is checked here against the recursive
code it replaced, kept below as a reference, on hypothesis trees over
every algebra, Not-heavy ones included; repr against the dataclass text.
The interval intersection sweep is checked against the nested loop it
replaced."""

import random
from dataclasses import make_dataclass

from hypothesis import given, strategies as st

from symfa import (
    And, Bot, Interval, Lit, Not, Or, Top, denote, format_pred, pred_size,
)
from symfa.algebra import INF, SUP, format_endpoint
from symfa.generate import random_sfa
from symfa.sfa import _is_basic, classify
from symfa.sfa_learn import char_sfa

from conftest import ALGEBRAS, guards


# ---------------------------------------------------------------------------
# References: the recursive walks, as they were


def ref_fmt(psi, prec=0):
    # precedence: | is 1, & is 2, ! is 3, atoms are 4
    if isinstance(psi, Top):
        return "true"
    if isinstance(psi, Bot):
        return "false"
    if isinstance(psi, Interval):
        return "[%s,%s)" % (format_endpoint(psi.lo), format_endpoint(psi.hi))
    if isinstance(psi, Lit):
        return ("p%d" if psi.positive else "!p%d") % psi.index
    if isinstance(psi, Not):
        return "!" + ref_fmt(psi.child, 3)
    if isinstance(psi, And):
        text = "%s & %s" % (ref_fmt(psi.left, 2), ref_fmt(psi.right, 2))
        return "(%s)" % text if prec > 2 else text
    text = "%s | %s" % (ref_fmt(psi.left, 1), ref_fmt(psi.right, 1))
    return "(%s)" % text if prec > 1 else text


def ref_size(psi):
    if isinstance(psi, (Top, Bot, Interval, Lit)):
        return 1
    if isinstance(psi, Not):
        return 1 + ref_size(psi.child)
    return 1 + ref_size(psi.left) + ref_size(psi.right)


def ref_basic(pred):
    if isinstance(pred, (Interval, Lit, Top)):
        return True
    if isinstance(pred, Not):
        return isinstance(pred.child, (Interval, Lit))
    if isinstance(pred, And):
        return ref_basic(pred.left) and ref_basic(pred.right)
    return False


def ref_denote(alg, psi):
    if isinstance(psi, (Interval, Lit)):
        return alg.denote_atom(psi)
    if isinstance(psi, Top):
        return alg.full()
    if isinstance(psi, Bot):
        return alg.empty
    if isinstance(psi, Not):
        return alg.complement(ref_denote(alg, psi.child))
    left, right = ref_denote(alg, psi.left), ref_denote(alg, psi.right)
    if isinstance(psi, And):
        return alg.intersect(left, right)
    return alg.union_all([left, right])


# The node classes as frozen dataclasses of the same names with generated
# (recursive) equality, hashing and repr, which trees are compared by
# after ref_tree.
RNot = make_dataclass("Not", ["child"], frozen=True)
RAnd = make_dataclass("And", ["left", "right"], frozen=True)
ROr = make_dataclass("Or", ["left", "right"], frozen=True)


def ref_tree(psi):
    """psi with its inner nodes rebuilt as the reference dataclasses; the
    atoms stay, as their equality is the generated one."""
    if isinstance(psi, Not):
        return RNot(ref_tree(psi.child))
    if isinstance(psi, (And, Or)):
        cls = RAnd if isinstance(psi, And) else ROr
        return cls(ref_tree(psi.left), ref_tree(psi.right))
    return psi


def copy_tree(psi):
    """An equal tree that shares no inner node with psi."""
    if isinstance(psi, Not):
        return Not(copy_tree(psi.child))
    if isinstance(psi, (And, Or)):
        return type(psi)(copy_tree(psi.left), copy_tree(psi.right))
    return psi


def ref_intersect(alg, a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo = max(lo1, lo2)
            hi = min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return alg.union_all((out,))


# ---------------------------------------------------------------------------
# Trees


def negated(psi, n):
    for _ in range(n):
        psi = Not(psi)
    return psi


def not_heavy(alg):
    """Trees built mostly of negations: chains of up to eight Nots over
    conftest's guards, conjoined and disjoined."""
    chain = st.builds(negated, guards(alg), st.integers(0, 8))
    return st.recursive(chain, lambda sub: (st.builds(Not, sub)
                                            | st.builds(And, sub, sub)
                                            | st.builds(Or, sub, sub)),
                        max_leaves=4)


# built once per algebra, as hypothesis validates each new strategy
TREES = {alg: guards(alg) | not_heavy(alg) for alg in ALGEBRAS}
CASES = st.sampled_from(ALGEBRAS).flatmap(
    lambda alg: st.tuples(st.just(alg), TREES[alg]))
PAIRS = st.sampled_from(ALGEBRAS).flatmap(
    lambda alg: st.tuples(TREES[alg], st.booleans(), TREES[alg])).map(
        lambda case: (case[0], copy_tree(case[0]) if case[1] else case[2]))


@given(CASES)
def test_walks_agree_with_the_recursive_references(case):
    alg, psi = case
    assert format_pred(psi) == ref_fmt(psi)
    assert pred_size(psi) == ref_size(psi)
    assert _is_basic(psi) == ref_basic(psi)
    assert denote(alg, psi) == ref_denote(alg, psi)
    assert repr(psi) == str(psi) == repr(ref_tree(psi))


@given(PAIRS)
def test_equality_is_the_dataclass_equality(pair):
    p, q = pair
    assert (p == q) == (ref_tree(p) == ref_tree(q))
    assert (p != q) == (ref_tree(p) != ref_tree(q))
    if p == q:
        assert hash(p) == hash(q)


def test_equality_tells_shapes_and_atoms_apart():
    a, b = Interval(0, 1), Interval(2, 3)
    assert And(a, b) != Or(a, b) and And(a, b) != And(b, a)
    assert Not(Not(a)) != a and Not(a) != Not(b)
    assert And(a, Or(a, b)) != Or(And(a, a), b)  # same atoms in preorder
    assert Lit(0) == Lit(0, True) != Lit(0, False)
    assert Interval(0, 1) != (Interval, 0, 1) and Top() == Top() != Bot()
    deep = [Interval(0, 1), Interval(0, 1)]
    for _ in range(5000):
        deep = [Not(psi) for psi in deep]
    assert deep[0] == deep[1] and hash(deep[0]) == hash(deep[1])
    assert deep[0] != Not(deep[1])


def test_repr_of_a_deep_tree_is_the_dataclass_text():
    atom = Interval(2, 5)
    text = "Not(child=" * 5000 + "Interval(lo=2, hi=5)" + ")" * 5000
    assert repr(negated(atom, 5000)) == text
    chain = atom
    for i in range(3000):
        chain = Or(Lit(i % 7), chain)
    assert repr(chain) == "".join(
        "Or(left=Lit(index=%d, positive=True), right=" % (i % 7)
        for i in reversed(range(3000))) + repr(atom) + ")" * 3000


def canonical(alg):
    """Canonical interval lists of up to eight pieces: union_all of
    arbitrary pieces, closed at the top or finite-only or neither."""
    ends = st.integers(-3, 40) if alg.dmin != 0 else st.integers(0, 40)
    piece = st.tuples(ends, ends | st.sampled_from([INF, SUP]))
    return st.lists(piece, max_size=8).map(
        lambda ps: alg.union_all([[(max(lo, alg.dmin), hi) for lo, hi in ps
                                   if max(lo, alg.dmin) < hi]]))


@given(st.sampled_from([a for a in ALGEBRAS if a.monotonic]).flatmap(
    lambda alg: st.tuples(st.just(alg), canonical(alg), canonical(alg))))
def test_interval_sweep_matches_the_nested_loop(case):
    alg, a, b = case
    assert alg.intersect(a, b) == ref_intersect(alg, a, b)


# ---------------------------------------------------------------------------
# concretize_sfa reads rows only


def test_char_sfa_builds_no_guard_tree():
    for seed in range(10):
        m = random_sfa(random.Random(seed), max_states=5, max_endpoint=40)
        assert "transitions" not in m.__dict__
        char_sfa(m)
        assert "transitions" not in m.__dict__
        assert classify(m).neat  # still answered when asked
        assert "transitions" in m.__dict__
