"""Guard trees that the operations build are built when read: determinize's
minterms, product's conjunctions and complete_sfa's prop gap guard.  And
the algebras' minterms, which determinize reads instead of testing every
region against every guard."""

import pytest
from hypothesis import given, strategies as st

from symfa import (
    And, BOT, INF, Interval, Lit, NEG_INF, Not, Or, Sfa, TOP, complete_sfa,
    format_sfa, ops,
)
from symfa.algebra import (
    INTERVAL_INT, INTERVAL_NAT, SUP, IntervalAlgebra, PropAlgebra, denote,
    prop_algebra,
)

from conftest import ALGEBRAS, guards

NFA = Sfa(INTERVAL_NAT, "abc", "a", "c", [
    ("a", Interval(0, 10), "b"), ("a", Interval(5, INF), "c"),
    ("b", Or(Interval(0, 3), Interval(7, INF)), "c"),
    ("b", Interval(0, 7), "b"), ("c", TOP, "c")])
PROP_NFA = Sfa(prop_algebra(2), "abc", "a", "c", [
    ("a", Lit(0), "b"), ("a", Lit(1), "c"), ("b", Not(Lit(0)), "a"),
    ("b", Lit(1), "c"), ("c", TOP, "c")])

# format_sfa of the outputs, as printed when every guard was built eagerly
DETERMINIZED = """\
algebra interval-nat
states {a} {b,c} {b} {c}
initial {a}
accepting {b,c} {c}
trans {a} {b,c} [0,10) & [5,inf)
trans {a} {b} [0,10) & ![5,inf)
trans {a} {c} ![0,10) & [5,inf)
trans {b,c} {b,c} ([0,3) | [7,inf)) & [0,7) & true
trans {b,c} {c} ([0,3) | [7,inf)) & ![0,7) & true
trans {b,c} {b,c} !([0,3) | [7,inf)) & [0,7) & true
trans {b} {b,c} ([0,3) | [7,inf)) & [0,7)
trans {b} {c} ([0,3) | [7,inf)) & ![0,7)
trans {b} {b} !([0,3) | [7,inf)) & [0,7)
trans {c} {c} true
"""
SQUARED_LOOP = ("trans ({b},{b}) ({b},{b}) !([0,3) | [7,inf)) & [0,7)"
                " & !([0,3) | [7,inf)) & [0,7)")
PROP_COMPLETED = """\
algebra prop 2
states {a} {b,c} {b} {c} {a,c} sink
initial {a}
accepting {b,c} {c} {a,c}
trans {a} {b,c} p0 & p1
trans {a} {b} p0 & !p1
trans {a} {c} !p0 & p1
trans {b,c} {a,c} !p0 & p1 & true
trans {b,c} {a,c} !p0 & !p1 & true
trans {b,c} {c} !!p0 & p1 & true
trans {b,c} {c} !!p0 & !p1 & true
trans {b} {a,c} !p0 & p1
trans {b} {a} !p0 & !p1
trans {b} {c} !!p0 & p1
trans {c} {c} true
trans {a,c} {b,c} p0 & p1 & true
trans {a,c} {b,c} p0 & !p1 & true
trans {a,c} {c} !p0 & p1 & true
trans {a,c} {c} !p0 & !p1 & true
trans {a} sink !(p0 & p1 | p0 & !p1 | !p0 & p1)
trans {b} sink !(!p0 & p1 | !p0 & !p1 | !!p0 & p1)
trans sink sink true
"""


@pytest.fixture
def and_all_calls(monkeypatch):
    """The calls of the and_all that builds determinize's minterms."""
    calls = []

    def counted(preds):
        calls.append(preds)
        return real(preds)

    real = ops.and_all
    monkeypatch.setattr(ops, "and_all", counted)
    return calls


def test_determinize_minimize_includes_build_no_minterm(and_all_calls):
    det = ops.determinize(NFA)
    small = ops.minimize(det)
    assert ops.includes(det, small, "equiv") is True
    square = ops.product(det, det)
    assert ops.includes(square, small, "equiv") is True
    assert and_all_calls == []
    assert format_sfa(det) == DETERMINIZED
    assert len(and_all_calls) == len(det.transitions) == 10
    # the product's conjunctions read det's trees only when they are built
    assert SQUARED_LOOP in format_sfa(square).splitlines()


def test_prop_complete_builds_no_minterm(and_all_calls):
    done = complete_sfa(ops.determinize(PROP_NFA))
    assert ops.includes(done, ops.minimize(done), "equiv") is True
    assert and_all_calls == []
    assert format_sfa(done) == PROP_COMPLETED
    assert and_all_calls


@pytest.mark.parametrize("m", [NFA, PROP_NFA], ids=["interval", "prop"])
def test_determinize_of_determinize_builds_no_minterm(m, and_all_calls):
    """determinize groups guards by denotation, so it reads its input's
    trees only when its own minterms are built."""
    det = ops.determinize(m)
    again = ops.determinize(det)
    assert and_all_calls == []
    text = format_sfa(again)
    assert and_all_calls
    built = Sfa(det.algebra, det.states, det.initial, det.accepting,
                det.transitions)
    assert text == format_sfa(ops.determinize(built))


@pytest.mark.parametrize("m", [NFA, PROP_NFA], ids=["interval", "prop"])
def test_determinize_calls_no_contains(m, monkeypatch):
    def refuse(self, a, d):
        raise AssertionError("contains called")

    for cls in (IntervalAlgebra, PropAlgebra):
        monkeypatch.setattr(cls, "contains", refuse)
    det = ops.determinize(m)
    monkeypatch.undo()
    assert ops.includes(det, ops.determinize(m), "equiv") is True


def brute_minterms(alg, sems):
    """Negated signature -> union of the parts carrying it, each part
    tested at its least letter: the regions over intervals, and over prop
    the single valuations, which share no code with minterms."""
    if alg.monotonic:
        parts = alg.regions(sems)
    else:
        letters = alg.letters()
        parts = [((a, b),) for a, b in zip(letters, letters[1:] + [SUP])]
    groups = {}
    for part in parts:
        a = alg.min(part)
        groups.setdefault(tuple(not alg.contains(s, a) for s in sems),
                          []).append(part)
    return {neg: alg.union_all(ps) for neg, ps in groups.items()}


@given(st.sampled_from(ALGEBRAS).flatmap(lambda alg: st.tuples(
    st.just(alg), st.lists(guards(alg), max_size=4))))
def test_minterms_match_a_brute_force_grouping(case):
    alg, preds = case
    sems = [denote(alg, p) for p in preds]
    assert alg.minterms(sems) == brute_minterms(alg, sems)


TO_INF = And(Interval(1, INF), Not(Interval(INF, INF)))  # [1, INF)


@pytest.mark.parametrize("alg, preds", [
    (INTERVAL_NAT, []),
    (INTERVAL_INT, []),
    (prop_algebra(2), []),
    (INTERVAL_NAT, [BOT, Interval(3, 1)]),
    (prop_algebra(2), [BOT, And(Lit(0), Lit(0, False))]),
    (INTERVAL_NAT, [Interval(2, INF), TO_INF, Interval(INF, INF)]),
    (INTERVAL_INT, [Interval(NEG_INF, 0), Not(Interval(-2, 3)), TO_INF]),
    (INTERVAL_INT, [Interval(NEG_INF, NEG_INF), Interval(NEG_INF, INF)]),
], ids=["nat-none", "int-none", "prop-none", "nat-unsat", "prop-unsat",
        "inf-and-sup", "int-neg-inf", "int-whole"])
def test_minterms_edge_cases(alg, preds):
    sems = [denote(alg, p) for p in preds]
    minterms = alg.minterms(sems)
    assert minterms == brute_minterms(alg, sems)
    assert alg.union_all(minterms.values()) == alg.full()
    if not preds:
        assert minterms == {(): alg.full()}
    if alg == INTERVAL_NAT and len(preds) == 3:
        # TO_INF holds the finite letters from 1, [2,inf) inf as well
        assert minterms == {(True, True, True): ((0, 1),),
                            (True, False, True): ((1, 2),),
                            (False, False, True): ((2, INF),),
                            (False, True, False): ((INF, SUP),)}
