"""An Sfa's data are its (src, denotation, dst) rows: parallel transitions
with equal denotations are one transition, equality and hashing read the
rows rather than the guards' syntax, guard trees that no caller gave are
built on the first read of transitions, and every machine survives a
print/parse round trip."""

from hypothesis import given, strategies as st

from symfa import (
    And, Interval, Lit, Not, Or, Sfa, classify, complete_sfa, determinize,
    format_sfa, minimize, parse_sfa, to_neat,
)
from symfa.algebra import INTERVAL_NAT, prop_algebra
from symfa.sfa_learn import infer_sfa

from conftest import ALGEBRAS, build_two_state_target, machines

SPLIT = Or(Interval(0, 3), Interval(3, 5))


def one_edge(*guards):
    return Sfa(INTERVAL_NAT, ("a", "b"), "a", ("b",),
               [("a", g, "b") for g in guards])


def test_equal_denotations_are_one_transition():
    m = one_edge(Interval(0, 5), SPLIT)
    assert m.transitions == (("a", Interval(0, 5), "b"),)
    assert m.edges == {"a": [(((0, 5),), "b")], "b": []}
    # the first guard given prints the transition
    assert one_edge(SPLIT, Interval(0, 5)).transitions == (("a", SPLIT, "b"),)


def test_guard_syntax_does_not_count_for_equality():
    m1, m2 = one_edge(Interval(0, 5)), one_edge(SPLIT)
    assert m1 == m2 and hash(m1) == hash(m2)
    assert format_sfa(m1) != format_sfa(m2)
    assert m1 != one_edge(Interval(0, 6))
    p2 = prop_algebra(2)
    ors = Sfa(p2, ("a",), "a", ("a",), [("a", Or(Lit(0), Lit(1)), "a")])
    nots = Sfa(p2, ("a",), "a", ("a",),
               [("a", Not(And(Lit(0, False), Not(Lit(1)))), "a")])
    assert ors == nots and hash(ors) == hash(nots)


def test_deduplicated_machine_prints_and_classifies_as_its_first_guard():
    dup, single = one_edge(Interval(0, 5), SPLIT), one_edge(Interval(0, 5))
    assert format_sfa(dup) == format_sfa(single)
    assert format_sfa(dup).endswith("trans a b [0,5)\n")
    assert classify(dup) == classify(single)
    assert classify(dup).deterministic and classify(dup).neat


def test_guards_are_built_on_first_read():
    target = build_two_state_target()
    done = complete_sfa(determinize(target))
    outputs = [minimize(done, "neat"), minimize(done, "normalized"),
               to_neat(target), infer_sfa(INTERVAL_NAT, {(0,): 1, (): 0})]
    for out in outputs:
        assert "transitions" not in vars(out)
        rows = [row for q in out.states for row in out.edges[q]]
        for (_, pred, dst), (sem, d) in zip(out.transitions, rows):
            assert pred == out.algebra.to_pred(sem) and dst == d
    # a given guard is kept as it was given
    assert one_edge(SPLIT).transitions[0][1] is SPLIT


def derived(m):
    """m and the outputs of the operations on it."""
    done = complete_sfa(determinize(m))
    return [m, to_neat(m), determinize(m), complete_sfa(m), done,
            minimize(done, "neat"), minimize(done, "normalized")]


@given(st.sampled_from(ALGEBRAS).flatmap(machines))
def test_print_parse_round_trip(m):
    for out in derived(m):
        assert parse_sfa(format_sfa(out)) == out


def test_round_trip_of_a_prop_minimize_output():
    # minimize of p0 | p1 prints the cube !p0 & p1, which parses back as
    # Not(Lit(0)) & p1: another tree for the same valuations
    p2 = prop_algebra(2)
    m = Sfa(p2, ("a", "b"), "a", ("b",), (
        ("a", Or(Lit(0), Lit(1)), "b"),
        ("a", And(Lit(0, False), Lit(1, False)), "a"),
        ("b", Lit(0, True), "b"), ("b", Lit(0, False), "b"),
    ))
    out = minimize(m, "neat")
    assert "!p0 & p1" in format_sfa(out)
    assert parse_sfa(format_sfa(out)) == out
