import random

import pytest
from hypothesis import given, strategies as st

from symfa import (
    And, BOT, INF, Interval, Lit, NEG_INF, Not, Or, SUP, TOP,
    contains, format_pred, intervals_to_pred, is_sat, min_model, or_all,
    parse_pred, pred_equiv, pred_size, prop_algebra, to_canonical_intervals,
)
from symfa.algebra import INTERVAL_INT, INTERVAL_NAT, denote
from symfa.sfa import Sfa, classify


def test_letters_and_bounds():
    assert INTERVAL_NAT.dmin == 0
    assert INTERVAL_INT.dmin == NEG_INF
    assert INTERVAL_NAT.dmax == INF
    p3 = prop_algebra(3)
    assert p3.dmin == "000"
    assert p3.letters() == ["000", "001", "010", "011",
                            "100", "101", "110", "111"]


def test_top_interval_contains_infinity():
    assert contains(INTERVAL_NAT, Interval(100, INF), INF)
    assert not contains(INTERVAL_NAT, Interval(0, 100), INF)
    assert contains(INTERVAL_NAT, TOP, INF)


def test_loose_intervals_denote_the_empty_set():
    # [lo,hi) with lo >= hi parses and denotes nothing; [inf,inf) is the
    # one exception, the singleton {inf}
    for alg, text in ((INTERVAL_NAT, "[5,3)"), (INTERVAL_NAT, "[5,5)"),
                      (INTERVAL_NAT, "[inf,5)"), (INTERVAL_INT, "[-2,-7)"),
                      (INTERVAL_INT, "[-inf,-inf)")):
        psi = parse_pred(alg, text)
        assert denote(alg, psi) == ()
        m = Sfa(alg, ("a",), "a", ("a",), (("a", psi, "a"),))
        assert classify(m).feasible is False
    inf_only = parse_pred(INTERVAL_NAT, "[inf,inf)")
    assert denote(INTERVAL_NAT, inf_only) == ((INF, SUP),)


def test_canonical_intervals_merge_and_sort():
    psi = Or(Interval(50, 100), Interval(20, 40))
    assert to_canonical_intervals(INTERVAL_NAT, psi) == ((20, 40), (50, 100))
    adjacent = Or(Interval(20, 40), Interval(40, 50))
    assert to_canonical_intervals(INTERVAL_NAT, adjacent) == ((20, 50),)
    assert pred_equiv(INTERVAL_NAT, adjacent, Interval(20, 50))


def test_canonical_intervals_negation():
    psi = Not(Interval(100, 200))
    assert to_canonical_intervals(INTERVAL_NAT, psi) == ((0, 100), (200, SUP))
    assert to_canonical_intervals(INTERVAL_INT, psi) \
        == ((NEG_INF, 100), (200, SUP))


def test_canonical_intervals_exclude_top_letter():
    # the complement of the inf singleton holds every finite letter
    fin = Not(Interval(INF, INF))
    assert to_canonical_intervals(INTERVAL_NAT, fin) == ((0, INF),)
    assert not pred_equiv(INTERVAL_NAT, fin, TOP)
    assert contains(INTERVAL_NAT, fin, 10 ** 9)
    assert not contains(INTERVAL_NAT, fin, INF)
    tail = And(Interval(7, INF), fin)
    assert to_canonical_intervals(INTERVAL_NAT, tail) == ((7, INF),)
    assert pred_equiv(INTERVAL_NAT, Not(tail),
                      Or(Interval(0, 7), Interval(INF, INF)))


def test_canonical_intervals_de_morgan():
    psi = Not(And(Interval(0, 100), Not(Interval(50, INF))))
    want = to_canonical_intervals(INTERVAL_NAT,
                                  Or(Not(Interval(0, 100)),
                                     Interval(50, INF)))
    assert to_canonical_intervals(INTERVAL_NAT, psi) == want


def test_canonical_size_bound_random():
    rng = random.Random(1)
    from symfa.generate import random_pred
    for _ in range(300):
        psi = random_pred(rng, INTERVAL_NAT)
        ivls = to_canonical_intervals(INTERVAL_NAT, psi)
        assert len(ivls) <= 2 * pred_size(psi)


def test_min_model():
    assert min_model(INTERVAL_NAT, Interval(7, 9)) == 7
    assert min_model(INTERVAL_NAT, TOP) == 0
    assert min_model(INTERVAL_INT, TOP) == NEG_INF
    assert min_model(INTERVAL_NAT, BOT) is None
    assert min_model(INTERVAL_NAT, Interval(100, INF)) == 100


@pytest.mark.parametrize("call, error, message", [
    (lambda: to_canonical_intervals(prop_algebra(2), TOP), ValueError,
     "canonical intervals need an interval algebra"),
    (lambda: min_model(prop_algebra(2), TOP), ValueError,
     "min_model needs a monotonic (interval) algebra"),
    (lambda: INTERVAL_NAT.letters(), ValueError,
     "interval domains are infinite"),
    (lambda: INTERVAL_NAT.check_letter(NEG_INF), ValueError,
     "-inf is not a natural letter"),
    # Lit(-1) passes parse_atom; its denotation has no such literal
    (lambda: denote(prop_algebra(2), Lit(-1)), ValueError,
     "literal index out of range: -1"),
    (lambda: denote(INTERVAL_NAT, And(TOP, 3)), TypeError,
     "not a predicate: 3"),
    (lambda: format_pred(Or(TOP, "x")), TypeError, "not a predicate: 'x'"),
], ids=["canonical-prop", "min-model-prop", "nat-letters", "nat-neg-inf",
        "literal-index", "denote-non-pred", "format-non-pred"])
def test_calls_outside_their_domain_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_is_sat_and_equiv():
    assert not is_sat(INTERVAL_NAT, And(Interval(0, 10), Interval(10, 20)))
    assert is_sat(INTERVAL_NAT, Interval(10, 11))
    assert pred_equiv(INTERVAL_NAT, Not(Not(Interval(3, 5))), Interval(3, 5))
    assert not pred_equiv(INTERVAL_NAT, Interval(3, 5), Interval(3, 6))


def test_empty_interval_is_unsat():
    assert not is_sat(INTERVAL_NAT, Interval(5, 5))
    assert is_sat(INTERVAL_NAT, Interval(INF, INF))  # contains only inf


def test_intervals_to_pred_roundtrip():
    for ivls in (((0, 10), (20, SUP)),
                 ((0, 10), (20, INF)),
                 ((INF, SUP),)):
        psi = intervals_to_pred(ivls)
        assert to_canonical_intervals(INTERVAL_NAT, psi) == ivls


def test_parse_format_basic():
    psi = parse_pred(INTERVAL_NAT, "[0,150) | [400,inf)")
    assert pred_equiv(INTERVAL_NAT, psi,
                      Or(Interval(0, 150), Interval(400, INF)))
    assert parse_pred(INTERVAL_NAT, format_pred(psi)) == psi
    assert parse_pred(INTERVAL_NAT, "true") == TOP
    assert parse_pred(INTERVAL_NAT, "false") == BOT
    assert parse_pred(INTERVAL_INT, "[-inf,5)") == Interval(NEG_INF, 5)


def test_parse_format_prop():
    p2 = prop_algebra(2)
    psi = parse_pred(p2, "p0 & !p1")
    assert contains(p2, psi, "10")
    assert not contains(p2, psi, "11")
    assert parse_pred(p2, format_pred(psi)) == psi
    # trailing blanks are no token
    assert parse_pred(p2, "p0 ") == Lit(0)


def test_parse_precedence():
    psi = parse_pred(INTERVAL_NAT, "[0,5) | [10,20) & [15,30)")
    assert contains(INTERVAL_NAT, psi, 2)
    assert contains(INTERVAL_NAT, psi, 17)
    assert not contains(INTERVAL_NAT, psi, 7)
    assert not contains(INTERVAL_NAT, psi, 12)


@pytest.mark.parametrize("text, message", [
    ("[0,", "expected an endpoint, found the end of the predicate"),
    ("[0,5", "expected ')', found the end of the predicate"),
    ("p0 &", "unexpected end of the predicate"),
    ("(p0", "expected ')', found the end of the predicate"),
    ("", "unexpected end of the predicate"),
])
def test_parse_error_names_the_end_of_the_predicate(text, message):
    with pytest.raises(ValueError) as exc:
        parse_pred(prop_algebra(2) if "p" in text else INTERVAL_NAT, text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, found", [
    ("[(,5)", "("), ("[0,p1)", "p1"), ("[true,5)", "true"), ("[0,)", ")"),
    ("[,5)", ","),
])
def test_parse_error_names_the_bad_endpoint(text, found):
    with pytest.raises(ValueError) as exc:
        parse_pred(INTERVAL_NAT, text)
    assert str(exc.value) == "expected an endpoint, found %r" % found


@pytest.mark.parametrize("text", ["[\u0663,5)", "[0,\uff15)", "p\u0661"])
def test_parse_takes_ascii_digits_only(text):
    with pytest.raises(ValueError, match="bad predicate syntax"):
        parse_pred(prop_algebra(2) if "p" in text else INTERVAL_NAT, text)


@pytest.mark.parametrize("alg", [INTERVAL_NAT, INTERVAL_INT])
def test_letters_take_only_the_grammar_endpoints(alg):
    for tok in ["1_000", "+5", "\u0663", "5.0", "0x5", "", "-"]:
        with pytest.raises(ValueError) as exc:
            alg.parse_letter(tok)
        assert str(exc.value) == "expected an endpoint, found %r" % tok
    assert [alg.parse_letter(tok) for tok in ["0", "007", "1000", "inf"]] \
        == [0, 7, 1000, INF]
    if alg is INTERVAL_INT:
        assert alg.parse_letter("-12") == -12
        assert alg.parse_letter("-inf") == NEG_INF


def test_parse_format_random_roundtrip():
    rng = random.Random(2)
    from symfa.generate import random_pred
    for _ in range(200):
        psi = random_pred(rng, INTERVAL_NAT)
        again = parse_pred(INTERVAL_NAT, format_pred(psi))
        assert pred_equiv(INTERVAL_NAT, again, psi)


def test_prop_denote():
    p2 = prop_algebra(2)
    assert denote(p2, Lit(0, True)) == (("10", SUP),)
    assert denote(p2, And(Lit(0, True), Lit(1, True))) == (("11", SUP),)
    assert denote(p2, TOP) == (("00", SUP),)
    assert p2.min(denote(p2, Lit(0, True))) == "10"


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                max_size=4),
       st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                max_size=4),
       st.integers(0, 61))
def test_union_intersection_pointwise(a, b, d):
    pa = or_all(Interval(lo, hi) for lo, hi in a) or BOT
    pb = or_all(Interval(lo, hi) for lo, hi in b) or BOT
    in_a = contains(INTERVAL_NAT, pa, d)
    in_b = contains(INTERVAL_NAT, pb, d)
    assert contains(INTERVAL_NAT, Or(pa, pb), d) == (in_a or in_b)
    assert contains(INTERVAL_NAT, And(pa, pb), d) == (in_a and in_b)
    assert contains(INTERVAL_NAT, Not(pa), d) == (not in_a)
    union = intervals_to_pred(to_canonical_intervals(INTERVAL_NAT,
                                                     Or(pa, pb)))
    assert contains(INTERVAL_NAT, union, d) == (in_a or in_b)


def test_pred_size():
    assert pred_size(Interval(0, 5)) == 1
    assert pred_size(And(Interval(0, 5), Not(Interval(2, 3)))) == 4
