"""Deeply nested predicate text: the parser keeps open parentheses on an
explicit stack, so any number of them, and any number of nested
negations, parses.  A differential against the recursive parser it
replaced shows that every text that parser read gives the same tree, and
every text it rejected is still rejected."""

import pytest
from hypothesis import given, settings, strategies as st

from symfa.algebra import (
    BOT, INTERVAL_INT, INTERVAL_NAT, TOP, And, Interval, Lit, Not, Or,
    _parse_endpoint, _tokenize, and_all, format_pred, or_all, parse_pred,
    prop_algebra,
)
from symfa.cli import main
from symfa.sfa import parse_sfa

from conftest import ALGEBRAS, guards

DEPTH = 5000


# ---------------------------------------------------------------------------
# Reference: the recursive descent parser, kept verbatim in behaviour,
# with the check of the finished tree that followed it.


class RefParser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError("expected %r, found %r" % (expected, tok))
        self.pos += 1
        return tok

    def parse(self):
        out = self.or_expr()
        if self.peek() is not None:
            raise ValueError("trailing tokens")
        return out

    def or_expr(self):
        operands = [self.and_expr()]
        while self.peek() == "|":
            self.take()
            operands.append(self.and_expr())
        return or_all(operands)

    def and_expr(self):
        operands = [self.factor()]
        while self.peek() == "&":
            self.take()
            operands.append(self.factor())
        return and_all(operands)

    def factor(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.factor())
        if tok == "(":
            self.take()
            out = self.or_expr()
            self.take(")")
            return out
        if tok == "true":
            self.take()
            return TOP
        if tok == "false":
            self.take()
            return BOT
        if tok == "[":
            self.take()
            lo = _parse_endpoint(self.take())
            self.take(",")
            hi = _parse_endpoint(self.take())
            self.take(")")
            return Interval(lo, hi)
        if tok is not None and tok.startswith("p"):
            self.take()
            return Lit(int(tok[1:]))
        raise ValueError("unexpected token %r" % (tok,))


def ref_check(alg, psi):
    if isinstance(psi, Interval) and not alg.monotonic:
        raise ValueError("interval atom over the prop algebra")
    if isinstance(psi, Lit):
        if alg.monotonic:
            raise ValueError("prop literal over an interval algebra")
        if not 0 <= psi.index < alg.k:
            raise ValueError("literal out of range")
    if isinstance(psi, Not):
        ref_check(alg, psi.child)
    if isinstance(psi, (And, Or)):
        ref_check(alg, psi.left)
        ref_check(alg, psi.right)


def ref_parse(alg, text):
    psi = RefParser(_tokenize(text)).parse()
    ref_check(alg, psi)
    return psi


def outcome(parse, alg, text):
    try:
        return parse(alg, text)
    except ValueError:
        return ValueError


# ---------------------------------------------------------------------------
# The differential


TOKENS = ["(", ")", "!", "&", "|", "true", "false", "[0,5)", "[3,inf)",
          "[-inf,2)", "[", ",", "p0", "p1", "p4", "7"]


@settings(max_examples=500)
@given(st.sampled_from(ALGEBRAS),
       st.lists(st.sampled_from(TOKENS), max_size=14))
def test_token_soup_matches_recursive_parser(alg, toks):
    text = " ".join(toks)
    assert outcome(parse_pred, alg, text) == outcome(ref_parse, alg, text)


@given(st.sampled_from(ALGEBRAS).flatmap(
    lambda alg: st.tuples(st.just(alg), guards(alg))))
def test_printed_trees_match_recursive_parser(case):
    alg, psi = case
    text = format_pred(psi)
    # not always psi itself: !p<i> reads back as Not(Lit(i)), not as the
    # negative literal
    assert parse_pred(alg, text) == ref_parse(alg, text)


@pytest.mark.parametrize("text", [
    "!!!true", "!([0,1) | [3,4)) & [2,inf)", "((([0,1)))) | !(true)",
    "!(!([0,1) & !([2,3)) | [4,5)))", "[0,5) | [10,20) & [15,30)",
])
def test_nested_examples_match_recursive_parser(text):
    for alg in (INTERVAL_NAT, INTERVAL_INT):
        assert parse_pred(alg, text) == ref_parse(alg, text)


# ---------------------------------------------------------------------------
# Depth


def test_deep_parentheses_parse():
    text = "(" * DEPTH + "[0,1)" + ")" * DEPTH
    assert parse_pred(INTERVAL_NAT, text) == Interval(0, 1)
    p3 = prop_algebra(3)
    text = "(" * DEPTH + "p0 & (p1 | (p2))" + ")" * DEPTH
    assert parse_pred(p3, text) == and_all([Lit(0), or_all([Lit(1),
                                                            Lit(2)])])


@pytest.mark.parametrize("text", [
    "(" * DEPTH + "[0,1)" + ")" * (DEPTH - 1),
    "(" * (DEPTH - 1) + "[0,1)" + ")" * DEPTH,
])
def test_unbalanced_deep_parentheses_raise(text):
    with pytest.raises(ValueError):
        parse_pred(INTERVAL_NAT, text)


def negations(psi):
    n = 0
    while isinstance(psi, Not):
        psi, n = psi.child, n + 1
    return n, psi


@pytest.mark.parametrize("text, atom", [
    ("!" * DEPTH + "[0,1)", Interval(0, 1)),
    ("!(" * DEPTH + "[0,1)" + ")" * DEPTH, Interval(0, 1)),
    ("(!" * DEPTH + "[0,1)" + ")" * DEPTH, Interval(0, 1)),
    ("!" * (DEPTH - 1) + "(!true)", TOP),
])
def test_deep_negations_parse(text, atom):
    assert negations(parse_pred(INTERVAL_NAT, text)) == (DEPTH, atom)


def test_negations_up_to_the_bound_parse():
    psi = parse_pred(INTERVAL_NAT, "!" * DEPTH + "[0,1)")
    assert negations(psi) == (DEPTH, Interval(0, 1))
    # negations side by side do not nest
    text = " & ".join(["!" * DEPTH + "p0"] * 2)
    psi = parse_pred(prop_algebra(1), text)
    assert negations(psi.right) == (DEPTH, Lit(0))
    # nor do negated groups side by side
    text = " | ".join(["!([0,1))"] * (DEPTH + 1))
    assert parse_pred(INTERVAL_NAT, text) == or_all(
        [Not(Interval(0, 1))] * (DEPTH + 1))


def test_deep_input_through_the_cli(tmp_path, capsys):
    deep = "(" * DEPTH + "[0,1)" + ")" * DEPTH
    text = ("algebra interval-nat\nstates a b\ninitial a\naccepting b\n"
            "trans a b %s\n" % deep)
    assert parse_sfa(text).transitions[0][1] == Interval(0, 1)
    path = tmp_path / "deep.sfa"
    path.write_text(text.replace(deep, "!" * DEPTH + "[0,1)"))
    assert main(["transform", "neat", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "trans a b [0,1)"  # DEPTH is even
