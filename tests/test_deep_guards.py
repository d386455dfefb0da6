"""Deep guards: and_all, or_all and the parser build balanced chains, so a
guard of 3000 disjuncts is a tree of depth 13 that every tree walk
(evaluation, printing, parsing, hashing, equality) handles without
exhausting the call stack."""

import math

import pytest

from symfa import (
    And, Interval, Lit, Not, Or, accepts, and_all, classify, complete_sfa,
    format_pred, format_sfa, minimize, or_all, parse_pred, parse_sfa,
    pred_size, prop_algebra, to_neat,
)
from symfa.algebra import INTERVAL_NAT, MAX_NEGATION_DEPTH, denote
from symfa.cli import main
from symfa.sfa_learn import generalize_alg

from conftest import identical

N = 3000
DEEP_GUARD = " | ".join("[%d,%d)" % (2 * i, 2 * i + 1) for i in range(N))


@pytest.fixture(scope="module")
def deep():
    return parse_sfa("algebra interval-nat\nstates a b\ninitial a\n"
                     "accepting b\ntrans a b %s\n" % DEEP_GUARD)


def depth(p):
    if isinstance(p, Not):
        return 1 + depth(p.child)
    if isinstance(p, (And, Or)):
        return 1 + max(depth(p.left), depth(p.right))
    return 1


def test_deep_guard_denotes_and_accepts(deep):
    guard = deep.transitions[0][1]
    assert depth(guard) == math.ceil(math.log2(N)) + 1
    assert denote(INTERVAL_NAT, guard) == tuple((2 * i, 2 * i + 1)
                                                for i in range(N))
    assert accepts(deep, (4,)) and accepts(deep, (2 * N - 2,))
    assert not accepts(deep, (5,)) and not accepts(deep, (2 * N,))


def test_deep_guard_prints_and_parses_back(deep):
    assert format_pred(deep.transitions[0][1]) == DEEP_GUARD
    assert identical(parse_sfa(format_sfa(deep)), deep)


def test_deep_guard_neat_and_minimized(deep):
    neat = to_neat(deep)
    assert len(neat.transitions) == N and classify(neat).neat
    small = minimize(complete_sfa(deep), "normalized")
    assert len(small.states) == 3  # a, b and the sink
    assert [accepts(small, (d,)) for d in (0, 1, 4, 5, 2 * N)] == [
        True, False, True, False, False]


def test_generalize_interleaved_letters_then_print():
    evens, odds = set(range(0, N, 2)), set(range(1, N, 2))
    preds = generalize_alg(INTERVAL_NAT, [evens, odds])
    texts = [format_pred(p) for p in preds]
    # one piece per run of one block: 1500 each, the last one up to inf
    assert [t.count("|") for t in texts] == [N // 2 - 1] * 2
    assert texts[1].endswith("[%d,inf)" % (N - 1))
    assert [parse_pred(INTERVAL_NAT, t) for t in texts] == preds


@pytest.mark.parametrize("n", range(1, 10))
def test_balanced_chains_print_and_parse_back(n):
    p9 = prop_algebra(9)
    for alg, chain in ((INTERVAL_NAT, or_all(Interval(2 * i, 2 * i + 1)
                                              for i in range(n))),
                       (p9, and_all(Lit(i) for i in range(n)))):
        assert parse_pred(alg, format_pred(chain)) == chain
        assert depth(chain) <= math.ceil(math.log2(n)) + 1
        assert pred_size(chain) == 2 * n - 1


def test_chain_shapes():
    # up to three operands give the left-deep chain; four split in halves
    a, b, c = (Interval(i, i + 1) for i in (0, 2, 4))
    assert or_all([a, b, c]) == Or(Or(a, b), c)
    assert and_all([a, b]) == And(a, b)
    assert or_all([a, b, c, a]) == Or(Or(a, b), Or(c, a))


# Guards as deep as the parser takes: 3000 right-nested disjunctions, and
# the most nested negations it accepts.  Nothing but printing walks a
# tree, and denote keeps its own stack, so the CLI answers on both.
NESTED_OR = "".join("([%d,%d) | " % (2 * i, 2 * i + 1)
                    for i in range(N - 1)) \
    + "[%d,%d)" % (2 * N - 2, 2 * N - 1) + ")" * (N - 1)
NESTED_NOT = "!" * MAX_NEGATION_DEPTH + "[2,5)"


@pytest.fixture(params=[NESTED_OR, NESTED_NOT], ids=["or", "not"])
def nested_file(request, tmp_path):
    path = tmp_path / "nested.sfa"
    path.write_text("algebra interval-nat\nstates a b\ninitial a\n"
                    "accepting b\ntrans a b %s\n" % request.param)
    return request.param, str(path)


def test_nested_guard_through_transform_neat(nested_file, capsys):
    guard, path = nested_file
    assert main(["transform", "neat", path]) == 0
    pieces = [line.split(None, 3)[3] for line in
              capsys.readouterr().out.splitlines() if line.startswith("trans")]
    if guard is NESTED_OR:
        assert pieces == ["[%d,%d)" % (2 * i, 2 * i + 1) for i in range(N)]
    else:
        assert pieces == ["[2,5)"]  # an even number of negations


def test_nested_guard_through_decide_member(nested_file, capsys):
    _, path = nested_file
    assert main(["decide", "member", path, "4"]) == 0
    assert main(["decide", "member", path, "5"]) == 1
    assert capsys.readouterr().out == "member\nnonmember\n"
