"""Deep guards: and_all, or_all and the parser build balanced chains, so a
guard of 3000 disjuncts is a tree of depth 13.  Deeper trees, written
with nested parentheses or negations, go through every command as well:
no walk of a predicate tree (evaluation, printing, size, the neat check,
hashing, equality, repr) uses the call stack, and a chain of nested
disjunctions is one union."""

import math
import time

import pytest

from symfa import (
    And, Interval, Lit, Not, Or, accepts, and_all, classify, complete_sfa,
    determinize, format_pred, format_sfa, minimize, or_all, parse_pred,
    parse_sfa, pred_size, prop_algebra, to_neat,
)
from symfa.algebra import INTERVAL_NAT, denote
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


# Trees as deep as their text: 3000 right-nested disjunctions, and 5000
# nested negations.  Every walk of a tree keeps its own stack, so the CLI
# answers on both, whatever the command.
NESTED_OR = "".join("([%d,%d) | " % (2 * i, 2 * i + 1)
                    for i in range(N - 1)) \
    + "[%d,%d)" % (2 * N - 2, 2 * N - 1) + ")" * (N - 1)
NESTED_NOT = "!" * 5000 + "[2,5)"
# what each nested guard leaves out, written flat
GAP = {NESTED_OR: " | ".join("[%d,%d)" % (2 * i + 1, 2 * i + 2)
                             for i in range(N - 1))
       + " | [%d,inf)" % (2 * N - 1),
       NESTED_NOT: "[0,2) | [5,inf)"}
HEADER = "algebra interval-nat\nstates a b\ninitial a\naccepting b\n"


@pytest.fixture(params=[NESTED_OR, NESTED_NOT], ids=["or", "not"])
def nested_file(request, tmp_path):
    path = tmp_path / "nested.sfa"
    path.write_text(HEADER + "trans a b %s\n" % request.param)
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


@pytest.fixture
def complete_file(nested_file):
    """The nested guard and what it leaves out, out of a, and a loop on b:
    a deterministic complete machine, which every command accepts."""
    guard, path = nested_file
    with open(path, "a") as fh:
        fh.write("trans a a %s\ntrans b b true\n" % GAP[guard])
    return path


@pytest.mark.parametrize("command", [
    ["transform", kind] for kind in ("neat", "normalize", "feasible",
                                     "complete", "determinize", "minimize")
] + [["op", "product"], ["op", "union"], ["op", "complement"]],
    ids=lambda command: command[1])
def test_nested_guard_through_every_command(complete_file, command,
                                            tmp_path):
    out = str(tmp_path / "out.sfa")
    inputs = [complete_file] * (2 if command[1] in ("product", "union")
                                else 1)
    assert main(command + inputs + ["-o", out]) == 0
    with open(out) as fh:
        m = parse_sfa(fh.read())
    # the guard takes 4 and not 5, so a takes (4,) into b for good
    accepted = command[1] != "complement"
    assert [accepts(m, w) for w in ((4,), (5,), (4, 7))] == [
        accepted, not accepted, accepted]


def test_nested_or_determinize_takes_one_sweep(tmp_path):
    """The [or-determinize] case above, timed: determinize finds the
    signatures of its 6000 regions over the two guards in one sweep."""
    text = HEADER + "trans a b %s\ntrans a a %s\ntrans b b true\n" % (
        NESTED_OR, GAP[NESTED_OR])
    path, out = tmp_path / "nested.sfa", str(tmp_path / "out.sfa")
    path.write_text(text)
    start = time.perf_counter()
    assert main(["transform", "determinize", str(path), "-o", out]) == 0
    # about 0.3 s; with a contains scan per region and guard, 1.0-1.6 s
    assert time.perf_counter() - start < 1.0
    m = parse_sfa(text)
    start = time.perf_counter()
    det = determinize(m)
    # about 0.02 s; the scan took 0.6 s of it
    assert time.perf_counter() - start < 0.25
    with open(out) as fh:
        assert fh.read() == format_sfa(det)
    assert [accepts(det, w) for w in ((4,), (5,), (4, 7))] == [
        True, False, True]


def test_nested_or_is_one_union():
    guard = parse_pred(INTERVAL_NAT, NESTED_OR)
    start = time.perf_counter()
    sem = denote(INTERVAL_NAT, guard)
    # about 0.01 s; a union_all per Or node took 1.2 s (quadratic)
    assert time.perf_counter() - start < 0.5
    assert sem == denote(INTERVAL_NAT, parse_pred(INTERVAL_NAT, DEEP_GUARD))
    # the gathered operands are unioned where Not and And read them
    assert denote(INTERVAL_NAT, And(Not(guard), guard)) == ()
    # over prop: the union of the operands, one by one
    p9 = prop_algebra(9)
    cubes = [And(Lit(i % 9), Lit((i + 1) % 9, False)) for i in range(N)]
    chain = cubes[-1]
    for cube in reversed(cubes[:-1]):
        chain = Or(cube, chain)
    assert denote(p9, chain) == p9.union_all(
        [denote(p9, cube) for cube in cubes])


def test_nested_guard_repr(nested_file):
    guard, path = nested_file
    with open(path) as fh:
        m = parse_sfa(fh.read())
    pred = m.transitions[0][1]
    assert repr(pred) == str(pred) and repr(pred) in repr(m)
    if guard is NESTED_NOT:
        assert repr(pred) == ("Not(child=" * 5000 + "Interval(lo=2, hi=5)"
                              + ")" * 5000)


def test_equal_deep_guards_in_one_subset(nested_file, capsys):
    """Two separately parsed equal guards out of one subset state are one
    minterm: determinize compares the trees by their node lists."""
    guard, path = nested_file
    with open(path, "w") as fh:
        fh.write(HEADER.replace("states a b", "states a b c")
                 + "trans a b %s\ntrans a c %s\n" % (guard, guard))
    assert main(["transform", "determinize", path]) == 0
    trans = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("trans")]
    printed = DEEP_GUARD if guard is NESTED_OR else guard
    assert trans == ["trans {a} {b,c} %s" % printed]
