import argparse
import hashlib
import os
import shlex

import pytest

from symfa import (
    Sfa, determinize, equiv, format_sample, format_sfa, parse_sample,
    parse_sfa, product,
)
from symfa.algebra import INTERVAL_NAT
from symfa.cli import build_parser, main

from conftest import (
    TWO_STATE_SAMPLE, build_two_state_target, build_four_state_target,
)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "target.sfa"
    path.write_text(format_sfa(build_two_state_target()))
    return str(path)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(format_sample(TWO_STATE_SAMPLE))
    return str(path)


def test_usage_error_exits_2():
    assert main([]) == 2
    assert main(["decide"]) == 2
    assert main(["transform", "bogus", "x"]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["decide", "empty", "/nonexistent.sfa"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sfa"
    bad.write_text("algebra interval-nat\nbogus directive\n")
    assert main(["decide", "empty", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_deep_guard_never_reads_as_a_verdict(tmp_path, capsys):
    # a guard of 3000 disjuncts; a failure inside the library must give
    # exit code 2 and one error line, never a traceback and never the
    # nonmember verdict 1
    deep = tmp_path / "deep.sfa"
    guard = " | ".join("[%d,%d)" % (2 * i, 2 * i + 1) for i in range(3000))
    deep.write_text("algebra interval-nat\nstates a b\ninitial a\n"
                    "accepting b\ntrans a b %s\n" % guard)
    code = main(["decide", "member", str(deep), "4"])
    out, err = capsys.readouterr()
    if code == 0:
        assert out.strip() == "member"
    else:
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_decide_member_on_a_deep_guard(tmp_path, capsys):
    # the parser builds a balanced chain of the 3000 disjuncts, so the
    # verdict comes out: 4 lies in [4,5)
    deep = tmp_path / "deep.sfa"
    guard = " | ".join("[%d,%d)" % (2 * i, 2 * i + 1) for i in range(3000))
    deep.write_text("algebra interval-nat\nstates a b\ninitial a\n"
                    "accepting b\ntrans a b %s\n" % guard)
    assert main(["decide", "member", str(deep), "4"]) == 0
    assert capsys.readouterr().out == "member\n"


def test_decide_member(model_file, capsys):
    assert main(["decide", "member", model_file, "0 100"]) == 0
    assert "member" in capsys.readouterr().out
    assert main(["decide", "member", model_file, "100"]) == 1
    assert "nonmember" in capsys.readouterr().out
    assert main(["decide", "member", model_file, ""]) == 1


def test_decide_empty(model_file, tmp_path, capsys):
    assert main(["decide", "empty", model_file]) == 1
    dead = tmp_path / "dead.sfa"
    dead.write_text("algebra interval-nat\nstates a\ninitial a\n"
                    "accepting\ntrans a a [0,inf)\n")
    assert main(["decide", "empty", str(dead)]) == 0
    out = capsys.readouterr().out
    assert "nonempty" in out and "empty" in out


def test_decide_equiv_and_include(model_file, tmp_path, capsys):
    assert main(["decide", "equiv", model_file, model_file]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    other = tmp_path / "other.sfa"
    other.write_text(format_sfa(build_four_state_target()))
    assert main(["decide", "equiv", model_file, str(other)]) == 1
    out = capsys.readouterr().out
    assert "no" in out and "counterexample:" in out
    assert main(["decide", "include", model_file, model_file]) == 0


def test_transform_roundtrip(model_file, tmp_path):
    out = tmp_path / "min.sfa"
    assert main(["transform", "minimize", model_file,
                 "-o", str(out)]) == 0
    m = parse_sfa(out.read_text())
    assert m.states == ("s0", "s1")
    assert main(["decide", "equiv", str(out), model_file]) == 0


def test_transform_to_stdout(model_file, capsys):
    assert main(["transform", "complete", model_file]) == 0
    text = capsys.readouterr().out
    assert parse_sfa(text) == parse_sfa(open(model_file).read())


def test_op_product_and_complement(model_file, tmp_path, capsys):
    inter = tmp_path / "inter.sfa"
    assert main(["op", "product", model_file, model_file,
                 "-o", str(inter)]) == 0
    assert main(["decide", "member", str(inter), "0"]) == 0
    comp = tmp_path / "comp.sfa"
    assert main(["op", "complement", model_file, "-o", str(comp)]) == 0
    assert main(["decide", "member", str(comp), "0"]) == 1
    assert main(["decide", "member", str(comp), "100"]) == 0
    # wrong arity is a usage error
    assert main(["op", "complement", model_file, model_file]) == 2


# States whose names hold commas: a pair named (x,y,z) and a subset named
# {a,b} can each be made in two ways
COMMA_NAMES = {
    "m1": "states x,y x\ninitial x,y\naccepting x\ntrans x,y x [0,5)\n"
          "trans x,y x,y [5,inf)\ntrans x x true\n",
    "m2": "states z y,z\ninitial z\naccepting y,z\ntrans z z [0,3)\n"
          "trans z y,z [3,inf)\ntrans y,z y,z true\n",
    "nfa": "states a,b a b\ninitial a,b\naccepting b\n"
           "trans a,b a [0,5)\ntrans a,b b [0,10)\ntrans a a true\n"
           "trans b b [2,inf)\n",
}


def without_commas(m):
    def name(q):
        return q.replace(",", "_")

    return Sfa(m.algebra, map(name, m.states), name(m.initial),
               map(name, m.accepting),
               [(name(p), g, name(q)) for p, g, q in m.transitions])


@pytest.mark.parametrize("args, op", [
    (["op", "product", "m1", "m2"], product),
    (["op", "union", "m1", "m2"], lambda a, b: product(a, b, "union")),
    (["transform", "determinize", "nfa"], determinize),
], ids=["product", "union", "determinize"])
def test_ops_on_state_names_with_commas(tmp_path, capsys, args, op):
    paths = {}
    for key, text in COMMA_NAMES.items():
        paths[key] = tmp_path / ("%s.sfa" % key)
        paths[key].write_text("algebra interval-nat\n" + text)
    assert main([str(paths.get(a, a)) for a in args]) == 0
    out = parse_sfa(capsys.readouterr().out)
    inputs = [without_commas(parse_sfa(paths[a].read_text()))
              for a in args[2:]]
    assert equiv(out, op(*inputs))


def test_learn_char_and_infer(model_file, tmp_path, capsys):
    sample_out = tmp_path / "char.txt"
    assert main(["learn", "char", model_file, "-o", str(sample_out)]) == 0
    got = parse_sample(INTERVAL_NAT, sample_out.read_text())
    assert got == TWO_STATE_SAMPLE
    learned = tmp_path / "learned.sfa"
    assert main(["learn", "infer", str(sample_out),
                 "-o", str(learned)]) == 0
    assert main(["decide", "equiv", str(learned), model_file]) == 0


def test_learn_decontaminate(sample_file, tmp_path):
    noisy = tmp_path / "noisy.txt"
    noisy.write_text(open(sample_file).read() + "- 150\n")
    out = tmp_path / "clean.txt"
    assert main(["learn", "decontaminate", str(noisy),
                 "-o", str(out)]) == 0
    assert parse_sample(INTERVAL_NAT, out.read_text()) == TWO_STATE_SAMPLE


@pytest.mark.parametrize("step", ["infer", "decontaminate"])
@pytest.mark.parametrize("value", ["prop:2", "prop", "prop 2", "bogus"])
def test_algebra_other_than_interval_is_a_usage_error(sample_file, capsys,
                                                      step, value):
    # the learners need a monotonic algebra, so --algebra offers no other
    assert main(["learn", step, sample_file, "--algebra", value]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage: symfa learn %s " % step)
    assert "argument --algebra" in err.splitlines()[-1]


NEGATIVE_LAST = """\
algebra interval-int
states a b
initial a
accepting b
trans a b [-inf,0)
trans a a [0,inf)
trans b b [-inf,0)
trans b a [0,inf)
"""


@pytest.mark.parametrize("step", ["infer", "decontaminate"])
def test_learn_over_interval_int(tmp_path, capsys, step):
    model = tmp_path / "model.sfa"
    model.write_text(NEGATIVE_LAST)
    sample = tmp_path / "char.txt"
    assert main(["learn", "char", str(model), "-o", str(sample)]) == 0
    assert "-inf" in sample.read_text()
    out = tmp_path / "out"
    assert main(["learn", step, str(sample), "--algebra", "interval-int",
                 "-o", str(out)]) == 0
    if step == "infer":
        assert main(["decide", "equiv", str(out), str(model)]) == 0
    else:
        assert out.read_text() == sample.read_text()
    # interval-nat, the default, has no negative letter
    assert main(["learn", step, str(sample)]) == 2
    assert "-inf is not a natural letter" in capsys.readouterr().err


def test_qlearn_demo(capsys):
    assert main(["qlearn", "demo", "--prop", "3"]) == 0
    assert capsys.readouterr().out == "k=3 queries=8 lower-bound=7 ok\n"
    assert main(["qlearn", "demo", "--prop", "10"]) == 0
    assert capsys.readouterr().out \
        == "k=10 queries=1024 lower-bound=1023 ok\n"


def test_qlearn_demo_refuses_k_above_10(capsys):
    assert main(["qlearn", "demo", "--prop", "11"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: need 1 <= k <= 10\n")


def test_bench_roundtrip(capsys):
    assert main(["bench", "roundtrip", "--seed", "1", "--count", "5"]) == 0
    assert "5/5 passed" in capsys.readouterr().out


def test_sample_error_names_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("+ 1\n- 3 x\n")
    assert main(["learn", "infer", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("line, text", [
    (1, "algebra interval-nat extra\nstates a\ninitial a\n"),
    (1, "algebra prop 2 extra\nstates a\ninitial a\n"),
    (1, "algebra prop\nstates a\ninitial a\n"),
    (3, "algebra interval-nat\nstates a b\ninitial a b\n"),
])
def test_trailing_tokens_exit_2(tmp_path, capsys, line, text):
    bad = tmp_path / "bad.sfa"
    bad.write_text(text + "accepting a\ntrans a a [0,inf)\n")
    assert main(["transform", "neat", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: line %d:" % line)


def test_short_trans_line_names_its_fields(tmp_path, capsys):
    bad = tmp_path / "bad.sfa"
    bad.write_text("algebra interval-nat\nstates a\ninitial a\ntrans a a\n")
    assert main(["transform", "neat", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 4: expected trans SRC DST PREDICATE")


@pytest.mark.parametrize("args", [["--count", "-1"], ["--max-states", "0"]])
def test_bench_rejects_bad_sizes(capsys, args):
    assert main(["bench", "roundtrip", *args]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("error:")


@pytest.mark.parametrize("pred", ["p7", "p0 &"])
def test_bad_trans_predicate_names_its_line(tmp_path, capsys, pred):
    bad = tmp_path / "bad.sfa"
    bad.write_text("algebra prop 2\nstates a\ninitial a\ntrans a a %s\n"
                   % pred)
    assert main(["transform", "neat", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("pred, found", [("[(,5)", "("), ("[0,)", ")")])
def test_bad_endpoint_exits_2(tmp_path, capsys, pred, found):
    bad = tmp_path / "bad.sfa"
    bad.write_text("algebra interval-nat\nstates a\ninitial a\n"
                   "trans a a %s\n" % pred)
    assert main(["transform", "neat", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: expected an endpoint, found %r\n" % found)


@pytest.mark.parametrize("letter", ["1_000", "+5", "\u0663"])
def test_non_grammar_letter_exits_2(tmp_path, capsys, model_file, letter):
    assert main(["decide", "member", model_file, "0 %s" % letter]) == 2
    assert capsys.readouterr().err == (
        "error: expected an endpoint, found %r\n" % letter)
    sample = tmp_path / "sample.txt"
    sample.write_text("+ 1\n- 3 %s\n" % letter)
    assert main(["learn", "infer", str(sample)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: expected an endpoint, found %r\n" % letter)


def leaf_parsers(parser, path=()):
    """(command path, parser) of every leaf subcommand under parser."""
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


def test_every_leaf_subcommand_has_a_handler_and_help(capsys):
    leaves = dict(leaf_parsers(build_parser()))
    assert sorted(leaves) == [
        ("bench", "roundtrip"), ("decide", "empty"), ("decide", "equiv"),
        ("decide", "include"), ("decide", "member"), ("learn", "char"),
        ("learn", "decontaminate"), ("learn", "infer"), ("op", "complement"),
        ("op", "product"), ("op", "union"), ("qlearn", "demo"),
        ("transform",)]
    for path, leaf in leaves.items():
        assert callable(leaf.get_default("run"))
        assert main([*path, "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            "usage: symfa %s " % " ".join(path))


@pytest.mark.parametrize("args", [
    ["op", "product", "a.sfa"], ["op", "union"],
    ["op", "complement", "a.sfa", "b.sfa"],
])
def test_op_arity_is_a_usage_error(capsys, args):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage: symfa")


NFA_TEXT = """\
algebra interval-nat
states a b c
initial a
accepting c
trans a b [0,10)
trans a c [5,20) | [30,40)
trans a a [3,3)
trans b c [0,inf)
trans b b [0,10) & ![2,4)
trans c a [100,inf)
"""

# Each form of README's "Command line" block, run on the files that
# readme_dir writes: the exit code and the first 16 hex digits of the
# sha256 of stdout followed by the file OUT.  "op -o OUT ..." gives -o
# before the op's kind.
README_FORMS = {
    'transform neat nfa.sfa -o OUT': (0, '8c85b02ebf21020e'),
    'transform normalize nfa.sfa -o OUT': (0, '81546be7871f24d1'),
    'transform feasible nfa.sfa -o OUT': (0, '78ecd1a5087cb099'),
    'transform complete nfa.sfa -o OUT': (0, '61c18f8dd9ea91dd'),
    'transform determinize nfa.sfa -o OUT': (0, 'af1332e2b06dc5aa'),
    'transform minimize two.sfa -o OUT': (0, '6fb73623f6fe55ac'),
    'transform minimize four.sfa --form normalized': (0, '28dfef464d4b5302'),
    'op product two.sfa four.sfa -o OUT': (0, 'e4c9aa82cd58dc03'),
    'op union two.sfa four.sfa -o OUT': (0, '33232b3e8b02d8ef'),
    'op complement four.sfa -o OUT': (0, 'f66c1b63b045b7bb'),
    'op -o OUT complement four.sfa': (0, 'f66c1b63b045b7bb'),
    'decide empty two.sfa': (1, '40256081e57301cf'),
    'decide member two.sfa "0 100"': (0, '9a630df58958568e'),
    'decide member two.sfa "100"': (1, 'a1900be91b9debd8'),
    'decide include two.sfa four.sfa': (1, '0a077c5919434ac0'),
    'decide equiv two.sfa four.sfa': (1, '78a42c0da10401f5'),
    'decide equiv two.sfa two.sfa': (0, '5040625b1fb6fa4a'),
    'learn char two.sfa -o OUT': (0, '062cac5994a08ffa'),
    'learn infer sample.txt --algebra interval-nat -o OUT':
        (0, '64464fb25edadfe6'),
    'learn decontaminate noisy.txt -o OUT': (0, '062cac5994a08ffa'),
    'qlearn demo --prop 3': (0, '23edb2d1a6f0e094'),
    'bench roundtrip --seed 0 --count 20': (0, 'f4c7b5ce75fff5ee'),
}


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    texts = {
        "two.sfa": format_sfa(build_two_state_target()),
        "four.sfa": format_sfa(build_four_state_target()),
        "nfa.sfa": NFA_TEXT,
        "sample.txt": format_sample(TWO_STATE_SAMPLE),
        "noisy.txt": format_sample(TWO_STATE_SAMPLE) + "- 150\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("form", sorted(README_FORMS))
def test_readme_forms_keep_their_output(readme_dir, capsys, form):
    code = main(shlex.split(form))
    printed = capsys.readouterr().out
    if os.path.exists("OUT"):
        with open("OUT", encoding="utf-8") as fh:
            printed += fh.read()
    digest = hashlib.sha256(printed.encode()).hexdigest()[:16]
    assert (code, digest) == README_FORMS[form]
