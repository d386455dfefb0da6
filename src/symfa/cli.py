"""Command-line front end.

Exit codes: decision subcommands use 0 for a true verdict, 1 for false,
2 for usage or input errors and for any other failure, which is reported
as one "error:" line on stderr.  Everything else uses 0 on success and 2
on error.  Each subcommand's parser binds its handler as args.run.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import partial

from .algebra import Algebra
from .generate import random_sfa
from .ops import complement, determinize, equiv, includes, is_empty, \
    minimize, product
from .sfa import (
    accepts, complete_sfa, format_sample, format_sfa, format_word,
    make_feasible, parse_sample, parse_sfa, parse_word, to_neat,
    to_normalized,
)
from .sfa_learn import char_sfa, decontaminate, infer_sfa
from .query_learn import adversarial_prop_teacher, \
    enumerating_predicate_learner


def _parse_algebra(text):
    if text.startswith("prop:"):
        return Algebra("prop", int(text.split(":", 1)[1]))
    return Algebra(text)


def _read(path, parse=parse_sfa):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser():
    # -o is left unset when absent, so that op takes it both before and
    # after its kind; the top parser's default fills it in
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", default=argparse.SUPPRESS)
    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument("--algebra", default="interval-nat",
                     help="interval-nat | interval-int | prop:<k>")
    parser = argparse.ArgumentParser(
        prog="symfa",
        description="Symbolic finite automata: transformations, "
                    "operations, decision procedures and learning.")
    parser.set_defaults(output="-")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[out],
                       help="rewrite an SFA to a special form")
    p.add_argument("kind", choices=["neat", "normalize", "feasible",
                                    "complete", "determinize", "minimize"])
    p.add_argument("input")
    p.add_argument("--form", choices=["neat", "normalized"], default="neat",
                   help="target form for minimize")
    p.set_defaults(run=_transform)

    p = sub.add_parser("op", parents=[out],
                       help="binary/unary automata operations")
    osub = p.add_subparsers(dest="kind", required=True)
    for kind, arity, fn in (("product", 2, product),
                            ("union", 2, partial(product, mode="union")),
                            ("complement", 1, complement)):
        q = osub.add_parser(kind, parents=[out])
        q.add_argument("inputs", nargs=arity)
        q.set_defaults(run=partial(_op, fn))

    p = sub.add_parser("decide", help="decision procedures")
    dsub = p.add_subparsers(dest="question", required=True)
    q = dsub.add_parser("empty")
    q.add_argument("input")
    q.set_defaults(run=_decide_empty)
    q = dsub.add_parser("member")
    q.add_argument("input")
    q.add_argument("word", help="space-separated letters, quoted; empty "
                                "string for the empty word")
    q.set_defaults(run=_decide_member)
    for question, mode in (("include", "subset"), ("equiv", "equiv")):
        q = dsub.add_parser(question)
        q.add_argument("left")
        q.add_argument("right")
        q.set_defaults(run=partial(_decide_includes, mode))

    p = sub.add_parser("learn", help="passive learning pipeline")
    lsub = p.add_subparsers(dest="step", required=True)
    q = lsub.add_parser("char", parents=[out])
    q.add_argument("model")
    q.set_defaults(run=_learn_char)
    for step, learner, fmt in (("infer", infer_sfa, format_sfa),
                               ("decontaminate", decontaminate,
                                format_sample)):
        q = lsub.add_parser(step, parents=[out, alg])
        q.add_argument("sample")
        q.set_defaults(run=partial(_learn, learner, fmt))

    p = sub.add_parser("qlearn", help="query-learning experiments")
    q = p.add_subparsers(dest="experiment", required=True).add_parser("demo")
    q.add_argument("--prop", type=int, required=True, metavar="K")
    q.set_defaults(run=_qlearn)

    p = sub.add_parser("bench", help="property experiments")
    q = p.add_subparsers(dest="experiment",
                         required=True).add_parser("roundtrip")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=20)
    q.add_argument("--max-states", type=int, default=6)
    q.set_defaults(run=_bench)

    return parser


def _transform(args):
    fn = {
        "neat": to_neat,
        "normalize": to_normalized,
        "feasible": make_feasible,
        "complete": complete_sfa,
        "determinize": determinize,
    }.get(args.kind, lambda m: minimize(m, args.form))
    _write(args.output, format_sfa(fn(_read(args.input))))
    return 0


def _op(fn, args):
    _write(args.output, format_sfa(fn(*map(_read, args.inputs))))
    return 0


def _verdict(holds, yes, no):
    print(yes if holds else no)
    return 0 if holds else 1


def _decide_empty(args):
    return _verdict(is_empty(_read(args.input)), "empty", "nonempty")


def _decide_member(args):
    m = _read(args.input)
    return _verdict(accepts(m, parse_word(m.algebra, args.word)),
                    "member", "nonmember")


def _decide_includes(mode, args):
    result = includes(_read(args.left), _read(args.right), mode)
    code = _verdict(result is True, "yes", "no")
    if code:
        print("counterexample: %s" % (format_word(result) or "(empty word)"))
    return code


def _learn_char(args):
    _write(args.output, format_sample(char_sfa(_read(args.model))))
    return 0


def _learn(learner, fmt, args):
    alg = _parse_algebra(args.algebra)
    sample = _read(args.sample, partial(parse_sample, alg))
    _write(args.output, fmt(learner(alg, sample)))
    return 0


def _qlearn(args):
    k = args.prop
    teacher = adversarial_prop_teacher(k)
    enumerating_predicate_learner(k, teacher)
    bound = 2 ** k - 1
    # the final successful EQ is not counted against the bound
    issued = teacher.query_count - 1
    print("k=%d queries=%d lower-bound=%d %s"
          % (k, issued, bound, "ok" if issued >= bound else "VIOLATED"))
    return 0 if issued >= bound else 1


def _bench(args):
    if args.count < 0 or args.max_states < 1:
        raise ValueError("need --count >= 0 and --max-states >= 1")
    rng = random.Random(args.seed)
    passed = 0
    for _ in range(args.count):
        m = random_sfa(rng, max_states=args.max_states)
        learned = infer_sfa(m.algebra, char_sfa(m))
        if equiv(learned, m):
            passed += 1
    print("roundtrip: %d/%d passed" % (passed, args.count))
    return 0 if passed == args.count else 1


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except Exception as exc:
        # bad input (ValueError, OSError) or a failure inside the library:
        # one line, and exit 2 so that no failure reads as a verdict of 1
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
