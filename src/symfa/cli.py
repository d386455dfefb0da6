"""Command-line front end.

Exit codes: decision subcommands use 0 for a true verdict, 1 for false,
2 for usage or input errors and for any other failure, which is reported
as one "error:" line on stderr.  Everything else uses 0 on success and 2
on error.
"""

from __future__ import annotations

import argparse
import random
import sys

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


def _read_sfa(path):
    with open(path, encoding="utf-8") as fh:
        return parse_sfa(fh.read())


def _read_sample(path, alg):
    with open(path, encoding="utf-8") as fh:
        return parse_sample(alg, fh.read())


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symfa",
        description="Symbolic finite automata: transformations, "
                    "operations, decision procedures and learning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="rewrite an SFA to a special form")
    p.add_argument("kind", choices=["neat", "normalize", "feasible",
                                    "complete", "determinize", "minimize"])
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--form", choices=["neat", "normalized"], default="neat",
                   help="target form for minimize")

    p = sub.add_parser("op", help="binary/unary automata operations")
    p.add_argument("kind", choices=["product", "union", "complement"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("decide", help="decision procedures")
    dsub = p.add_subparsers(dest="question", required=True)
    q = dsub.add_parser("empty")
    q.add_argument("input")
    q = dsub.add_parser("member")
    q.add_argument("input")
    q.add_argument("word", help="space-separated letters, quoted; empty "
                                "string for the empty word")
    q = dsub.add_parser("include")
    q.add_argument("left")
    q.add_argument("right")
    q = dsub.add_parser("equiv")
    q.add_argument("left")
    q.add_argument("right")

    p = sub.add_parser("learn", help="passive learning pipeline")
    lsub = p.add_subparsers(dest="step", required=True)
    q = lsub.add_parser("char")
    q.add_argument("model")
    q.add_argument("-o", "--output", default="-")
    q = lsub.add_parser("infer")
    q.add_argument("sample")
    q.add_argument("-o", "--output", default="-")
    q.add_argument("--algebra", default="interval-nat",
                   help="interval-nat | interval-int | prop:<k>")
    q = lsub.add_parser("decontaminate")
    q.add_argument("sample")
    q.add_argument("-o", "--output", default="-")
    q.add_argument("--algebra", default="interval-nat")

    p = sub.add_parser("qlearn", help="query-learning experiments")
    qsub = p.add_subparsers(dest="experiment", required=True)
    q = qsub.add_parser("demo")
    q.add_argument("--prop", type=int, required=True, metavar="K")

    p = sub.add_parser("bench", help="property experiments")
    bsub = p.add_subparsers(dest="experiment", required=True)
    q = bsub.add_parser("roundtrip")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=20)
    q.add_argument("--max-states", type=int, default=6)

    return parser


def _cmd_transform(args):
    fn = {
        "neat": to_neat,
        "normalize": to_normalized,
        "feasible": make_feasible,
        "complete": complete_sfa,
        "determinize": determinize,
    }.get(args.kind, lambda m: minimize(m, args.form))
    _write(args.output, format_sfa(fn(_read_sfa(args.input))))
    return 0


def _cmd_op(args):
    if args.kind == "complement":
        if len(args.inputs) != 1:
            raise ValueError("complement takes one input")
        out = complement(_read_sfa(args.inputs[0]))
    else:
        if len(args.inputs) != 2:
            raise ValueError("%s takes two inputs" % args.kind)
        mode = "intersect" if args.kind == "product" else "union"
        out = product(_read_sfa(args.inputs[0]), _read_sfa(args.inputs[1]),
                      mode)
    _write(args.output, format_sfa(out))
    return 0


def _cmd_decide(args):
    if args.question == "empty":
        verdict = is_empty(_read_sfa(args.input))
        print("empty" if verdict else "nonempty")
        return 0 if verdict else 1
    if args.question == "member":
        m = _read_sfa(args.input)
        w = parse_word(m.algebra, args.word)
        verdict = accepts(m, w)
        print("member" if verdict else "nonmember")
        return 0 if verdict else 1
    left = _read_sfa(args.left)
    right = _read_sfa(args.right)
    mode = "subset" if args.question == "include" else "equiv"
    result = includes(left, right, mode)
    if result is True:
        print("yes")
        return 0
    print("no")
    print("counterexample: %s" % (format_word(result) or "(empty word)"))
    return 1


def _cmd_learn(args):
    if args.step == "char":
        m = _read_sfa(args.model)
        _write(args.output, format_sample(char_sfa(m)))
        return 0
    alg = _parse_algebra(args.algebra)
    sample = _read_sample(args.sample, alg)
    if args.step == "infer":
        _write(args.output, format_sfa(infer_sfa(alg, sample)))
    else:
        _write(args.output, format_sample(decontaminate(alg, sample)))
    return 0


def _cmd_qlearn(args):
    k = args.prop
    teacher = adversarial_prop_teacher(k)
    enumerating_predicate_learner(k, teacher)
    bound = 2 ** k - 1
    # the final successful EQ is not counted against the bound
    issued = teacher.query_count - 1
    print("k=%d queries=%d lower-bound=%d %s"
          % (k, issued, bound, "ok" if issued >= bound else "VIOLATED"))
    return 0 if issued >= bound else 1


def _cmd_bench(args):
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "op":
            return _cmd_op(args)
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "learn":
            return _cmd_learn(args)
        if args.command == "qlearn":
            return _cmd_qlearn(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except Exception as exc:
        # bad input (ValueError, OSError) or a failure inside the library:
        # one line, and exit 2 so that no failure reads as a verdict of 1
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
