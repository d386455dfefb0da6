#!/usr/bin/env python3
"""symfa benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One run builds the workload's inputs from
the seed (several times, timed as `setup_s`), then runs jobs one after
another in this one process and thread until S seconds of wall time have
passed, checking each job's outputs with the benchmark's own reference
code.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  With --trace 1 every job
runs twice, untraced and then traced, so `trace.overhead_ratio` compares
the same work.  Job records and trace spans are written to
.perfbench-out/ under the repository root.

--all runs every workload in a fresh process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_ratio", "ratio"),
    ("correct_ratio", "ratio"),
    ("output_states_ratio", "ratio"),
)


def _calls(name):
    return lambda t, jobs: t.calls(name) / jobs


def _self(name):
    return lambda t, jobs: t.self_s(name) / jobs


def _sum(key, per):
    """A hook sum divided by the calls of `per` (0 when never called)."""
    return lambda t, jobs: t.sums.get(key, 0) / max(t.calls(per), 1)


# name, unit, value from (tracer, traced job count).  Counts and times are
# per traced job, so runs that finish different numbers of jobs compare.
PER_LAYER = (
    ("dfa_learn.SampleIndex.init_s", "s",
     lambda t, jobs: t.total_s("dfa_learn.SampleIndex.init") / jobs),
    ("dfa_learn.SampleIndex.equiv.calls", "count",
     _calls("dfa_learn.SampleIndex.equiv")),
    ("dfa_learn.SampleIndex.equiv.self_s", "s",
     _self("dfa_learn.SampleIndex.equiv")),
    ("dfa_learn.infer_dfa.self_s", "s", _self("dfa_learn.infer_dfa")),
    ("dfa_learn.char_dfa.self_s", "s", _self("dfa_learn.char_dfa")),
    ("dfa_learn.distinguishing_word.calls", "count",
     _calls("dfa_learn.distinguishing_word")),
    ("dfa_learn.prefix_tree_dfa.self_s", "s",
     _self("dfa_learn.prefix_tree_dfa")),
    ("sfa_learn.decontaminate.self_s", "s", _self("sfa_learn.decontaminate")),
    ("sfa_learn.decontaminate.kept_ratio", "ratio",
     lambda t, jobs: (t.sums.get("decontaminate.letters_kept", 0)
                      / max(t.sums.get("decontaminate.letters_in", 0), 1))),
    ("sfa_learn.agrees.self_s", "s", _self("sfa_learn.agrees")),
    ("sfa_learn.generalize_dfa.self_s", "s", _self("sfa_learn.generalize_dfa")),
    ("sfa_learn.concretize_sfa.self_s", "s", _self("sfa_learn.concretize_sfa")),
    ("sfa_learn.infer_sfa.self_s", "s", _self("sfa_learn.infer_sfa")),
    ("sfa_learn.infer_sfa.fallback_ratio", "ratio",
     _sum("infer_sfa.fallbacks", "sfa_learn.infer_sfa")),
    ("sfa_learn.sample.words", "count",
     _sum("sample.words", "sfa_learn.infer_sfa")),
    ("sfa_learn.sample.alphabet", "count",
     _sum("sample.alphabet", "sfa_learn.infer_sfa")),
    ("sfa_learn.sample.max_len", "letters",
     _sum("sample.max_len", "sfa_learn.infer_sfa")),
    ("sfa.accepts.calls", "count", _calls("sfa.accepts")),
    ("sfa.accepts.self_s", "s", _self("sfa.accepts")),
    ("sfa.Sfa.out.calls", "count", _calls("sfa.Sfa.out")),
    ("sfa.Sfa.out.self_s", "s", _self("sfa.Sfa.out")),
    ("sfa.classify.calls", "count", _calls("sfa.classify")),
    ("sfa.classify.self_s", "s", _self("sfa.classify")),
    ("sfa.complete_sfa.self_s", "s", _self("sfa.complete_sfa")),
    ("ops.product.self_s", "s", _self("ops.product")),
    ("ops.product.out_states", "count",
     _sum("ops.product.out_states", "ops.product")),
    ("ops.determinize.self_s", "s", _self("ops.determinize")),
    ("ops.determinize.out_states", "count",
     _sum("ops.determinize.out_states", "ops.determinize")),
    ("ops.determinize.max_guard", "nodes",
     lambda t, jobs: t.sums.get("ops.determinize.max_guard", 0)),
    ("ops.minimize.self_s", "s", _self("ops.minimize")),
    ("ops.minimize.out_states", "count",
     _sum("ops.minimize.out_states", "ops.minimize")),
    ("ops.complement.self_s", "s", _self("ops.complement")),
    ("ops.includes.self_s", "s", _self("ops.includes")),
    ("algebra.denote.calls", "count", _calls("algebra.denote")),
    ("algebra.denote.self_s", "s", _self("algebra.denote")),
    ("algebra.to_canonical_intervals.calls", "count",
     _calls("algebra.to_canonical_intervals")),
    ("algebra.to_canonical_intervals.self_s", "s",
     _self("algebra.to_canonical_intervals")),
    ("algebra.contains.calls", "count", _calls("algebra.contains")),
    ("algebra.contains.self_s", "s", _self("algebra.contains")),
    ("algebra.prop_cache.entries", "count",
     lambda t, jobs: t.sums.get("prop_cache.entries", 0) / jobs),
    ("query_learn.mq.calls", "count", _calls("query_learn.mq")),
    ("query_learn.eq.calls", "count", _calls("query_learn.eq")),
    ("query_learn.eq.self_s", "s", _self("query_learn.eq")),
    ("query_learn.lower_bound_ratio", "ratio",
     lambda t, jobs: t.sums.get("lower_bound_ratio", 0)),
    ("trace.overhead_ratio", "ratio", None),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload NAME or --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_symfa():
    """Import symfa from this checkout's src/ directory, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import symfa
    except ImportError as exc:
        sys.exit("perfbench: cannot import symfa from %s: %s" % (SRC, exc))
    if Path(symfa.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: symfa was imported from %s, not from %s"
                 % (symfa.__file__, SRC))


def symfa_caches():
    """Every functools cache on a function of a symfa module."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("symfa.") and mod is not None:
            for fn in vars(mod).values():
                if (callable(fn) and hasattr(fn, "cache_clear")
                        and hasattr(fn, "cache_info")
                        and getattr(fn, "__module__", None) == name):
                    out.append(fn)
    return out


def cycle_rate(times, completed, rungs):
    """Median over whole ladder cycles (one job per rung) of completed
    jobs per second of the cycle's wall time; over all jobs when the run
    is shorter than one cycle.  A median, because bursts of contention on
    a shared host slow a few seconds of a run at a time."""
    cycles = [(sum(completed[i:i + rungs]), sum(times[i:i + rungs]))
              for i in range(0, len(times) - rungs + 1, rungs)]
    if not cycles:
        return sum(completed) / sum(times)
    return statistics.median(done / secs for done, secs in cycles)


def tail(times):
    """(value, percentile): the job time with TAIL_BEYOND jobs beyond it,
    that is the highest percentile with that many jobs beyond it; in runs
    too short for that to lie above the median, the median."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def run_job(wl, inp, caches):
    """Run one job from cold caches and a freshly collected heap; returns
    (output or None, seconds, error text or None)."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    start = perf_counter()
    try:
        out = wl.run(inp)
        err = None
    except Exception:  # a job that raises counts as failed; keep going
        out = None
        err = traceback.format_exc(limit=4)
    return out, perf_counter() - start, err


def set_up(wl, seed):
    """Build the first batch of inputs SETUP_REPEATS times.  Returns the
    inputs, the build times and the host calibrations taken around them."""
    import inputs

    times, cals, prints = [], [], set()
    for _ in range(SETUP_REPEATS):
        pool = None  # free the previous copy before timing the next
        cals.append(calibrate.measure())
        start = perf_counter()
        pool = build_inputs(wl, seed, 0)
        times.append(perf_counter() - start)
        cals.append(calibrate.measure())
        prints.add(inputs.fingerprint(pool))
    if len(prints) != 1:
        sys.exit("perfbench: one seed built different inputs")
    return pool, times, cals


def build_inputs(wl, seed, first):
    import inputs
    return [wl.make_input(inputs.job_rng(wl.name, seed, i), i)
            for i in range(first, first + wl.batch)]


def measure(name, seed, seconds, trace):
    from workloads import KNOWN_DEFECTS, WORKLOADS

    wl = WORKLOADS[name]
    caches = symfa_caches()
    pool, setups, setup_cals = set_up(wl, seed)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()

    times, cals, traced_times, completed, records = [], [], [], [], []
    checked = passed = 0
    explained, unexplained = {}, []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        i = len(times)
        if i == len(pool):
            pool += build_inputs(wl, seed, i)
        inp, pool[i] = pool[i], None
        out, dt, err = run_job(wl, inp, caches)
        times.append(dt)
        cals.append(calibrate.measure())
        completed.append(int(err is None))
        if tracer is not None:
            tracer.job = i
            tracer.install()
            try:
                traced_times.append(run_job(wl, inp, caches)[1])
            finally:
                tracer.uninstall()
            tracer.sums["prop_cache.entries"] = (
                tracer.sums.get("prop_cache.entries", 0)
                + sum(c.cache_info().currsize for c in caches))
        if err is not None:
            print("job %d raised:\n%s" % (i, err), file=sys.stderr)
            continue
        checks, record = wl.assess(inp, out)
        record.update(job=i, seconds=dt, calibration_s=cals[-1],
                      failed_checks=[c for c, ok, _ in checks if not ok])
        records.append(record)
        for check, ok, defect in checks:
            checked += 1
            if ok:
                passed += 1
            elif defect in KNOWN_DEFECTS:
                explained[defect] = explained.get(defect, 0) + 1
            else:
                unexplained.append((i, check))
    attempted, failed = len(times), len(times) - sum(completed)
    print("%d jobs, %.2f s in jobs, %.2f s wall" % (
        attempted, sum(times), perf_counter() - start))
    for job, check in unexplained[:20]:
        print("job %d: check %s failed" % (job, check), file=sys.stderr)
    for defect, count in sorted(explained.items()):
        print("known defect %s: %d failed checks" % (defect, count))

    if tracer is None:
        rungs = len(wl.ladder)
        scaled = calibrate.scale(times, cals)
        value, pct = tail(scaled)
        print("job_tail_s is p%.1f of %d jobs" % (pct, attempted))
        print("uncalibrated: %.4g jobs/s, p50 %.4g s, tail %.4g s, "
              "setup %.4g s; host speed %.3f of reference" % (
                  cycle_rate(times, completed, rungs),
                  statistics.median(times), tail(times)[0],
                  statistics.median(setups),
                  calibrate.REFERENCE_S / statistics.median(cals)))
        goal = sum(r["goal_states"] for r in records)
        metrics = {
            "setup_s": (statistics.median(setups) * calibrate.REFERENCE_S
                        / statistics.median(setup_cals)),
            "jobs_per_s": cycle_rate(scaled, completed, rungs),
            "job_p50_s": statistics.median(scaled),
            "job_tail_s": value,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_ratio": (attempted - failed) / attempted,
            "correct_ratio": passed / checked if checked else 0.0,
            "output_states_ratio": (sum(r["out_states"] for r in records)
                                    / goal if goal else 0.0),
        }
        units = dict(END_TO_END)
    else:
        bounds = [r["adv_queries"] / r["lower_bound"] for r in records
                  if "adv_queries" in r]
        if bounds:
            tracer.sums["lower_bound_ratio"] = min(bounds)
        metrics = {m: fn(tracer, attempted) for m, _, fn in PER_LAYER if fn}
        metrics["trace.overhead_ratio"] = sum(traced_times) / sum(times)
        units = {m: unit for m, unit, _ in PER_LAYER}

    write_outputs(name, seed, trace, records, tracer)
    return {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }


def write_outputs(name, seed, trace, records, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / ("%s-seed%d-trace%d" % (name, seed, trace))
    with open(str(stem) + ".jobs.jsonl", "w") as f:
        for r in records:
            f.write(json.dumps(r, default=str) + "\n")
    if tracer is not None:
        with open(str(stem) + ".spans.jsonl", "w") as f:
            for job, sid, parent, span, start, end in tracer.spans:
                f.write(json.dumps({"job": job, "id": sid, "parent": parent,
                                    "name": span, "start": start,
                                    "end": end}) + "\n")


def run_all(args):
    """Every workload in a fresh process; print one row per metric."""
    import_symfa()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d" % (name, proc.returncode), file=sys.stderr)
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
    names = list(rows)
    metrics = []
    for r in rows.values():
        for m in r["metrics"]:
            if m not in metrics:
                metrics.append(m)
    width = max(len(m) for m in metrics) + 8 if metrics else 10
    print("%-*s" % (width, "metric [unit]")
          + "".join("%18s" % n for n in names))
    for key in ("correct", "attempted", "failed"):
        print("%-*s" % (width, key)
              + "".join("%18s" % rows[n][key] for n in names))
    for m in metrics:
        unit = next(r["metrics"][m]["unit"] for r in rows.values()
                    if m in r["metrics"])
        cells = "".join("%18.6g" % rows[n]["metrics"][m]["value"]
                        if m in rows[n]["metrics"] else "%18s" % "-"
                        for n in names)
        print("%-*s" % (width, "%s [%s]" % (m, unit)) + cells)
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    import_symfa()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
