"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import run  # noqa: E402
from reference import RefMachine, holds, prop_letters, truth_mask  # noqa: E402
from symfa.algebra import INTERVAL_NAT, contains, prop_algebra  # noqa: E402
from symfa.generate import random_pred  # noqa: E402
from symfa.sfa import Sfa  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(name, seed, count=4):
    wl = WORKLOADS[name]
    return [wl.make_input(inputs.job_rng(name, seed, i), i)
            for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    first = inputs.fingerprint(_inputs(name, 7))
    assert inputs.fingerprint(_inputs(name, 7)) == first
    assert inputs.fingerprint(_inputs(name, 8)) != first


def test_targets_have_exact_size():
    rng = random.Random(0)
    for n in (2, 5, 9):
        m, draws = inputs.draw_interval_target(rng, n)
        assert len(m.states) == n and draws >= 1
        ref = RefMachine(m)
        letters = ref.interval_letters()
        from reference import minimal_state_count
        assert minimal_state_count([ref], letters, any) == n


def _flip_one(m):
    """m with the acceptance of its initial state flipped."""
    return Sfa(m.algebra, m.states, m.initial,
               m.accepting ^ {m.initial}, m.transitions)


def _failed(checks):
    return {name for name, ok, _ in checks if not ok}


def test_checker_rejects_flipped_learned_machine():
    wl = WORKLOADS["learn-complete"]
    inp = _inputs("learn-complete", 0, 1)[0]
    out = wl.run(inp)
    checks, _ = wl.assess(inp, out)
    assert not _failed(checks)
    out["learned"] = _flip_one(out["learned"])
    assert {"learned-matches-sample",
            "learned-matches-target"} <= _failed(wl.assess(inp, out)[0])


def test_checker_rejects_wrong_verdict_and_wrong_minimum():
    wl = WORKLOADS["ops-interval"]
    inp = _inputs("ops-interval", 0, 1)[0]
    out = wl.run(inp)
    assert not _failed(wl.assess(inp, out)[0])
    out["mins_equiv"] = (0,)
    out["union_in_not_a"] = True
    out["min_union"] = _flip_one(out["min_union"])
    failed = _failed(wl.assess(inp, out)[0])
    assert {"mins-equiv", "union-not-in-complement",
            "min-union-language"} <= failed


def test_checker_tags_only_the_known_defect():
    wl = WORKLOADS["ops-prop"]
    for inp in _inputs("ops-prop", 0, 3):
        checks, _ = wl.assess(inp, wl.run(inp))
        for name, ok, defect in checks:
            assert ok or defect == "prop-neat-overlap", name


def test_reference_agrees_with_symfa_semantics():
    rng = random.Random(1)
    for _ in range(200):
        pred = random_pred(rng, INTERVAL_NAT, depth=4)
        for d in (0, 1, 499, 500, 999, 1000, 10 ** 6, float("inf")):
            assert holds(pred, d) == contains(INTERVAL_NAT, pred, d)
    for k in (1, 3, 6):
        alg = prop_algebra(k)
        for i in range(50):
            pred = inputs.random_prop_pred(random.Random(i), k, 4)
            mask = truth_mask(pred, k)
            for v, d in enumerate(prop_letters(k)):
                assert bool(mask >> v & 1) == holds(pred, d) \
                    == contains(alg, pred, d)


def test_deep_predicates_do_not_recurse():
    from symfa.algebra import Interval, Or
    pred = Interval(0, 1)
    for i in range(1, 5000):
        pred = Or(pred, Interval(2 * i, 2 * i + 1))
    assert holds(pred, 4000) and not holds(pred, 4001)


def test_tail_has_ten_jobs_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3)


def test_metric_names_and_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert e2e == [m for m, _ in run.END_TO_END]
    assert layers == [m for m, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in e2e + layers + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64
    units = dict(run.END_TO_END)
    units.update((m, u) for m, u, _ in run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         "0", "--seconds", "0.01", "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
    expected = ([m for m, _ in run.END_TO_END] if trace == 0
                else [m for m, _, _ in run.PER_LAYER])
    assert list(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
