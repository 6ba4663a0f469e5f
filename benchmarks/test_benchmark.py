"""Tests of the benchmark itself: every binding of a traced function is
wrapped, per-layer counts are nonzero where the layer is exercised, counts
repeat exactly across runs and seeds, and known counts come out right.

Run from the root of a checkout (about a minute; each workload runs traced
three times):

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import tracing  # noqa: E402
from run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402


def traced_worker(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), workload, str(seed), "1",
           repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, list[dict]]:
    """Per workload: two traced runs with seed 1, one with seed 2."""
    return {w: [traced_worker(w, s) for s in (1, 1, 2)] for w in WORKLOAD_NAMES}


def _counts(report: dict) -> dict:
    return {k: report["metrics"][k] for k in tracing.count_metrics()}


def test_every_binding_is_wrapped():
    import levelrank
    import levelrank.cli  # noqa: F401
    from levelrank import branching, cyclotomic, fusion, qdim, verify, weights
    from levelrank.partitions import Partition

    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
        assert tracer.unwrapped_bindings() == []
        # no namespace of the package still refers to an original
        namespaces = {id(ns) for ns, _ in tracing._package_namespaces()}
        for name, original in tracer.originals.items():
            holders = [r for r in gc.get_referrers(original) if id(r) in namespaces]
            assert holders == [], name
        cls = cyclotomic.CyclotomicNumber
        assert cls.__radd__ is cls.__add__ is not None
        assert cls.__rmul__ is cls.__mul__
        assert qdim.qint is cyclotomic.qint is levelrank.qint
        assert fusion.lr_expand is levelrank.lr_expand
        assert verify.tau is branching.tau is weights.tau
        assert verify.SUITES["tau"] is verify.suite_tau

        one = cls.one(8)
        _ = 1 + one, 2 * one, one == 1
        qdim.qdim_partition(Partition((2, 1)), 3, 3)
        m = tracer.metrics()
        assert m["cyclotomic.add.calls"] >= 1
        assert m["cyclotomic.mul.calls"] >= 1
        assert m["cyclotomic.eq.calls"] >= 1
        assert m["qdim.qdim_partition.calls"] == 1
    finally:
        tracer.uninstall()
    assert tracer.unwrapped_bindings() != []  # the originals are back
    assert verify.SUITES["tau"] is verify.suite_tau


def test_seed_only_permutes_cases():
    from workloads import WORKLOADS

    for name, wl in WORKLOADS.items():
        a, b = wl.cases(random.Random(1)), wl.cases(random.Random(2))
        if name == "verify_all":  # one case: the suite order
            a, b = a[0], b[0]
        assert sorted(map(repr, a)) == sorted(map(repr, b)), name
        if name != "modular_4x4":
            assert a != b, name


def test_counts_nonzero_on_their_workload(traced_runs):
    for name, home in tracing.count_metrics().items():
        assert traced_runs[home][0]["metrics"][name] > 0, (name, home)


def test_counts_and_verdicts_repeat_across_runs_and_seeds(traced_runs):
    for w, runs in traced_runs.items():
        assert all(r["failures"] == [] and r["unwrapped"] == [] for r in runs), w
        assert len({r["digest"] for r in runs}) == 1, w
        assert len({r["attempted"] for r in runs}) == 1, w
        first = _counts(runs[0])
        for r in runs[1:]:
            assert _counts(r) == first, w


def test_known_counts(traced_runs):
    fusion = traced_runs["fusion_5x4"][0]["metrics"]
    assert fusion["fusion.fuse.calls"] == comb(5 + 4 - 1, 4) ** 2 == 4900
    assert fusion["symfunc.lr_expand.calls"] == 70 * 71 // 2  # one per unordered pair
    exhaustion = traced_runs["exhaustion_7x7"][0]["metrics"]
    assert exhaustion["branching.verify_exhaustion.calls"] == 49
    distinct = exhaustion["qdim.qdim_partition.distinct_ratio"] * exhaustion[
        "qdim.qdim_partition.calls"]
    assert round(distinct) == comb(13, 6)  # every rank-7 level-7 weight once
    modular = traced_runs["modular_4x4"][0]["metrics"]
    assert modular["smatrix.s_matrix.calls"] == 2  # one inside verlinde_check(4, 3)
    assert modular["fusion.verlinde_check.calls"] == 1
    verify_all = traced_runs["verify_all"][0]
    assert verify_all["metrics"]["verify.checks"] == verify_all["attempted"] - 1  # + exit


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()


def test_result_line_has_every_end_to_end_metric():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "verify_all", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "fusion_5x4", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
