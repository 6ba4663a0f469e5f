"""Benchmark of the levelrank package: one workload, timed in fresh processes.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify_all, exhaustion_7x7, fusion_5x4, modular_4x4 (see
README.md in this directory). Every repetition runs in a new interpreter
(worker.py), so every memo table starts cold, as it does for a user of the
command line. Repetitions run back to back (closed loop, one process, one
thread) until the next one would end after S seconds, and at least
MIN_REPS of them run. Before each repetition this process times a fixed
pure-Python reference computation (reference_s), and a set-up probe
imports the package and exits, so each run has many set-up samples.

With --trace 0 the result holds the end-to-end metrics: the medians of
wall_s (timed region), setup_s (interpreter start until the package and
its CLI are imported) and peak_rss_mb (peak resident memory at the end of
the timed region). Times are given at a nominal host speed: each
repetition's times are multiplied by REFERENCE_NOMINAL_S over the reference
time measured just before it. The host's speed drifts by a third over tens
of minutes (README.md, "Host noise"); the scaling keeps that drift out of
comparisons between runs made at different times. The unscaled medians are
printed as raw_wall_s and raw_setup_s. With --trace 1, traced and untraced
repetitions alternate; the result holds the median of each per-layer metric
over the traced ones. The tracing overhead, unscaled traced wall_s minus
the untraced wall_s of the repetition after it, is printed per pair with
its median.

Every repetition checks its outputs after the clock stops. attempted
counts the verdicts checked and failed the verdicts that missed or raised,
so failed/attempted is fail_frac. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. The lines before it
give the machine context, the seed, every metric with its unit, and a
"detail" JSON line with the raw samples (read by sweep.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("verify_all", "exhaustion_7x7", "fusion_5x4", "modular_4x4")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_REPS = 3  # untraced repetitions; a traced run needs MIN_TRACED_PAIRS of each
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Times are reported at the host speed at which reference_s takes this long.
REFERENCE_NOMINAL_S = 0.2


def machine_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def reference_s() -> float:
    """Time a fixed pure-Python computation that does not use the package.
    It runs in this process, which never imports the package, so no change to
    the package can move it.
    It mixes the operations the package spends its time in: tuples, dicts and
    list comprehensions (weights, partitions, LR expansion), integer vector
    products folded modulo a polynomial (cyclotomic multiplication) and
    Fraction arithmetic (cyclotomic inverses). Its time measures how fast the
    host runs such code at this moment."""
    from fractions import Fraction

    start = time.perf_counter()
    table: dict = {}
    for i in range(40000):
        key = (i % 251, i % 241, i % 7)
        row = [a * b + c for a, b, c in zip(key, key[1:] + key[:1], key[2:] + key[:2])]
        table[key] = table.get(key, 0) + sum(row) % 13
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    vec = [(3 * k) % 17 - 8 for k in range(12)]
    for _ in range(700):
        prod = [0] * 23
        for i, a in enumerate(vec):
            if a:
                for j, b in enumerate(vec):
                    prod[i + j] += a * b
        for i in range(22, 11, -1):
            c, prod[i] = prod[i], 0
            for j in range(12):
                prod[i - 12 + j] -= c * (j % 3 - 1)
        vec = [x % 1009 - 504 for x in prod[:12]]
    total = Fraction(0)
    for k in range(1, 6000):
        total += Fraction(k % 17 - 8, k % 29 + 1) * Fraction(k % 5 + 2, 3) - Fraction(1, k % 7 + 1)
        if k % 8 == 0:
            total = Fraction(0)
    return time.perf_counter() - start


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    below = n - 10
    return 100 * below // n, sorted(samples)[below - 1]


class Workers:
    """Starts worker processes and collects what they report."""

    def __init__(self, seed: int, begin: float):
        self.seed = seed
        self.begin = begin
        self.errors: list[str] = []

    def spawn(self, workload: str, trace: int = 0) -> dict | None:
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.begin))
        cmd = [sys.executable, str(WORKER), str(SRC), workload, str(self.seed), str(trace)]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd + [repr(spawned)], capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{workload}: worker timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            self.errors.append(f"{workload}: worker exit {proc.returncode}: {last}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    begin = time.monotonic()
    deadline = begin + seconds
    workers = Workers(seed, begin)
    workers.spawn("setup")  # writes bytecode caches; not measured
    plain, traced, setups, durations = [], [], [], []
    while not workers.errors:
        started = time.monotonic()
        reference = reference_s()
        probe = workers.spawn("setup")
        if probe is None:
            break
        use_trace = trace and len(traced) <= len(plain)
        result = workers.spawn(workload, int(use_trace))
        durations.append(time.monotonic() - started)
        if result is None:
            break
        speed = REFERENCE_NOMINAL_S / reference
        probe["scaled_setup_s"] = probe["setup_s"] * speed
        result.update(reference_s=reference,
                      scaled_setup_s=result["setup_s"] * speed,
                      scaled_wall_s=result["wall_s"] * speed)
        setups += [probe, result]
        (traced if use_trace else plain).append(result)
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PAIRS
        else:
            enough = len(plain) >= MIN_REPS
        now = time.monotonic()
        if enough and now + statistics.median(durations) > deadline:
            break
        if now + 2 * max(durations) > begin + RUN_LIMIT_S:
            break
    return {"plain": plain, "traced": traced, "setups": setups, "errors": workers.errors}


def summarize(samples: dict, trace: bool) -> tuple[dict, dict]:
    plain, traced = samples["plain"], samples["traced"]
    reps = plain + traced
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps) + len(samples["errors"])
    failed = len(failures) + len(samples["errors"])
    digests = sorted({r["digest"] for r in reps})
    unwrapped = sorted({b for r in traced for b in r.get("unwrapped", [])})
    complete = bool(plain) and (bool(traced) or not trace)
    correct = complete and failed == 0 and len(digests) == 1 and not unwrapped

    metrics: dict[str, dict] = {}
    if complete and not trace:
        values = {
            "wall_s": [r["scaled_wall_s"] for r in plain],
            "setup_s": [r["scaled_setup_s"] for r in samples["setups"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    elif complete:
        import tracing

        for name, unit in tracing.metric_units().items():
            value = statistics.median(r["metrics"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}

    detail = {
        "wall_s": [r["scaled_wall_s"] for r in plain],
        "traced_wall_s": [r["scaled_wall_s"] for r in traced],
        "setup_s": [r["scaled_setup_s"] for r in samples["setups"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_wall_s": [r["wall_s"] for r in plain],
        "raw_setup_s": [r["setup_s"] for r in samples["setups"]],
        "reference_s": [r["reference_s"] for r in plain],
        # traced and untraced repetitions alternate; pairing neighbours keeps
        # the host's slow drift out of the difference
        "overhead_s": [t["wall_s"] - u["wall_s"] for t, u in zip(traced, plain)],
        "digests": digests,
        "failures": failures[:20],
        "errors": samples["errors"],
        "unwrapped": unwrapped,
        "missing": sorted({m for r in traced for m in r.get("missing", [])}),
    }
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "levelrank" / "__init__.py").is_file():
        print(f"error: no levelrank package under {SRC}", file=sys.stderr)
        return 2

    context = machine_context()
    print(f"levelrank benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("context: " + json.dumps(context))
    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result, detail = summarize(samples, bool(args.trace))
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, context=context)

    print(f"reps: {len(detail['wall_s'])} untraced, {len(detail['traced_wall_s'])} traced, "
          f"{len(detail['setup_s'])} set-up samples")
    for name, unit in {**END_TO_END_UNITS, "traced_wall_s": "s", "raw_wall_s": "s",
                       "raw_setup_s": "s", "reference_s": "s"}.items():
        values = detail[name]
        if values:
            tail = tail_percentile(values)
            extra = (f", p{tail[0]} {tail[1]:.4f} {unit}" if tail
                     else f", max {max(values):.4f} {unit}")
            print(f"{name}: median {statistics.median(values):.4f} {unit}{extra} "
                  f"(n={len(values)})")
    if detail["overhead_s"]:
        pairs = " ".join(f"{x:+.3f}" for x in detail["overhead_s"])
        print(f"trace overhead (traced minus next untraced wall_s, unscaled): median "
              f"{statistics.median(detail['overhead_s']):+.4f} s over "
              f"{len(detail['overhead_s'])} pairs: {pairs}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} verdicts)")
    for label, kind in detail["failures"]:
        print(f"  failed: {label}: {kind}")
    for line in detail["errors"] + [f"unwrapped binding: {b}" for b in detail["unwrapped"]]:
        print(f"  error: {line}")
    for name in detail["missing"]:
        print(f"  not traced: the package has no {name}")
    print(f"digest: {' '.join(detail['digests'])}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
