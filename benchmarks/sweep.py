"""Repeat the benchmark over seeds, workloads and checkouts, interleaved.

Usage, from any directory:

    python3 benchmarks/sweep.py [--side DIR ...] [--seeds N] [--first-seed K]
                                [--trace 0|1]

Each --side is the root of a checkout (default: the one holding this file);
two sides compare a parent with a change. The host's speed drifts over
seconds to minutes, so runs are interleaved rather than batched: for each
seed, the workloads run in an order rotated by the seed's position, and the
sides alternate which goes first. Workloads, run length and bounds come from
BENCHMARK.json of the first side.

For every side, workload and end-to-end metric the summary gives the median
of the per-run values, their quartiles, and the spread (third minus first
quartile over the median) against the metric's bound. It also pools the
per-repetition wall times of all runs and gives their median and the highest
percentile with at least ten samples beyond it; with --trace 1, it pools the
tracing overhead of every pair of neighbouring repetitions. With two sides
it gives the ratio of medians and how many seeds the second side won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import tail_percentile  # noqa: E402


def run_once(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{side} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), {})
    return {"side": str(side), "workload": workload, "seed": seed,
            "result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarize(runs: list[dict], sides: list[Path], bench: dict, trace: int) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = []
    for w in [x["name"] for x in bench["workloads"]]:
        per_side = {}
        for side in sides:
            rs = [r for r in runs if r["workload"] == w and r["side"] == str(side)]
            if not rs:
                continue
            per_side[side] = rs
            bad = [r for r in rs if not r["result"]["correct"] or r["result"]["failed"]]
            fails = sum(r["result"]["failed"] for r in rs)
            tried = sum(r["result"]["attempted"] for r in rs)
            out.append(f"{w} @ {side}: {len(rs)} runs, {len(bad)} incorrect, "
                       f"fail_frac {fails / max(tried, 1):.3g} ({fails}/{tried})")
            names = rs[0]["result"]["metrics"].keys()
            for name in names:
                vals = [r["result"]["metrics"][name]["value"] for r in rs]
                if not any(vals):
                    continue
                if trace and name.endswith((".calls", ".distinct_ratio", ".kept_ratio",
                                            ".checks")):
                    same = "same in every run" if len(set(vals)) == 1 else "DIFFER"
                    out.append(f"  {name}: {sorted(set(vals))} {same}")
                    continue
                if len(vals) < 2:
                    out.append(f"  {name}: {vals[0]:.6g}")
                    continue
                med, q1, q3, spr = spread(vals)
                bound = bounds.get(name)
                verdict = ""
                if bound:
                    verdict = ("steady" if spr < bound / 3
                               else "within bound" if spr <= bound else "TOO WIDE")
                    verdict = f"  bound {bound} -> {verdict}"
                out.append(f"  {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                           f"spread {spr:.3f}{verdict}")
            pooled = [x for r in rs for x in r["detail"].get("wall_s", [])]
            if pooled:
                tail = tail_percentile(pooled)
                extra = f", p{tail[0]} {tail[1]:.4f}" if tail else ""
                out.append(f"  pooled wall_s: median {statistics.median(pooled):.4f}"
                           f"{extra} (n={len(pooled)})")
            overhead = [x for r in rs for x in r["detail"].get("overhead_s", [])]
            if len(overhead) >= 2:
                med, q1, q3, _ = spread(overhead)
                out.append(f"  pooled trace overhead: median {med:+.4f} s, q1 {q1:+.4f} "
                           f"q3 {q3:+.4f} (n={len(overhead)} pairs)")
            digests = sorted({d for r in rs for d in r["detail"].get("digests", [])})
            out.append(f"  digests: {' '.join(digests)}")
        if len(per_side) == 2 and not trace:
            a, b = per_side.values()
            for name in a[0]["result"]["metrics"]:
                va = {r["seed"]: r["result"]["metrics"][name]["value"] for r in a}
                vb = {r["seed"]: r["result"]["metrics"][name]["value"] for r in b}
                seeds = sorted(set(va) & set(vb))
                wins = sum(vb[s] < va[s] for s in seeds)
                ratio = statistics.median(vb.values()) / statistics.median(va.values())
                out.append(f"  {name}: second/first median {ratio:.4f}, "
                           f"second lower on {wins}/{len(seeds)} seeds")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", type=Path)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sides = [p.resolve() for p in (args.side or [HERE.parent])]
    bench = json.loads((sides[0] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = []
    begin = time.monotonic()
    for k in range(args.seeds):
        seed = args.first_seed + k
        for w in names[k % len(names):] + names[:k % len(names)]:
            for side in (sides if k % 2 == 0 else sides[::-1]):
                r = run_once(side, w, seed, seconds, args.trace)
                runs.append(r)
                m = r["result"]["metrics"]
                brief = " ".join(f"{n}={v['value']:.4g}" for n, v in list(m.items())[:3])
                print(f"[{time.monotonic() - begin:7.1f} s] seed {seed} {w} {side.name}: "
                      f"correct={r['result']['correct']} {brief}", flush=True)
    for line in summarize(runs, sides, bench, args.trace):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
