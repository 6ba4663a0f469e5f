"""One repetition of a benchmark workload in a fresh interpreter, so every
memo table of the package starts cold.

Usage: python3 worker.py SRC WORKLOAD SEED TRACE SPAWNED

SRC is the directory holding the ``levelrank`` package. SPAWNED is the
parent's CLOCK_MONOTONIC reading taken just before it started this process;
set-up time runs from there until the package and its CLI are imported,
and the workload ``setup`` stops there. TRACE is 1 to wrap the package's
layers (see tracing.py) during the timed region.

Prints one JSON object: setup_s, and for a workload also wall_s (the timed
region), peak_rss_mb (at the end of the timed region), attempted, failures
(label and kind: "counterexample", or the name of the exception raised),
digest (of the sorted per-case digest lines) and, when traced, metrics,
the names still bound to an unwrapped original and the traced functions
the package no longer has.
"""

import sys
import time


def main() -> int:
    src, workload, seed, trace, spawned = sys.argv[1:6]
    sys.path.insert(0, src)
    import levelrank.cli  # noqa: F401  (the package and its CLI)

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned)

    import json

    if workload == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import hashlib
    import random
    import resource

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    cases = wl.cases(random.Random(int(seed)))
    tracer = tracing.Tracer().install() if trace == "1" else None

    results = []
    start = time.perf_counter()
    for case in cases:
        try:
            results.append((case, wl.run(case), None))
        except Exception as exc:  # a crash is a failed verdict; go on
            results.append((case, None, type(exc).__name__))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        report["unwrapped"] = tracer.unwrapped_bindings()
        report["missing"] = tracer.missing
        tracer.uninstall()
        report["metrics"] = tracer.metrics()

    attempted, failures, lines = 0, [], []
    for case, value, error in results:
        if error is None:
            try:
                verdicts = wl.check(case, value)
                lines.extend(wl.digest(case, value))
            except Exception as exc:
                error = f"check raised {type(exc).__name__}"
        if error is not None:
            attempted += 1
            failures.append([str(case), error])
            continue
        attempted += len(verdicts)
        failures.extend([label, "counterexample"] for label, ok in verdicts if not ok)
    report.update(
        attempted=attempted,
        failures=failures,
        digest=hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
