"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced function of ``levelrank`` is replaced by a wrapper that records
one span per call: its name, start, end and the span that was open when it
started (its parent). Spans are folded into per-name totals as they close,
so memory stays flat however many calls a workload makes:

- ``calls``: spans closed under the name;
- ``self_s``: span time minus the time covered by its child spans;
- ``total_s``: span time including children (used for the verify suites);
- ``distinct_ratio``: distinct argument tuples divided by calls, taken at
  the wrapper, so it shows how much a memo table in front of the function
  could save. For the commutative products (``fuse``, ``lr_expand``) the
  first two arguments count as an unordered pair: the seed decides which
  order is met first, and the ratio must not depend on the seed;
- ``kept_ratio`` (``fusion.fuse`` only): decomposition terms divided by the
  Littlewood-Richardson terms returned inside the same ``fuse`` span,
  summed over the spans that called ``lr_expand`` (the cache misses).

A function can be reachable under several names: ``from .x import y``
copies in other modules, the re-exports of ``levelrank/__init__``, class
aliases such as ``__radd__ = __add__``, registry dicts such as
``verify.SUITES``, and ``@cache`` objects bound in several places.
``install`` therefore rebinds every name, in every package namespace, that
holds the original object, and ``unwrapped_bindings`` reports any that
still do. Function-local imports read the module attribute at call time,
so they see the wrapper too.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

PACKAGE = "levelrank"

# The fifteen suites of ``levelrank verify all``; each gets a total_s metric.
SUITE_NAMES = (
    "golden", "tau", "branch", "exhaustion", "cauchy", "rotation", "level1",
    "verlinde", "cc", "equivalence", "mirror", "traceform", "cardinality",
    "twist", "grading",
)


@dataclass(frozen=True)
class Target:
    """One traced function: metric prefix, module, attribute path inside the
    module, the statistics reported for it, and the workload on which its
    counts must be nonzero."""

    name: str
    module: str
    attr: str
    stats: tuple[str, ...]
    home: str
    commutes: bool = False


_CS = ("calls", "self_s")

TARGETS: tuple[Target, ...] = (
    Target("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__mul__", _CS, "exhaustion_7x7"),
    Target("cyclotomic.add", "cyclotomic", "CyclotomicNumber.__add__", _CS, "exhaustion_7x7"),
    Target("cyclotomic.inverse", "cyclotomic", "CyclotomicNumber.inverse", _CS, "exhaustion_7x7"),
    Target("cyclotomic.eq", "cyclotomic", "CyclotomicNumber.__eq__", _CS, "exhaustion_7x7"),
    Target("cyclotomic.qint", "cyclotomic", "qint", _CS + ("distinct_ratio",), "exhaustion_7x7"),
    Target("qdim.qdim_partition", "qdim", "qdim_partition", _CS + ("distinct_ratio",),
           "exhaustion_7x7"),
    Target("qdim.graded_dim", "qdim", "graded_dim", _CS, "exhaustion_7x7"),
    Target("weights.tau", "weights", "tau", _CS, "verify_all"),
    Target("weights.enumerate_graded", "weights", "enumerate_graded", _CS, "verify_all"),
    Target("weights.to_partition", "weights", "LevelWeight.to_partition", _CS, "verify_all"),
    Target("partitions.enumerate_rectangle", "partitions", "enumerate_rectangle", _CS,
           "verify_all"),
    Target("branching.branch", "branching", "branch", _CS, "exhaustion_7x7"),
    Target("branching.verify_exhaustion", "branching", "verify_exhaustion", _CS,
           "exhaustion_7x7"),
    Target("branching.verify_trace_form", "branching", "verify_trace_form", _CS, "verify_all"),
    Target("symfunc.lr_expand", "symfunc", "lr_expand", _CS + ("distinct_ratio",),
           "fusion_5x4", commutes=True),
    Target("symfunc.schur", "symfunc", "schur", _CS, "verify_all"),
    Target("symfunc.verify_skew_cauchy", "symfunc", "verify_skew_cauchy", _CS, "verify_all"),
    Target("fusion.fuse", "fusion", "fuse", _CS + ("distinct_ratio", "kept_ratio"),
           "fusion_5x4", commutes=True),
    Target("fusion.verlinde_check", "fusion", "verlinde_check", _CS, "modular_4x4"),
    Target("fusion.grading_violations", "fusion", "grading_violations", _CS, "verify_all"),
    Target("smatrix.s_matrix", "smatrix", "s_matrix", _CS, "modular_4x4"),
    Target("smatrix.unitarity_residual", "smatrix", "SMatrixData.unitarity_residual", _CS,
           "modular_4x4"),
    Target("smatrix.conformal_weight", "smatrix", "conformal_weight", _CS, "modular_4x4"),
) + tuple(
    Target(f"verify.suite_{s}", "verify", f"suite_{s}", ("total_s",), "verify_all")
    for s in SUITE_NAMES
) + (
    Target("cli.main", "cli", "main", ("self_s",), "verify_all"),
)

CHECKS_METRIC = "verify.checks"

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
          "distinct_ratio": "ratio", "kept_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{t.name}.{s}": _UNITS[s] for t in TARGETS for s in t.stats}
    units[CHECKS_METRIC] = "count"
    return units


def count_metrics() -> dict[str, str]:
    """The metrics that are counts or ratios of counts (so they repeat
    exactly), each with the workload on which it must be nonzero."""
    out = {f"{t.name}.{s}": t.home for t in TARGETS for s in t.stats
           if s in ("calls", "distinct_ratio", "kept_ratio")}
    out[CHECKS_METRIC] = "verify_all"
    return out


def _package_namespaces():
    """Yield (mapping, setter) for every namespace of the loaded package that
    can hold a binding: module globals, class bodies, module-level dicts."""
    seen: set[int] = set()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    for mod in modules:
        ns = vars(mod)
        yield ns, ns.__setitem__
        for value in list(ns.values()):
            if id(value) in seen:
                continue
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                seen.add(id(value))
                yield vars(value), (lambda k, v, cls=value: setattr(cls, k, v))
            elif type(value) is dict:
                seen.add(id(value))
                yield value, value.__setitem__


def _resolve(target: Target):
    mod = sys.modules.get(f"{PACKAGE}.{target.module}")
    if mod is None:
        return None
    owner, *rest = target.attr.split(".")
    obj = vars(mod).get(owner)
    for part in rest:
        obj = vars(obj).get(part) if isinstance(obj, type) else None
    return obj


class Tracer:
    """Wraps every target, aggregates its spans, and restores the originals
    on ``uninstall``."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [child time, name id, LR terms]
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.total_s = [0.0] * len(TARGETS)
        self.distinct: list[set | None] = [
            set() if "distinct_ratio" in t.stats else None for t in TARGETS
        ]
        self.checks = 0
        self.kept_terms = 0
        self.lr_terms = 0
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        fuse_id = next(i for i, t in enumerate(TARGETS) if t.name == "fusion.fuse")
        afters = {
            "symfunc.lr_expand": self._after_lr(fuse_id),
            "fusion.fuse": self._after_fuse,
        }
        afters.update({t.name: self._after_suite for t in TARGETS
                       if t.name.startswith("verify.suite_")})
        replacements = {}
        for nid, target in enumerate(TARGETS):
            original = _resolve(target)
            if original is None:
                self.missing.append(target.name)
                continue
            self.originals[target.name] = original
            replacements[id(original)] = (
                original, self._wrap(nid, original, target.commutes, afters.get(target.name))
            )
        for ns, setter in list(_package_namespaces()):
            for key, value in list(ns.items()):
                hit = replacements.get(id(value))
                if hit is not None and value is hit[0]:
                    setter(key, hit[1])
                    self._undo.append((setter, key, value))
        return self

    def uninstall(self) -> None:
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Package names that still hold an original traced object."""
        ids = {id(v): name for name, v in self.originals.items()}
        return [f"{ids[id(v)]} as {k}" for ns, _ in _package_namespaces()
                for k, v in list(ns.items()) if id(v) in ids]

    # -- spans ----------------------------------------------------------------

    def _wrap(self, nid: int, fn, commutes: bool, after):
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        distinct = self.distinct[nid]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                key = (frozenset(args[:2]),) + args[2:] if commutes else args
                distinct.add((key, tuple(sorted(kwargs.items()))) if kwargs else key)
            frame = [0.0, nid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                calls[nid] += 1
                self_s[nid] += span - frame[0]
                total_s[nid] += span
                if stack:
                    stack[-1][0] += span
            if after is not None:
                after(frame, result)
            return result

        return traced

    def _after_lr(self, fuse_id: int):
        stack = self._stack

        def after(frame, result):
            if stack and stack[-1][1] == fuse_id:
                stack[-1][2] += len(result)
        return after

    def _after_fuse(self, frame, result) -> None:
        if frame[2]:
            self.lr_terms += frame[2]
            self.kept_terms += len(result.terms)

    def _after_suite(self, frame, result) -> None:
        self.checks += len(result)

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for nid, t in enumerate(TARGETS):
            calls = self.calls[nid]
            values = {
                "calls": calls,
                "self_s": self.self_s[nid],
                "total_s": self.total_s[nid],
                "distinct_ratio": len(self.distinct[nid]) / calls
                if calls and self.distinct[nid] is not None else 0.0,
                "kept_ratio": self.kept_terms / self.lr_terms if self.lr_terms else 0.0,
            }
            for s in t.stats:
                out[f"{t.name}.{s}"] = values[s]
        out[CHECKS_METRIC] = self.checks
        return out
