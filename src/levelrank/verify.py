"""Named verification suites over configurable sweep bounds.

Each suite returns a list of CheckResult records; a suite passes when every
record does. A suite sweeps its cases in order, one after another, so the
output is deterministic. Suites with a ``bound`` parameter take the
``--bound`` override of ``levelrank verify``; the rest have fixed case lists.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from . import branching, fusion, qdim, smatrix, symfunc, weights
from .cyclotomic import qint
from .partitions import Partition, enumerate_rectangle
from .weights import LevelWeight, enumerate_graded, enumerate_weights, tau


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.suite}: {self.name}{extra}"


def _pairs(bound: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(2, bound + 1) for m in range(2, bound + 1)]


def _verdicts(
    suite: str, cases: Iterable[tuple[int, int]], check: Callable[[int, int], object]
) -> list[CheckResult]:
    """One record per case from the verdict ``check(n, m)``: it passes when
    the verdict is truthy, and its repr is the detail."""
    results = []
    for n, m in cases:
        v = check(n, m)
        results.append(CheckResult(suite, f"n={n} m={m}", bool(v), repr(v)))
    return results


# -- suites ---------------------------------------------------------------------


def suite_tau(bound: int = 6) -> list[CheckResult]:
    """Bijectivity and involutivity of the duality map, independence of the
    partition preimage, compatibility with duals and with rotation."""

    def check_pair(n: int, m: int) -> CheckResult:
        for i in range(n * m):
            cls = enumerate_graded(n, m, i)
            images = [tau(a, i) for a in cls]
            target = enumerate_graded(m, n, i)
            if sorted(w.components for w in images) != sorted(w.components for w in target):
                return CheckResult("tau", f"bijection n={n} m={m} i={i}", False)
            for a, b in zip(cls, images):
                if b.degree() != i % m:
                    return CheckResult("tau", f"degree n={n} m={m} i={i}", False, str(a))
                if tau(b, i) != a:
                    return CheckResult("tau", f"involution n={n} m={m} i={i}", False, str(a))
        # preimage independence: any partition preimage gives the same image
        for lam in enumerate_rectangle(n, m):
            a = weights.from_partition(lam, n, m)
            for i in range(lam.size % n, n * m, n):
                if weights.tau_from_partition(lam, n, m, i) != tau(a, i):
                    return CheckResult(
                        "tau", f"preimage n={n} m={m}", False, f"lam={lam.parts} i={i}"
                    )
        # duals commute with the degree-zero map
        for a in enumerate_graded(n, m, 0):
            if tau(a.dual(), 0) != tau(a, 0).dual():
                return CheckResult("tau", f"dual-commute n={n} m={m}", False, str(a))
        # degree shifts by the level under rotation
        for a in enumerate_weights(n, m):
            if a.rotate(1).degree() != (a.degree() + m) % n:
                return CheckResult("tau", f"degree-rotation n={n} m={m}", False, str(a))
        return CheckResult("tau", f"n={n} m={m} all classes", True)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_exhaustion(bound: int = 5) -> list[CheckResult]:
    """Exact dimension exhaustion of every branching table."""

    def check_pair(n: int, m: int) -> CheckResult:
        for i in range(n * m):
            v = branching.verify_exhaustion(n, m, i)
            if not v:
                return CheckResult("exhaustion", f"n={n} m={m} i={i}", False, repr(v))
        return CheckResult("exhaustion", f"n={n} m={m} all i exact", True)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_branch(bound: int = 4) -> list[CheckResult]:
    """Structural facts about the tables: multiplicity-freeness, degree
    bookkeeping of right factors, presence of every partition-route pair, and
    the two invertible-object pairs."""

    def check_pair(n: int, m: int) -> CheckResult:
        for i in range(n * m):
            table = branching.branch(n, m, i)
            lefts, rights = table.left_weights(), table.right_weights()
            if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
                return CheckResult("branch", f"multiplicity-free n={n} m={m} i={i}", False)
            if any(b.degree() != i % m for b in rights):
                return CheckResult("branch", f"right degrees n={n} m={m} i={i}", False)
        for lam in enumerate_rectangle(n, m):
            a = weights.from_partition(lam, n, m)
            for i in range(lam.size % n, n * m, n):
                pair = (a, weights.tau_from_partition(lam, n, m, i))
                if pair not in branching.branch(n, m, i):
                    return CheckResult(
                        "branch", f"partition route n={n} m={m}", False,
                        f"lam={lam.parts} i={i}",
                    )
        sigma_pair_n = (LevelWeight.vacuum(n, m),
                        weights.from_partition(Partition((n,)), m, n))
        if sigma_pair_n not in branching.branch(n, m, n % (n * m)):
            return CheckResult("branch", f"sigma pair n={n} m={m}", False)
        sigma_pair_m = (weights.from_partition(Partition((m,)), n, m),
                        LevelWeight.vacuum(m, n))
        if sigma_pair_m not in branching.branch(n, m, m % (n * m)):
            return CheckResult("branch", f"sigma pair m n={n} m={m}", False)
        return CheckResult("branch", f"n={n} m={m} structure", True)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_cauchy(bound: int = 3) -> list[CheckResult]:
    """Exact polynomial skew Cauchy identity, for all n, m up to the bound
    (capped at 3) in every degree, plus the wide rectangle (2, 4)."""
    cases = [(n, m) for n, m in _pairs(min(bound, 3))]
    if (2, 4) not in cases:
        cases.append((2, 4))

    def check_pair(n: int, m: int) -> CheckResult:
        for i in range(n * m + 1):
            v = symfunc.verify_skew_cauchy(n, m, i)
            if not v:
                return CheckResult("cauchy", f"n={n} m={m} i={i}", False, repr(v))
        return CheckResult("cauchy", f"n={n} m={m} all degrees exact", True)

    return [check_pair(n, m) for n, m in cases]


def suite_rotation(bound: int = 4) -> list[CheckResult]:
    """Fusing with the invertible object rotates the highest weight."""

    def check_pair(n: int, m: int) -> CheckResult:
        for a in enumerate_weights(n, m):
            if not fusion.rotation_check(a):
                return CheckResult("rotation", f"n={n} m={m}", False, str(a))
        return CheckResult("rotation", f"n={n} m={m} all weights", True)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_level1(bound: int = 10) -> list[CheckResult]:
    """Cyclic fusion of the level-1 objects and total dimension N."""

    def check_rank(N: int) -> CheckResult:
        for i in range(N):
            for j in range(N):
                dec = fusion.fuse(LevelWeight.fundamental(N, i), LevelWeight.fundamental(N, j))
                if dec.terms != {LevelWeight.fundamental(N, (i + j) % N): 1}:
                    return CheckResult("level1", f"N={N} fusion", False, f"i={i} j={j}")
        total = qdim.category_dim(N, 1)
        if total != N:
            return CheckResult("level1", f"N={N} total dimension", False, repr(total))
        return CheckResult("level1", f"N={N} cyclic fusion and dimension", True)

    return [check_rank(N) for N in range(2, bound + 1)]


def suite_verlinde(
    cases: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)),
) -> list[CheckResult]:
    """Combinatorial fusion against the exact S-matrix relation."""
    return _verdicts("verlinde", cases, fusion.verlinde_check)


def suite_cc(bound: int = 50) -> list[CheckResult]:
    """Exact equality of the two central charges at level 1, and the
    detected inequality at level 2."""
    results = []
    for n in range(2, bound + 1):
        for m in range(2, bound + 1):
            ambient, pair = smatrix.central_charge(n, m, 1)
            if ambient != pair or ambient != n * m - 1:
                results.append(
                    CheckResult("cc", f"level 1 n={n} m={m}", False, f"{ambient} vs {pair}")
                )
    ambient2, pair2 = smatrix.central_charge(2, 2, 2)
    results.append(
        CheckResult(
            "cc",
            f"level-1 equality for all n,m <= {bound}; level-2 inequality",
            not results and ambient2 != pair2,
            f"k=2 gives {ambient2} vs {pair2}",
        )
    )
    return results


def suite_equivalence(
    cases: tuple[tuple[int, int], ...] = ((2, 3), (3, 2), (2, 4), (2, 5)),
) -> list[CheckResult]:
    """Fusion coefficients are preserved by the degree-zero transport."""
    return _verdicts("equivalence", cases, branching.verify_equivalence_fusion)


def suite_mirror() -> list[CheckResult]:
    """Transport of the two-summand algebra object of rank 2 level 10, with
    its exactly integral transported conformal weight."""
    a = LevelWeight((4, 6))
    out = branching.mirror_transport([LevelWeight.vacuum(2, 10), a])
    expected = LevelWeight((0, 0, 0, 1, 0, 0, 0, 1, 0, 0))
    ok_weights = out == [LevelWeight.vacuum(10, 2), expected]
    h = smatrix.conformal_weight(expected)
    conds = branching.etale_necessary_conditions(out)
    return [
        CheckResult("mirror", "rank-2 level-10 transport", ok_weights, str([str(w) for w in out])),
        CheckResult("mirror", "transported conformal weight is 2", h == 2, f"h={h}"),
        CheckResult("mirror", "necessary algebra conditions", all(conds.values()), str(conds)),
    ]


def suite_traceform(
    cases: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2), (3, 3)),
) -> list[CheckResult]:
    """The trace form of sl(nm) restricts to m and n times those of sl(n) and
    sl(m) on the embedded blocks, with vanishing cross terms."""
    return _verdicts("traceform", cases, branching.verify_trace_form)


def suite_cardinality(bound: int = 8) -> list[CheckResult]:
    """Weight counts match the binomial formula; rectangle counts too."""
    results = []
    ok = True
    for n in range(2, bound + 1):
        for m in range(1, bound + 1):
            if len(enumerate_weights(n, m)) != math.comb(n + m - 1, n - 1):
                ok = False
                results.append(CheckResult("cardinality", f"weights n={n} m={m}", False))
            if len(enumerate_rectangle(n, m)) != math.comb(n + m, n):
                ok = False
                results.append(CheckResult("cardinality", f"partitions n={n} m={m}", False))
    if ok:
        results.append(CheckResult("cardinality", f"all n,m <= {bound} binomial counts", True))
    return results


def suite_twist(bound: int = 4) -> list[CheckResult]:
    """Exact pairing of conformal weights across the duality."""
    return _verdicts("twist", _pairs(bound), smatrix.twist_pairing_check)


def suite_grading(bound: int = 4) -> list[CheckResult]:
    """Fusion respects the degree grading."""

    def check_pair(n: int, m: int) -> CheckResult:
        bad = fusion.grading_violations(n, m)
        return CheckResult(
            "grading", f"n={n} m={m}", not bad, f"{len(bad)} violations" if bad else ""
        )

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_golden() -> list[CheckResult]:
    """Hand-checkable values: the 10-summand degree-zero table of (3, 6), the
    class-13 pair, and the hook-content product of (4,3,1) at rank 4."""
    results = []
    table = branching.branch(3, 6, 0)
    expected = {
        ((), ()), ((2, 1), (2, 1, 1, 1, 1)), ((5, 4), (3, 2, 1)),
        ((4, 2), (2, 2, 1, 1)), ((3,), (3, 3, 2, 2, 2)), ((6, 3), (2, 2, 2)),
        ((5, 1), (3, 3, 3, 2, 1)), ((6,), (3, 3, 3, 3)), ((3, 3), (3, 1, 1, 1)),
        ((6, 6), (3, 3)),
    }
    got = {(a.parts, b.parts) for a, b in table.partition_pairs()}
    results.append(
        CheckResult("golden", "ten summands at n=3 m=6 i=0", got == expected and len(table) == 10)
    )
    t13 = branching.branch(3, 6, 13)
    pair = (LevelWeight((3, 2, 1)), LevelWeight((1, 0, 0, 1, 1, 0)))
    results.append(CheckResult("golden", "class-13 pair at n=3 m=6", pair in t13))
    value = qdim.qdim_partition(Partition((4, 3, 1)), 4, 4)
    expect = qint(7, 4, 4) * qint(5, 4, 4) * qint(5, 4, 4)
    results.append(CheckResult("golden", "hook-content product [7][5]^2", value == expect))
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "golden": suite_golden,
    "tau": suite_tau,
    "branch": suite_branch,
    "exhaustion": suite_exhaustion,
    "cauchy": suite_cauchy,
    "rotation": suite_rotation,
    "level1": suite_level1,
    "verlinde": suite_verlinde,
    "cc": suite_cc,
    "equivalence": suite_equivalence,
    "mirror": suite_mirror,
    "traceform": suite_traceform,
    "cardinality": suite_cardinality,
    "twist": suite_twist,
    "grading": suite_grading,
}


def run_suites(names: list[str], bound: int | None = None) -> list[CheckResult]:
    """Run the named suites in order; ``bound`` overrides the sweep bound of
    every suite that has a ``bound`` parameter."""
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
        fn = SUITES[name]
        if bound is not None and "bound" in inspect.signature(fn).parameters:
            results.extend(fn(bound=bound))
        else:
            results.extend(fn())
    return results


def default_suite_names() -> list[str]:
    return list(SUITES)
