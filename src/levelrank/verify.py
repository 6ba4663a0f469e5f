"""Named verification suites over configurable sweep bounds.

Each suite returns a list of ``Verdict`` records, one per case, and passes
when every record holds. Six suites are built from a library check that
already returns a ``Verdict`` labelled with the suite and the case:
exhaustion (``branching.verify_exhaustion``), cauchy
(``symfunc.verify_skew_cauchy``), verlinde (``fusion.verlinde_check``),
equivalence (``branching.verify_equivalence_fusion``), traceform
(``branching.verify_trace_form``) and twist
(``branching.twist_pairing_check``). The last four return one check per case
as it is. Exhaustion and cauchy run one check per class or degree and
return the first failing verdict as it is, or one passing record counting
the identities checked. A suite looks its check up on the module at call
time, so a replaced check is the one that runs. The other nine suites build
their records in place. Among them, tau and branch decide every check on
the positions of ``weights.weight_table`` (an image outside the table is a
failure, never a lookup error) and count the identities decided in each
passing record; grading fuses one pair per unordered pair of rotation
orbits (``fusion.grading_violations`` says why no check is lost), and
cardinality counts what the uncached weight and rectangle generators
yield, building and caching no weight or partition.

A suite sweeps its cases in order, one after another, so the output is
deterministic. ``run_suites`` runs each suite in isolation: a suite that
raises gives one ERROR record holding the exception, and the rest still
run. Suites with a ``bound`` parameter take the ``--bound`` override of
``levelrank verify``; the rest have fixed case lists.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

from . import branching, fusion, qdim, smatrix, symfunc, weights
from .cyclotomic import qint
from .partitions import Partition, enumerate_rectangle, rectangle_parts
from .verdict import Verdict
from .weights import LevelWeight, enumerate_weights, tau, weight_components, weight_table


def _pairs(bound: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(2, bound + 1) for m in range(2, bound + 1)]


def _first_failure(verdicts: Iterable[Verdict], suite: str, name: str) -> Verdict:
    """The first failing verdict as it is, else one passing record ``name``
    that counts every identity checked."""
    checked = 0
    for v in verdicts:
        if not v:
            return v
        checked += v.checked
    return Verdict(suite, name, True, checked, detail=f"{checked} identities checked")


def _transpose_images(n: int, m: int) -> Iterator[tuple[Partition, int, int, int]]:
    """(lam, p, i, q) for every partition lam in the m x n box and every
    class i = |lam| (mod n): p is the position of lam's weight in the (n, m)
    table and q that of tau_from_partition(lam, n, m, i) in the (m, n) one.

    The transpose route runs once per partition, at i0 = |lam| mod n. Its
    value at i = i0 + t*n is that image rotated t more times, which is
    exactly what ``tau_from_partition`` returns there, so q steps through
    the (m, n) ``rotation`` column and every (lam, i) is still checked
    against the transpose of lam.
    """
    left, right = weight_table(n, m), weight_table(m, n)
    for lam in enumerate_rectangle(n, m):
        p = left.position[weights.from_partition(lam, n, m).components]
        q = right.position[weights.tau_from_partition(lam, n, m, lam.size % n).components]
        for i in range(lam.size % n, n * m, n):
            yield lam, p, i, q
            q = right.rotation[q]


# -- suites ---------------------------------------------------------------------


def suite_tau(bound: int = 6) -> list[Verdict]:
    """Bijectivity and involutivity of the duality map, independence of the
    partition preimage, compatibility with duals and with rotation. Each
    ordered (n, m) maps each weight of class i by ``tau`` once: images[n,
    m][i][p] is the position in the (m, n) table of the image of weights[p]
    (-1 off class i, and for an image outside the table, which fails the
    bijection check). The involution check of (n, m) reads those of (m, n).
    A passing record counts the identities it decided."""
    images = {}
    for n, m in _pairs(bound):
        table, where = weight_table(n, m), weight_table(m, n).position
        images[n, m] = rows = [[-1] * len(table.weights) for _ in range(n * m)]
        for i, row in enumerate(rows):
            for p in table.classes[i % n]:
                row[p] = where.get(tau(table.weights[p], i).components, -1)

    def check_pair(n: int, m: int) -> Verdict:
        left, right = weight_table(n, m), weight_table(m, n)
        ours, theirs = images[n, m], images[m, n]
        checked = 0
        for i, image in enumerate(ours):
            cls = left.classes[i % n]
            if sorted(image[p] for p in cls) != list(right.classes[i % m]):
                return Verdict("tau", f"bijection n={n} m={m} i={i}", False)
            for p, a in zip(cls, left.graded[i % n]):
                if right.degree[image[p]] != i % m:
                    return Verdict("tau", f"degree n={n} m={m} i={i}", False, detail=str(a))
                if theirs[i][image[p]] != p:
                    return Verdict("tau", f"involution n={n} m={m} i={i}", False, detail=str(a))
            checked += 1 + 2 * len(cls)
        # preimage independence: any partition preimage gives the same image
        for lam, p, i, q in _transpose_images(n, m):
            if q != ours[i][p]:
                return Verdict("tau", f"preimage n={n} m={m}", False,
                               detail=f"lam={lam.parts} i={i}")
            checked += 1
        # duals commute with the degree-zero map (duals keep degree zero)
        image = ours[0]
        for p, a in zip(left.classes[0], left.graded[0]):
            dual = right.weights[image[p]].dual()
            if image[left.position[a.dual().components]] != right.position[dual.components]:
                return Verdict("tau", f"dual-commute n={n} m={m}", False, detail=str(a))
        # degree shifts by the level under rotation
        for a, r, d in zip(left.weights, left.rotation, left.degree):
            if left.degree[r] != (d + m) % n:
                return Verdict("tau", f"degree-rotation n={n} m={m}", False, detail=str(a))
        checked += len(left.classes[0]) + len(left.weights)
        return Verdict("tau", f"n={n} m={m} all classes", True, checked)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_exhaustion(bound: int = 5) -> list[Verdict]:
    """Exact dimension exhaustion of every branching table."""

    return [
        _first_failure((branching.verify_exhaustion(n, m, i) for i in range(n * m)),
                       "exhaustion", f"n={n} m={m} all i exact")
        for n, m in _pairs(bound)
    ]


def suite_branch(bound: int = 4) -> list[Verdict]:
    """Structural facts about the tables, on the position pairs of
    ``BranchingTable.positions``: multiplicity-freeness, degree bookkeeping
    of right factors, presence of every partition-route pair, and the two
    invertible-object pairs. A passing record counts the identities it
    decided."""

    def check_pair(n: int, m: int) -> Verdict:
        left, right = weight_table(n, m), weight_table(m, n)
        pairs = []  # pairs[i] is the set of position pairs of class i
        checked = 0
        for i in range(n * m):
            table = branching.branch(n, m, i)
            pairs.append(set(table.positions))
            rights = [q for _, q in table.positions]
            if len({p for p, _ in table.positions}) != len(table) or len(set(rights)) != len(table):
                return Verdict("branch", f"multiplicity-free n={n} m={m} i={i}", False)
            if any(right.degree[q] != i % m for q in rights):
                return Verdict("branch", f"right degrees n={n} m={m} i={i}", False)
            checked += 2 + len(table)
        for lam, p, i, q in _transpose_images(n, m):
            if (p, q) not in pairs[i]:
                return Verdict("branch", f"partition route n={n} m={m}", False,
                               detail=f"lam={lam.parts} i={i}")
            checked += 1
        # the vacuum sits at position 0 of both tables
        sigma_pair_n = (0, right.position[weights.from_partition(Partition((n,)), m, n).components])
        if sigma_pair_n not in pairs[n % (n * m)]:
            return Verdict("branch", f"sigma pair n={n} m={m}", False)
        sigma_pair_m = (left.position[weights.from_partition(Partition((m,)), n, m).components], 0)
        if sigma_pair_m not in pairs[m % (n * m)]:
            return Verdict("branch", f"sigma pair m n={n} m={m}", False)
        return Verdict("branch", f"n={n} m={m} structure", True, checked + 2)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_cauchy(bound: int = 3) -> list[Verdict]:
    """Exact polynomial skew Cauchy identity, for all n, m up to the bound
    (capped at 3) in every degree, plus the wide rectangle (2, 4)."""
    cases = [(n, m) for n, m in _pairs(min(bound, 3))]
    if (2, 4) not in cases:
        cases.append((2, 4))

    return [
        _first_failure((symfunc.verify_skew_cauchy(n, m, i) for i in range(n * m + 1)),
                       "cauchy", f"n={n} m={m} all degrees exact")
        for n, m in cases
    ]


def suite_rotation(bound: int = 4) -> list[Verdict]:
    """Fusing with the invertible object rotates the highest weight."""

    def check_pair(n: int, m: int) -> Verdict:
        for a in enumerate_weights(n, m):
            if not fusion.rotation_check(a):
                return Verdict("rotation", f"n={n} m={m}", False, detail=str(a))
        return Verdict("rotation", f"n={n} m={m} all weights", True)

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_level1(bound: int = 10) -> list[Verdict]:
    """Cyclic fusion of the level-1 objects and total dimension N. Fusion
    runs on the plain route, which does not assume the rotation covariance."""

    def check_rank(N: int) -> Verdict:
        fundamental = [LevelWeight.fundamental(N, i) for i in range(N)]
        for i, a in enumerate(fundamental):
            for j, b in enumerate(fundamental):
                if fusion._fold_lr(a, b) != {fundamental[(i + j) % N]: 1}:
                    return Verdict("level1", f"N={N} fusion", False, detail=f"i={i} j={j}")
        total = qdim.category_dim(N, 1)
        if total != N:
            return Verdict("level1", f"N={N} total dimension", False, detail=repr(total))
        return Verdict("level1", f"N={N} cyclic fusion and dimension", True)

    return [check_rank(N) for N in range(2, bound + 1)]


VERLINDE_CASES = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))


def suite_verlinde() -> list[Verdict]:
    """Combinatorial fusion against the exact S-matrix relation."""
    return [fusion.verlinde_check(n, m) for n, m in VERLINDE_CASES]


def suite_cc(bound: int = 50) -> list[Verdict]:
    """Exact equality of the two central charges at level 1, and the
    detected inequality at level 2."""
    results = []
    for n, m in _pairs(bound):
        ambient, pair = smatrix.central_charge(n, m, 1)
        if ambient != pair or ambient != n * m - 1:
            results.append(
                Verdict("cc", f"level 1 n={n} m={m}", False, detail=f"{ambient} vs {pair}"))
    ambient2, pair2 = smatrix.central_charge(2, 2, 2)
    results.append(
        Verdict(
            "cc",
            f"level-1 equality for all n,m <= {bound}; level-2 inequality",
            not results and ambient2 != pair2,
            detail=f"k=2 gives {ambient2} vs {pair2}",
        )
    )
    return results


EQUIVALENCE_CASES = ((2, 3), (3, 2), (2, 4), (2, 5))


def suite_equivalence() -> list[Verdict]:
    """Fusion coefficients are preserved by the degree-zero transport."""
    return [branching.verify_equivalence_fusion(n, m) for n, m in EQUIVALENCE_CASES]


def suite_mirror() -> list[Verdict]:
    """Transport of the two-summand algebra object of rank 2 level 10, with
    its exactly integral transported conformal weight."""
    a = LevelWeight((4, 6))
    out = branching.mirror_transport([LevelWeight.vacuum(2, 10), a])
    expected = LevelWeight((0, 0, 0, 1, 0, 0, 0, 1, 0, 0))
    ok_weights = out == [LevelWeight.vacuum(10, 2), expected]
    h = smatrix.conformal_weight(expected)
    conds = branching.etale_necessary_conditions(out)
    return [
        Verdict("mirror", "rank-2 level-10 transport", ok_weights,
                detail=str([str(w) for w in out])),
        Verdict("mirror", "transported conformal weight is 2", h == 2, detail=f"h={h}"),
        Verdict("mirror", "necessary algebra conditions", all(conds.values()), detail=str(conds)),
    ]


TRACEFORM_CASES = ((2, 2), (2, 3), (3, 2), (3, 3))


def suite_traceform() -> list[Verdict]:
    """The trace form of sl(nm) restricts to m and n times those of sl(n) and
    sl(m) on the embedded blocks, with vanishing cross terms."""
    return [branching.verify_trace_form(n, m) for n, m in TRACEFORM_CASES]


def suite_cardinality(bound: int = 8) -> list[Verdict]:
    """The weight and rectangle generators yield the binomial counts, counted
    as generated: no weight or partition is built and nothing is cached."""
    failures = [
        Verdict("cardinality", f"{kind} n={n} m={m}", False)
        for n in range(2, bound + 1) for m in range(1, bound + 1)
        for kind, items, count in (("weights", weight_components, math.comb(n + m - 1, n - 1)),
                                   ("partitions", rectangle_parts, math.comb(n + m, n)))
        if sum(1 for _ in items(n, m)) != count
    ]
    return failures or [Verdict("cardinality", f"all n,m <= {bound} binomial counts", True)]


def suite_twist(bound: int = 4) -> list[Verdict]:
    """Exact pairing of conformal weights across the duality."""
    return [branching.twist_pairing_check(n, m) for n, m in _pairs(bound)]


def suite_grading(bound: int = 4) -> list[Verdict]:
    """Fusion respects the degree grading."""

    def check_pair(n: int, m: int) -> Verdict:
        bad = fusion.grading_violations(n, m)
        return Verdict(
            "grading", f"n={n} m={m}", not bad, detail=f"{len(bad)} violations" if bad else ""
        )

    return [check_pair(n, m) for n, m in _pairs(bound)]


def suite_golden() -> list[Verdict]:
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
        Verdict("golden", "ten summands at n=3 m=6 i=0", got == expected and len(table) == 10)
    )
    t13 = branching.branch(3, 6, 13)
    pair = (LevelWeight((3, 2, 1)), LevelWeight((1, 0, 0, 1, 1, 0)))
    results.append(Verdict("golden", "class-13 pair at n=3 m=6", pair in t13))
    value = qdim.qdim_partition(Partition((4, 3, 1)), 4, 4)
    expect = qint(7, 4, 4) * qint(5, 4, 4) * qint(5, 4, 4)
    results.append(Verdict("golden", "hook-content product [7][5]^2", value == expect))
    return results


SUITES: dict[str, Callable[..., list[Verdict]]] = {
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


def _takes_bound(fn: Callable) -> bool:
    """Whether the suite function ``fn`` has a parameter named ``bound``,
    read off its code object."""
    code = fn.__code__
    return "bound" in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]


def run_suites(names: list[str], bound: int | None = None) -> list[Verdict]:
    """Run the named suites in order; ``bound`` overrides the sweep bound of
    every suite that has a ``bound`` parameter. Each suite runs in
    isolation: one that raises gives a single ERROR record holding the
    exception, and the suites after it still run."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite {unknown[0]!r}; known: {', '.join(sorted(SUITES))}")
    results: list[Verdict] = []
    for name in names:
        fn = SUITES[name]
        try:
            if bound is not None and _takes_bound(fn):
                results.extend(fn(bound=bound))
            else:
                results.extend(fn())
        except Exception as exc:
            results.append(Verdict(name, "raised", False, 0,
                                   detail=f"{type(exc).__name__}: {exc}", error=exc))
    return results
