"""Branching tables for the conformal inclusion of rank n at level m times
rank m at level n inside rank n*m at level 1, and the consequences that can
be checked exactly: dimension exhaustion, the pairing of conformal weights
(twists), the degree-zero equivalence on fusion coefficients, transport of
algebra objects, and the trace-form identity of the underlying matrix
embedding.

The i-th level-1 object restricts to a multiplicity-free sum of pairs
(a, tau_i(a)) over the weights a of degree i; the table is computed directly
from that description, while the verification routines re-derive its
numerical consequences through independent paths (hook-content products, the
alcove-folded fusion, exact traces of sparse integer matrices).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from .cyclotomic import conductor_for, packed_sums
from .fusion import fuse
from .partitions import Partition
from .qdim import dimension_report, graded_dim
from .record import ValueRecord
from .smatrix import conformal_weight
from .verdict import Verdict
from .weights import LevelWeight, enumerate_graded, tau, weight_table


class BranchingTable(ValueRecord):
    """Multiplicity-free decomposition of one level-1 simple object.

    Each summand is held as a pair of positions, in ``weight_table(n, m)``
    and ``weight_table(m, n)``; ``pairs`` reads the weights there."""

    def __init__(self, n: int, m: int, i: int, positions: tuple[tuple[int, int], ...]):
        vars(self).update(n=n, m=m, i=i, positions=positions)

    @property
    def pairs(self) -> tuple[tuple[LevelWeight, LevelWeight], ...]:
        left, right = weight_table(self.n, self.m).weights, weight_table(self.m, self.n).weights
        return tuple((left[p], right[q]) for p, q in self.positions)

    def partition_pairs(self) -> tuple[tuple[Partition, Partition], ...]:
        return tuple((a.to_partition(), b.to_partition()) for a, b in self.pairs)

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, pair: tuple[LevelWeight, LevelWeight]) -> bool:
        return pair in self.pairs

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "i": self.i,
            "summands": [
                {
                    "left": list(a.components),
                    "right": list(b.components),
                    "left_partition": list(a.to_partition().parts),
                    "right_partition": list(b.to_partition().parts),
                }
                for a, b in self.pairs
            ],
        }


def branch(n: int, m: int, i: int) -> BranchingTable:
    """The full decomposition of the i-th level-1 object, one pair
    (a, tau_i(a)) per weight a of degree i, in canonical order on a, read
    off the tau column of ``weight_table(n, m)`` through the power
    ``rotation[i // n]`` of ``weight_table(m, n)``."""
    if n < 2 or m < 2:
        raise ValueError("need rank and level at least 2")
    i = i % (n * m)
    left, right = weight_table(n, m), weight_table(m, n)
    rotate = right.rotation[i // n]  # tau_{d + t n}(a) is tau_d(a) rotated t times
    return BranchingTable(n=n, m=m, i=i, positions=tuple(
        (p, rotate[left.tau[p]]) for p in left.classes[i % n]))


def etale_vacuum_algebra(n: int, m: int) -> BranchingTable:
    """The degree-zero table: the object underlying the vacuum restriction,
    which carries the algebra structure."""
    return branch(n, m, 0)


def verify_exhaustion(n: int, m: int, i: int) -> Verdict:
    """Check, with exact cyclotomic arithmetic, that the summands of the
    branching table exhaust the graded dimension:

        sum over a of degree i of qdim(a) * qdim(tau_i(a)) = graded total.

    The left factor is computed in the rank-n category and the right factor
    in the rank-m category; both live in the conductor-2(n+m) field. The
    pairs are counted by the ``orbit`` positions of their weights, so
    classes with equal counts share one paired sum and each orbit-pair
    product is formed once per (n, m). A failure carries the counterexample
    (paired_sum, graded_total).
    """
    table = branch(n, m, i)
    # Building the reports here keeps the dimensions out of the cached sums.
    dimension_report(n, m), dimension_report(m, n)
    lo, ro = weight_table(n, m).orbit, weight_table(m, n).orbit
    counts = Counter((lo[p], ro[q]) for p, q in table.positions)
    total = _paired_sum(n, m, tuple(sorted(counts.items())))
    graded = graded_dim(n, m, i)
    name = f"n={n} m={m} i={i}"
    if total == graded:
        return Verdict("exhaustion", name, True, detail="exact")
    return Verdict("exhaustion", name, False, counterexample=(total, graded),
                   detail=f"off by {total - graded!r}")


@cache
def _paired_sum(n: int, m: int, counts: tuple[tuple[tuple[int, int], int], ...]):
    """Sum of k * qdim(p) * qdim(q) over the ((p, q), k) in ``counts``, with p
    and q ``orbit`` positions of the rank-n and rank-m weight tables, as one
    row of ``packed_sums``."""
    left, right = dimension_report(n, m).dims, dimension_report(m, n).dims
    return packed_sums(conductor_for(n, m), left, right, [counts])[0]


def twist_pairing_check(n: int, m: int) -> Verdict:
    """For every class i and pair (a, b) of ``branch(n, m, i)``, the
    conformal weights of a and b must sum to i(nm - i)/(2nm) modulo 1, the
    conformal weight of the i-th level-1 object. Checked with exact
    rationals; a failure carries the first counterexample (i, a, total,
    target)."""
    checked = 0
    for i in range(n * m):
        target = Fraction(i * (n * m - i), 2 * n * m)
        for a, b in branch(n, m, i).pairs:
            total = conformal_weight(a) + conformal_weight(b)
            checked += 1
            if (total - target).denominator != 1:
                return Verdict("twist", f"n={n} m={m}", False, checked, (i, a, total, target),
                               f"h(a) + h(tau(a)) = {total} at i={i} a={a}, want {target} mod 1")
    return Verdict("twist", f"n={n} m={m}", True, checked, detail=f"{checked} pairings exact")


# -- the degree-zero equivalence ------------------------------------------------


def transport(a: LevelWeight) -> LevelWeight:
    """Image of a degree-zero object under the rank/level swap: the dual of
    its duality image."""
    if a.degree() != 0:
        raise ValueError(f"{a} has degree {a.degree()}, transport needs degree 0")
    return tau(a, 0).dual()


def verify_equivalence_fusion(n: int, m: int) -> Verdict:
    """Fusion coefficients of degree-zero triples must match across the
    rank/level swap composed with duals: N_{a b}^c = N_{T(a) T(b)}^{T(c)}.
    A failure carries the counterexample (a, b, c, lhs, rhs)."""
    degree_zero = enumerate_graded(n, m, 0)
    images = {a: transport(a) for a in degree_zero}
    checked = 0
    for a in degree_zero:
        for b in degree_zero:
            dec = fuse(a, b)
            dec_t = fuse(images[a], images[b])
            for c in degree_zero:
                lhs = dec.multiplicity(c)
                rhs = dec_t.multiplicity(images[c])
                checked += 1
                if lhs != rhs:
                    return Verdict(
                        "equivalence", f"n={n} m={m}", False, checked, (a, b, c, lhs, rhs),
                        f"N_ab^c = {lhs} but {rhs} after transport at a={a} b={b} c={c}",
                    )
    return Verdict("equivalence", f"n={n} m={m}", True, checked,
                   detail=f"{checked} triples agree")


def mirror_transport(summands: list[LevelWeight]) -> list[LevelWeight]:
    """Transport the object underlying a connected algebra, summand by
    summand. The input must be degree zero throughout and contain the vacuum
    exactly once."""
    if not summands:
        raise ValueError("empty summand list")
    n, m = summands[0].rank, summands[0].level
    vacuum_count = sum(1 for a in summands if a.is_vacuum())
    if vacuum_count != 1:
        raise ValueError(f"the vacuum must appear exactly once, found {vacuum_count}")
    for a in summands:
        if (a.rank, a.level) != (n, m):
            raise ValueError("summands must share rank and level")
        if a.degree() != 0:
            raise ValueError(f"{a} has nonzero degree {a.degree()}")
    return [transport(a) for a in summands]


def etale_necessary_conditions(summands: list[LevelWeight]) -> dict[str, bool]:
    """Necessary (not sufficient) conditions for a degree-zero object to
    underlie a connected commutative algebra: the vacuum once, closure under
    duals, and integral conformal weights (trivial twists)."""
    wset = set(summands)
    return {
        "vacuum_once": sum(1 for a in summands if a.is_vacuum()) == 1,
        "degree_zero": all(a.degree() == 0 for a in summands),
        "dual_closed": all(a.dual() in wset for a in summands),
        "twists_trivial": all(conformal_weight(a).denominator == 1 for a in summands),
    }


# -- trace form -----------------------------------------------------------------
#
# Matrices are sparse {(row, col): value} dicts of ints; absent entries are 0.


def _trace_product(A: dict, B: dict) -> int:
    """tr(AB) as the sum of A_ij * B_ji, without forming the product."""
    return sum(v * B.get((j, i), 0) for (i, j), v in A.items())


def _sl_basis(n) -> list[dict]:
    """Elementary off-diagonal matrices plus consecutive diagonal differences:
    a spanning set of the traceless n x n matrices."""
    basis = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    basis += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    return basis


def _embed_left(X, n, m):
    """X kron I_m, entry by entry."""
    return {(i * m + k, j * m + k): v for (i, j), v in X.items() for k in range(m)}


def _embed_right(Y, n, m):
    """I_n kron Y, entry by entry."""
    return {(k * m + i, k * m + j): v for k in range(n) for (i, j), v in Y.items()}


def verify_trace_form(n: int, m: int) -> Verdict:
    """On the embedding (X, Y) -> X kron I + I kron Y of traceless blocks
    into the n*m by n*m matrices, the big trace form restricts to m times the
    small form on the first block, n times on the second, with vanishing
    cross terms. Both embedded matrices are formed explicitly as sparse
    integer matrices, and every pairing of full spanning sets is checked as
    tr(AB) = sum of A_ij * B_ji, exactly. A failure carries the
    counterexample (block, X, Y, lhs, rhs), with X and Y sparse dicts."""
    if n < 2 or m < 2:
        raise ValueError("need n, m at least 2")
    left = [(X, _embed_left(X, n, m)) for X in _sl_basis(n)]
    right = [(Y, _embed_right(Y, n, m)) for Y in _sl_basis(m)]
    checked = 0
    for block, xs, ys, scale in (("left", left, left, m), ("right", right, right, n),
                                 ("cross", left, right, 0)):
        for X, iX in xs:
            for Y, iY in ys:
                lhs = _trace_product(iX, iY)
                rhs = scale * _trace_product(X, Y) if scale else 0
                checked += 1
                if lhs != rhs:
                    return Verdict("traceform", f"n={n} m={m}", False, checked,
                                   (block, X, Y, lhs, rhs), f"{block} block: {lhs} != {rhs}")
    return Verdict("traceform", f"n={n} m={m}", True, checked,
                   detail=f"{checked} pairings verified")
