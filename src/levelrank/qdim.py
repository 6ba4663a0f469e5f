"""Frobenius-Perron dimensions of simple objects and of whole categories.

The dimension of the simple object labelled by a partition lam inside an
m x n rectangle is the hook-content product

    prod over cells T of lam of  [n + content(T)] / [hook(T)]

with quantum integers taken for the pair (n, m). Category and graded totals
are sums of squared dimensions. Everything is exact by default; a floating
backend evaluates the same products as sine ratios at the current mpmath
precision.

The exact route cancels before it multiplies. With kappa = n + m, every
content index n + c and every hook lies in 1 .. kappa - 1, where [k] is
nonzero and [kappa - k] = [k] holds exactly; each index is therefore folded
to min(k, kappa - k). Equal indices then cancel between numerator and
denominator, and [1] = 1 is dropped. What is left of the numerator is
multiplied out, and each denominator factor contributes the cached inverse
``qint_inverse(k)``, inverted once per conductor and index, so no product is
ever inverted. ``qdim_product_string`` shows the same cancellation on the
literal indices, without the folding.

The dimension is constant along the rotation orbit of a weight, so the
exact products are memoised per orbit: ``qdim_partition`` keys its table on
the partition of the largest rotation of lam's weight, and at (7, 7) the
1716 weights need only 246 products. ``qdim_weight`` memoises the exact
value per weight in front of that. Sums of squares group equal dimensions
first, square each distinct one once and scale it by its multiplicity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterable

import mpmath

from .cyclotomic import CyclotomicNumber, conductor_for, qint, qint_inverse, qint_real
from .partitions import Partition
from .weights import LevelWeight, enumerate_graded, enumerate_weights, from_partition


def hook_content_factors(lam: Partition, n: int) -> tuple[list[int], list[int]]:
    """Numerator and denominator quantum-integer indices of the hook-content
    product, one entry per cell."""
    nums, dens = [], []
    for i, j in lam.cells():
        nums.append(n + lam.content(i, j))
        dens.append(lam.hook_length(i, j))
    return nums, dens


def _cancel(nums: Iterable[int], dens: Iterable[int]) -> tuple[Counter, Counter]:
    """Numerator and denominator index multisets with equal indices cancelled
    and [1] = 1 dropped."""
    num_count, den_count = Counter(nums), Counter(dens)
    common = num_count & den_count
    num_count -= common
    den_count -= common
    num_count.pop(1, None)
    den_count.pop(1, None)
    return num_count, den_count


def qdim_partition(lam: Partition, n: int, m: int, backend: str = "exact"):
    """Quantum dimension of the simple object labelled by ``lam``."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    if not lam.fits_in(n, m):
        raise ValueError(f"{lam!r} does not fit in a {m} x {n} rectangle")
    if backend == "float":
        return _qdim_float(lam, n, m)
    if backend != "exact":
        raise ValueError(f"unknown backend {backend!r}")
    return _qdim_exact(_orbit_partition(lam, n, m), n, m)


def _orbit_partition(lam: Partition, n: int, m: int) -> Partition:
    """The canonical partition of the rotation orbit of lam's rank-n
    level-m weight: the partition of the largest of its n rotations, compared
    as plain tuples, with no ``LevelWeight`` built per rotation."""
    comps = from_partition(lam, n, m).components
    top = max(comps[k:] + comps[:k] for k in range(n))
    return LevelWeight._unchecked(top).to_partition()


@cache
def _qdim_exact(lam: Partition, n: int, m: int) -> CyclotomicNumber:
    kappa = n + m
    nums, dens = hook_content_factors(lam, n)
    num_count, den_count = _cancel(
        (min(k, kappa - k) for k in nums), (min(k, kappa - k) for k in dens)
    )
    value = CyclotomicNumber.one(conductor_for(n, m))
    for k in num_count.elements():
        value = value * qint(k, n, m)
    for k in den_count.elements():
        value = value * qint_inverse(k, n, m)
    return value


def _qdim_float(lam: Partition, n: int, m: int):
    from .cyclotomic import MPMATH_LOCK

    with MPMATH_LOCK:
        value = mpmath.mpf(1)
        for i, j in lam.cells():
            value *= qint_real(n + lam.content(i, j), n, m)
            value /= qint_real(lam.hook_length(i, j), n, m)
    return value


def qdim_weight(a: LevelWeight, backend: str = "exact"):
    """Quantum dimension of a weight, via its partition.

    The exact value is memoised per weight, so ``qdim_partition`` runs once
    per weight; behind it, the hook-content product runs once per rotation
    orbit. The dimension is constant along rotation orbits, so any partition
    preimage of the weight gives the same value; tests assert this on the
    uncached products.
    """
    if backend == "exact":
        return _qdim_weight_exact(a)
    return qdim_partition(a.to_partition(), a.rank, a.level, backend=backend)


@cache
def _qdim_weight_exact(a: LevelWeight) -> CyclotomicNumber:
    return qdim_partition(a.to_partition(), a.rank, a.level)


def _squared_total(weights: Iterable[LevelWeight], n: int, m: int, backend: str):
    """Sum of squared dimensions of ``weights``: a ``CyclotomicNumber`` for the
    exact backend, an mpmath real for the float one. Squares are taken as
    ``d * d``: ``CyclotomicNumber.__pow__`` spends three products on one. The
    exact backend squares each distinct dimension once and scales it by the
    number of weights that share it."""
    if backend != "exact":
        dims = (qdim_weight(a, backend) for a in weights)
        return sum(d * d for d in dims)
    counts = Counter(qdim_weight(a) for a in weights)
    return sum((d * d * k for d, k in counts.items()), CyclotomicNumber.zero(conductor_for(n, m)))


def graded_dim(n: int, m: int, i: int, backend: str = "exact"):
    """Sum of squared dimensions over the weights of degree i mod n."""
    if backend == "exact":
        return _graded_dim_exact(n, m, i % n)
    return _squared_total(enumerate_graded(n, m, i), n, m, backend)


@cache
def _graded_dim_exact(n: int, m: int, i: int) -> CyclotomicNumber:
    return _squared_total(enumerate_graded(n, m, i), n, m, "exact")


def category_dim(n: int, m: int, backend: str = "exact"):
    """Sum of squared dimensions over all rank-n level-m weights."""
    return _squared_total(enumerate_weights(n, m), n, m, backend)


@dataclass
class DimensionReport:
    """Per-object dimensions plus category and graded totals."""

    n: int
    m: int
    dims: dict[LevelWeight, CyclotomicNumber]
    total: CyclotomicNumber
    graded: dict[int, CyclotomicNumber]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "objects": [
                {
                    "weight": list(a.components),
                    "dimension": d.to_json(),
                    "value": mpmath.nstr(d.embed_real(20), 15),
                }
                for a, d in self.dims.items()
            ],
            "total": self.total.to_json(),
            "graded": {str(i): g.to_json() for i, g in self.graded.items()},
        }


def dimension_report(n: int, m: int) -> DimensionReport:
    dims = {a: qdim_weight(a) for a in enumerate_weights(n, m)}
    total = category_dim(n, m)
    graded = {i: graded_dim(n, m, i) for i in range(n)}
    return DimensionReport(n=n, m=m, dims=dims, total=total, graded=graded)


def qdim_product_string(lam: Partition, n: int) -> str:
    """The hook-content product with matching factors cancelled, e.g.
    ``[7][5]^2``. Only literally equal indices are cancelled, so the string
    shows the same indices a hand computation would keep."""
    num_count, den_count = _cancel(*hook_content_factors(lam, n))

    def fmt(counter: Counter) -> str:
        pieces = []
        for idx in sorted(counter, reverse=True):
            e = counter[idx]
            pieces.append(f"[{idx}]" + (f"^{e}" if e > 1 else ""))
        return "".join(pieces)

    if not num_count and not den_count:
        return "1"
    top = fmt(num_count) or "1"
    if den_count:
        return f"{top}/{fmt(den_count)}"
    return top
