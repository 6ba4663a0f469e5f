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
value per weight in front of that. ``dimension_report(n, m)`` is the one
record of a rank and level; its graded totals count the weights of each
orbit as plain ints and square each orbit's dimension once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping

import mpmath

from .cyclotomic import CyclotomicNumber, conductor_for, qint, qint_inverse, qint_real
from .partitions import Partition
from .weights import LevelWeight, degree_classes, enumerate_weights, from_partition


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
    top = _top_rotation(from_partition(lam, n, m).components)
    return _qdim_exact(LevelWeight._unchecked(top).to_partition(), n, m)


def _top_rotation(comps: tuple[int, ...]) -> tuple[int, ...]:
    """The largest rotation of a component tuple: its rotation orbit's key."""
    return max(comps[k:] + comps[:k] for k in range(len(comps)))


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


def graded_dim(n: int, m: int, i: int, backend: str = "exact"):
    """Sum of squared dimensions over the weights of degree i mod n."""
    if backend == "exact":
        return dimension_report(n, m).graded[i % n]
    return sum(qdim_weight(a, backend) ** 2 for a in degree_classes(n, m)[i % n])


def category_dim(n: int, m: int, backend: str = "exact"):
    """Sum of squared dimensions over all rank-n level-m weights."""
    if backend == "exact":
        return dimension_report(n, m).total
    return sum(qdim_weight(a, backend) ** 2 for a in enumerate_weights(n, m))


@dataclass(frozen=True, eq=False)
class DimensionReport:
    """The exact dimension data of rank n, level m, built once.

    ``weights`` are in canonical order and ``position`` maps each back to its
    index; ``classes[i]`` holds the weights of degree i; ``orbit`` is the
    rotation-orbit id of each position and ``orbit_dims`` the dimension of
    each id. ``dims`` maps each weight to its dimension, ``graded`` each
    degree to its sum of squared dimensions, and ``total`` is their sum.
    """

    n: int
    m: int
    weights: tuple[LevelWeight, ...]
    position: Mapping[LevelWeight, int]
    classes: tuple[tuple[LevelWeight, ...], ...]
    orbit: tuple[int, ...]
    orbit_dims: tuple[CyclotomicNumber, ...]
    dims: Mapping[LevelWeight, CyclotomicNumber]
    graded: Mapping[int, CyclotomicNumber]
    total: CyclotomicNumber

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


@cache
def dimension_report(n: int, m: int) -> DimensionReport:
    """The record of rank n, level m: orbit ids in order of first appearance,
    dimensions from ``qdim_weight``, and graded totals that square each
    orbit's dimension once and scale it by the orbit's count in the class."""
    weights = enumerate_weights(n, m)
    position = {a: k for k, a in enumerate(weights)}
    ids: dict[tuple[int, ...], int] = {}
    orbit = tuple(ids.setdefault(_top_rotation(a.components), len(ids)) for a in weights)
    dims = {a: qdim_weight(a) for a in weights}
    orbit_dims = tuple(dict(zip(orbit, dims.values())).values())  # keys come in id order
    squares = [d * d for d in orbit_dims]
    zero = CyclotomicNumber.zero(conductor_for(n, m))
    classes = degree_classes(n, m)
    graded = {i: sum((squares[p] * k for p, k in Counter(orbit[position[a]] for a in cls).items()),
                     zero) for i, cls in enumerate(classes)}
    return DimensionReport(n, m, weights, MappingProxyType(position), classes, orbit, orbit_dims,
                           MappingProxyType(dims), MappingProxyType(graded),
                           sum(graded.values(), zero))


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
