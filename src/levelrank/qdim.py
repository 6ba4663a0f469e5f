"""Frobenius-Perron dimensions of simple objects and of whole categories.

The dimension of the simple object labelled by a partition lam inside an
m x n rectangle is the hook-content product

    prod over cells T of lam of  [n + content(T)] / [hook(T)]

with quantum integers taken for the pair (n, m). Category and graded totals
are sums of squared dimensions. Everything is exact by default; a floating
backend evaluates the same products as sine ratios at the current mpmath
precision.

The exact route is the Weyl form of the same number. With v = lam + rho,
that is v_j = lam_j + n - j, and a the weight of lam,

    qdim = prod over i < j of [v_i - v_j]  /  prod over k < n of [k]^(n-k),

where v_i - v_j = sum of (a_l + 1) over i <= l < j is at most kappa - 1,
kappa = n + m, so no factor vanishes. Each [d] is the sum of d powers of
zeta, so in Z[x]/(x^N - 1) the numerator has non-negative coefficients that
sum to P = prod (v_i - v_j). It is formed as one integer of N slots of
k = bitlen(P) + 1 bits: x = 2^k maps Z[x]/(x^N - 1) into the integers
modulo 2^(kN) - 1, injectively on coefficients in [0, 2^(k-1)), so each
coefficient reads back from its slot. Each [d] enters as x^(d-1) [d] =
1 + x^2 + ... + x^(2d-2) = (x^(2d) - 1)/(x^2 - 1): the value v becomes
((v << 2kd) - v) // (2^(2k) - 1), an exact division by a small integer,
folded mod 2^(kN) - 1. The numerator is unpacked with its slots rotated
back by the total shift sum (d - 1), reduced mod Phi_N once, then
multiplied by one cached inverse of the denominator per (n, m). The
hook-content product stays as the independent route: the float backend,
``qdim_product_string``, the golden check of ``verify`` and the tests
evaluate it.

The dimension is constant along the rotation orbit of a weight, so the
exact products are memoised per orbit: ``qdim_partition`` keys its table on
the orbit's representative, ``weights.top_rotation`` of the components of
lam's weight, and at (7, 7) the 1716 weights need only 246 products.
``dimension_report(n, m)`` is the one record of a rank and level, by
``weight_table`` position; its graded totals count the weights of each
orbit as plain ints and square each orbit's dimension once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cache
from math import prod

from .cyclotomic import CyclotomicNumber, conductor_for, qint, qint_real
from .partitions import Partition
from .record import Record
from .weights import LevelWeight, from_partition, top_rotation, weight_table


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
    if m < 0:
        raise ValueError("level must be non-negative")
    if not lam.fits_in(n, m):
        raise ValueError(f"{lam!r} does not fit in a {m} x {n} rectangle")
    if backend == "float":
        return _qdim_float(lam, n, m)
    if backend != "exact":
        raise ValueError(f"unknown backend {backend!r}")
    return _qdim_exact(top_rotation(from_partition(lam, n, m).components)[1])


@cache
def _qdim_exact(top: tuple[int, ...]) -> CyclotomicNumber:
    """The Weyl product of the weight with components ``top`` (see the
    module docstring): the numerator as one packed integer, one shift, exact
    division and fold per factor, unpacked and reduced mod Phi_N once, times
    the cached inverse of the denominator."""
    n, m = len(top), sum(top)
    N = conductor_for(n, m)
    diffs = []  # v_i - v_j > 1 for 1 <= i < j <= n; a factor [1] = 1 drops out
    for i in range(1, n):
        d = 0
        for a in top[i:]:
            d += a + 1
            if d > 1:
                diffs.append(d)
    k = prod(diffs).bit_length() + 1
    width = k * N
    modulus = (1 << width) - 1
    g = (1 << 2 * k) - 1  # x^2 - 1 at x = 2^k
    value = 1
    for d in diffs:  # times x^(d-1) [d] = (x^(2d) - 1)/(x^2 - 1)
        value = ((value << 2 * k * d) - value) // g
        while value >> width:
            value = (value & modulus) + (value >> width)
    shift = sum(diffs) - len(diffs)  # the x^(d-1) of each factor, undone below
    mask = (1 << k) - 1
    numerator = CyclotomicNumber(N, [value >> k * ((e + shift) % N) & mask for e in range(N)])
    return numerator * _weyl_denominator_inverse(n, m)


@cache
def _weyl_denominator_inverse(n: int, m: int) -> CyclotomicNumber:
    """1 / prod_{k < n} [k]^(n-k), the Weyl denominator of rank n at level m."""
    den = CyclotomicNumber.one(conductor_for(n, m))
    for k in range(2, n):
        den = den * qint(k, n, m) ** (n - k)
    return den.inverse()


def _qdim_float(lam: Partition, n: int, m: int):
    import mpmath

    value = mpmath.mpf(1)
    for i, j in lam.cells():
        value *= qint_real(n + lam.content(i, j), n, m)
        value /= qint_real(lam.hook_length(i, j), n, m)
    return value


def qdim_weight(a: LevelWeight, backend: str = "exact"):
    """Quantum dimension of a weight, via its partition. The dimension is
    constant along rotation orbits, so any partition preimage of the weight
    gives the same value; ``qdim_partition`` memoises it per orbit."""
    return qdim_partition(a.to_partition(), a.rank, a.level, backend=backend)


def graded_dim(n: int, m: int, i: int) -> CyclotomicNumber:
    """Sum of squared exact dimensions over the weights of degree i mod n."""
    return dimension_report(n, m).graded[i % n]


def category_dim(n: int, m: int) -> CyclotomicNumber:
    """Sum of squared exact dimensions over all rank-n level-m weights."""
    return dimension_report(n, m).total


class DimensionReport(Record):
    """The exact dimension data of rank n, level m, built once, indexed like
    ``weight_table(n, m)``: ``dims[p]`` is the dimension of the weight at
    position p, ``graded[i]`` the sum of squared dimensions of degree i,
    and ``total`` their sum.
    """

    def __init__(self, n: int, m: int, dims: tuple[CyclotomicNumber, ...],
                 graded: tuple[CyclotomicNumber, ...], total: CyclotomicNumber):
        vars(self).update(n=n, m=m, dims=dims, graded=graded, total=total)

    def to_json(self) -> dict:
        import mpmath

        return {
            "n": self.n,
            "m": self.m,
            "objects": [
                {
                    "weight": list(a.components),
                    "dimension": d.to_json(),
                    "value": mpmath.nstr(d.embed_real(20), 15),
                }
                for a, d in zip(weight_table(self.n, self.m).weights, self.dims)
            ],
            "total": self.total.to_json(),
            "graded": {str(i): g.to_json() for i, g in enumerate(self.graded)},
        }


@cache
def dimension_report(n: int, m: int) -> DimensionReport:
    """The record of rank n, level m: dimensions from ``qdim_weight``, and
    graded totals that square each orbit's dimension once and scale it by
    the orbit's count in the class, both read from ``weight_table.orbit``."""
    table = weight_table(n, m)
    orbit = table.orbit
    dims = tuple(map(qdim_weight, table.weights))
    squares = {p: dims[p] * dims[p] for p, o in enumerate(orbit) if o == p}
    zero = CyclotomicNumber.zero(conductor_for(n, m))
    graded = tuple(sum((squares[o] * k for o, k in Counter(orbit[q] for q in cls).items()), zero)
                   for cls in table.classes)
    return DimensionReport(n, m, dims, graded, sum(graded, zero))


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
