"""Frobenius-Perron dimensions of simple objects and of whole categories.

The dimension of the simple object labelled by a partition lam inside an
m x n rectangle is the hook-content product

    prod over cells T of lam of  [n + content(T)] / [hook(T)]

with quantum integers taken for the pair (n, m). Category and graded totals
are sums of squared dimensions. Everything is exact by default; a floating
backend evaluates the same products as sine ratios at the current mpmath
precision.

The exact route is the q-analogue of Weyl's dimension formula
(Macdonald, Symmetric Functions and Hall Polynomials, I.3). With
v = lam + rho, that is v_j = lam_j + n - j, and

    V(y) = prod over i < j of (zeta^(y_i - y_j) - zeta^(y_j - y_i)),

the dimension is V(v) / V(rho). Here d = v_i - v_j = sum of (a_l + 1) over
i <= l < j, a the weight of lam, so 0 < d < kappa = n + m = N/2 and no
factor vanishes. There are F = n(n - 1)/2 factors, and each is
zeta^-d (zeta^(2d) - 1), so V(v) is zeta^-(sum d) times the product of the
binomials x^(2d) - 1 in Z[x]/(x^(N/2) + 1), which Phi_N divides as
zeta^(N/2) = -1. Each binomial has l1 norm 2, and folding x^(N/2) to -1
never raises the l1 norm, so the product has l1 norm at most 2^F.
V(rho) is D (zeta - zeta^-1)^F, where D = prod over k < n of [k]^(n-k) is
built from ``qint``; it is inverted once per (n, m), and 1 / V(rho) is
Q / c for an integer polynomial Q of degree below phi(N) <= N/2 and an
integer c > 0. So every coefficient of the product times Q, in
Z[x]/(x^(N/2) + 1), is at most 2^F max |Q_j| in size. Both products are
formed in one integer of N/2 signed slots of b = F + 1 + bitlen(max |Q_j|)
bits, which is F + 2 when Q is a sign vector: x = 2^b maps
Z[x]/(x^(N/2) + 1) onto the integers modulo 2^(b N/2) + 1. A factor is
one shift by 2d slots, folded (the slots past N/2 come back negated), and
one subtraction; no factor needs a division. Q, packed once per (n, m),
enters as one big-integer product. The slots then read back exactly as
balanced digits; they are rotated back by -(sum d) and reduced mod Phi_N
once, over c. The hook-content product stays as the independent route:
the float backend, ``qdim_product_string``, the golden check of
``verify`` and the tests evaluate it.

The dimension is constant along the rotation orbit of a weight, so the
exact products are memoised per orbit: ``qdim_partition`` keys its table on
the largest rotation of lam's weight, the orbit's first member in
canonical order and so the weight at its ``orbit`` position in
``weight_table(n, m)``. It takes that rotation off the components,
comparing only the rotations that start at a largest component, without
building the table, which holds binomial(n + m - 1, n - 1) weights, so
one dimension stays cheap at any rank and level. At (7, 7) the 1716
weights need only 246 products.
``dimension_report(n, m)`` is the one record of a rank and level, by
``weight_table`` position; its graded totals count the weights of each
orbit as plain ints and sum k times the square of each orbit's dimension
as packed integers (``cyclotomic.packed_sums``), one multiply-add per
orbit and one reduction per class.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cache
from math import lcm

from .cyclotomic import CyclotomicNumber, conductor_for, packed_sums, qint, qint_real
from .partitions import Partition
from .record import Record
from .weights import LevelWeight, from_partition, weight_table


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
    comps = from_partition(lam, n, m).components
    top = max(comps)  # the largest rotation starts at a largest component
    return _qdim_exact(max(comps[k:] + comps[:k] for k, a in enumerate(comps) if a == top))


@cache
def _qdim_exact(top: tuple[int, ...]) -> CyclotomicNumber:
    """V(v) / V(rho) for the weight with components ``top`` (see the module
    docstring): V(v) as one integer of N/2 signed slots modulo
    2^(bits N/2) + 1, one shift and subtraction per factor, times the
    packed numerator of 1 / V(rho), decoded as balanced digits and rotated
    back by -sum d."""
    n, m = len(top), sum(top)
    N = conductor_for(n, m)
    half = N // 2
    bits, inverse, den = _weyl_denominator_inverse(n, m)
    width = bits * half
    mask = (1 << width) - 1  # x^(N/2) = 2^width = -1 modulo mask + 2
    value, shift = 1, 0  # value is left unreduced: each factor adds below 2^(width + 1) to |value|
    for i in range(1, n):
        d = 0  # v_i - v_j for i < j, a sum of (a_l + 1) over i <= l < j, below N/2
        for a in top[i:]:
            d += a + 1
            shift += d
            # times zeta^d - zeta^-d = zeta^-d (zeta^2d - 1); the zeta^-d waits
            if 2 * d < half:
                t = value << bits * 2 * d
                value = (t & mask) - (t >> width) - value
            else:  # x^2d = -x^(2d - N/2)
                t = value << bits * (2 * d - half)
                value = (t >> width) - (t & mask) - value
    # biased by 2^(bits - 1), every slot of the product lies in [0, 2^bits)
    low = 1 << bits - 1
    value = (value * inverse + low * mask // ((1 << bits) - 1)) % (mask + 2)
    slot = (1 << bits) - 1
    coeffs = [(value >> bits * e & slot) - low for e in range(half)] + [0] * half
    r = shift % N  # times zeta^-shift: the slot at e moves to e - shift
    return CyclotomicNumber(N, coeffs[r:] + coeffs[:r], den)


@cache
def _weyl_denominator_inverse(n: int, m: int) -> tuple[int, int, int]:
    """1 / V(rho) as (bits, packed Q, c) with 1 / V(rho) = Q / c, where
    V(rho) = prod_{k < n} [k]^(n-k) (zeta - 1/zeta)^F is the Weyl
    denominator of rank n at level m: Q's coefficients packed into slots
    of ``bits`` bits, wide enough for its product with the F binomials of
    l1 norm 2 each."""
    N = conductor_for(n, m)
    F = n * (n - 1) // 2
    den = (CyclotomicNumber.zeta(N) - CyclotomicNumber.zeta(N, -1)) ** F
    for k in range(2, n):
        den = den * qint(k, n, m) ** (n - k)
    coeffs = den.inverse().coefficients()
    common = lcm(*(c.denominator for c in coeffs))
    nums = [int(c * common) for c in coeffs]
    bits = F + max(map(abs, nums)).bit_length() + 1
    return bits, sum(c << bits * e for e, c in enumerate(nums)), common


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
    graded totals that count each orbit's weights in the class, read from
    ``weight_table.orbit``, and sum the counted squares of the orbit
    dimensions as packed integers."""
    table = weight_table(n, m)
    orbit = table.orbit
    dims = tuple(map(qdim_weight, table.weights))
    N = conductor_for(n, m)
    graded = tuple(packed_sums(N, dims, dims, (
        Counter((orbit[q], orbit[q]) for q in cls).items() for cls in table.classes)))
    return DimensionReport(n, m, dims, graded, sum(graded, CyclotomicNumber.zero(N)))


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
