"""Modular S-matrix, central charges, and conformal weights.

Weights are embedded in orthogonal coordinates as their partition plus the
staircase (n-1, ..., 1, 0), with the inner product of two coordinate vectors
taken after subtracting the mean (this matches the trace-form normalization
in which roots have squared length 2). The unnormalized matrix is the
Kac-Peterson sum

    M_ab = sum over permutations w of sign(w) exp(-2 pi i <w(y_a), y_b> / (n+m)).

Every mean-free inner product has denominator n, so each term is a power of
zeta = exp(2 pi i / (n (n+m))). Each entry of the upper triangle (M is
symmetric) is therefore built once as an integer histogram of exponents
modulo n(n+m), and M is kept exactly in the cyclotomic field of that
conductor. Unitarity is the exact identity M M^dagger = n (n+m)^(n-1) I.
The S-matrix is M divided by the square root of n (n+m)^(n-1) and by the
phase of the vacuum-vacuum entry.

Central charges, conformal weights and M are exact; only the displayed
entries of S are floating point, at a configurable binary precision.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from operator import mul

import mpmath

from .cyclotomic import MPMATH_LOCK, CyclotomicNumber, IntegralPacking
from .verdict import Verdict
from .weights import LevelWeight, enumerate_weights


def central_charge(n: int, m: int, k: int = 1) -> tuple[Fraction, Fraction]:
    """Virasoro central charges at level k: the ambient algebra of rank n*m,
    and the embedded rank-n level-mk plus rank-m level-nk pair. Both exact."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError("arguments must be positive")
    ambient = Fraction((n * n * m * m - 1) * k, n * m + k)
    pair = Fraction((n * n - 1) * m * k, n + m * k) + Fraction((m * m - 1) * n * k, m + n * k)
    return ambient, pair


def category_central_charge(n: int, m: int) -> Fraction:
    """Central charge (n^2 - 1) m / (n + m) of rank n at level m, exact."""
    return Fraction((n * n - 1) * m, n + m)


def _mean_free_inner(u: tuple[int, ...], v: tuple[int, ...]) -> Fraction:
    n = len(u)
    return Fraction(sum(a * b for a, b in zip(u, v))) - Fraction(sum(u) * sum(v), n)


def _coordinates(a: LevelWeight) -> tuple[int, ...]:
    n = a.rank
    lam = a.to_partition().padded(n)
    return tuple(lam[i] + (n - 1 - i) for i in range(n))


def conformal_weight(a: LevelWeight) -> Fraction:
    """Sugawara conformal weight (lam, lam + 2 rho) / (2 (n + m)), exact."""
    n, m = a.rank, a.level
    lam = a.to_partition().padded(n)
    rho = tuple(n - 1 - i for i in range(n))
    value = _mean_free_inner(lam, lam) + 2 * _mean_free_inner(lam, rho)
    return value / (2 * (n + m))


@dataclass
class SMatrixData:
    """S-matrix with its index order, the exact unnormalized matrix M, exact
    central charge and twists."""

    n: int
    m: int
    weights: tuple[LevelWeight, ...]
    entries: list  # list of rows of mpmath mpc
    exact: list = field(repr=False)  # rows of CyclotomicNumber, conductor n(n+m)
    precision_bits: int
    central_charge: Fraction
    conformal_weights: dict = field(repr=False, default_factory=dict)

    def index(self, a: LevelWeight) -> int:
        return self.weights.index(a)

    def pack(self, products: int, constant: int = 0) -> tuple[IntegralPacking, list]:
        """M packed for exact zero tests of sums of at most ``products``
        products of two entries plus an integer of size at most
        ``constant``; returns the packing and the packed rows."""
        norm = max(IntegralPacking.norm(z) for row in self.exact for z in row)
        packing = IntegralPacking(self.n * (self.n + self.m), products * norm * norm + constant)
        return packing, [[packing.pack(z) for z in row] for row in self.exact]

    def unitarity_residual(self) -> int:
        """Decide M M^dagger = n (n+m)^(n-1) I exactly, which makes the
        normalized entries unitary. Returns 0 when the identity holds and
        raises ArithmeticError naming the first entry (a, b) where it
        fails."""
        size = len(self.weights)
        scale = self.n * (self.n + self.m) ** (self.n - 1)
        packing, rows = self.pack(size, scale)
        conj = [[packing.pack(z, conjugate=True) for z in row] for row in self.exact]
        for a in range(size):  # M M^dagger is Hermitian: the upper triangle decides
            for b in range(a, size):
                total = sum(map(mul, rows[a], conj[b]))
                if not packing.is_zero(total - scale if a == b else total):
                    raise ArithmeticError(
                        f"M M^dagger differs from {scale} I at "
                        f"({self.weights[a]}, {self.weights[b]})"
                    )
        return 0

    def to_json(self) -> dict:
        with MPMATH_LOCK, mpmath.workprec(self.precision_bits):
            rows = [
                [[mpmath.nstr(z.real, 17), mpmath.nstr(z.imag, 17)] for z in row]
                for row in self.entries
            ]
        return {
            "n": self.n,
            "m": self.m,
            "precision_bits": self.precision_bits,
            "weights": [list(w.components) for w in self.weights],
            "entries": rows,
            "central_charge": str(self.central_charge),
            "conformal_weights": {
                str(list(w.components)): str(h) for w, h in self.conformal_weights.items()
            },
        }


def s_matrix(n: int, m: int, precision_bits: int = 128) -> SMatrixData:
    """The modular S-matrix for rank n at level m."""
    if n < 2 or m < 1:
        raise ValueError("need rank >= 2 and level >= 1")
    if precision_bits < 32:
        raise ValueError("precision must be at least 32 bits")
    weights = enumerate_weights(n, m)
    kappa = n + m
    conductor = n * kappa
    size = len(weights)
    exact = [[None] * size for _ in range(size)]
    raw = [[None] * size for _ in range(size)]
    with MPMATH_LOCK, mpmath.workprec(precision_bits + 32):
        roots = [mpmath.expjpi(mpmath.mpf(2 * e) / conductor) for e in range(conductor)]
        for (i, j), hist in _exponent_histograms(
                n, [_coordinates(a) for a in weights], conductor).items():
            exact[i][j] = exact[j][i] = CyclotomicNumber(conductor, hist)
            raw[i][j] = raw[j][i] = mpmath.fsum(c * roots[e] for e, c in enumerate(hist) if c)
        # normalize: unit rows (the exact row norm), vacuum-vacuum entry real positive
        scale = mpmath.sqrt(n * kappa ** (n - 1)) * raw[0][0] / abs(raw[0][0])
        entries = [[z / scale for z in row] for row in raw]
    data = SMatrixData(
        n=n,
        m=m,
        weights=weights,
        entries=entries,
        exact=exact,
        precision_bits=precision_bits,
        central_charge=category_central_charge(n, m),
        conformal_weights={a: conformal_weight(a) for a in weights},
    )
    data.unitarity_residual()
    return data


def _exponent_histograms(n: int, coords: list[tuple[int, ...]], conductor: int) -> dict:
    """Upper triangle of M: entry e of the (i, j) histogram is the signed
    count of permutations w with -n <w(y_i), y_j> = e modulo the conductor,
    so that M_ij = sum_e hist[e] zeta^e."""
    signed = [(perm_sign(p), p) for p in permutations(range(n))]
    out = {}
    for i, ya in enumerate(coords):
        permuted = [(sign, [ya[k] for k in p]) for sign, p in signed]
        sa = sum(ya)
        for j in range(i, len(coords)):
            yb = coords[j]
            shift = sa * sum(yb)  # n times the mean correction
            hist = [0] * conductor
            for sign, pa in permuted:
                hist[(shift - n * sum(map(mul, pa, yb))) % conductor] += sign
            out[i, j] = hist
    return out


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 0..len-1, from the parity of its even cycles."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- exact twist identities ----------------------------------------------------


def twist_pairing_check(n: int, m: int) -> Verdict:
    """For every class i and weight a of degree i, the conformal weights of a
    and of its duality image must sum to i(nm - i)/(2nm) modulo 1, the
    conformal weight of the i-th level-1 object. Checked with exact
    rationals; a failure carries the first counterexample (i, a, total,
    target)."""
    from .weights import enumerate_graded, tau

    checked = 0
    for i in range(n * m):
        target = Fraction(i * (n * m - i), 2 * n * m)
        for a in enumerate_graded(n, m, i):
            total = conformal_weight(a) + conformal_weight(tau(a, i))
            checked += 1
            if (total - target).denominator != 1:
                return Verdict("twist", f"n={n} m={m}", False, checked, (i, a, total, target),
                               f"h(a) + h(tau(a)) = {total} at i={i} a={a}, want {target} mod 1")
    return Verdict("twist", f"n={n} m={m}", True, checked, detail=f"{checked} pairings exact")
