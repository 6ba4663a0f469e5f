"""Modular S-matrix, central charges, and conformal weights.

Weights are embedded in orthogonal coordinates as their partition plus the
staircase (n-1, ..., 1, 0), with the inner product of two coordinate vectors
taken after subtracting the mean (this matches the trace-form normalization
in which roots have squared length 2). The unnormalized matrix is the
Kac-Peterson sum

    M_ab = sum over permutations w of sign(w) exp(-2 pi i <w(y_a), y_b> / (n+m)).

Every mean-free inner product has denominator n, so each term is a power of
zeta = exp(2 pi i / (n (n+m))), and M_ab is an integer histogram of
exponents modulo N = n(n+m): an element of the group ring Z[C_N], kept
exactly in the cyclotomic field Q(zeta_N).

Galois symmetry (Coste-Gannon). For k prime to N, fold k*y_a into the
alcove at height n+m with ``weights._fold_into_alcove``, the fold of the
fusion rule; it gives a sign eps_k(a) and the components of a weight
pi_k(a), which index ``weight_table(n, m).position``, and
sigma_k(M_ab) = eps_k(a) M_{pi_k a, b}, where sigma_k is zeta -> zeta^k.
The maps pi_k split the weights into few Galois orbits. ``s_matrix`` builds histograms only for pairs (r, q) of orbit
representatives and fills every other entry by permuting exponents: for
a = pi_j r and b = pi_k q,

    hist_ab[e*j*k mod N] = eps_j(r) eps_k(q) hist_rq[e],

an identity in Z[C_N], so M is exactly the matrix of the direct sum over
every pair. ``galois_check`` builds M directly on every pair and checks the
relation for every unit k; the exact digests of the built M are pinned in
the tests. Unitarity is the exact identity M M^dagger = n (n+m)^(n-1) I. By
the relation, sigma_k((M M^dagger)_ab) = eps_k(a) eps_k(b) (M M^dagger)_{pi_k a, pi_k b}
and pi_k permutes the weights, so the rows a of the orbit representatives,
against every b, decide the whole identity (9 of 35 rows at (4, 4)). At
k = -1 it reads conj(M_bc) = (-1)^(n(n-1)/2) M_{b*c}, b* the dual of b, so
the conjugate rows are signed rows of M, and M is packed once.

M is stored once, as the representative histograms with the Galois source
of every weight, and ``_fill_cells`` makes each of its three views from
them: the reduced ``exact`` entries and the float ``entries`` on first
read, and the packed rows of the exact zero tests. Packing evaluates a
histogram at zeta -> g, a ring map on the group ring Z[C_N], so it needs
no reduction mod Phi_N. Each float entry is two integer dot products with
fixed-point tables of cos and sin of 2 pi e/N, times one factor
conj(M_00)/(|M_00| sqrt(n (n+m)^(n-1))). By the Weyl denominator formula
M_00 = prod_{i<j} -2i sin(pi (j-i)/(n+m)), every sine positive, so the
phase factor is exactly i^(n(n-1)/2). Central charges, conformal weights
and M are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import permutations
from math import factorial, gcd, isqrt
from operator import mul

from .cyclotomic import CyclotomicNumber, IntegralPacking
from .record import Record
from .verdict import Verdict
from .weights import LevelWeight, _fold_into_alcove, enumerate_weights, perm_sign, weight_table


def central_charge(n: int, m: int, k: int = 1) -> tuple[Fraction, Fraction]:
    """Virasoro central charges at level k: the ambient algebra of rank n*m,
    and the embedded rank-n level-mk plus rank-m level-nk pair. Both exact."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError("arguments must be positive")
    ambient = Fraction((n * n * m * m - 1) * k, n * m + k)
    # (n^2 - 1) m k / (n + m k) + (m^2 - 1) n k / (m + n k) over one denominator
    pair = Fraction((n * n - 1) * m * k * (m + n * k) + (m * m - 1) * n * k * (n + m * k),
                    (n + m * k) * (m + n * k))
    return ambient, pair


def category_central_charge(n: int, m: int) -> Fraction:
    """Central charge (n^2 - 1) m / (n + m) of rank n at level m, exact."""
    return Fraction((n * n - 1) * m, n + m)


def _coordinates(a: LevelWeight) -> tuple[int, ...]:
    n = a.rank
    lam = a.to_partition().padded(n)
    return tuple(lam[i] + (n - 1 - i) for i in range(n))


def conformal_weight(a: LevelWeight) -> Fraction:
    """Sugawara conformal weight (lam, lam + 2 rho) / (2 (n + m)), exact.
    The mean-free product n (lam, lam + 2 rho) is
    n sum lam_i (lam_i + 2 rho_i) - |lam| (|lam| + 2 |rho|), |rho| = n(n-1)/2."""
    n, m = a.rank, a.level
    lam = a.to_partition().padded(n)
    size = sum(lam)
    value = n * sum(x * (x + 2 * (n - 1 - i)) for i, x in enumerate(lam))
    return Fraction(value - size * (size + n * (n - 1)), 2 * n * (n + m))


class SMatrixData(Record):
    """S-matrix with its index order, exact central charge and twists, and
    M stored once: the histograms of the pairs r <= q of Galois-orbit
    representatives, listed increasing in ``representatives``, and the
    Galois source of every weight. Entry a of ``galois_sources`` is
    (r, k, eps) with a = pi_k(r), eps = eps_k(r) and r the first weight of
    a's Galois orbit (r = a, k = 1 and eps = 1 for a representative). The
    exact M, the float entries and the packed rows are made from them (see
    the module docstring). An immutable record compared by identity; its
    repr shows the first five fields."""

    def __init__(self, n: int, m: int, weights: tuple[LevelWeight, ...], precision_bits: int,
                 central_charge: Fraction, galois_sources: tuple, representatives: tuple[int, ...],
                 _histograms: dict, conformal_weights: tuple[Fraction, ...]):
        vars(self).update(n=n, m=m, weights=weights, precision_bits=precision_bits,
                          central_charge=central_charge, galois_sources=galois_sources,
                          representatives=representatives, _histograms=_histograms,
                          conformal_weights=conformal_weights)

    def __repr__(self) -> str:
        return (f"SMatrixData(n={self.n!r}, m={self.m!r}, weights={self.weights!r}, "
                f"precision_bits={self.precision_bits!r}, "
                f"central_charge={self.central_charge!r})")

    def _cells(self, make) -> list:
        """The matrix of ``make`` of each cell of M (see ``_fill_cells``)."""
        return _fill_cells(self.galois_sources, self._histograms, self.n * (self.n + self.m), make)

    @cached_property
    def exact(self) -> list:
        """Rows of CyclotomicNumber, conductor n(n+m), made from the
        histograms on first read."""
        return self._cells(partial(CyclotomicNumber, self.n * (self.n + self.m)))

    @cached_property
    def entries(self) -> list:
        """Rows of mpmath mpc, made from the histograms on first read (see
        the module docstring)."""
        import mpmath

        n, kappa = self.n, self.n + self.m
        conductor = n * kappa
        # fixed-point tables: a histogram is at most n! in l1 norm, so its dot
        # product with the tables is off by at most 2^-(precision_bits + 32)
        bits = self.precision_bits + 32 + factorial(n).bit_length()
        with mpmath.workprec(bits + 16):
            roots = [mpmath.expjpi(mpmath.mpf(2 * e) / conductor) for e in range(conductor)]
            cos = [int(mpmath.nint(mpmath.ldexp(z.real, bits))) for z in roots]
            sin = [int(mpmath.nint(mpmath.ldexp(z.imag, bits))) for z in roots]
        # 1 / sqrt(n kappa^(n-1)) scaled by 2^(2 bits); the phase of M_00 is (-i)^(n(n-1)/2)
        inv_sqrt = isqrt((1 << 4 * bits) // (n * kappa ** (n - 1)))
        quarter_turns = n * (n - 1) // 2 % 4

        def entry(hist: list[int]):
            re = sum(map(mul, hist, cos))
            im = sum(map(mul, hist, sin))
            for _ in range(quarter_turns):  # times i
                re, im = -im, re
            return mpmath.mpc(mpmath.mpf((re * inv_sqrt, -3 * bits)),
                              mpmath.mpf((im * inv_sqrt, -3 * bits)))

        with mpmath.workprec(self.precision_bits + 32):
            return self._cells(entry)

    def pack(self, products: int, constant: int = 0) -> tuple[IntegralPacking, list]:
        """M packed for exact zero tests of sums of at most ``products``
        products of two entries plus an integer of size at most
        ``constant``; returns the packing and the packed rows. Every
        conjugate of an entry is at most the l1 norm of its histogram, and
        the cells permute the representative histograms, so the largest
        of their l1 norms bounds every entry."""
        norm = max(sum(map(abs, hist)) for hist in self._histograms.values())
        packing = IntegralPacking(self.n * (self.n + self.m), products * norm * norm + constant)
        return packing, self._cells(packing.pack)

    def unitarity_residual(self) -> int:
        """Decide M M^dagger = n (n+m)^(n-1) I exactly on the rows of the
        Galois-orbit representatives (see the module docstring), which makes
        the normalized entries unitary. Returns 0 when the identity holds and
        raises ArithmeticError naming the first entry (a, b) where it fails.

        M is packed once. Conjugation is sigma_{-1}, so by the Galois relation
        conj(M_bc) = eps_{-1}(b) M_{pi_{-1} b, c}. The coordinates y of b fall
        strictly with y_0 - y_{n-1} < n + m, so folding -y only reverses it,
        a permutation of sign (-1)^(n(n-1)/2), into (-y_{n-1}, ..., -y_0),
        whose weight is (b_0, b_{n-1}, ..., b_1) = b*. Hence
        (M M^dagger)_ab = (-1)^(n(n-1)/2) sum_c M_ac M_{b*c}, a sum of
        ``size`` products within the bound of ``pack``."""
        n, size, reps = self.n, len(self.weights), self.representatives
        scale = n * (n + self.m) ** (n - 1)
        diagonal = (-1) ** (n * (n - 1) // 2) * scale
        packing, packed = self.pack(size, scale)
        position = weight_table(n, self.m).position
        dual_rows = [packed[position[b.dual().components]] for b in self.weights]
        todo = list(range(size))
        for a in reps:
            row = packed[a]
            for b in todo:
                total = sum(map(mul, row, dual_rows[b]))
                if not packing.is_zero(total - diagonal if a == b else total):
                    raise ArithmeticError(
                        f"M M^dagger differs from {scale} I at "
                        f"({self.weights[a]}, {self.weights[b]})"
                    )
            todo.remove(a)  # (M M^dagger)_ba = conj (M M^dagger)_ab is now tested
        return 0

    def to_json(self) -> dict:
        import mpmath

        with mpmath.workprec(self.precision_bits):
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
                str(list(w.components)): str(h)
                for w, h in zip(self.weights, self.conformal_weights)
            },
        }


def s_matrix(n: int, m: int, precision_bits: int = 128) -> SMatrixData:
    """The modular S-matrix for rank n at level m, built from the histograms
    of pairs of Galois-orbit representatives (see the module docstring)."""
    if n < 2 or m < 1:
        raise ValueError("need rank >= 2 and level >= 1")
    if precision_bits < 32:
        raise ValueError("precision must be at least 32 bits")
    weights = enumerate_weights(n, m)
    kappa = n + m
    conductor = n * kappa
    coords = [_coordinates(a) for a in weights]
    sources = _galois_sources(weights, coords, kappa)
    reps = tuple(r for r, (q, _, _) in enumerate(sources) if q == r)
    rep_hists = _exponent_histograms(
        n, coords, conductor, [(r, q) for i, r in enumerate(reps) for q in reps[i:]])
    data = SMatrixData(n, m, weights, precision_bits, category_central_charge(n, m), sources,
                       reps, rep_hists, tuple(map(conformal_weight, weights)))
    data.unitarity_residual()
    return data


def _fill_cells(sources, rep_hists: dict, conductor: int, make) -> list:
    """The symmetric matrix of ``make`` of each histogram of M. Entry
    a = pi_j r, b = pi_k q is the cell (pair (r, q), t = j*k, eps_j(r) eps_k(q));
    ``make`` runs once per cell, and equal cells share one object."""
    size = len(sources)
    matrix = [[None] * size for _ in range(size)]
    made = {}
    for a in range(size):
        r, j, sign_a = sources[a]
        for b in range(a, size):
            q, k, sign_b = sources[b]
            pair, t, sign = cell = (min(r, q), max(r, q)), j * k % conductor, sign_a * sign_b
            value = made.get(cell)
            if value is None:  # t is a unit: hist[e*t] = sign * rep[e] for every e
                rep, u = rep_hists[pair], pow(t, -1, conductor)
                value = made[cell] = make([sign * rep[e * u % conductor] for e in range(conductor)])
            matrix[a][b] = matrix[b][a] = value
    return matrix


def _galois_fold(y: tuple[int, ...], k: int, kappa: int) -> tuple[int, tuple[int, ...]] | None:
    """(eps_k(a), components of pi_k(a)) for the coordinates y of a: k*y
    folded into the alcove of height kappa, or None when it lies on a wall.
    Each coordinate is first reduced mod n*kappa, which moves y by kappa
    times a root plus a multiple of (1, ..., 1) and so changes neither the
    sign nor the weight."""
    period = len(y) * kappa
    return _fold_into_alcove([k * c % period for c in y], kappa)


def _units(conductor: int) -> list[int]:
    """The units 1 <= k < conductor, in increasing order."""
    return [k for k in range(1, conductor) if gcd(k, conductor) == 1]


def _galois_sources(weights, coords, kappa: int) -> tuple[tuple[int, int, int], ...]:
    """Per weight a, the first (r, k, eps) with a = pi_k(r), eps = eps_k(r)
    and r the first weight of its Galois orbit. Raises ArithmeticError when
    a fold lands on a wall, which the Galois action rules out."""
    index = weight_table(weights[0].rank, weights[0].level).position
    sources: list = [None] * len(weights)
    ks = _units(len(coords[0]) * kappa)
    for r, y in enumerate(coords):
        if sources[r] is not None:
            continue
        for k in ks:
            folded = _galois_fold(y, k, kappa)
            if folded is None:
                raise ArithmeticError(f"{k} (a + rho) lies on a wall at a = {weights[r]}")
            sign, w = folded
            if sources[index[w]] is None:
                sources[index[w]] = (r, k, sign)
    return tuple(sources)


def _exponent_histograms(n: int, coords: list[tuple[int, ...]], conductor: int,
                         pairs: list[tuple[int, int]]) -> dict:
    """Entry e of the (i, j) histogram, for each (i, j) in ``pairs``, is the
    signed count of permutations w with -n <w(y_i), y_j> = e modulo the
    conductor, so that M_ij = sum_e hist[e] zeta^e."""
    signed = [(perm_sign(p), p) for p in permutations(range(n))]
    out = {}
    permuted, last = None, None
    for i, j in pairs:
        ya, yb = coords[i], coords[j]
        if i != last:
            permuted, last = [(sign, [ya[k] for k in p]) for sign, p in signed], i
        shift = sum(ya) * sum(yb)  # n times the mean correction
        hist = [0] * conductor
        for sign, pa in permuted:
            hist[(shift - n * sum(map(mul, pa, yb))) % conductor] += sign
        out[i, j] = hist
    return out


# -- exact Galois symmetry ------------------------------------------------------


def galois_check(n: int, m: int) -> Verdict:
    """For every unit k mod N = n(n+m) and all weights a, b, check
    sigma_k(M_ab) == eps_k(a) M_{pi_k a, b} exactly in Q(zeta_N), with M
    built on the direct route: one histogram for every ordered pair, not
    filled by the Galois action. A mismatch gives the counterexample
    (k, a, b, lhs, rhs); a fold of k (a + rho) that lands on a wall is a
    failure with the counterexample (k, a).

    Equal histograms are built into one entry (13 distinct of 100 at
    (3, 3)), so sigma_k is applied once per distinct entry and unit."""
    weights = enumerate_weights(n, m)
    kappa, conductor = n + m, n * (n + m)
    size = len(weights)
    coords = [_coordinates(a) for a in weights]
    hists = _exponent_histograms(n, coords, conductor,
                                 [(i, j) for i in range(size) for j in range(size)])
    keys = [[tuple(hists[i, j]) for j in range(size)] for i in range(size)]
    M = {h: CyclotomicNumber(conductor, h) for row in keys for h in row}
    signed = {1: M, -1: {h: -z for h, z in M.items()}}
    index = weight_table(n, m).position
    name = f"n={n} m={m}"
    checked = 0
    for k in _units(conductor):
        images = {h: z.galois(k) for h, z in M.items()}
        for a, w in enumerate(weights):
            folded = _galois_fold(coords[a], k, kappa)
            if folded is None:
                return Verdict("galois", name, False, checked, (k, w),
                               f"{k} (a + rho) lies on a wall at a={w}")
            sign, image = folded
            for b, (h, g) in enumerate(zip(keys[a], keys[index[image]])):
                lhs, rhs = images[h], signed[sign][g]
                if lhs != rhs:
                    return Verdict("galois", name, False, checked, (k, w, weights[b], lhs, rhs),
                                   f"disagree at k={k} a={w} b={weights[b]}")
                checked += 1
    return Verdict("galois", name, True, checked, detail=f"{checked} exact identities checked")
