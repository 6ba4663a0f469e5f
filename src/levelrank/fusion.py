"""Fusion tensor product of integrable level-m modules, by folding the
Littlewood-Richardson expansion into the level alcove.

The product of two weights is computed in four steps:

0. rotate each factor to the representative of its rotation orbit, its
   largest rotation ``weights.top_rotation``: the orbit's first member in
   canonical order, at the position the ``weight_table`` orbit column holds.
   The rotation is fusion with a power of the invertible object J, so
   N_{sigma^k a, sigma^l b}^{sigma^(k+l) c} = N_ab^c (Schellekens-Yankielowicz),
   and steps 1-3 run on the rotated pair; every term is rotated back by
   -(k+l) at the end, by stepping the ``rotation`` column of
   ``weight_table(n, m)``. The power and the rotated partition depend on the
   weight alone, so ``_orbit_representative`` works them out once per
   weight. The LR tables of the few orbit representatives are shared by all
   pairs of their orbits;
1. expand the product of the corresponding finite characters with the LR
   rule, keeping partitions of at most n rows (taller ones vanish for sl_n);
2. shift each resulting partition by the staircase (n-1, ..., 1, 0) and
   fold the shifted vector into the alcove of level m with
   ``weights._fold_into_alcove``, the fold the S-matrix's Galois action
   also uses. It applies the affine Weyl group at height n + m: repeatedly
   sort the coordinates (tracking the permutation sign) and, while the
   spread y_0 - y_{n-1} exceeds n + m, reflect in the affine wall by moving
   n + m from the largest coordinate to the smallest (sign -1). Vectors
   with a repeated coordinate, or spread exactly n + m, sit on a wall and
   are dropped. The quadratic invariant sum of squares strictly decreases
   at each reflection, so the loop terminates. A vector already in the
   alcove, strictly decreasing with spread below n + m, comes back as it is
   with sign +1;
3. the fold reads the components of the weight off each y = (y_0 > ... >
   y_{n-1}) in the alcove directly, as a_0 = n + m - 1 - (y_0 - y_{n-1})
   and a_i = y_{i-1} - y_i - 1 (what un-shifting, stripping full columns
   and ``from_partition`` would give).

Steps 2-3 depend on the LR term alone, so ``_alcove_term`` runs them once
per distinct (partition, n, m) and keeps the sign and the weight's position
in ``weight_table(n, m)``; a product accumulates its signed multiplicities
in a dict keyed by those positions. The surviving coefficients are the
fusion multiplicities, and ``fuse`` returns the weight table's own weights.
``_fold_lr`` is steps 1-3 alone, the plain route: ``rotation_check`` and
the ``level1`` suite call it directly, since they check the rotation
covariance that step 0 assumes.
"""

from __future__ import annotations

from functools import cache
from operator import add

from .cyclotomic import CyclotomicNumber
from .partitions import Partition
from .smatrix import s_matrix
from .symfunc import lr_expand
from .verdict import Verdict
from .weights import LevelWeight, _fold_into_alcove, from_partition, top_rotation, weight_table


class Decomposition:
    """A multiset of weights with positive integer multiplicities."""

    __slots__ = ("rank", "level", "terms")

    def __init__(self, rank: int, level: int, terms: dict[LevelWeight, int]):
        for w, c in terms.items():
            if c <= 0:
                raise ValueError(f"non-positive multiplicity {c} at {w}")
            if w.rank != rank or w.level != level:
                raise ValueError(f"{w} does not have rank {rank}, level {level}")
        self.rank, self.level, self.terms = rank, level, dict(terms)

    @classmethod
    def _unchecked(cls, rank: int, level: int, terms: dict[LevelWeight, int]) -> "Decomposition":
        """From terms already checked; the dict is still copied."""
        dec = object.__new__(cls)
        dec.rank, dec.level, dec.terms = rank, level, dict(terms)
        return dec

    def multiplicity(self, w: LevelWeight) -> int:
        return self.terms.get(w, 0)

    def items(self):
        return sorted(self.terms.items(), key=lambda t: t[0].components, reverse=True)

    def to_json(self) -> list[dict]:
        return [
            {"weight": list(w.components), "multiplicity": c} for w, c in self.items()
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Decomposition)
            and self.rank == other.rank
            and self.level == other.level
            and self.terms == other.terms
        )

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.items())

    def __repr__(self) -> str:
        body = " + ".join(
            (f"{c}*" if c > 1 else "") + str(w) for w, c in self.items()
        )
        return f"Decomposition({body or '0'})"


def fuse(a: LevelWeight, b: LevelWeight) -> Decomposition:
    """Fusion product of two simple objects of equal rank and level."""
    x, y = a.components, b.components
    n, m = len(x), sum(x)
    if len(y) != n or sum(y) != m:
        raise ValueError("operands must share rank and level")
    if x < y:
        x, y = y, x  # fusion is commutative
    return Decomposition._unchecked(n, m, _fuse_terms(x, y))


@cache
def _fuse_terms(x: tuple[int, ...], y: tuple[int, ...]) -> dict[LevelWeight, int]:
    """The fusion terms of the weights with components ``x`` and ``y``,
    keyed by the weight table's own weights."""
    n, m = len(x), sum(x)
    table = weight_table(n, m)
    (k, lam), (l, mu) = _orbit_representative(x), _orbit_representative(y)
    steps = (-k - l) % n
    out = {}
    for p, c in _fold_positions(lam, mu, n, m).items():
        for _ in range(steps):
            p = table.rotation[p]
        out[table.weights[p]] = c
    return out


@cache
def _orbit_representative(comps: tuple[int, ...]) -> tuple[int, Partition]:
    """(k, partition of the weight rotated by k), for (k, rotated
    components) the ``top_rotation`` of ``comps``."""
    k, top = top_rotation(comps)
    return k, LevelWeight._unchecked(top).to_partition()


def _fold_lr(a: LevelWeight, b: LevelWeight) -> dict[LevelWeight, int]:
    """Fusion terms of a x b by LR expansion and alcove folding alone."""
    n, m = a.rank, a.level
    weights = weight_table(n, m).weights
    terms = _fold_positions(a.to_partition(), b.to_partition(), n, m)
    return {weights[p]: c for p, c in terms.items()}


def _fold_positions(lam: Partition, mu: Partition, n: int, m: int) -> dict[int, int]:
    """The fusion terms of the rank-n level-m weights of ``lam`` and ``mu``
    by LR expansion and alcove folding, keyed by positions in
    ``weight_table(n, m)``."""
    out: dict[int, int] = {}
    for nu, coeff in lr_expand(lam, mu, nvars=n).items():
        term = _alcove_term(nu.parts, n, m)
        if term is not None:
            sign, p = term
            out[p] = out.get(p, 0) + sign * coeff

    out = {p: c for p, c in out.items() if c}
    if any(c < 0 for c in out.values()):
        weights = weight_table(n, m).weights
        negative = {weights[p]: c for p, c in out.items() if c < 0}
        a, b = from_partition(lam, n, m), from_partition(mu, n, m)
        raise AssertionError(f"negative fusion multiplicity for {a} x {b}: {negative}")
    return out


@cache
def _alcove_term(nu: tuple[int, ...], n: int, m: int) -> tuple[int, int] | None:
    """Steps 2-3 on an LR term nu of at most n rows: (sign, position in
    ``weight_table(n, m)``), or None on a wall."""
    y = list(map(add, nu + (0,) * (n - len(nu)), range(n - 1, -1, -1)))
    folded = _fold_into_alcove(y, n + m)
    if folded is None:
        return None
    sign, comps = folded
    return sign, weight_table(n, m).position[comps]


def fusion_coefficient(a: LevelWeight, b: LevelWeight, c: LevelWeight) -> int:
    return fuse(a, b).multiplicity(c)


def rotation_check(a: LevelWeight) -> bool:
    """Fusing with the invertible object (the weight of the single-row
    partition of size m) must give one simple summand, the rotation of a.
    Checked on the plain route, since ``fuse`` assumes this covariance."""
    n, m = a.rank, a.level
    sigma = from_partition(Partition((m,)), n, m)
    return _fold_lr(sigma, a) == {a.rotate(1): 1}


def verlinde_check(n: int, m: int) -> Verdict:
    """Check every fusion coefficient against the S-matrix through the
    exact relation, for all a <= b and one column d per Galois orbit,

        sum_c N_ab^c M_cd M_0d = M_ad M_bd,

    with M the unnormalized S-matrix in the cyclotomic field. Over all d
    this is N_a S = S diag(S_ad / S_0d), which is equivalent to Verlinde's
    formula N_ab^c = sum_d S_ad S_bd conj(S_cd) / S_0d because M is
    invertible (``s_matrix`` proves M M^dagger = n (n+m)^(n-1) I) and no
    M_0d is zero (a zero one raises ArithmeticError). One column per orbit
    decides all of them: the Galois map sigma_k takes M_cd to
    eps_k(d) M_{c, pi_k d} for every c (the relation ``smatrix.galois_check``
    checks), so it carries the identity at d to eps_k(d)^2 = 1 times the
    identity at pi_k d. The columns where it fails therefore form a union of
    Galois orbits, and a wrong coefficient fails at the orbit's
    representative too. Each identity and each M_0d != 0 is one zero test
    on the rows of ``SMatrixData.pack``; a mismatch is returned as the
    counterexample (a, b, d, lhs, rhs), read off the exact M.
    """
    data = s_matrix(n, m)
    weights = data.weights
    size = len(weights)
    columns = data.representatives
    index = weight_table(n, m).position
    products = [
        (ia, ib, [(index[c.components], k)
                  for c, k in fuse(weights[ia], weights[ib]).terms.items()])
        for ia in range(size) for ib in range(ia, size)
    ]
    most = max(sum(k for _, k in terms) for _, _, terms in products)
    packing, P = data.pack(most + 1)
    for d in columns:
        if packing.is_zero(P[0][d]):
            raise ArithmeticError(f"M_0d vanishes at d = {weights[d]}")
    checked = 0
    for ia, ib, terms in products:
        for d in columns:
            fused = sum(k * P[c][d] for c, k in terms)
            if not packing.is_zero(P[0][d] * fused - P[ia][d] * P[ib][d]):
                M = data.exact
                lhs = M[0][d] * sum((M[c][d] * k for c, k in terms),
                                    CyclotomicNumber.zero(M[0][d].conductor))
                a, b, w = weights[ia], weights[ib], weights[d]
                return Verdict(
                    "verlinde", f"n={n} m={m}", False, checked, (a, b, w, lhs, M[ia][d] * M[ib][d]),
                    f"disagree at a={a} b={b} d={w} after {checked} exact identities",
                )
            checked += 1
    return Verdict("verlinde", f"n={n} m={m}", True, checked,
                   detail=f"{checked} exact identities checked")


def grading_violations(n: int, m: int) -> list[tuple[LevelWeight, LevelWeight, LevelWeight]]:
    """Triples (a, b, c) with c in a x b of degree other than deg a + deg b
    (mod n), for a and b the rotation-orbit representatives, at the p with
    ``weight_table(n, m).orbit[p] == p``: one product per unordered pair of
    orbits (55 at (4, 4), against 630 pairs of weights). A term outside the
    weights is reported by its own degree. No check is lost: for other
    members sigma^k a, sigma^l b, ``fuse`` returns these terms rotated by
    k + l, adding (k + l) * m to the degree on both sides; the tau suite
    checks that shift on every weight, and the tests of the orbit route
    against ``_fold_lr`` check the rotate-back."""
    table = weight_table(n, m)
    reps = [a for p, a in enumerate(table.weights) if table.orbit[p] == p]
    bad = []
    for i, a in enumerate(reps):
        for b in reps[i:]:
            want = (a.degree() + b.degree()) % n
            bad.extend((a, b, c) for c in fuse(a, b).terms if c.degree() != want)
    return bad
