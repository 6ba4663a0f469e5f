"""Dominant affine weights of fixed rank and level, the degree grading, the
cyclic rotation, duals, the transpose-plus-rotation bijection between
degree classes of dual rank/level pairs, the per-(n, m) table that
indexes them by position with every power of the rotation and the
representative of each rotation orbit, and
the affine Weyl fold of a shifted vector into the level alcove, which both
the Kac-Walton fusion rule and the Galois action on the S-matrix read.

A weight of rank n and level m is a tuple (a_0, ..., a_{n-1}) of non-negative
integers summing to m. It corresponds to the partition
(a_1 + ... + a_{n-1}, a_2 + ... + a_{n-1}, ..., a_{n-1}), which fits in an
m x (n-1) box; conversely a partition lam inside an m x n box maps to the
weight (m - lam_1 + lam_n, lam_1 - lam_2, ..., lam_{n-1} - lam_n).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from functools import cache
from itertools import accumulate
from math import comb
from operator import mul, sub
from types import MappingProxyType

from .partitions import Partition, parse_literal
from .record import Record


class LevelWeight:
    """Dominant affine weight: components (a_0, ..., a_{n-1}), sum = level.

    Rank 1 is rejected; the duality statements all assume rank at least 2.
    """

    __slots__ = ("_components", "_degree")

    def __init__(self, components: tuple[int, ...] | list[int]):
        given = tuple(components)
        comps = tuple(map(int, given))
        if comps != given:
            bad = next(c for c, i in zip(given, comps) if c != i)
            raise ValueError(f"components must be integers, got {bad!r}")
        if len(comps) < 2:
            raise ValueError("rank must be at least 2")
        if any(c < 0 for c in comps):
            raise ValueError(f"components must be non-negative, got {comps}")
        self._components = comps
        self._degree = None

    @classmethod
    def _unchecked(cls, comps: tuple[int, ...]) -> "LevelWeight":
        """From a tuple of at least two non-negative ints."""
        a = object.__new__(cls)
        a._components = comps
        a._degree = None
        return a

    @property
    def components(self) -> tuple[int, ...]:
        return self._components

    @property
    def rank(self) -> int:
        return len(self._components)

    @property
    def level(self) -> int:
        return sum(self._components)

    @classmethod
    def vacuum(cls, n: int, m: int) -> "LevelWeight":
        """The weight (m, 0, ..., 0) of rank n; the unit object's label."""
        return cls((m,) + (0,) * (n - 1))

    @classmethod
    def fundamental(cls, n: int, i: int) -> "LevelWeight":
        """The level-1 weight of rank n with a single 1 in slot i (mod n)."""
        comps = [0] * n
        comps[i % n] = 1
        return cls(comps)

    def is_vacuum(self) -> bool:
        return all(c == 0 for c in self._components[1:])

    def to_partition(self) -> Partition:
        """Partial sums of the tail components; height at most rank - 1."""
        sums = list(accumulate(self._components[:0:-1]))  # a_{n-1}, a_{n-1} + a_{n-2}, ...
        return Partition._unchecked(tuple(s for s in reversed(sums) if s))

    def degree(self) -> int:
        """Size of the associated partition modulo the rank. It is computed
        once per object and kept in the ``_degree`` slot (None until then),
        which comparison and hashing never read."""
        d = self._degree
        if d is None:
            a = self._components
            self._degree = d = sum(map(mul, range(len(a)), a)) % len(a)
        return d

    def rotate(self, power: int = 1) -> "LevelWeight":
        """Cyclic shift (a_0, ..., a_{n-1}) -> (a_{n-1}, a_0, ..., a_{n-2}),
        iterated ``power`` times (negative powers shift the other way)."""
        n = self.rank
        k = power % n
        a = self._components
        return LevelWeight._unchecked(a[n - k:] + a[:n - k])

    def dual(self) -> "LevelWeight":
        """First component fixed, remaining components reversed."""
        a = self._components
        return LevelWeight._unchecked((a[0],) + a[:0:-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, LevelWeight) and self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __lt__(self, other: "LevelWeight") -> bool:
        # canonical order: reverse-lex on components, so the vacuum comes first
        return self._components > other._components

    def __repr__(self) -> str:
        return f"LevelWeight{self._components}"

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self._components) + "]"


def from_partition(lam: Partition, n: int, m: int) -> LevelWeight:
    """The rank-n level-m weight of a partition inside an m x n rectangle."""
    p = lam.parts
    if m < 0:
        raise ValueError("level must be non-negative")
    if len(p) > n or (p and p[0] > m):
        raise ValueError(f"{lam!r} does not fit in a {m} x {n} rectangle")
    if n < 2:
        raise ValueError("rank must be at least 2")
    p += (0,) * (n - len(p))
    return LevelWeight._unchecked((m - p[0] + p[-1],) + tuple(map(sub, p, p[1:])))


def tau(a: LevelWeight, i: int) -> LevelWeight:
    """The duality image of ``a`` in the class of degree ``i``.

    For a of rank n and level m with degree(a) = i mod n, the result has
    rank m and level n and degree i mod m. Its components count the rows of
    lam, the partition of ``a`` padded to n rows, by length mod m: component
    j is the number of rows of length j, for 0 < j < m, and component 0
    counts the rows of length 0 or m. The rows are the partial sums
    a_{n-1}, a_{n-1} + a_{n-2}, ..., a_{n-1} + ... + a_1, plus one 0. That
    histogram is then rotated by rho_m ** ((i - |lam|)/n); the exponent is an
    exact integer. The result depends on i only modulo n*m.

    ``tau_from_partition`` computes the same image through the transpose of
    any partition preimage, and serves as the independent oracle.
    """
    comps = a.components
    n, m = len(comps), sum(comps)
    if m < 2:
        raise ValueError("tau needs level at least 2 (the target rank)")
    i = i % (n * m)
    hist = [1] + [0] * (m - 1)  # the padded row of length 0
    row = size = 0
    for c in comps[:0:-1]:
        row += c
        size += row
        hist[row % m] += 1
    if (i - size) % n != 0:
        raise ValueError(f"degree mismatch: |lam| = {size} is not congruent to i={i} mod {n}")
    k = (i - size) // n % m
    return LevelWeight._unchecked(tuple(hist[m - k:] + hist[:m - k]))


def tau_from_partition(lam: Partition, n: int, m: int, i: int) -> LevelWeight:
    """Same duality image computed from any partition preimage of a weight."""
    p = lam.parts
    if len(p) > n or (p and p[0] > m):
        raise ValueError(f"{lam!r} does not fit in a {m} x {n} rectangle")
    i = i % (n * m)
    size = sum(p)
    if (i - size) % n != 0:
        raise ValueError(f"degree mismatch: |lam| = {size} is not congruent to i={i} mod {n}")
    return from_partition(lam.transpose(), m, n).rotate((i - size) // n)


def weight_components(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """The components of every rank-n level-m weight, uncached, in the order
    of ``enumerate_weights``, reverse lex. They are built one level at a
    time from a table: ``level[s]`` holds the compositions of s into k
    parts in reverse lex order, and those of k + 1 parts put each first
    part a = s, s - 1, ..., 0 before every entry of ``level[s - a]``. The
    last level, n parts, is yielded as it is built, for s = m alone."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    if m < 0:
        raise ValueError("level must be non-negative")
    level = [[(s,)] for s in range(m + 1)]
    for _ in range(n - 2):
        level = [[(a,) + t for a in range(s, -1, -1) for t in level[s - a]]
                 for s in range(m + 1)]
    for a in range(m, -1, -1):
        head = (a,)
        for t in level[m - a]:
            yield head + t


def enumerate_weights(n: int, m: int) -> tuple[LevelWeight, ...]:
    """All rank-n level-m weights in canonical order (vacuum first): the
    weights of ``weight_table(n, m)``; there are binomial(n + m - 1, n - 1)."""
    return weight_table(n, m).weights


def enumerate_graded(n: int, m: int, i: int) -> tuple[LevelWeight, ...]:
    """The weights of rank n, level m whose degree is i mod n."""
    return weight_table(n, m).graded[i % n]


class WeightTable(Record):
    """The combinatorics of rank n, level m, built once by ``weight_table``.

    ``weights`` are in canonical order and ``position`` maps the components
    of each back to its index. ``rotation`` holds the n powers of the
    rotation: ``rotation[t][p]`` is the position of ``weights[p].rotate(t)``
    for 0 <= t < n. Per position p: ``degree[p]``, the degree of
    ``weights[p]``, and ``orbit[p]``, the smallest position among its
    rotations. That is the orbit's first member in canonical order, its
    largest rotation, so ``orbit[q] == q`` exactly at the representatives.
    ``classes[i]`` holds the positions of degree i and ``graded[i]`` their
    weights.

    For level m >= 2, ``tau[p]`` is the position in the (m, n) table of
    tau(a, deg a), a = weights[p]; otherwise ``tau`` is empty. For
    0 <= t < m, tau(a, deg a + t*n) is that image rotated t times, so every
    class reads its images off this column through the (m, n)
    ``rotation[t]``.
    """

    def __init__(self, n: int, m: int, weights: tuple[LevelWeight, ...],
                 position: Mapping[tuple[int, ...], int], classes: tuple[tuple[int, ...], ...],
                 graded: tuple[tuple[LevelWeight, ...], ...], degree: tuple[int, ...],
                 rotation: tuple[tuple[int, ...], ...], orbit: tuple[int, ...],
                 tau: tuple[int, ...]):
        vars(self).update(n=n, m=m, weights=weights, position=position, classes=classes,
                          graded=graded, degree=degree, rotation=rotation, orbit=orbit,
                          tau=tau)


@cache
def weight_table(n: int, m: int) -> WeightTable:
    """The table of rank n, level m, built from ``weight_components``: one
    pass over the weights for degrees and the one-step rotation, composed
    n - 1 times for the other powers, and one ``tau`` call per weight."""
    comps = tuple(weight_components(n, m))
    assert len(comps) == comb(n + m - 1, n - 1)
    weights = tuple(map(LevelWeight._unchecked, comps))
    position = {c: p for p, c in enumerate(comps)}
    degree = tuple(a.degree() for a in weights)
    classes: list[list[int]] = [[] for _ in range(n)]
    for p, d in enumerate(degree):
        classes[d].append(p)
    step = tuple(position[c[-1:] + c[:-1]] for c in comps)
    rotation = [tuple(range(len(comps)))]
    for _ in range(n - 1):
        rotation.append(tuple(map(step.__getitem__, rotation[-1])))
    images: tuple[int, ...] = ()
    if m >= 2:
        dual = {c: q for q, c in enumerate(weight_components(m, n))}
        images = tuple(dual[tau(a, d).components] for a, d in zip(weights, degree))
    return WeightTable(n, m, weights, MappingProxyType(position),
                       tuple(map(tuple, classes)),
                       tuple(tuple(weights[p] for p in cls) for cls in classes),
                       degree, tuple(rotation), tuple(map(min, zip(*rotation))), images)


# -- the affine Weyl fold ---------------------------------------------------------


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


def _fold_into_alcove(shifted: list[int], kappa: int) -> tuple[int, tuple[int, ...]] | None:
    """Fold staircase-shifted coordinates into the fundamental alcove.

    Returns (sign, components of the weight of the folded vector) or None
    when the vector lies on a wall; a vector already in the alcove comes
    back with sign +1. The alcove condition is strictly decreasing
    coordinates with first minus last strictly below kappa. The weight of
    such a y has a_0 = kappa - 1 - (y_0 - y_{n-1}) and a_i = y_{i-1} - y_i - 1.
    """
    y = list(shifted)
    sign = 1
    while True:
        srt = sorted(y, reverse=True)
        if srt != y:
            sign *= _sort_sign(y)
            y = srt
        if len(set(y)) != len(y):
            return None
        spread = y[0] - y[-1]
        if spread < kappa:
            return sign, (kappa - 1 - spread,) + tuple(a - b - 1 for a, b in zip(y, y[1:]))
        if spread == kappa:
            return None
        # reflect in the affine wall: swap the extreme coordinates and move
        # them kappa towards each other (a single reflection, sign -1)
        y[0], y[-1] = y[-1] + kappa, y[0] - kappa
        sign = -sign


def _sort_sign(seq: list[int]) -> int:
    """Sign of the permutation that sorts ``seq`` into decreasing order
    (callers guarantee distinct entries up to wall detection; ties here get
    resolved arbitrarily and are caught by the duplicate check afterwards)."""
    return perm_sign(sorted(range(len(seq)), key=lambda k: -seq[k]))


def parse_components(text: str) -> tuple[int, ...]:
    """The integers of a weight literal such as ``[1,0,0,1,1,0]``, before
    any check of rank or sign."""
    components = parse_literal(text, "weight", "[]")
    if not components:
        raise ValueError("empty weight literal")
    return components
