"""Schur polynomials, Littlewood-Richardson expansion, and the skew Cauchy
identity checked as an exact polynomial identity.

Polynomials are sparse: a map from exponent tuples to integer coefficients.
Schur polynomials are built by direct semistandard-tableau enumeration; the
LR rule is implemented independently, by adding horizontal strips with the
ballot condition and merging equal partial tableau states, so the tests can
cross-check it against multiplying Schur polynomials and re-expanding the
product (``tests/symfunc_oracles.py``).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .partitions import Partition, enumerate_rectangle
from .verdict import Verdict


class SymPolynomial:
    """Integer polynomial in a fixed number of variables, sparse exponent map."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    def __add__(self, other: "SymPolynomial") -> "SymPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SymPolynomial(self.nvars, out)

    def __sub__(self, other: "SymPolynomial") -> "SymPolynomial":
        return self + other.scale(-1)

    def scale(self, k: int) -> "SymPolynomial":
        return SymPolynomial(self.nvars, {e: k * c for e, c in self.terms.items()})

    def __mul__(self, other: "SymPolynomial") -> "SymPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SymPolynomial(self.nvars, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SymPolynomial({self.nvars}, {len(self.terms)} terms)"


def schur(lam: Partition, k: int) -> SymPolynomial:
    """Schur polynomial: sum over semistandard tableaux of shape ``lam``
    with entries in 1..k. Zero when the shape has more than k rows. The
    result is a fresh copy of the memo entry, safe to mutate."""
    return SymPolynomial(k, _schur(lam, k).terms)


@cache
def _schur(lam: Partition, k: int) -> SymPolynomial:
    if lam.height > k:
        return SymPolynomial(k)
    terms: dict[tuple[int, ...], int] = {}
    parts = lam.parts
    if not parts:
        return SymPolynomial(k, {(0,) * k: 1})
    _fill(parts, k, [[0] * p for p in parts], [0] * k, terms, 0, 0)
    return SymPolynomial(k, terms)


def _fill(parts: tuple[int, ...], k: int, grid: list[list[int]], exp: list[int],
          terms: dict[tuple[int, ...], int], r: int, c: int) -> None:
    """Column-strict fill of shape ``parts`` with entries 1..k, cell by
    cell in row-major order from cell (r, c): ``grid`` holds the entries
    placed so far and ``exp`` their content, and each completed tableau
    adds one to ``terms`` at its content."""
    if r == len(parts):
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + 1
        return
    nr, nc = (r, c + 1) if c + 1 < parts[r] else (r + 1, 0)
    lo = 1
    if c > 0:
        lo = max(lo, grid[r][c - 1])
    if r > 0 and c < parts[r - 1]:
        lo = max(lo, grid[r - 1][c] + 1)
    for v in range(lo, k + 1):
        grid[r][c] = v
        exp[v - 1] += 1
        _fill(parts, k, grid, exp, terms, nr, nc)
        exp[v - 1] -= 1


# -- Littlewood-Richardson ----------------------------------------------------

def lr_expand(lam: Partition, mu: Partition, nvars: int | None = None) -> dict[Partition, int]:
    """Littlewood-Richardson expansion of the product of two Schur functions.

    Returns the multiplicity of each partition nu in the product. The rows of
    the factor with fewer rows are added to the other as horizontal strips
    under the ballot condition; partial tableaux that agree in shape and in
    their last strip are merged and extended once. When ``nvars`` is given,
    no strip places a box in row ``nvars`` or below, which keeps exactly the
    partitions of at most ``nvars`` rows: the product in that many variables.
    """
    if nvars is not None and nvars < 0:
        raise ValueError(f"nvars must be non-negative, got {nvars}")
    if (len(mu), mu.size, mu.parts) > (len(lam), lam.size, lam.parts):
        lam, mu = mu, lam  # coefficients are symmetric; one strip per row of mu
    cap = len(lam) + len(mu) if nvars is None else nvars
    return dict(_lr_strip_states(lam.parts, mu.parts, cap))


@cache
def _lr_strip_states(lam: tuple[int, ...], mu: tuple[int, ...], cap: int) -> dict[Partition, int]:
    """c^nu_{lam,mu} for every nu of at most ``cap`` rows. After the strip of
    label k a state is (shape, boxes labelled k per row), mapped to the number
    of partial LR tableaux that reach it; after the last strip, the shape."""
    if max(len(lam), len(mu)) > cap:  # nu contains both lam and mu
        return {}
    if not mu:
        return {Partition._unchecked(lam): 1}
    states: dict = {(lam, ()): 1}
    for k, budget in enumerate(mu):
        last = k == len(mu) - 1
        grown: dict = {}
        for (shape, prev), mult in states.items():
            for new_shape, counts in _strips(shape, prev, k > 0, budget, cap):
                state = new_shape if last else (new_shape, counts)
                grown[state] = grown.get(state, 0) + mult
        states = grown
    return {Partition._unchecked(shape): c for shape, c in states.items()}


def _strips(shape: tuple[int, ...], prev: tuple[int, ...], ballot: bool, budget: int,
            cap: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every horizontal strip of ``budget`` boxes added to ``shape`` in rows
    below ``cap``, as (new shape, boxes added per row up to the last one),
    placed row by row by ``_place``. No row grows past the old length of the
    row above; with ``ballot``, the boxes in rows <= r may not outnumber
    ``prev``'s in rows <= r - 1."""
    rows = min(len(shape) + 1, cap)
    old = shape + (0,)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if not ballot or budget <= sum(prev[:rows - 1]):
        _place(out, shape, old, old[rows - 1], prev if ballot else None, 0, budget, 0, (), ())
    return out


def _place(out: list, shape: tuple[int, ...], old: tuple[int, ...], floor: int,
           prev: tuple[int, ...] | None, r: int, remaining: int, slack: int,
           grown: tuple[int, ...], counts: tuple[int, ...]) -> None:
    """Place the ``remaining`` boxes of a strip from row r down, most boxes
    in row r first, and append each completed strip to ``out``. ``grown``
    and ``counts`` are the new lengths of rows < r and the boxes added to
    them; ``old`` is the shape padded by one empty row and ``floor`` its
    length in the last row open to the strip. ``prev`` is None without the
    ballot condition; with it, ``slack`` is how many more boxes rows <= r
    may take."""
    if remaining == 0:
        out.append((grown + shape[r:], counts))
        return
    hi = remaining
    if r and old[r - 1] - old[r] < hi:
        hi = old[r - 1] - old[r]
    if prev is not None:
        if slack < hi:
            hi = slack
        slack += prev[r] if r < len(prev) else 0
    lo = remaining - old[r] + floor  # the rows below r hold old[r] - floor more
    for c in range(hi, lo - 1 if lo > 0 else -1, -1):
        _place(out, shape, old, floor, prev, r + 1, remaining - c, slack - c,
               grown + (old[r] + c,), counts + (c,))


# -- skew Cauchy ---------------------------------------------------------------


def verify_skew_cauchy(n: int, m: int, i: int) -> Verdict:
    """Compare e_i evaluated at the n*m products x_a y_b against the sum of
    s_lam(x) s_lam^t(y) over partitions of i inside the m x n rectangle,
    as polynomials in n + m variables (x first, then y). A failure carries
    the difference polynomial as its counterexample."""
    if not (0 <= i <= n * m):
        raise ValueError(f"need 0 <= i <= {n * m}, got {i}")
    k = n + m
    lhs_terms: dict[tuple[int, ...], int] = {}
    pairs = [(a, b) for a in range(n) for b in range(m)]
    for subset in combinations(pairs, i):
        e = [0] * k
        for a, b in subset:
            e[a] += 1
            e[n + b] += 1
        te = tuple(e)
        lhs_terms[te] = lhs_terms.get(te, 0) + 1
    lhs = SymPolynomial(k, lhs_terms)

    rhs = SymPolynomial(k)
    for lam in enumerate_rectangle(n, m):
        if lam.size != i:
            continue
        sx = schur(lam, n)
        sy = schur(lam.transpose(), m)
        terms: dict[tuple[int, ...], int] = {}
        for ex, cx in sx.terms.items():
            for ey, cy in sy.terms.items():
                terms[ex + ey] = terms.get(ex + ey, 0) + cx * cy
        rhs = rhs + SymPolynomial(k, terms)

    difference = lhs - rhs
    if difference.is_zero():
        return Verdict("cauchy", f"n={n} m={m} i={i}", True, detail="exact")
    return Verdict("cauchy", f"n={n} m={m} i={i}", False, counterexample=difference,
                   detail=f"{len(difference.terms)} stray terms")
