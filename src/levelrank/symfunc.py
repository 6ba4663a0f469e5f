"""Schur polynomials, Littlewood-Richardson expansion, and the skew Cauchy
identity checked as an exact polynomial identity.

Polynomials are sparse: a map from exponent tuples to integer coefficients.
Schur polynomials are built by direct semistandard-tableau enumeration; the
LR rule is implemented independently by enumerating ballot sequences of
horizontal strips, so products can be cross-checked two ways.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .partitions import Partition
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

    def coefficient(self, exponents: tuple[int, ...]) -> int:
        return self.terms.get(exponents, 0)

    def evaluate_ones(self) -> int:
        return sum(self.terms.values())

    def is_symmetric_spot(self) -> bool:
        """Spot check: invariance under swapping the first two variables and
        under reversal of all variables."""
        if self.nvars < 2:
            return True
        for e, c in self.terms.items():
            swapped = (e[1], e[0]) + e[2:]
            if self.terms.get(swapped, 0) != c:
                return False
            if self.terms.get(e[::-1], 0) != c:
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SymPolynomial({self.nvars}, {len(self.terms)} terms)"


@cache
def schur(lam: Partition, k: int) -> SymPolynomial:
    """Schur polynomial: sum over semistandard tableaux of shape ``lam``
    with entries in 1..k. Zero when the shape has more than k rows."""
    if lam.height > k:
        return SymPolynomial(k)
    terms: dict[tuple[int, ...], int] = {}
    parts = lam.parts
    if not parts:
        return SymPolynomial(k, {(0,) * k: 1})
    rows = len(parts)
    # column-strict fill, cell by cell in row-major order
    grid = [[0] * p for p in parts]
    exp = [0] * k

    def fill(r: int, c: int) -> None:
        if r == rows:
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + 1
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
            fill(nr, nc)
            exp[v - 1] -= 1
    fill(0, 0)
    return SymPolynomial(k, terms)


def elementary(k: int, degree: int) -> SymPolynomial:
    """Elementary symmetric polynomial e_degree in k variables."""
    terms: dict[tuple[int, ...], int] = {}
    for subset in combinations(range(k), degree):
        e = [0] * k
        for s in subset:
            e[s] = 1
        terms[tuple(e)] = 1
    return SymPolynomial(k, terms)


# -- Littlewood-Richardson ----------------------------------------------------

_lr_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], dict] = {}


def lr_expand(lam: Partition, mu: Partition, nvars: int | None = None) -> dict[Partition, int]:
    """Littlewood-Richardson expansion of the product of two Schur functions.

    Returns the multiplicities of each partition nu appearing in the product,
    computed by enumerating ballot sequences of horizontal strips (one strip
    per row of ``mu`` added to ``lam``). When ``nvars`` is given, partitions
    with more than ``nvars`` rows are dropped, matching the expansion of the
    product in that many variables.
    """
    key = (lam.parts, mu.parts)
    if mu.size > lam.size:
        key = (mu.parts, lam.parts)  # coefficients are symmetric
    full = _lr_cache.get(key)
    if full is None:
        full = _lr_expand_full(Partition(key[0]), Partition(key[1]))
        full = _lr_cache.setdefault(key, full)
    if nvars is None:
        return dict(full)
    return {nu: c for nu, c in full.items() if nu.height <= nvars}


def _lr_expand_full(lam: Partition, mu: Partition) -> dict[Partition, int]:
    result: dict[Partition, int] = {}
    mu_parts = mu.parts
    if not mu_parts:
        return {lam: 1}

    def add_strips(entry: int, shape: tuple[int, ...], prev_counts: tuple[int, ...]) -> None:
        # place mu_parts[entry] boxes labelled entry+1 as a horizontal strip;
        # prev_counts[r] = number of boxes labelled `entry` in row r
        budget = mu_parts[entry]
        nrows = len(shape)

        def per_row(r: int, remaining: int, cum_prev: int, cum_cur: int,
                    shape_acc: list[int], counts_acc: list[int]) -> None:
            if remaining == 0:
                new_shape = tuple(shape_acc) + shape[len(shape_acc):]
                new_counts = tuple(counts_acc) + (0,) * (len(new_shape) - len(counts_acc))
                finish(new_shape, new_counts)
                return
            if r > nrows:
                return
            old = shape[r] if r < nrows else 0
            above_old = shape[r - 1] if r >= 1 else None
            hi = remaining
            if above_old is not None:
                hi = min(hi, above_old - old)  # strip: stay within the row above
            if entry > 0:
                # ballot: entry+1 count in rows <= r cannot exceed the
                # entry count in rows <= r-1
                hi = min(hi, cum_prev - cum_cur)
            prev_here = prev_counts[r] if r < len(prev_counts) else 0
            for c in range(hi, -1, -1):
                if old == 0 and c == 0:
                    # no box here and none can appear lower down
                    if remaining:
                        return
                per_row(
                    r + 1,
                    remaining - c,
                    cum_prev + prev_here,
                    cum_cur + c,
                    shape_acc + [old + c],
                    counts_acc + [c],
                )

        def finish(new_shape: tuple[int, ...], new_counts: tuple[int, ...]) -> None:
            if entry + 1 == len(mu_parts):
                nu = Partition(new_shape)
                result[nu] = result.get(nu, 0) + 1
            else:
                add_strips(entry + 1, new_shape, new_counts)

        per_row(0, budget, 0, 0, [], [])

    add_strips(0, lam.parts, ())
    return result


def schur_expand(poly: SymPolynomial) -> dict[Partition, int]:
    """Expand a symmetric polynomial in the Schur basis by repeatedly
    stripping the lexicographically largest monomial. Independent of the LR
    rule; used as the cross-checking oracle."""
    remaining = SymPolynomial(poly.nvars, dict(poly.terms))
    out: dict[Partition, int] = {}
    while not remaining.is_zero():
        e = max(remaining.terms)
        c = remaining.terms[e]
        stripped = tuple(x for x in e if x)
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ValueError(f"leading exponent {e} is not a partition")
        nu = Partition(stripped)
        out[nu] = out.get(nu, 0) + c
        remaining = remaining - schur(nu, poly.nvars).scale(c)
    return {nu: c for nu, c in out.items() if c}


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
    from .partitions import enumerate_rectangle

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
