"""Oracles for the symmetric-function tests, built on ``schur`` and the
``SymPolynomial`` arithmetic alone: re-expansion in the Schur basis (the
independent route to the LR coefficients), elementary symmetric
polynomials, and three spot reads of a polynomial."""

from itertools import combinations

from levelrank.partitions import Partition
from levelrank.symfunc import SymPolynomial, schur


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


def elementary(k: int, degree: int) -> SymPolynomial:
    """Elementary symmetric polynomial e_degree in k variables."""
    terms: dict[tuple[int, ...], int] = {}
    for subset in combinations(range(k), degree):
        e = [0] * k
        for s in subset:
            e[s] = 1
        terms[tuple(e)] = 1
    return SymPolynomial(k, terms)


def coefficient(poly: SymPolynomial, exponents: tuple[int, ...]) -> int:
    """The coefficient of one monomial, 0 when it is absent."""
    return poly.terms.get(exponents, 0)


def evaluate_ones(poly: SymPolynomial) -> int:
    """The value at x_1 = ... = x_k = 1."""
    return sum(poly.terms.values())


def is_symmetric_spot(poly: SymPolynomial) -> bool:
    """Spot check: invariance under swapping the first two variables and
    under reversal of all variables."""
    if poly.nvars < 2:
        return True
    for e, c in poly.terms.items():
        swapped = (e[1], e[0]) + e[2:]
        if poly.terms.get(swapped, 0) != c:
            return False
        if poly.terms.get(e[::-1], 0) != c:
            return False
    return True
