"""Oracles for the cyclotomic tests: reduction modulo Phi_N by the plain
long division, folding only through zeta^N = 1 and dividing every row
above the degree, against which the kernel in ``cyclotomic`` is checked."""

from levelrank.cyclotomic import cyclotomic_polynomial


def reduce_mod_phi_dense(coeffs: list[int], n: int) -> list[int]:
    """Reduce an integer coefficient vector modulo the n-th cyclotomic
    polynomial, folding exponents mod n first (zeta^n = 1)."""
    folded = [0] * n
    for e, c in enumerate(coeffs):
        if c:
            folded[e % n] += c
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        c = folded[i]
        if c:
            folded[i] = 0
            for j in range(deg):
                folded[i - deg + j] -= c * phi[j]
    return folded[:deg]
