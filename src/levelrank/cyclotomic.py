"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are polynomials in zeta_N reduced modulo the N-th cyclotomic
polynomial, stored as an integer coefficient vector over a common positive
denominator. The reduced form is unique, so equality is coefficient equality
and no numerics are ever needed to decide identities.

The Galois action is one exponent substitution: ``galois(k)`` is the
automorphism zeta -> zeta^k for k prime to N, complex conjugation is
``galois(-1)``, and ``inverse`` is the product of the other Galois conjugates
over the norm.

The field houses the quantum integers for a rank/level pair (n, m): with
N = 2(n + m) and zeta = zeta_N (so zeta plays the role of e^{i pi/(n+m)}),

    qint(i) = (zeta^i - zeta^{-i}) / (zeta - zeta^{-1})
            = sin(pi i/(n+m)) / sin(pi/(n+m))  under the real embedding.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, mul, sub


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (den monic)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    assert not any(num), "division was not exact"
    return q


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / product of all lower cyclotomic polynomials at divisors
    acc = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            acc = _poly_div_exact(acc, list(cyclotomic_polynomial(d)))
    return tuple(acc)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_phi(coeffs: list[int], n: int) -> list[int]:
    """Reduce an integer coefficient vector modulo the n-th cyclotomic
    polynomial. Exponents fold mod n (zeta^n = 1), and for even n mod n/2
    with sign (-1)^(e // (n/2)), as Phi_n divides x^(n/2) + 1; then the
    rows left above the degree are divided out by the nonzero terms of
    Phi_n alone."""
    step = n // 2 if n % 2 == 0 else n
    folded = [0] * step
    for start in range(0, len(coeffs), step):
        chunk = coeffs[start:start + step]
        op = sub if step < n and start // step % 2 else add
        folded[:len(chunk)] = map(op, folded, chunk)
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    terms = [(j - deg, c) for j, c in enumerate(phi[:deg]) if c]
    for i in range(step - 1, deg - 1, -1):
        c = folded[i]
        if c:
            for j, p in terms:
                folded[i + j] -= c * p
    return folded[:deg]


class CyclotomicNumber:
    """An element of Q(zeta_N) in reduced canonical form."""

    __slots__ = ("_conductor", "_num", "_den")

    def __init__(self, conductor: int, num: Iterable[int], den: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        deg = euler_phi(conductor)
        num = list(num)
        if len(num) > deg:
            num = _reduce_mod_phi(num, conductor)
        num += [0] * (deg - len(num))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, num = -den, [-c for c in num]
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [c // g for c in num]
        self._conductor = conductor
        self._num = tuple(num)
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> "CyclotomicNumber":
        return cls(conductor, ())

    @classmethod
    def one(cls, conductor: int) -> "CyclotomicNumber":
        return cls(conductor, (1,))

    @classmethod
    def from_rational(cls, conductor: int, value) -> "CyclotomicNumber":
        q = Fraction(value)
        return cls(conductor, (q.numerator,), q.denominator)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "CyclotomicNumber":
        coeffs = [0] * conductor
        coeffs[power % conductor] = 1
        return cls(conductor, coeffs)

    # -- attributes --------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._conductor

    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients of 1, zeta, zeta^2, ... as exact rationals."""
        return tuple(Fraction(c, self._den) for c in self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CyclotomicNumber") -> None:
        if self._conductor != other._conductor:
            raise ValueError(
                f"conductor mismatch: {self._conductor} vs {other._conductor}"
            )

    def __add__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        self._check(other)
        d1, d2 = self._den, other._den
        num = [a * d2 + b * d1 for a, b in zip(self._num, other._num)]
        return CyclotomicNumber(self._conductor, num, d1 * d2)

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self._conductor, [-c for c in self._num], self._den)

    def __sub__(self, other) -> "CyclotomicNumber":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, int):  # an integer scales each coefficient
            return CyclotomicNumber(self._conductor, [c * other for c in self._num], self._den)
        other = self._coerce(other)
        self._check(other)
        a, b = self._num, other._num
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        num = _reduce_mod_phi(prod, self._conductor)
        return CyclotomicNumber(self._conductor, num, self._den * other._den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "CyclotomicNumber":
        return self._coerce(other) - self

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the product of the other Galois conjugates
        galois(k), k a unit mod N other than 1, over the norm, which is the
        rational product of all of them."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self._conductor
        cofactor = CyclotomicNumber.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                cofactor = cofactor * self.galois(k)
        return cofactor * (1 / (self * cofactor).as_rational())

    def __truediv__(self, other) -> "CyclotomicNumber":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "CyclotomicNumber":
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "CyclotomicNumber":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.one(self._conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self._conductor, other)
        raise TypeError(f"cannot combine CyclotomicNumber with {type(other)!r}")

    # -- Galois / embedding ------------------------------------------------

    def galois(self, k: int) -> "CyclotomicNumber":
        """Image under the automorphism zeta -> zeta^k, defined for k prime
        to the conductor: each exponent e goes to e*k mod N, and the
        constructor reduces the result mod Phi_N again."""
        n = self._conductor
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not prime to the conductor {n}")
        coeffs = [0] * n
        for e, c in enumerate(self._num):
            coeffs[e * k % n] += c
        return CyclotomicNumber(n, coeffs, self._den)

    def conjugate(self) -> "CyclotomicNumber":
        """Image under zeta -> zeta^{-1} (complex conjugation)."""
        return self.galois(-1)

    def is_real(self) -> bool:
        """True when fixed by complex conjugation."""
        return self == self.conjugate()

    def embed(self, digits: int = 30):
        """Numeric value under zeta -> exp(2 pi i/N): an mpmath real when the
        element is fixed by conjugation, an mpmath complex otherwise.

        Computed with guard digits, so the result is accurate to roughly the
        requested number of decimal digits.
        """
        import mpmath

        with mpmath.workdps(digits + 10):
            n = self._conductor
            total = mpmath.mpc(0)
            for e, c in enumerate(self._num):
                if c:
                    total += c * mpmath.expjpi(mpmath.mpf(2 * e) / n)
            total = total / self._den
            if self.is_real():
                return total.real
        return total

    def embed_real(self, digits: int = 30):
        """Real embedding; rejects elements not fixed by conjugation."""
        if not self.is_real():
            raise ValueError("element is not fixed by conjugation")
        return self.embed(digits)

    # -- misc ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self._conductor,
            "coefficients": [str(Fraction(c, self._den)) for c in self._num],
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(self._conductor, other)
        return (
            isinstance(other, CyclotomicNumber)
            and self._conductor == other._conductor
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        # a rational element equals its Fraction, so it must hash like one
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self._conductor, self._den, self._num))

    def __repr__(self) -> str:
        terms = []
        for e, c in enumerate(self._num):
            if c:
                q = Fraction(c, self._den)
                terms.append(f"{q}*z^{e}" if e else f"{q}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic({self._conductor}; {body})"


class IntegralPacking:
    """Elements x = sum c_e zeta^e of the group ring Z[C_N], given by at
    most N integer coefficients, packed into one Python int each, so that
    deciding an identity in Q(zeta_N) between sums of products costs a few
    big-integer operations.

    Substituting zeta -> g = 2^k is a ring map from Z[C_N] onto Z/p,
    p = Phi_N(g), which divides g^N - 1. It kills Phi_N(zeta), so it
    factors through Z[zeta_N], where its kernel has index p and contains
    the ideal (x) of each x it kills: p divides |N(x)|, the index of (x),
    whether or not p is prime (Z[zeta_N] is the ring of integers). Every
    conjugate of x is at most ||x||_1 = sum |c_e| in absolute value, for
    any group-ring representative (c_e) of x, reduced mod Phi_N or not, so
    |N(x)| <= ||x||_1^phi(N) < p = prod |g - zeta^j| (over primitive zeta^j)
    whenever ||x||_1 < g - 1. k is chosen with g - 1 > ``bound``, so
    ``is_zero`` decides x = 0 exactly for ||x||_1 <= ``bound``; the caller
    bounds ||x||_1 by the sum over its products of the products of the
    factors' l1 norms.
    """

    def __init__(self, conductor: int, bound: int):
        g = 1 << (bound + 1).bit_length()
        self._modulus = p = sum(c * g**e for e, c in enumerate(cyclotomic_polynomial(conductor)))
        self._powers = [pow(g, e, p) for e in range(conductor)]

    def pack(self, coeffs: Sequence[int]) -> int:
        """The packed form of sum c_e zeta^e, for at most N integer
        coefficients c_e: its value at zeta -> g, reduced mod p."""
        if len(coeffs) > len(self._powers):
            raise ValueError(f"{len(coeffs)} coefficients for conductor {len(self._powers)}")
        return sum(map(mul, coeffs, self._powers)) % self._modulus

    def is_zero(self, value: int) -> bool:
        """Whether the packed value is zero in the field (see the class
        docstring for the norm bound this relies on)."""
        return value % self._modulus == 0


def packed_sums(conductor: int, xs: Sequence[CyclotomicNumber], ys: Sequence[CyclotomicNumber],
                rows: Iterable[Iterable[tuple[tuple[int, int], int]]]) -> list[CyclotomicNumber]:
    """For each row of ((i, j), k) terms, the sum of k * xs[i] * ys[j].

    By Kronecker packing: each factor a row names is scaled to the common
    denominator of its side and evaluated once at zeta -> 2^b as one
    integer (once in all when ``ys is xs``); a row is one big-integer
    multiply-add per term, unpacked into its 2 phi(N) - 1 coefficients and
    reduced mod Phi_N once. No coefficient of a row exceeds sum |k| times
    the largest l1 norms of the two sides' numerators, which b bounds with
    a bit to spare, so every slot reads back exactly as a balanced digit.
    """
    rows = [list(row) for row in rows]

    def scaled(factors, keys):
        """The common denominator of the named factors, and each numerator over it."""
        for i in keys:
            if factors[i]._conductor != conductor:
                raise ValueError(f"conductor mismatch: {factors[i]._conductor} vs {conductor}")
        den = lcm(*(factors[i]._den for i in keys))
        return den, {i: [c * (den // factors[i]._den) for c in factors[i]._num] for i in keys}

    def pack(nums):
        return {i: sum(c << bits * e for e, c in enumerate(num)) for i, num in nums.items()}

    lkeys = {i for row in rows for (i, _), _ in row}
    rkeys = {j for row in rows for (_, j), _ in row}
    if ys is xs:
        lden, lnums = rden, rnums = scaled(xs, lkeys | rkeys)
    else:
        (lden, lnums), (rden, rnums) = scaled(xs, lkeys), scaled(ys, rkeys)
    bound = max((sum(abs(k) for _, k in row) for row in rows), default=0)
    for nums in (lnums, rnums):
        bound *= max((sum(map(abs, num)) for num in nums.values()), default=0)
    bits = bound.bit_length() + 1
    lp = pack(lnums)
    rp = lp if rnums is lnums else pack(rnums)
    low = 1 << bits - 1
    size = 2 * euler_phi(conductor) - 1
    bias = low * ((1 << bits * size) - 1) // ((1 << bits) - 1)
    slot = (1 << bits) - 1
    out = []
    for row in rows:
        value = bias
        for (i, j), k in row:
            value += lp[i] * rp[j] * k
        out.append(CyclotomicNumber(conductor, [(value >> bits * e & slot) - low
                                                for e in range(size)], lden * rden))
    return out


# -- quantum integers --------------------------------------------------------

def conductor_for(n: int, m: int) -> int:
    """Conductor 2(n+m) of the field housing the (n, m) quantum integers."""
    if n + m < 2:
        raise ValueError("n + m must be at least 2")
    return 2 * (n + m)


def qint(i: int, n: int, m: int) -> CyclotomicNumber:
    """The quantum integer (zeta^i - zeta^{-i})/(zeta - zeta^{-1}) for the
    rank/level pair (n, m), with zeta a primitive 2(n+m)-th root of unity.

    Expanded as the geometric sum zeta^{i-1} + zeta^{i-3} + ... + zeta^{1-i},
    which avoids any division. Periodic in i with period 2(n+m), and odd:
    qint(-i) = -qint(i).
    """
    N = conductor_for(n, m)
    i %= N
    coeffs = [0] * N
    for j in range(i):
        coeffs[(i - 1 - 2 * j) % N] += 1
    return CyclotomicNumber(N, coeffs)


def qint_real(i: int, n: int, m: int):
    """Floating-point quantum integer sin(pi i/(n+m))/sin(pi/(n+m)) at the
    current mpmath working precision."""
    import mpmath

    k = n + m
    return mpmath.sinpi(mpmath.mpf(i) / k) / mpmath.sinpi(mpmath.mpf(1) / k)
