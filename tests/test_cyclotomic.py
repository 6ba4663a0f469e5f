import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levelrank.cyclotomic import (
    CyclotomicNumber,
    IntegralPacking,
    _reduce_mod_phi,
    conductor_for,
    cyclotomic_polynomial,
    euler_phi,
    qint,
    qint_real,
)

from cyclotomic_oracles import reduce_mod_phi_dense


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)


def test_euler_phi_degrees():
    assert euler_phi(16) == 8
    assert euler_phi(18) == 6
    assert euler_phi(20) == 8
    assert euler_phi(22) == 10


def test_power_relation():
    # zeta_N has multiplicative order exactly N
    for N in (8, 12, 18):
        z = CyclotomicNumber.zeta(N)
        assert z ** N == 1
        assert all(z ** k != 1 for k in range(1, N))


def test_random_inverses():
    """Field axiom x * x^-1 = 1 on random nonzero elements, conductors <= 24."""
    rng = random.Random(20240817)
    for N in (4, 6, 8, 10, 12, 16, 18, 20, 22, 24):
        for _ in range(10):
            coeffs = [rng.randint(-5, 5) for _ in range(euler_phi(N))]
            if not any(coeffs):
                coeffs[0] = 1
            x = CyclotomicNumber(N, coeffs, rng.randint(1, 7))
            assert x * x.inverse() == 1


def test_zero_division():
    z = CyclotomicNumber.zero(12)
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.one(12) / z


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        CyclotomicNumber.one(8) + CyclotomicNumber.one(12)
    with pytest.raises(ValueError):
        CyclotomicNumber.one(8) * CyclotomicNumber.one(10)


def test_rational_coercion():
    x = CyclotomicNumber.from_rational(10, Fraction(3, 4))
    assert x + 1 == CyclotomicNumber.from_rational(10, Fraction(7, 4))
    assert (2 * x).as_rational() == Fraction(3, 2)


def test_rational_elements_hash_like_their_value():
    one = CyclotomicNumber.one(8)
    assert one == 1 and hash(one) == hash(1)
    assert len({one, 1}) == 1
    x = CyclotomicNumber.from_rational(10, Fraction(3, 4))
    assert {Fraction(3, 4): "found"}[x] == "found"
    assert hash(CyclotomicNumber.zeta(8)) == hash(CyclotomicNumber.zeta(8, 9))


def _integral_coefficients(z):
    return [int(c) for c in z.coefficients()]


def _conjugate(coeffs, N):
    """The group-ring list of the conjugate: c_e moves to slot -e mod N."""
    c = list(coeffs) + [0] * (N - len(coeffs))
    return c[:1] + c[:0:-1]


def test_integral_packing_decides_products_exactly():
    rng = random.Random(11)
    for N in (8, 12, 28, 54):
        lists = [[rng.randint(-5, 5) for _ in range(euler_phi(N))] for _ in range(4)]
        norm = max(sum(map(abs, c)) for c in lists)
        packing = IntegralPacking(N, 2 * norm * norm + 1)
        for c, d in zip(lists, lists[1:]):
            x, y = CyclotomicNumber(N, c), CyclotomicNumber(N, d)
            product = packing.pack(c) * packing.pack(d)
            assert packing.is_zero(product - packing.pack(_integral_coefficients(x * y)))
            assert not packing.is_zero(product - packing.pack(_integral_coefficients(x * y + 1)))
            assert packing.is_zero(packing.pack(_conjugate(c, N))
                                   - packing.pack(_integral_coefficients(x.conjugate())))
    with pytest.raises(ValueError):
        IntegralPacking(8, 10).pack([0] * 9)


_REDUCTION_CONDUCTORS = {
    "odd": list(range(1, 61, 2)),
    "twice odd": list(range(2, 61, 4)),
    "4k": list(range(4, 61, 4)),
    "prime power": [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
                    41, 43, 47, 49, 53, 59],
}


@pytest.mark.parametrize("kind", _REDUCTION_CONDUCTORS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduction_mod_phi_matches_the_long_division(kind, data):
    """The half fold and sparse rows give the plain long division's result
    for coefficient lists up to 3N long, large coefficients included."""
    N = data.draw(st.sampled_from(_REDUCTION_CONDUCTORS[kind]))
    coeffs = data.draw(st.lists(st.integers(), max_size=3 * N))
    assert _reduce_mod_phi(coeffs, N) == reduce_mod_phi_dense(coeffs, N)


_PACKING_CONDUCTORS = (3, 4, 6, 8, 12, 15, 20, 28, 30)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_PACKING_CONDUCTORS), st.data())
def test_integral_packing_is_zero_exactly_at_zero(N, data):
    # unreduced group-ring lists up to N long, some of them zero mod Phi_N,
    # packed at the l1 norm of the list itself
    coeffs = data.draw(st.lists(st.integers(-3, 3), max_size=N))
    x = CyclotomicNumber(N, coeffs)
    norm = sum(map(abs, coeffs))
    for bound in (norm, norm + data.draw(st.integers(0, 2**20))):
        packing = IntegralPacking(N, bound)
        assert packing.is_zero(packing.pack(coeffs)) == x.is_zero()
        assert packing.pack(_conjugate(coeffs, N)) == packing.pack(
            _integral_coefficients(x.conjugate()))


@pytest.mark.parametrize("N", _PACKING_CONDUCTORS)
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 6, 7, 100, 2**40])
def test_integral_packing_kernel_element_lies_above_the_bound(N, bound):
    # zeta - g packs to 0 and is nonzero, so its norm must exceed the bound
    packing = IntegralPacking(N, bound)
    g = packing.pack([0, 1])
    kernel = [-g, 1]
    assert packing.is_zero(packing.pack(kernel)) and not CyclotomicNumber(N, kernel).is_zero()
    assert sum(map(abs, kernel)) == g + 1 > bound


def test_qint_basics():
    for (n, m) in ((2, 3), (4, 4), (3, 7)):
        assert qint(1, n, m) == 1
        assert qint(0, n, m).is_zero()


def test_qint_defining_relation():
    # (zeta - zeta^-1) [i] = zeta^i - zeta^-i
    for (n, m) in ((2, 2), (3, 4)):
        N = conductor_for(n, m)
        z = CyclotomicNumber.zeta(N)
        zinv = CyclotomicNumber.zeta(N, -1)
        for i in range(0, N + 3):
            lhs = (z - zinv) * qint(i, n, m)
            rhs = CyclotomicNumber.zeta(N, i) - CyclotomicNumber.zeta(N, -i)
            assert lhs == rhs


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (4, 5), (5, 6), (6, 6)])
def test_qint_mirror_symmetry(n, m):
    for i in range(0, n + m + 1):
        assert qint(i, n, m) == qint(n + m - i, n, m)


def test_qint_periodicity_and_oddness():
    for (n, m) in ((2, 3), (3, 4)):
        for i in range(-4, 9):
            assert qint(i + 2 * (n + m), n, m) == qint(i, n, m)
            assert qint(-i, n, m) == -qint(i, n, m)


def test_qint_product_to_sum():
    # [2]^2 = [1] + [3] whenever n+m = 5
    assert qint(2, 2, 3) * qint(2, 2, 3) == qint(1, 2, 3) + qint(3, 2, 3)


def test_embed_sqrt_two():
    value = qint(2, 2, 2).embed_real(20)
    assert abs(value - mpmath.mpf(2) ** mpmath.mpf("0.5")) < mpmath.mpf(10) ** -15


def test_embed_matches_sines():
    with mpmath.workdps(40):
        for (n, m) in ((2, 3), (4, 4), (3, 5)):
            for i in range(1, n + m):
                exact = qint(i, n, m).embed_real(35)
                trig = qint_real(i, n, m)
                assert abs(exact - trig) < mpmath.mpf(10) ** -30
                assert exact > 0


def test_embed_real_rejects_non_real():
    z = CyclotomicNumber.zeta(12)
    assert not z.is_real()
    with pytest.raises(ValueError):
        z.embed_real()
    assert (z + z.conjugate()).is_real()


def test_embed_one_exact():
    for (n, m) in ((2, 2), (5, 3)):
        assert qint(1, n, m).embed_real(15) == 1


def test_conjugation_is_involution():
    rng = random.Random(7)
    for N in (8, 18, 20):
        coeffs = [rng.randint(-3, 3) for _ in range(euler_phi(N))]
        x = CyclotomicNumber(N, coeffs, 3)
        assert x.conjugate().conjugate() == x


def test_json_serialization_round_trip():
    from math import gcd

    x = CyclotomicNumber(12, (1, -2, 0, 3), 6)
    data = x.to_json()
    assert data["conductor"] == 12
    assert data["coefficients"] == ["1/6", "-1/3", "0", "1/2"]
    fracs = [Fraction(c) for c in data["coefficients"]]
    den = 1
    for q in fracs:
        den = den * q.denominator // gcd(den, q.denominator)
    rebuilt = CyclotomicNumber(data["conductor"], [int(q * den) for q in fracs], den)
    assert rebuilt == x


def test_concurrent_cache_fills():
    """Quantum-integer and polynomial caches accept concurrent first writers."""
    from concurrent.futures import ThreadPoolExecutor

    import levelrank.cyclotomic as cyc

    cyc.cyclotomic_polynomial.cache_clear()
    cyc._qint.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        values = list(pool.map(lambda i: qint(i % 9, 4, 5), range(64)))
    for i, v in enumerate(values):
        assert v == qint(i % 9, 4, 5)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (5, 3), (7, 7)])
def test_qint_reflection(n, m):
    """[k] = [n+m-k] exactly for 1 <= k < n+m."""
    for k in range(1, n + m):
        assert qint(k, n, m) == qint(n + m - k, n, m)


# -- field laws and the Galois action, property-based -------------------------

@st.composite
def _elements(draw, count):
    """A conductor N <= 30 and ``count`` elements of Q(zeta_N), built from
    coefficient lists up to N long so that the constructor's reduction runs."""
    N = draw(st.integers(1, 30))
    return N, [CyclotomicNumber(N, draw(st.lists(st.integers(-4, 4), max_size=N)),
                                draw(st.integers(1, 5)))
               for _ in range(count)]


def _units(N):
    return st.sampled_from([k for k in range(-N, 2 * N + 1) if gcd(k, N) == 1])


@settings(max_examples=30, deadline=None)
@given(_elements(3))
def test_ring_laws(drawn):
    _, (x, y, z) = drawn
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=30, deadline=None)
@given(_elements(1), st.integers(-6, 6))
def test_integer_scaling_is_the_field_product(drawn, k):
    N, (x,) = drawn
    as_element = CyclotomicNumber.from_rational(N, k)
    product = x * as_element
    assert x * k == product == k * x


@settings(max_examples=30, deadline=None)
@given(_elements(1))
def test_inverse_is_a_two_sided_inverse(drawn):
    _, (x,) = drawn
    assume(not x.is_zero())
    assert x * x.inverse() == 1 == x.inverse() * x


@settings(max_examples=30, deadline=None)
@given(_elements(2), st.data())
def test_galois_is_a_ring_map(drawn, data):
    N, (x, y) = drawn
    k = data.draw(_units(N))
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    assert CyclotomicNumber.zeta(N).galois(k) == CyclotomicNumber.zeta(N, k)


@settings(max_examples=30, deadline=None)
@given(_elements(1), st.data())
def test_galois_composes_by_multiplying_exponents(drawn, data):
    N, (x,) = drawn
    j, k = data.draw(_units(N)), data.draw(_units(N))
    assert x.galois(j).galois(k) == x.galois(j * k)
    assert x.galois(1) == x == x.galois(1 + N)


@settings(max_examples=20, deadline=None)
@given(_elements(1))
def test_conjugate_is_galois_minus_one_and_complex_conjugation(drawn):
    _, (x,) = drawn
    assert x.conjugate() == x.galois(-1)
    assert mpmath.almosteq(mpmath.mpc(x.conjugate().embed(20)),
                           mpmath.conj(x.embed(20)), 1e-12, 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 30), st.integers(-60, 60), st.data())
def test_galois_rejects_exponents_sharing_a_factor_with_n(N, k, data):
    x = CyclotomicNumber.zeta(N)
    p = data.draw(st.sampled_from([p for p in range(2, N + 1) if N % p == 0]))
    with pytest.raises(ValueError, match="prime to"):
        x.galois(p * k)
