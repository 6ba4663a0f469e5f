"""The Galois action on the S-matrix: the fold of k (a + rho), the exact
``galois`` check, S built by Galois orbits, and Verlinde on orbit columns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelrank import Verdict, smatrix
from levelrank.cyclotomic import CyclotomicNumber
from levelrank.fusion import Decomposition, fuse, verlinde_check
from levelrank.smatrix import (
    _coordinates,
    _galois_fold,
    _galois_sources,
    _units,
    galois_check,
    s_matrix,
)
from levelrank.weights import LevelWeight, enumerate_weights


def fold(a, k):
    """(eps_k(a), pi_k(a)); a wall fails the test."""
    folded = _galois_fold(_coordinates(a), k, a.rank + a.level)
    assert folded is not None, (k, a)
    return folded[0], LevelWeight(folded[1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_galois_fold_is_a_signed_action(data):
    """pi_jk = pi_j o pi_k with eps_jk(a) = eps_j(pi_k a) eps_k(a), pi_1 is
    the identity with sign +1, pi_-1 is the dual, and no fold hits a wall."""
    n, m = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5))
    conductor = n * (n + m)
    ks = _units(conductor)
    j, k = data.draw(st.sampled_from(ks)), data.draw(st.sampled_from(ks))
    for a in enumerate_weights(n, m):
        sign_k, image = fold(a, k)
        sign_j, image_jk = fold(image, j)
        assert fold(a, j * k % conductor) == (sign_j * sign_k, image_jk)
        assert fold(a, 1) == (1, a)
        assert fold(a, -1)[1] == fold(a, conductor - 1)[1] == a.dual()


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(1, 6)])
def test_no_fold_lands_on_a_wall(n, m):
    for k in _units(n * (n + m)):
        for a in enumerate_weights(n, m):
            fold(a, k)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(1, 7))
def test_minus_one_folds_every_weight_to_its_dual(n, m):
    """pi_{-1}(a) = a* with eps_{-1}(a) = (-1)^(n(n-1)/2) for every weight:
    the identity conj(M_bc) = eps M_{b*c} on which ``unitarity_residual``
    packs M once."""
    N = n * (n + m)
    for a in enumerate_weights(n, m):
        assert _galois_fold(_coordinates(a), N - 1, n + m) == (
            (-1) ** (n * (n - 1) // 2), a.dual().components), a


@pytest.mark.parametrize("n,m,orbits", [
    (5, 4, 8), (6, 4, 24), (7, 3, 8), (8, 2, 7), (9, 2, 3), (10, 2, 10), (8, 3, 8),
])
def test_galois_orbit_counts(n, m, orbits):
    weights = enumerate_weights(n, m)
    sources = _galois_sources(weights, [_coordinates(a) for a in weights], n + m)
    assert len({r for r, _, _ in sources}) == orbits
    for a, (r, k, sign) in enumerate(sources):
        assert sources[r] == (r, 1, 1)
        assert fold(weights[r], k) == (sign, weights[a])


@pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (3, 3), (4, 2), (4, 3), (5, 2), (4, 4), (5, 3)])
def test_galois_check_holds(n, m):
    v = galois_check(n, m)
    assert isinstance(v, Verdict) and v.holds, v
    assert (v.suite, v.name, v.counterexample) == ("galois", f"n={n} m={m}", None)
    weights = enumerate_weights(n, m)
    assert v.checked == len(_units(n * (n + m))) * len(weights) ** 2


def test_galois_check_reports_a_sign_flip(monkeypatch):
    """A fold with the wrong sign is a counterexample (k, a, b, lhs, rhs),
    not an exception."""
    true_fold = smatrix._galois_fold

    def flipped(y, k, kappa):
        sign, w = true_fold(y, k, kappa)
        return (-sign if k == 5 else sign), w

    monkeypatch.setattr(smatrix, "_galois_fold", flipped)
    v = galois_check(3, 3)
    assert isinstance(v, Verdict) and v.holds is False
    k, a, b, lhs, rhs = v.counterexample
    assert k == 5 and lhs == -rhs != 0
    assert v.checked == 100  # every pair at k = 1 passed first
    assert v.line().startswith("[FAIL] galois: n=3 m=3  (disagree at k=5")


def test_galois_check_reports_a_wall(monkeypatch):
    monkeypatch.setattr(smatrix, "_galois_fold", lambda y, k, kappa: None)
    v = galois_check(2, 3)
    assert v.holds is False
    assert v.counterexample == (1, enumerate_weights(2, 3)[0])
    assert v.checked == 0


def test_s_matrix_raises_on_a_wall(monkeypatch):
    monkeypatch.setattr(smatrix, "_galois_fold", lambda y, k, kappa: None)
    with pytest.raises(ArithmeticError, match="wall"):
        s_matrix(2, 3)


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3)])
def test_wrong_coefficient_fails_on_a_union_of_galois_orbits(n, m, monkeypatch):
    """With one fusion coefficient off by one, the columns d where
    sum_c N_ab^c M_cd M_0d = M_ad M_bd fails are closed under every pi_k,
    so the orbit columns of ``verlinde_check`` still catch it."""
    weights = enumerate_weights(n, m)
    a, b = weights[1], weights[2]
    dec = fuse(a, b)
    bumped = min(dec.terms, key=lambda w: w.components)
    wrong = dict(dec.terms)
    wrong[bumped] += 1

    data = s_matrix(n, m)
    M = data.exact
    index = {w: i for i, w in enumerate(weights)}
    zero = CyclotomicNumber.zero(n * (n + m))

    def fails(d):
        fused = sum((M[index[c]][d] * k for c, k in wrong.items()), zero)
        return M[0][d] * fused != M[index[a]][d] * M[index[b]][d]

    failing = {d for d in range(len(weights)) if fails(d)}
    assert failing
    for k in _units(n * (n + m)):
        images = {index[fold(weights[d], k)[1]] for d in failing}
        assert images == failing, k

    def wrong_fuse(x, y):
        if {x, y} == {a, b}:
            return Decomposition(x.rank, x.level, wrong)
        return fuse(x, y)

    import levelrank.fusion as fusion_module

    monkeypatch.setattr(fusion_module, "fuse", wrong_fuse)
    v = verlinde_check(n, m)
    assert v.holds is False
    x, y, d, lhs, rhs = v.counterexample
    assert {x, y} == {a, b} and lhs != rhs
    assert index[d] in failing
    assert index[d] in data.representatives  # an orbit column
