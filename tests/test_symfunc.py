from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelrank import Verdict, symfunc
from levelrank.cli import main
from levelrank.partitions import Partition, enumerate_rectangle
from levelrank.symfunc import SymPolynomial, lr_expand, schur, verify_skew_cauchy

from symfunc_oracles import coefficient, elementary, evaluate_ones, is_symmetric_spot, schur_expand


def all_partitions_up_to(size: int) -> list[Partition]:
    return [p for p in enumerate_rectangle(size, size) if p.size <= size]


def weyl_dimension(lam: Partition, k: int) -> int:
    """GL_k dimension by the ratio-of-differences formula; independent of the
    tableau enumeration used by schur()."""
    padded = lam.padded(k)
    num = prod(padded[i] - padded[j] + j - i for i in range(k) for j in range(i + 1, k))
    den = prod(j - i for i in range(k) for j in range(i + 1, k))
    return num // den


def test_schur_single_box():
    assert schur(Partition((1,)), 3).terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_schur_two_one_in_two_vars():
    assert schur(Partition((2, 1)), 2).terms == {(2, 1): 1, (1, 2): 1}


def test_schur_too_tall_is_zero():
    assert schur(Partition((1, 1, 1)), 2).is_zero()


def test_schur_symmetry_spot():
    assert is_symmetric_spot(schur(Partition((3, 1)), 4))


@pytest.mark.parametrize("parts,k", [((4, 3, 1), 4), ((2, 2), 3), ((3, 1, 1), 5)])
def test_schur_dimension_against_weyl_formula(parts, k):
    lam = Partition(parts)
    assert evaluate_ones(schur(lam, k)) == weyl_dimension(lam, k)


def test_schur_leading_coefficient_is_one():
    # Kostka triangularity: the weight-lam monomial has coefficient 1
    for parts in ((3, 1), (2, 2, 1), (4,)):
        lam = Partition(parts)
        k = lam.size
        assert coefficient(schur(lam, k), lam.padded(k)) == 1


def test_elementary():
    e2 = elementary(3, 2)
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary(3, 0).terms == {(0, 0, 0): 1}


def test_lr_pieri():
    assert lr_expand(Partition((1,)), Partition((1,))) == {
        Partition((2,)): 1,
        Partition((1, 1)): 1,
    }


def test_lr_golden_two_one_squared():
    got = lr_expand(Partition((2, 1)), Partition((2, 1)))
    assert got == {
        Partition((4, 2)): 1,
        Partition((4, 1, 1)): 1,
        Partition((3, 3)): 1,
        Partition((3, 2, 1)): 2,
        Partition((3, 1, 1, 1)): 1,
        Partition((2, 2, 2)): 1,
        Partition((2, 2, 1, 1)): 1,
    }


def test_lr_height_restriction():
    full = lr_expand(Partition((2, 1)), Partition((2, 1)))
    cut = lr_expand(Partition((2, 1)), Partition((2, 1)), nvars=3)
    assert cut == {nu: c for nu, c in full.items() if nu.height <= 3}


def test_lr_rejects_negative_nvars():
    with pytest.raises(ValueError, match="nvars"):
        lr_expand(Partition((1,)), Partition((1,)), nvars=-1)
    assert lr_expand(Partition(), Partition(), nvars=0) == {Partition(): 1}
    assert lr_expand(Partition((1,)), Partition(), nvars=0) == {}


def test_lr_with_empty():
    lam = Partition((3, 2))
    assert lr_expand(lam, Partition()) == {lam: 1}
    assert lr_expand(Partition(), lam) == {lam: 1}


def test_lr_agrees_with_polynomial_oracle_exhaustive():
    """Cross-validate the tableau rule against multiply-then-reexpand for
    every unordered pair with at most 8 boxes total."""
    parts = all_partitions_up_to(8)
    for a in range(len(parts)):
        for b in range(a, len(parts)):
            lam, mu = parts[a], parts[b]
            k = lam.size + mu.size
            if k == 0 or k > 8:
                continue
            oracle = schur_expand(schur(lam, k) * schur(mu, k))
            assert lr_expand(lam, mu, nvars=k) == oracle, (lam, mu)


# (lam, mu, k): small partitions and a row cap k below |lam| + |mu| (the
# exhaustive oracle test only uses k = |lam| + |mu|, which caps nothing).
_partitions = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: Partition(sorted(parts, reverse=True)))
_capped_pairs = st.tuples(_partitions, _partitions).filter(
    lambda pair: 2 <= pair[0].size + pair[1].size <= 7).flatmap(
    lambda pair: st.tuples(st.just(pair[0]), st.just(pair[1]),
                           st.integers(1, min(4, pair[0].size + pair[1].size - 1))))


@settings(max_examples=15, deadline=None)
@given(_capped_pairs)
def test_lr_capped_agrees_with_polynomial_oracle(case):
    lam, mu, k = case
    assert lr_expand(lam, mu, nvars=k) == schur_expand(schur(lam, k) * schur(mu, k))


@settings(max_examples=25, deadline=None)
@given(_capped_pairs)
def test_lr_dimension_identity(case):
    lam, mu, k = case

    def dim(p: Partition) -> int:
        return weyl_dimension(p, k) if p.height <= k else 0

    expansion = lr_expand(lam, mu, nvars=k)
    assert sum(c * dim(nu) for nu, c in expansion.items()) == dim(lam) * dim(mu)


@settings(max_examples=25, deadline=None)
@given(_capped_pairs)
def test_lr_symmetric_in_its_factors(case):
    # lr_expand puts both orders under one cache key, so compare the strip
    # rule itself with either factor added as strips
    lam, mu, k = case
    for cap in (k, lam.height + mu.height):
        assert (symfunc._lr_strip_states(lam.parts, mu.parts, cap)
                == symfunc._lr_strip_states(mu.parts, lam.parts, cap)), cap


@settings(max_examples=25, deadline=None)
@given(_capped_pairs)
def test_lr_capped_equals_filtered(case):
    lam, mu, k = case
    full = lr_expand(lam, mu)
    assert lr_expand(lam, mu, nvars=k) == {nu: c for nu, c in full.items() if nu.height <= k}


def test_lr_transpose_symmetry():
    parts = all_partitions_up_to(6)
    for lam in parts:
        for mu in parts:
            if lam.size + mu.size > 6:
                continue
            direct = lr_expand(lam, mu)
            flipped = lr_expand(lam.transpose(), mu.transpose())
            assert {nu.transpose(): c for nu, c in direct.items()} == flipped


def test_schur_expand_rejects_non_symmetric():
    poly = SymPolynomial(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        schur_expand(poly)


def test_skew_cauchy_degree_zero_and_one():
    assert verify_skew_cauchy(3, 2, 0)
    assert verify_skew_cauchy(3, 2, 1)


def test_skew_cauchy_two_by_two_explicit():
    """At n = m = 2, i = 2 the right side is s_2(x) s_11(y) + s_11(x) s_2(y)."""
    v = verify_skew_cauchy(2, 2, 2)
    assert v.holds
    sx2 = schur(Partition((2,)), 2)
    sx11 = schur(Partition((1, 1)), 2)
    rhs = {}
    for left, right in ((sx2, sx11), (sx11, sx2)):
        for ex, cx in left.terms.items():
            for ey, cy in right.terms.items():
                rhs[ex + ey] = rhs.get(ex + ey, 0) + cx * cy
    lhs = {}
    from itertools import combinations

    for subset in combinations([(a, b) for a in range(2) for b in range(2)], 2):
        e = [0, 0, 0, 0]
        for a, b in subset:
            e[a] += 1
            e[2 + b] += 1
        lhs[tuple(e)] = lhs.get(tuple(e), 0) + 1
    assert lhs == rhs


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_skew_cauchy_full_range(n, m):
    for i in range(n * m + 1):
        assert verify_skew_cauchy(n, m, i), (n, m, i)


def test_skew_cauchy_reports_the_difference(monkeypatch, capsys):
    """Doubling every non-constant Schur polynomial leaves degree 0 intact
    and breaks degree 1; the counterexample is the difference lhs - rhs."""
    true_schur = symfunc.schur
    monkeypatch.setattr(symfunc, "schur",
                        lambda lam, k: true_schur(lam, k).scale(2 if lam.size else 1))
    assert verify_skew_cauchy(2, 2, 0).holds
    v = verify_skew_cauchy(2, 2, 1)
    assert isinstance(v, Verdict) and v.holds is False
    diff = v.counterexample
    assert isinstance(diff, SymPolynomial) and not diff.is_zero()
    # e_1(x y) - 4 s_1(x) s_1(y) = -3 times the sum of the four x_a y_b
    assert diff.terms == {(1, 0, 1, 0): -3, (1, 0, 0, 1): -3, (0, 1, 1, 0): -3, (0, 1, 0, 1): -3}
    assert main(["verify", "cauchy", "--bound", "2"]) == 1
    assert "[FAIL] cauchy: n=2 m=2 i=1  (" in capsys.readouterr().out


def test_skew_cauchy_bounds():
    with pytest.raises(ValueError):
        verify_skew_cauchy(2, 2, 5)
