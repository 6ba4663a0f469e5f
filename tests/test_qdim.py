import hashlib
import json
from math import prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelrank import qdim
from levelrank.cyclotomic import CyclotomicNumber, conductor_for, qint
from levelrank.partitions import Partition, enumerate_rectangle
from levelrank.qdim import (
    category_dim,
    dimension_report,
    graded_dim,
    qdim_partition,
    qdim_product_string,
    qdim_weight,
    hook_content_factors,
)
from levelrank.weights import (LevelWeight, enumerate_graded, enumerate_weights,
                               from_partition, tau, weight_table)


def test_hook_content_golden_431():
    """The 8-cell example: product collapses to [7][5]^2."""
    value = qdim_partition(Partition((4, 3, 1)), 4, 4)
    assert value == qint(7, 4, 4) * qint(5, 4, 4) ** 2
    for m in (5, 7):
        assert qdim_partition(Partition((4, 3, 1)), 4, m) == qint(7, 4, m) * qint(5, 4, m) ** 2


def test_hook_content_golden_431_numeric():
    with mpmath.workdps(40):
        value = qdim_partition(Partition((4, 3, 1)), 4, 4).embed_real(35)
        k = mpmath.mpf(8)
        sine = lambda i: mpmath.sinpi(i / k) / mpmath.sinpi(1 / k)
        assert abs(value - sine(7) * sine(5) ** 2) < mpmath.mpf(10) ** -12


def test_empty_partition_dimension_one():
    assert qdim_partition(Partition(), 3, 5) == 1


def test_single_row_of_level_is_invertible():
    for (n, m) in ((2, 2), (3, 4), (4, 3), (5, 2)):
        assert qdim_partition(Partition((m,)), n, m) == 1


def test_rejects_outside_rectangle():
    with pytest.raises(ValueError):
        qdim_partition(Partition((4,)), 2, 3)


def test_hook_content_factors_shape():
    nums, dens = hook_content_factors(Partition((4, 3, 1)), 4)
    assert sorted(nums) == sorted([4, 5, 6, 7, 3, 4, 5, 2])
    assert sorted(dens) == sorted([6, 4, 3, 1, 4, 2, 1, 1])


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5)])
def test_transpose_symmetry(n, m):
    """Same dimension for a shape at (n, m) and its transpose at (m, n);
    both live in the conductor-2(n+m) field."""
    for lam in enumerate_rectangle(n, m):
        assert qdim_partition(lam, n, m) == qdim_partition(lam.transpose(), m, n)


def field_product(lam, n, m):
    """The hook-content product by plain field arithmetic, with no folding,
    no cancellation and one division at the end."""
    num = CyclotomicNumber.one(conductor_for(n, m))
    den = CyclotomicNumber.one(conductor_for(n, m))
    for i, j in lam.cells():
        num = num * qint(n + lam.content(i, j), n, m)
        den = den * qint(lam.hook_length(i, j), n, m)
    return num / den


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
def test_rotation_invariance(n, m):
    for a in enumerate_weights(n, m):
        d = field_product(a.to_partition(), n, m)
        assert qdim_weight(a) == d
        for k in range(1, n):
            assert field_product(a.rotate(k).to_partition(), n, m) == d


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3)])
def test_tau_preserves_dimension(n, m):
    for i in range(n * m):
        from levelrank.weights import enumerate_graded

        for a in enumerate_graded(n, m, i):
            assert qdim_weight(a) == qdim_weight(tau(a, i))


def test_dimensions_at_least_one():
    for a in enumerate_weights(3, 4):
        assert qdim_weight(a).embed_real(25) >= 1 - mpmath.mpf(10) ** -20


def test_level_one_category_dimension():
    for N in range(2, 9):
        assert category_dim(N, 1) == N
        for i in range(N):
            assert graded_dim(N, 1, i) == 1


def test_category_dim_two_one():
    assert category_dim(2, 1) == 2


def test_graded_two_two():
    # the degree-0 class is two invertible objects
    assert graded_dim(2, 2, 0) == 2


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 4)])
def test_graded_pieces_equal(n, m):
    base = graded_dim(n, m, 0)
    for i in range(1, n):
        assert graded_dim(n, m, i) == base
    assert category_dim(n, m) == n * base


def test_well_defined_across_preimages():
    # w is not injective; the dimension must not depend on the preimage
    for (n, m) in ((2, 3), (3, 3)):
        for lam in enumerate_rectangle(n, m):
            a = from_partition(lam, n, m)
            d = field_product(lam, n, m)
            assert field_product(a.to_partition(), n, m) == d
            assert qdim_partition(lam, n, m) == qdim_weight(a) == d


def test_float_backend_agrees():
    with mpmath.workdps(30):
        for (n, m) in ((2, 3), (3, 4), (4, 4)):
            for a in enumerate_weights(n, m):
                exact = qdim_weight(a).embed_real(25)
                approx = qdim_weight(a, backend="float")
                assert abs(exact - approx) < mpmath.mpf(10) ** -10


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        qdim_partition(Partition((1,)), 2, 2, backend="symbolic")


def test_dimension_report_consistency():
    report = dimension_report(3, 2)
    total = sum(d * d for d in report.dims)
    assert total == report.total
    assert sum(report.graded) == report.total
    payload = report.to_json()
    assert len(payload["objects"]) == len(report.dims)


@pytest.mark.parametrize("n,m,digest", [
    (3, 2, "4a4c6c7c9e75c1dd2c0e78b62c7b06f6f77e6807714cf5bf1ae87d85faebf03e"),
    (2, 5, "7284f4ef9747e04434902790baa246c744f5aded10f140cd379f2a1dd2575a35"),
    (3, 3, "d5f2a64259275ac0e1af357d6f5f84515a27a56c06d3123d8ad42e93a2799aa5"),
    (4, 3, "364f63dd8f2b37202fa0ed5b6761cd6d9e4f1a8aa0eedfc9c8fd90ea4ca8ae9b"),
])
def test_dimension_report_json_is_pinned(n, m, digest):
    """The JSON of the record, weights, dimensions and graded totals alike,
    is pinned byte for byte."""
    text = json.dumps(dimension_report(n, m).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_product_string_golden():
    assert qdim_product_string(Partition((4, 3, 1)), 4) == "[7][5]^2"
    assert qdim_product_string(Partition(), 3) == "1"


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 7) for m in range(1, 7)])
def test_cancelled_route_matches_field_product(n, m):
    """The Weyl product equals the hook-content product on every partition
    of every box up to 6 x 6."""
    for lam in enumerate_rectangle(n, m):
        assert qdim_partition(lam, n, m) == field_product(lam, n, m), lam


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 8), m=st.integers(1, 8), data=st.data())
def test_cancelled_route_matches_field_product_property(n, m, data):
    lam = data.draw(st.sampled_from(enumerate_rectangle(n, m)))
    assert qdim_partition(lam, n, m) == field_product(lam, n, m)


def test_weyl_product_beyond_64_bits():
    """At (9, 9), the weight (1, ..., 1) has prod(v_i - v_j) above 2^64, so
    its packed numerator needs more than 64 bits per coefficient."""
    a = LevelWeight((1,) * 9)
    diffs = [2 * (j - i) for i in range(9) for j in range(i + 1, 9)]
    assert prod(diffs) > 2 ** 64
    assert qdim_weight(a) == field_product(a.to_partition(), 9, 9)


def test_cold_box_inverts_one_denominator(monkeypatch):
    """A cold (5, 4) box makes one inversion, the Weyl denominator's, however
    many orbits it computes."""
    n, m = 5, 4
    qdim._qdim_exact.cache_clear()
    qdim._weyl_denominator_inverse.cache_clear()
    calls = []
    original = CyclotomicNumber.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CyclotomicNumber, "inverse", counting)
    for lam in enumerate_rectangle(n, m):
        qdim_partition(lam, n, m)
    assert len(calls) == 1


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(2, 6))
def test_dimension_report_matches_the_sum_of_squares(n, m):
    """The record's orbit-grouped totals equal the by-value sums of squared
    ``qdim_weight``; its dimensions, one per table position, agree with
    ``qdim_weight`` and with the dimension at the ``orbit`` position of
    ``weight_table``, which groups exactly the rotation orbits."""
    report, table = dimension_report(n, m), weight_table(n, m)
    weights = enumerate_weights(n, m)
    assert len(report.dims) == len(weights)
    tops = [max(a.rotate(k).components for k in range(n)) for a in weights]
    assert len(set(table.orbit)) == len(set(tops))
    for k, a in enumerate(weights):
        assert report.dims[k] == qdim_weight(a) == report.dims[table.orbit[k]]
        assert table.orbit[table.position[a.rotate().components]] == table.orbit[k]
        assert all(table.orbit[j] == table.orbit[k] for j in range(k) if tops[j] == tops[k])
    for i in range(n):
        expected = sum(qdim_weight(a) ** 2 for a in enumerate_graded(n, m, i))
        assert report.graded[i] == graded_dim(n, m, i) == expected
    assert report.total == category_dim(n, m) == sum(qdim_weight(a) ** 2 for a in weights)


@pytest.mark.parametrize("n,m", [(0, 3), (0, 0), (1, 4)])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_qdim_partition_rejects_rank_below_two(n, m, backend):
    with pytest.raises(ValueError, match="rank must be at least 2"):
        qdim_partition(Partition(()), n, m, backend=backend)
