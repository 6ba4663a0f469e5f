from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelrank.fusion import fuse
from levelrank.partitions import Partition, enumerate_rectangle
from levelrank.qdim import qdim_partition
from levelrank.weights import (
    LevelWeight,
    _fold_into_alcove,
    enumerate_graded,
    enumerate_weights,
    from_partition,
    parse_components,
    tau,
    tau_from_partition,
    weight_table,
)


def test_from_partition_golden():
    assert from_partition(Partition((2, 1, 1)), 6, 3).components == (1, 1, 0, 1, 0, 0)
    assert from_partition(Partition(), 4, 7) == LevelWeight.vacuum(4, 7)
    # evaluate the defining formula by hand for (3,1) at rank 3 level 6:
    # (6-3+0, 3-1, 1-0)
    assert from_partition(Partition((3, 1)), 3, 6).components == (3, 2, 1)


def test_from_partition_rejects_outside_rectangle():
    with pytest.raises(ValueError):
        from_partition(Partition((4,)), 3, 3)
    with pytest.raises(ValueError):
        from_partition(Partition((1, 1, 1, 1)), 3, 6)


def test_to_partition_golden():
    assert LevelWeight((1, 0, 0, 1, 1, 0)).to_partition() == Partition((2, 2, 2, 1))
    assert LevelWeight.vacuum(5, 2).to_partition() == Partition()
    assert LevelWeight((4, 6)).to_partition() == Partition((6,))


def test_size_formula():
    # |partition of a| equals sum of i * a_i
    for a in enumerate_weights(4, 3):
        assert a.to_partition().size == sum(i * c for i, c in enumerate(a.components))


def test_degree_golden():
    assert LevelWeight((3, 2, 1)).degree() == 1  # partition size 4, mod 3
    assert LevelWeight.vacuum(6, 4).degree() == 0


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(0, 7))
def test_degree_is_the_partition_size_mod_the_rank(n, m):
    for a in enumerate_weights(n, m):
        assert a.degree() == a.to_partition().size % n, a


@st.composite
def _components(draw, n, m):
    """The components of a rank-n level-m weight: the gaps between n - 1
    sorted cuts of [0, m]."""
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [m]))


def _assert_degree(w: LevelWeight) -> None:
    """The first and the second ``degree()`` of ``w`` are both the size of
    its partition mod its rank."""
    want = w.to_partition().size % w.rank
    assert w.degree() == want, w
    assert w.degree() == want, w


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_degree_is_right_on_every_route_before_and_after_it_is_kept(data):
    """Each route builds a fresh object, so its first ``degree()`` computes
    the value and the second reads it back."""
    n, m = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 5))
    comps = data.draw(_components(n, m))
    lam = LevelWeight(comps).to_partition()
    built = [
        LevelWeight(comps),
        LevelWeight._unchecked(comps),
        LevelWeight(comps).rotate(data.draw(st.integers(-7, 7))),
        LevelWeight(comps).dual(),
        from_partition(lam, n, m),
    ]
    if m >= 2:
        built += [tau(LevelWeight(comps), i) for i in range(lam.size % n, n * m, n)]
    built += fuse(LevelWeight(comps), LevelWeight(data.draw(_components(n, m)))).terms
    for w in built:
        _assert_degree(w)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(0, 6))
def test_weight_table_degrees_are_the_weights_own(n, m):
    table = weight_table(n, m)
    for p, a in enumerate(table.weights):
        assert table.degree[p] == a.degree() == a.to_partition().size % n, a


@pytest.mark.parametrize("n,m", [(3, 4), (4, 3), (2, 5)])
def test_degree_shifts_under_rotation(n, m):
    for a in enumerate_weights(n, m):
        assert a.rotate(1).degree() == (a.degree() + m) % n


def test_rotate_golden():
    assert LevelWeight((1, 1, 0, 1, 0, 0)).rotate(3).components == (1, 0, 0, 1, 1, 0)
    a = LevelWeight((2, 0, 1))
    assert a.rotate(0) == a
    assert a.rotate(3) == a
    assert LevelWeight((1, 0, 0, 0, 0, 0, 1, 0, 0, 0)).rotate(-3).components == (
        0, 0, 0, 1, 0, 0, 0, 1, 0, 0)


def test_rank_one_rejected():
    with pytest.raises(ValueError):
        LevelWeight((3,))


def test_non_integral_components_are_rejected_by_name():
    with pytest.raises(ValueError, match="components must be integers, got 1.5"):
        LevelWeight([1.5, 0.5])
    assert LevelWeight([2.0, 0]).components == (2, 0)


def test_dual():
    assert LevelWeight((1, 0, 0, 1, 1, 0)).dual().components == (1, 0, 1, 1, 0, 0)
    v = LevelWeight.vacuum(5, 3)
    assert v.dual() == v
    for a in enumerate_weights(4, 3):
        assert a.dual().dual() == a


def test_tau_golden_chain():
    """Rank 3 level 6, class 13: the four-arrow chain ending at (2,2,2,1)."""
    a = from_partition(Partition((3, 1)), 3, 6)
    image = tau(a, 13)
    assert image.components == (1, 0, 0, 1, 1, 0)
    assert image.to_partition() == Partition((2, 2, 2, 1))


def test_tau_vacuum_fixed():
    assert tau(LevelWeight.vacuum(4, 5), 0) == LevelWeight.vacuum(5, 4)


def test_tau_xu_example():
    assert tau(LevelWeight((4, 6)), 0).components == (0, 0, 0, 1, 0, 0, 0, 1, 0, 0)


def test_tau_rejects_wrong_class():
    a = from_partition(Partition((3, 1)), 3, 6)  # degree 1
    with pytest.raises(ValueError):
        tau(a, 9)


def test_tau_depends_on_class_mod_nm():
    a = from_partition(Partition((3, 1)), 3, 6)
    assert tau(a, 13) == tau(a, 13 + 18) == tau(a, 13 - 18)


SMALL = [(n, m) for n in range(2, 7) for m in range(2, 7)]


@pytest.mark.parametrize("n,m", SMALL)
def test_tau_involution_and_bijection(n, m):
    for i in range(n * m):
        cls = enumerate_graded(n, m, i)
        images = {tau(a, i) for a in cls}
        assert images == set(enumerate_graded(m, n, i))
        for a in cls:
            b = tau(a, i)
            assert b.degree() == i % m
            assert tau(b, i) == a


@pytest.mark.parametrize("n,m", SMALL)
def test_weight_table_reads_every_tau_off_one_column(n, m):
    """The table's tau column, rotated t times through the (m, n) table, is
    tau(a, deg a + t*n) for every weight a and every t < m; its index,
    class, rotation and orbit columns agree with the weights, each orbit
    entry the position of the first weight with the same top rotation."""
    table, dual = weight_table(n, m), weight_table(m, n)
    assert table.weights is enumerate_weights(n, m)
    for p, a in enumerate(table.weights):
        assert table.position[a.components] == p
        assert p in table.classes[a.degree()]
        assert table.weights[table.rotation[p]] == a.rotate()
        q = table.tau[p]
        for i in range(a.degree(), n * m, n):
            assert dual.weights[q] == tau(a, i)
            q = dual.rotation[q]
    assert all(table.graded[i] == tuple(table.weights[p] for p in table.classes[i])
               for i in range(n))
    tops = [max(a.rotate(k).components for k in range(n)) for a in table.weights]
    first = {}
    assert table.orbit == tuple(first.setdefault(top, p) for p, top in enumerate(tops))
    assert all(table.orbit[o] == o for o in table.orbit)


def test_weight_table_below_level_two_has_no_tau_column():
    assert weight_table(4, 1).tau == weight_table(3, 0).tau == ()
    assert len(weight_table(4, 1).weights) == 4


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 2)])
def test_tau_preimage_independence(n, m):
    for lam in enumerate_rectangle(n, m):
        a = from_partition(lam, n, m)
        for i in range(lam.size % n, n * m, n):
            assert tau_from_partition(lam, n, m, i) == tau(a, i)


@pytest.mark.parametrize("n,m", SMALL)
def test_tau_agrees_with_the_transpose_route(n, m):
    """The histogram of row lengths mod m, rotated, is the weight of the
    transposed partition, rotated: on every class, and with the same
    degree-mismatch error off it."""
    for a in enumerate_weights(n, m):
        lam = a.to_partition()
        for i in range(n * m):
            if (i - lam.size) % n == 0:
                assert tau(a, i) == tau_from_partition(lam, n, m, i)
                continue
            with pytest.raises(ValueError) as direct:
                tau(a, i)
            with pytest.raises(ValueError) as oracle:
                tau_from_partition(lam, n, m, i)
            assert str(direct.value) == str(oracle.value)
            assert str(direct.value).startswith("degree mismatch")


@pytest.mark.parametrize("a", [LevelWeight((1, 0, 0)), LevelWeight((0, 1)),
                               LevelWeight((0, 0, 0, 0))])
def test_tau_rejects_level_below_two(a):
    for i in range(3):
        with pytest.raises(ValueError, match="tau needs level at least 2"):
            tau(a, i)


def _assert_validated(w: LevelWeight, n: int, m: int) -> None:
    """``w`` equals, and hashes like, the validating constructor's weight."""
    twin = LevelWeight(w.components)
    assert w == twin and hash(w) == hash(twin)
    assert type(w.components) is tuple
    assert all(type(c) is int for c in w.components)
    assert (w.rank, w.level) == (n, m)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(2, 6))
def test_unchecked_sites_build_validated_weights(n, m):
    """Every internal site that skips validation gives the weight the public
    constructor would."""
    for a in enumerate_weights(n, m):
        _assert_validated(a, n, m)
        _assert_validated(a.dual(), n, m)
        for k in range(-1, n + 1):
            _assert_validated(a.rotate(k), n, m)
        lam = a.to_partition()
        for i in range(lam.size % n, n * m, n):
            _assert_validated(tau(a, i), m, n)
    kappa = n + m
    for lam in enumerate_rectangle(n, 2 * m):  # reaches past the alcove
        if lam.fits_in(n, m):  # includes the partitions with n rows
            _assert_validated(from_partition(lam, n, m), n, m)
        padded = lam.padded(n)
        folded = _fold_into_alcove([padded[i] + n - 1 - i for i in range(n)], kappa)
        if folded is not None:
            _assert_validated(LevelWeight._unchecked(folded[1]), n, m)


def test_from_partition_rejects_rank_below_two():
    with pytest.raises(ValueError, match="rank must be at least 2"):
        from_partition(Partition((2,)), 1, 3)


def test_a_negative_level_is_rejected_by_name():
    """The empty partition fits in every rectangle, so only the level check
    stops it from becoming the weight (-1, 0)."""
    with pytest.raises(ValueError, match="level must be non-negative"):
        from_partition(Partition(), 2, -1)
    with pytest.raises(ValueError, match="level must be non-negative"):
        qdim_partition(Partition(), 2, -1)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 3), (5, 5)])
def test_w_after_d_is_identity(n, m):
    for a in enumerate_weights(n, m):
        assert from_partition(a.to_partition(), n, m) == a


@pytest.mark.parametrize("n,m", [(4, 3), (5, 4)])
def test_tau_commutes_with_dual(n, m):
    for a in enumerate_graded(n, m, 0):
        assert tau(a.dual(), 0) == tau(a, 0).dual()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(1, 7))
def test_weight_count(n, m):
    assert len(enumerate_weights(n, m)) == comb(n + m - 1, n - 1)
    union = sum(len(enumerate_graded(n, m, i)) for i in range(n))
    assert union == comb(n + m - 1, n - 1)


def test_graded_class_two_two():
    assert {a.components for a in enumerate_graded(2, 2, 0)} == {(2, 0), (0, 2)}


def test_level_one_weights():
    for N in (4, 6, 9):
        ws = enumerate_weights(N, 1)
        assert {w.components for w in ws} == {LevelWeight.fundamental(N, i).components for i in range(N)}
        for i in range(N):
            assert LevelWeight.fundamental(N, i).degree() == i % N


def test_canonical_order_starts_at_vacuum():
    assert enumerate_weights(3, 5)[0] == LevelWeight.vacuum(3, 5)
    for n, m in [(2, 4), (3, 5), (4, 3), (5, 0), (6, 2)]:
        ws = enumerate_weights(n, m)
        assert list(ws) == sorted(ws) and len(set(ws)) == len(ws)
        assert all(min(a.components) >= 0 and a.level == m and a.rank == n for a in ws)


def _compositions(m: int, slots: int, prefix: tuple = ()):
    """Compositions of m into ``slots`` parts, largest first part first: the
    recursion that defines the canonical order."""
    if slots == 1:
        yield prefix + (m,)
        return
    for c in range(m, -1, -1):
        yield from _compositions(m - c, slots - 1, prefix + (c,))


@pytest.mark.parametrize("n", range(2, 9))
def test_enumeration_matches_the_recursive_compositions(n):
    for m in range(0, 9):
        assert [a.components for a in enumerate_weights(n, m)] == list(_compositions(m, n))


def test_parse_weight():
    assert LevelWeight(parse_components("[1,0,0,1,1,0]")).components == (1, 0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        LevelWeight(parse_components("[]"))
    with pytest.raises(ValueError):
        LevelWeight(parse_components("[1,x]"))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=7))
def test_parse_weight_round_trips_str(components):
    w = LevelWeight(components)
    assert LevelWeight(parse_components(str(w))) == w
