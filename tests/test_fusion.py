from itertools import combinations, permutations

import pytest

from levelrank import fusion, symfunc
from levelrank.fusion import (
    Decomposition,
    _fold_into_alcove,
    fuse,
    fuse_decompositions,
    fusion_coefficient,
    grading_violations,
    rotation_check,
    verlinde_check,
    _sort_sign,
)
from levelrank.qdim import qdim_weight
from levelrank.weights import LevelWeight, enumerate_weights, from_partition
from levelrank.partitions import Partition


def test_unit_object():
    v = LevelWeight.vacuum(3, 2)
    for b in enumerate_weights(3, 2):
        assert fuse(v, b).terms == {b: 1}


def test_su2_level2_golden():
    """Middle object squares to the sum of the two invertibles; checked
    independently against the S-matrix in test_verlinde below."""
    d = fuse(LevelWeight((1, 1)), LevelWeight((1, 1)))
    assert d.terms == {LevelWeight((2, 0)): 1, LevelWeight((0, 2)): 1}


@pytest.mark.parametrize("N", range(2, 9))
def test_level_one_fusion_is_cyclic(N):
    for i in range(N):
        for j in range(N):
            d = fuse(LevelWeight.fundamental(N, i), LevelWeight.fundamental(N, j))
            assert d.terms == {LevelWeight.fundamental(N, (i + j) % N): 1}


def test_rank_level_mismatch_rejected():
    with pytest.raises(ValueError):
        fuse(LevelWeight((1, 1)), LevelWeight((1, 1, 0)))
    with pytest.raises(ValueError):
        fuse(LevelWeight((1, 1)), LevelWeight((2, 1)))


def test_commutativity():
    ws = enumerate_weights(3, 2)
    for a in ws:
        for b in ws:
            assert fuse(a, b) == fuse(b, a)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_associativity(n, m):
    ws = enumerate_weights(n, m)
    for a in ws:
        for b in ws:
            ab = fuse(a, b)
            for c in ws:
                assert fuse_decompositions(ab, c) == fuse_decompositions(fuse(b, c), a)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4), (3, 4)])
def test_grading(n, m):
    assert grading_violations(n, m) == []


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3), (2, 5)])
def test_exact_dimension_multiplicativity(n, m):
    ws = enumerate_weights(n, m)
    for a in ws:
        for b in ws:
            assert fuse(a, b).total_qdim() == qdim_weight(a) * qdim_weight(b)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)])
def test_rotation_fusion(n, m):
    for a in enumerate_weights(n, m):
        assert rotation_check(a)


def test_rotation_of_vacuum_is_sigma():
    # the invertible object itself: vacuum rotated once
    n, m = 4, 3
    sigma = from_partition(Partition((m,)), n, m)
    d = fuse(sigma, LevelWeight.vacuum(n, m))
    assert d.terms == {LevelWeight.vacuum(n, m).rotate(1): 1}
    assert LevelWeight.vacuum(n, m).rotate(1).components == (0, m) + (0,) * (n - 2)


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3)])
def test_vacuum_multiplicity_in_dual_pairing(n, m):
    v = LevelWeight.vacuum(n, m)
    for a in enumerate_weights(n, m):
        dec = fuse(a, a.dual())
        assert dec.multiplicity(v) == 1
        for b in enumerate_weights(n, m):
            if b != a.dual():
                assert fuse(a, b).multiplicity(v) == 0


def test_vacuum_row_coefficients():
    ws = enumerate_weights(2, 3)
    v = LevelWeight.vacuum(2, 3)
    for b in ws:
        for c in ws:
            assert fusion_coefficient(v, b, c) == (1 if b == c else 0)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4)])
def test_verlinde(n, m):
    verdict = verlinde_check(n, m)
    assert verdict.holds, verdict


def test_verlinde_reports_a_wrong_coefficient(monkeypatch):
    """One fusion coefficient off by one is a counterexample naming its
    pair, not an exception."""
    import levelrank.fusion as fusion_module

    a, b = LevelWeight((1, 1, 0)), LevelWeight((1, 0, 1))
    bumped = LevelWeight((0, 1, 1))

    def wrong_fuse(x, y):
        dec = fuse(x, y)
        if {x, y} == {a, b}:
            terms = dict(dec.terms)
            terms[bumped] = terms.get(bumped, 0) + 1
            return Decomposition(x.rank, x.level, terms)
        return dec

    monkeypatch.setattr(fusion_module, "fuse", wrong_fuse)
    verdict = verlinde_check(3, 2)
    assert not verdict.holds
    x, y, d, lhs, rhs = verdict.counterexample
    assert {x, y} == {a, b}
    assert lhs != rhs


def test_decomposition_rejects_bad_terms():
    with pytest.raises(ValueError):
        Decomposition(2, 2, {LevelWeight((1, 1)): 0})
    with pytest.raises(ValueError):
        Decomposition(2, 2, {LevelWeight((1, 1, 0)): 1})


def test_decomposition_json_order_is_canonical():
    d = fuse(LevelWeight((1, 1)), LevelWeight((1, 1)))
    assert d.to_json() == [
        {"weight": [2, 0], "multiplicity": 1},
        {"weight": [0, 2], "multiplicity": 1},
    ]


def test_concurrent_fusion_cache():
    from concurrent.futures import ThreadPoolExecutor

    ws = enumerate_weights(3, 3)
    pairs = [(a, b) for a in ws for b in ws]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda p: fuse(*p), pairs))
    for (a, b), dec in zip(pairs, results):
        assert dec == fuse(a, b)


def test_sort_sign_is_the_parity_of_the_inversions():
    for size in range(6):
        for seq in permutations(range(size)):
            inversions = sum(seq[i] < seq[j] for i in range(size) for j in range(i + 1, size))
            assert _sort_sign(list(seq)) == (-1) ** inversions, seq


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_alcove_weight_matches_the_partition_route(n, m):
    """Every strictly decreasing y in 0..n+m-1 is an alcove point (its spread
    is below n+m), which folding leaves in place; the weight read off it
    must agree with un-shifting, stripping full columns and from_partition."""
    kappa = n + m
    seen = set()
    for chosen in combinations(range(kappa), n):
        y = sorted(chosen, reverse=True)
        lam_parts = [y[i] - (n - 1 - i) for i in range(n)]
        lam = Partition([p - lam_parts[-1] for p in lam_parts])
        sign, w = _fold_into_alcove(y, kappa)
        assert (sign, w) == (1, from_partition(lam, n, m)), y
        seen.add(w)
    assert seen == set(enumerate_weights(n, m))


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2)])
def test_fuse_expands_each_unordered_pair_once(n, m, monkeypatch):
    """From cold caches, fusing every ordered pair calls lr_expand once per
    unordered pair: the second order of a pair is a fusion-cache hit."""
    fusion._fuse_terms.cache_clear()
    symfunc._lr_strip_states.cache_clear()
    calls = []
    true_lr_expand = fusion.lr_expand

    def counted(lam, mu, nvars=None):
        calls.append((lam, mu))
        return true_lr_expand(lam, mu, nvars)

    monkeypatch.setattr(fusion, "lr_expand", counted)
    ws = enumerate_weights(n, m)
    for a in ws:
        for b in ws:
            fuse(a, b)
    assert len(calls) == len(ws) * (len(ws) + 1) // 2
