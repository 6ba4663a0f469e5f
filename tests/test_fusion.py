import hashlib
import json
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelrank import fusion, smatrix, symfunc, verify
from levelrank.cli import main
from levelrank.fusion import (
    Decomposition,
    _fold_lr,
    fuse,
    fusion_coefficient,
    grading_violations,
    rotation_check,
    verlinde_check,
)
from levelrank.qdim import qdim_weight
from levelrank.weights import (LevelWeight, _fold_into_alcove, _sort_sign, enumerate_weights,
                               from_partition, top_rotation, weight_table)
from levelrank.partitions import Partition, enumerate_rectangle

from fusion_oracles import fuse_decompositions, total_qdim


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
            assert total_qdim(fuse(a, b)) == qdim_weight(a) * qdim_weight(b)


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


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 4), (4, 3), (4, 4), (5, 2)])
def test_frobenius_reciprocity(n, m):
    # N_ab^c = N_{a c*}^{b*} over every triple
    ws = enumerate_weights(n, m)
    products = {(a, b): fuse(a, b) for a in ws for b in ws}
    for a, b, c in product(ws, repeat=3):
        assert products[a, b].multiplicity(c) == products[a, c.dual()].multiplicity(b.dual())


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


def test_a_vanishing_m0d_is_an_error_not_a_counterexample(monkeypatch, capsys):
    """After ``s_matrix`` has proved M unitary, the packed M_0d of the last
    representative column d is forced to zero: ``verlinde_check`` raises,
    and ``levelrank verify verlinde`` prints an ERROR record and exits 3."""
    build, fill = fusion.s_matrix, smatrix._fill_cells

    def zeroing(sources, rep_hists, conductor, make):
        matrix = fill(sources, rep_hists, conductor, make)
        d = max(r for r, (q, _, _) in enumerate(sources) if q == r)
        matrix[0][d] = matrix[d][0] = make([0] * conductor)
        return matrix

    def s_matrix_then_zero(n, m):
        monkeypatch.setattr(smatrix, "_fill_cells", fill)
        data = build(n, m)
        monkeypatch.setattr(smatrix, "_fill_cells", zeroing)
        return data

    monkeypatch.setattr(fusion, "s_matrix", s_matrix_then_zero)
    with pytest.raises(ArithmeticError, match=r"M_0d vanishes at d = \[0,3,0\]"):
        verlinde_check(3, 3)
    assert main(["verify", "verlinde"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("[PASS]", "[FAIL]", "[ERROR]"))] == [
        "[ERROR] verlinde: raised  (ArithmeticError: M_0d vanishes at d = [1,1])"]


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
        assert (sign, w) == (1, from_partition(lam, n, m).components), y
        seen.add(w)
    assert seen == {a.components for a in enumerate_weights(n, m)}


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_in_alcove_read_matches_the_fold(n, m, monkeypatch):
    """Fed one nu at a time, for every nu of at most n rows with nu_0 <=
    2(n + m), in the alcove (spread of nu + delta below n + m) or not,
    _fold_lr must give what _fold_into_alcove gives on nu + delta: the same
    weight with sign +1, nothing on a wall, and a sign of -1 is a negative
    multiplicity."""
    kappa = n + m
    term = {}
    monkeypatch.setattr(fusion, "lr_expand", lambda lam, mu, nvars=None: term)
    a = LevelWeight.vacuum(n, m)
    direct = 0
    for nu in enumerate_rectangle(n, 2 * kappa):
        term = {nu: 1}
        y = [p + n - 1 - i for i, p in enumerate(nu.padded(n))]
        direct += y[0] - y[-1] < kappa
        folded = _fold_into_alcove(y, kappa)
        if folded is None:
            assert _fold_lr(a, a) == {}, nu
        elif folded[0] == 1:
            assert _fold_lr(a, a) == {LevelWeight(folded[1]): 1}, nu
        else:
            with pytest.raises(AssertionError, match="negative fusion multiplicity"):
                _fold_lr(a, a)
    assert 0 < direct < len(enumerate_rectangle(n, 2 * kappa))


def test_grading_reports_a_term_outside_the_weights(monkeypatch):
    """A term of another rank is reported by its own degree, 2 here, which
    no rank-2 sum reaches, once per pair of orbit representatives, the
    first members [2,0] and [1,1] of the orbits {[2,0], [0,2]} and {[1,1]}
    of (2, 2)."""
    stray = LevelWeight((0, 0, 1))
    monkeypatch.setattr(fusion, "fuse", lambda a, b: Decomposition._unchecked(2, 2, {stray: 1}))
    v, j = LevelWeight((2, 0)), LevelWeight((1, 1))
    assert grading_violations(2, 2) == [(v, v, stray), (v, j, stray), (j, j, stray)]


@pytest.fixture
def cold_fusion():
    """A cold fusion memo, cleared again afterwards so that no patched
    product outlives the test."""
    fusion._fuse_terms.cache_clear()
    yield
    fusion._fuse_terms.cache_clear()


@pytest.mark.parametrize("n,m,pairs", [(4, 4, 55), (5, 5, 351)])
def test_grading_fuses_one_pair_per_unordered_pair_of_orbits(n, m, pairs, monkeypatch,
                                                             cold_fusion):
    """10 orbits at (4, 4) and 26 at (5, 5); each product is a cold miss."""
    orbits = len(set(weight_table(n, m).orbit))
    assert orbits * (orbits + 1) // 2 == pairs
    calls = []
    true_fuse = fusion.fuse
    monkeypatch.setattr(fusion, "fuse", lambda a, b: calls.append((a, b)) or true_fuse(a, b))
    assert grading_violations(n, m) == []
    assert len(calls) == len(set(calls)) == pairs
    assert fusion._fuse_terms.cache_info().misses == pairs
    orbit = dict(zip(weight_table(n, m).weights, weight_table(n, m).orbit))
    assert len({frozenset((orbit[a], orbit[b])) for a, b in calls}) == pairs


def test_grading_suite_fails_on_an_off_grade_term_of_one_orbit_pair(monkeypatch, cold_fusion):
    """An off-grade term in the product of one pair of orbits of (3, 3),
    whichever members reach the plain route, is seen once."""
    table = weight_table(3, 3)
    orbit = dict(zip(table.weights, table.orbit))
    true_fold = fusion._fold_positions

    def fold(lam, mu, n, m):
        terms = true_fold(lam, mu, n, m)
        a, b = from_partition(lam, n, m), from_partition(mu, n, m)
        if {orbit.get(a), orbit.get(b)} == {1, 2}:
            want = (a.degree() + b.degree()) % 3
            terms[next(p for p, d in enumerate(table.degree) if d != want)] = 1
        return terms

    monkeypatch.setattr(fusion, "_fold_positions", fold)
    failing = [r.line() for r in verify.suite_grading(bound=3) if not r]
    assert failing == ["[FAIL] grading: n=3 m=3  (1 violations)"]


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


@pytest.mark.parametrize("n,m", [(5, 4), (4, 5), (6, 3), (3, 6), (4, 4), (6, 2), (2, 6), (3, 3)])
def test_fuse_by_orbit_representatives_matches_the_plain_route(n, m):
    """fuse LR-expands the cheapest rotations of its factors and rotates the
    terms back; LR and fold of the pair as given must agree, for every
    ordered pair. Where gcd(n, m) > 1 some orbits are shorter than n."""
    ws = enumerate_weights(n, m)
    for a in ws:
        for b in ws:
            assert fuse(a, b).terms == _fold_lr(a, b), (a, b)


@pytest.mark.parametrize("n,m,digest", [
    (5, 4, "6bc92e46c75868122c79ebb278129d57b5f761783c98a4469a32aeb7a1572ff7"),
    (4, 5, "bcfc8ae2882d4c4d96a09f6199a39ce6c9a76227e738f97a9d232cc27d8dd72c"),
    (6, 3, "bde91d12a92ce41b7fafd59ba7478a2290ad7220316b55c71fd362871f6eee5f"),
    (3, 6, "7f01ab4028e85ad620be4c897a1945d7c6d75d690e4da11711f726faf20f3635"),
    (6, 4, "f0cd59ae0f637d1400f118b1edc2fe13a4c09c8430f2eb8cb0a87eef7a3ec5db"),
    (3, 3, "a26cc699df5d8c71f323e20791626d0d1474c64d94c12f0ea237673c88bde132"),
    (2, 6, "ac4f3dad8c63481b1f8de439d52d2d3717bec7578e64d7d291ea852172020311"),
])
def test_every_ordered_product_matches_its_pinned_digest(n, m, digest):
    """sha256 of the JSON list of [a, b, sorted terms of fuse(a, b)] over
    every ordered pair in canonical order, each term a [components,
    multiplicity] pair. The digests were taken when every LR term was folded
    on its own and each term rotated back as a weight."""
    ws = enumerate_weights(n, m)
    rows = [[a.components, b.components,
             sorted((w.components, c) for w, c in fuse(a, b).terms.items())]
            for a in ws for b in ws]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(0, 7))
def test_top_rotation_is_the_first_weight_of_its_orbit(n, m):
    """The representative is the largest rotation, k is the smallest power
    of the rotation that gives it, and it is the first weight of its orbit
    id in the table."""
    table = weight_table(n, m)
    first = {}
    for p, o in enumerate(table.orbit):
        first.setdefault(o, p)
    for a, o in zip(table.weights, table.orbit):
        k, top = top_rotation(a.components)
        rotations = [a.rotate(j).components for j in range(n)]
        assert top == max(rotations), a
        assert 0 <= k < n and rotations[k] == top and top not in rotations[:k], a
        assert table.weights[first[o]].components == top, a


@pytest.mark.parametrize("comps, k", [
    ((1, 0, 1, 0), 0), ((0, 1, 0, 1), 1), ((2, 2), 0), ((0, 1, 1, 0, 1, 1), 2),
    ((0, 0, 1, 0, 0, 1), 1),
])
def test_top_rotation_of_a_periodic_weight_takes_the_smallest_power(comps, k):
    """A weight fixed by a rotation reaches its top at several powers; the
    smallest is the one returned."""
    assert top_rotation(comps) == (k, LevelWeight(comps).rotate(k).components)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plain_route_is_rotation_covariant(data):
    """N_{sigma^k a, sigma^l b}^{sigma^(k+l) c} = N_ab^c, on the route that
    does not assume it."""
    n, m = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5))
    ws = enumerate_weights(n, m)
    a, b = data.draw(st.sampled_from(ws)), data.draw(st.sampled_from(ws))
    k, l = data.draw(st.integers(-10, 10)), data.draw(st.integers(-10, 10))
    assert _fold_lr(a.rotate(k), b.rotate(l)) == {
        w.rotate(k + l): c for w, c in _fold_lr(a, b).items()}


def test_rotation_and_level1_suites_do_not_use_the_orbit_route():
    """Both suites check the covariance that fuse assumes, so neither may
    read or fill the fusion memo."""
    fusion._fuse_terms.cache_clear()
    cold = fusion._fuse_terms.cache_info()
    assert all(verify.suite_rotation()) and all(verify.suite_level1())
    assert fusion._fuse_terms.cache_info() == cold


@st.composite
def _shifted_vectors(draw):
    """(y, kappa): n integer coordinates, any order, and kappa = n + m."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    kappa = n + m
    y = draw(st.lists(st.integers(-3 * kappa, 3 * kappa), min_size=n, max_size=n))
    return y, kappa


@settings(max_examples=200, deadline=None)
@given(_shifted_vectors())
def test_fold_is_deterministic_and_lands_on_rank_n_level_m(case):
    y, kappa = case
    before = list(y)
    folded = _fold_into_alcove(y, kappa)
    assert y == before
    assert _fold_into_alcove(list(y), kappa) == folded
    if folded is not None:
        sign, comps = folded
        assert sign in (1, -1)
        assert len(comps) == len(y) and sum(comps) == kappa - len(y)
        assert min(comps) >= 0


@settings(max_examples=200, deadline=None)
@given(_shifted_vectors(), st.data())
def test_fold_is_constant_on_affine_weyl_orbits(case, data):
    """Translating by kappa * (e_i - e_j), or every coordinate by a constant,
    keeps (sign, weight); a permutation multiplies the sign by its own."""
    y, kappa = case
    n = len(y)
    folded = _fold_into_alcove(y, kappa)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(-2 * kappa, 2 * kappa))
    moved = list(y)
    moved[i] += kappa
    moved[j] -= kappa
    assert _fold_into_alcove(moved, kappa) == folded
    assert _fold_into_alcove([x + c for x in y], kappa) == folded
    perm = data.draw(st.permutations(range(n)))
    permuted = _fold_into_alcove([y[p] for p in perm], kappa)
    if folded is None:
        assert permuted is None
    else:
        assert permuted == (folded[0] * _sort_sign([-p for p in perm]), folded[1])


@settings(max_examples=100, deadline=None)
@given(_shifted_vectors(), st.data())
def test_fold_drops_a_repeated_coordinate(case, data):
    y, kappa = case
    i, j = data.draw(st.permutations(range(len(y))))[:2]
    y[j] = y[i]
    assert _fold_into_alcove(y, kappa) is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fold_drops_a_spread_of_exactly_kappa(data):
    n, m = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 6))
    kappa, low = n + m, data.draw(st.integers(-20, 20))
    inner = data.draw(st.lists(st.integers(low + 1, low + kappa - 1), unique=True,
                               min_size=n - 2, max_size=n - 2))
    y = data.draw(st.permutations([low + kappa, low] + inner))
    assert _fold_into_alcove(list(y), kappa) is None


def test_sort_sign_with_ties_counts_only_strict_inversions():
    """The sort is stable, so tied entries keep their order and only strictly
    increasing pairs count; the fold then finds the tie and drops the vector."""
    for size in range(2, 6):
        for seq in product(range(3), repeat=size):
            inversions = sum(seq[i] < seq[j] for i in range(size) for j in range(i + 1, size))
            assert _sort_sign(list(seq)) == (-1) ** inversions, seq
            if len(set(seq)) < size:
                assert _fold_into_alcove(list(seq), size + 3) is None, seq
