"""Memo tables: every one is a ``functools.cache`` on a canonical key, its
results are safe to mutate, and clearing them all changes no verdict."""

import gc
import pkgutil
from collections import Counter
from functools import cache
from importlib import import_module

import levelrank
from levelrank import branching, fusion, partitions, qdim, smatrix, symfunc, verify, weights
from levelrank.branching import verify_exhaustion
from levelrank.cyclotomic import conductor_for, qint
from levelrank.fusion import fuse
from levelrank.partitions import Partition
from levelrank.qdim import graded_dim
from levelrank.symfunc import lr_expand, schur
from levelrank.weights import LevelWeight, enumerate_graded, enumerate_weights, tau

MEMO_TABLES = {
    "branching._paired_sum",
    "cyclotomic.cyclotomic_polynomial",
    "fusion._alcove_term",
    "fusion._fuse_terms",
    "fusion._orbit_representative",
    "partitions.enumerate_rectangle",
    "qdim._qdim_exact",
    "qdim._weyl_denominator_inverse",
    "qdim.dimension_report",
    "symfunc._lr_strip_states",
    "symfunc._schur",
    "weights.weight_table",
}


def _modules():
    return [levelrank] + [import_module(f"levelrank.{info.name}")
                          for info in pkgutil.iter_modules(levelrank.__path__)]


def _memo_tables():
    """Every cached function defined in the package, by module-qualified name."""
    found = {}
    for mod in _modules():
        for name, value in vars(mod).items():
            if hasattr(value, "cache_clear") and value.__module__ == mod.__name__:
                found[f"{mod.__name__.rsplit('.', 1)[1]}.{name}"] = value
    return found


def test_memo_inventory():
    """No module keeps a dict as a hand-rolled memo: the only module-level
    dict is the suite registry, and the cached functions are exactly the
    known memo tables."""
    dicts = {f"{mod.__name__}.{name}" for mod in _modules()
             for name, value in vars(mod).items()
             if isinstance(value, dict) and not name.startswith("__")}
    assert dicts == {"levelrank.verify.SUITES"}
    assert set(_memo_tables()) == MEMO_TABLES


def test_cold_caches_give_the_warm_verdicts():
    names = list(verify.SUITES)
    warm = verify.run_suites(names, bound=3)
    for table in _memo_tables().values():
        table.cache_clear()
    assert all(t.cache_info().currsize == 0 for t in _memo_tables().values())
    assert verify.run_suites(names, bound=3) == warm


def test_suites_leave_no_cyclic_garbage():
    """From cold memo tables, every suite at bound 3 frees all it made by
    reference counting: with the cyclic collector off for the run, a
    collection afterwards finds nothing to collect. Cardinality reaches
    ``partitions.rectangle_parts``, level1, rotation and grading reach
    ``symfunc._strips``, and cauchy reaches ``symfunc._schur``."""
    for table in _memo_tables().values():
        table.cache_clear()
    gc.collect()
    gc.disable()
    try:
        verify.run_suites(list(verify.SUITES), bound=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_graded_tables_are_keyed_on_the_class_mod_n():
    for n, m in [(2, 3), (3, 3), (4, 2)]:
        for i in range(n):
            assert enumerate_graded(n, m, i) is enumerate_graded(n, m, i + n)
            assert enumerate_graded(n, m, i) is enumerate_graded(n, m, i - 3 * n)
            assert graded_dim(n, m, i) is graded_dim(n, m, i + n)


def test_one_hook_content_product_per_rotation_orbit(monkeypatch):
    """From cold caches, the exhaustion sweep at (6, 6) computes each exact
    quantum dimension (a Weyl product) once per rotation orbit, not once per
    weight, and calls ``tau`` once per weight."""
    n = m = 6
    orbits = {max(a.rotate(k).components for k in range(n)) for a in enumerate_weights(n, m)}
    for table in _memo_tables().values():
        table.cache_clear()
    calls = []
    monkeypatch.setattr(weights, "tau", lambda a, i: calls.append(a) or tau(a, i))
    assert all(verify_exhaustion(n, m, i) for i in range(n * m))
    assert sorted(calls) == sorted(enumerate_weights(n, m))
    assert qdim._qdim_exact.cache_info().misses == len(orbits) < len(enumerate_weights(n, m))


def test_one_product_per_orbit_pair_in_the_exhaustion_sweep(monkeypatch):
    """From cold caches, ``suite_exhaustion(6)`` forms each product of an
    orbit pair (orbit of a, orbit of tau_i(a)) at most once per (n, m): the
    terms that the paired sums hand to ``packed_sums`` number the distinct
    orbit pairs."""
    for table in _memo_tables().values():
        table.cache_clear()
    case, products = [], Counter()
    packed, paired_sum = branching.packed_sums, branching._paired_sum.__wrapped__

    def counting_packed(conductor, xs, ys, rows):
        rows = [list(row) for row in rows]
        if case:
            products[case[0]] += sum(map(len, rows))
        return packed(conductor, xs, ys, rows)

    def counting_sum(n, m, counts):
        case.append((n, m))
        try:
            return paired_sum(n, m, counts)
        finally:
            case.pop()

    monkeypatch.setattr(branching, "packed_sums", counting_packed)
    monkeypatch.setattr(branching, "_paired_sum", cache(counting_sum))
    assert all(verify.suite_exhaustion(6))

    def top(a):
        return max(a.rotate(k).components for k in range(a.rank))

    for n in range(2, 7):
        for m in range(2, 7):
            pairs = {(top(a), top(tau(a, i))) for i in range(n * m)
                     for a in enumerate_graded(n, m, i)}
            assert products[n, m] == len(pairs), (n, m)


def test_tau_suite_calls_tau_once_per_weight_and_class(monkeypatch):
    """From cold caches, ``suite_tau(4)`` calls ``tau`` once per (weight,
    class) of each ordered (n, m): the involution check reads the images of
    (m, n), and the dual-commute check those of class 0."""
    for table in _memo_tables().values():
        table.cache_clear()
    calls = Counter()
    monkeypatch.setattr(verify, "tau", lambda a, i: calls.update([(a, i)]) or tau(a, i))
    assert all(verify.suite_tau(bound=4))
    assert calls == Counter((a, i) for n in range(2, 5) for m in range(2, 5)
                            for i in range(n * m) for a in enumerate_graded(n, m, i))


def test_cardinality_counts_without_filling_the_enumerators():
    for table in _memo_tables().values():
        table.cache_clear()
    assert all(verify.suite_cardinality(8))
    assert weights.weight_table.cache_info().currsize == 0
    assert partitions.enumerate_rectangle.cache_info().currsize == 0


def test_qint_is_keyed_on_the_index_mod_the_conductor():
    for n, m in [(2, 2), (3, 4)]:
        N = conductor_for(n, m)
        for i in range(-N, N):
            assert qint(i, n, m) == qint(i + N, n, m)


def test_no_lookup_hashes_a_weight(monkeypatch):
    """Every index of a weight is keyed by its components: from cold memo
    tables, building the tables, the tau and branch suites, the Galois
    sources and the fold call neither ``LevelWeight.__hash__`` nor
    ``__eq__``."""
    for table in _memo_tables().values():
        table.cache_clear()
    calls = Counter()
    for name in ("__hash__", "__eq__"):
        method = getattr(LevelWeight, name)
        monkeypatch.setattr(LevelWeight, name,
                            lambda *args, _m=method, _n=name: calls.update([_n]) or _m(*args))
    for n in range(2, 5):
        for m in range(2, 5):
            weights.weight_table(n, m)
    assert all(verify.suite_tau(4)) and all(verify.suite_branch(4))
    ws = enumerate_weights(4, 4)
    smatrix._galois_sources(ws, [smatrix._coordinates(a) for a in ws], 8)
    ws = enumerate_weights(3, 3)
    for a in ws:
        for b in ws:
            fusion._fold_positions(a.to_partition(), b.to_partition(), 3, 3)
    assert calls == Counter()


def test_fuse_fills_one_entry_per_unordered_pair():
    a, b = LevelWeight((2, 1, 0)), LevelWeight((0, 1, 2))
    fusion._fuse_terms.cache_clear()
    assert fuse(a, b) == fuse(b, a)
    assert fusion._fuse_terms.cache_info().currsize == 1


def test_fusion_at_5_4_expands_once_per_unordered_pair_and_folds_once_per_term(monkeypatch):
    """From cold fusion, LR and fold memos, the 4900 ordered products of
    rank 5, level 4 (the benchmark's ``fusion_5x4``) call ``lr_expand`` once
    per unordered pair, 70 * 71 / 2 = 2485 times, fold each of the 145
    distinct LR terms of the top-rotation representatives once, and find
    the orbit representative of each of the 70 weights once."""
    for table in (fusion._fuse_terms, fusion._orbit_representative, symfunc._lr_strip_states,
                  fusion._alcove_term):
        table.cache_clear()
    calls = []
    monkeypatch.setattr(fusion, "lr_expand",
                        lambda lam, mu, nvars=None: calls.append(1) or lr_expand(lam, mu, nvars))
    ws = enumerate_weights(5, 4)
    for a in ws:
        for b in ws:
            fuse(a, b)
    assert len(calls) == 2485
    assert fusion._alcove_term.cache_info().misses == 145
    assert fusion._orbit_representative.cache_info().misses == len(ws) == 70


def test_mutating_a_result_leaves_the_memo_intact():
    lam, mu = Partition((2, 1)), Partition((1, 1))
    expansion = lr_expand(lam, mu, nvars=3)
    expected = dict(expansion)
    expansion.clear()
    assert lr_expand(lam, mu, nvars=3) == expected
    assert lr_expand(mu, lam, nvars=3) == expected

    a, b = LevelWeight((1, 1, 1)), LevelWeight((1, 1, 1))
    terms = fuse(a, b).terms
    expected = dict(terms)
    terms[LevelWeight((3, 0, 0))] = 7
    terms.pop(next(iter(expected)))
    assert fuse(a, b).terms == expected

    poly = schur(Partition((1,)), 2)
    expected = dict(poly.terms)
    poly.terms.clear()
    assert schur(Partition((1,)), 2).terms == expected
