"""Acceptance suite: one test per criterion, each printing a pass line after
its assertions. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction
from math import comb

import mpmath

from levelrank.branching import (
    branch,
    mirror_transport,
    twist_pairing_check,
    verify_equivalence_fusion,
    verify_exhaustion,
    verify_trace_form,
)
from levelrank.cli import main
from levelrank.cyclotomic import qint
from levelrank.fusion import fuse, rotation_check, verlinde_check
from levelrank.partitions import Partition, enumerate_rectangle
from levelrank.qdim import category_dim, qdim_partition
from levelrank.smatrix import central_charge, conformal_weight
from levelrank.symfunc import verify_skew_cauchy
from levelrank.weights import (
    LevelWeight,
    enumerate_graded,
    enumerate_weights,
    from_partition,
    tau,
    tau_from_partition,
)

GOLDEN_TEN = {
    ((), ()),
    ((2, 1), (2, 1, 1, 1, 1)),
    ((5, 4), (3, 2, 1)),
    ((4, 2), (2, 2, 1, 1)),
    ((3,), (3, 3, 2, 2, 2)),
    ((6, 3), (2, 2, 2)),
    ((5, 1), (3, 3, 3, 2, 1)),
    ((6,), (3, 3, 3, 3)),
    ((3, 3), (3, 1, 1, 1)),
    ((6, 6), (3, 3)),
}


def _report(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k:2d}: PASS  {text}")


def test_criterion_01_golden_branching_table(capsys):
    start = time.perf_counter()
    code = main(["branch", "3", "6", "0"])
    elapsed = time.perf_counter() - start
    assert code == 0
    table = branch(3, 6, 0)
    got = {(a.parts, b.parts) for a, b in table.partition_pairs()}
    assert got == GOLDEN_TEN
    assert len(table.pairs) == 10  # multiplicity-free by construction
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    with capsys.disabled():
        _report(1, f"ten golden summands at (3, 6, 0) in {elapsed:.3f}s")


def test_criterion_02_golden_tau_chain(capsys):
    table = branch(3, 6, 13)
    pair = (LevelWeight((3, 2, 1)), LevelWeight((1, 0, 0, 1, 1, 0)))
    assert pair in table
    lam, mu = pair[0].to_partition(), pair[1].to_partition()
    assert (lam.parts, mu.parts) == ((3, 1), (2, 2, 2, 1))
    with capsys.disabled():
        _report(2, "class 13 of (3, 6) pairs (3,1) with (2,2,2,1)")


def test_criterion_03_hook_content_golden_value(capsys):
    value = qdim_partition(Partition((4, 3, 1)), 4, 4)
    assert value.conductor == 16
    assert value == qint(7, 4, 4) * qint(5, 4, 4) ** 2
    with mpmath.workdps(40):
        k = mpmath.mpf(8)
        sine = lambda i: mpmath.sinpi(i / k) / mpmath.sinpi(1 / k)
        assert abs(value.embed_real(35) - sine(7) * sine(5) ** 2) < mpmath.mpf(10) ** -12
    with capsys.disabled():
        _report(3, "qdim(4,3,1) at rank 4 equals [7][5]^2 in Q(zeta_16)")


def test_criterion_04_exhaustion(capsys):
    start = time.perf_counter()
    count = 0
    for n in (2, 3, 4, 5):
        for m in (2, 3, 4, 5):
            for i in range(n * m):
                verdict = verify_exhaustion(n, m, i)
                assert verdict.holds, verdict
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        _report(4, f"{count} exact exhaustion identities in {elapsed:.2f}s")


def test_criterion_05_tau_bijectivity_and_preimages(capsys):
    failures = 0
    for n in range(2, 7):
        for m in range(2, 7):
            for i in range(n * m):
                cls = enumerate_graded(n, m, i)
                images = [tau(a, i) for a in cls]
                if set(images) != set(enumerate_graded(m, n, i)):
                    failures += 1
                for a, b in zip(cls, images):
                    if tau(b, i) != a:
                        failures += 1
            for lam in enumerate_rectangle(n, m):
                a = from_partition(lam, n, m)
                for i in range(lam.size % n, n * m, n):
                    if tau_from_partition(lam, n, m, i) != tau(a, i):
                        failures += 1
    assert failures == 0
    with capsys.disabled():
        _report(5, "duality map bijective, involutive, preimage-independent up to 6")


def test_criterion_06_skew_cauchy(capsys):
    start = time.perf_counter()
    cases = [(n, m) for n in (2, 3) for m in (2, 3)] + [(2, 4)]
    for n, m in cases:
        for i in range(n * m + 1):
            assert verify_skew_cauchy(n, m, i), (n, m, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        _report(6, f"exact polynomial identity on {cases} in {elapsed:.2f}s")


def test_criterion_07_rotation_fusion(capsys):
    for n in range(2, 5):
        for m in range(2, 5):
            for a in enumerate_weights(n, m):
                assert rotation_check(a), (n, m, a)
    with capsys.disabled():
        _report(7, "invertible object rotates every highest weight, up to 4")


def test_criterion_08_level_one(capsys):
    for N in range(2, 11):
        for i in range(N):
            for j in range(N):
                dec = fuse(LevelWeight.fundamental(N, i), LevelWeight.fundamental(N, j))
                assert dec.terms == {LevelWeight.fundamental(N, (i + j) % N): 1}
        assert category_dim(N, 1) == N
    with capsys.disabled():
        _report(8, "cyclic level-1 fusion and total dimension N for N <= 10")


def test_criterion_09_verlinde_oracle_agreement(capsys):
    for n, m in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        verdict = verlinde_check(n, m)
        assert verdict.holds, verdict
    with capsys.disabled():
        _report(9, "folding and Verlinde sums agree on all five pairs")


def test_criterion_10_central_charges(capsys):
    for n in range(2, 51):
        for m in range(2, 51):
            ambient, pair = central_charge(n, m, 1)
            assert ambient == pair
    ambient, pair = central_charge(2, 2, 2)
    assert ambient != pair
    with capsys.disabled():
        _report(10, "exact equality at level 1 up to 50; level 2 differs at (2,2)")


def test_criterion_11_equivalence_fusion_level(capsys):
    for n, m in ((2, 3), (3, 2), (2, 4), (2, 5)):
        verdict = verify_equivalence_fusion(n, m)
        assert verdict, verdict
    with capsys.disabled():
        _report(11, "degree-zero fusion coefficients preserved by transport")


def test_criterion_12_mirror_example(capsys):
    out = mirror_transport([LevelWeight.vacuum(2, 10), LevelWeight((4, 6))])
    expected = LevelWeight((0, 0, 0, 1, 0, 0, 0, 1, 0, 0))
    assert out == [LevelWeight.vacuum(10, 2), expected]
    assert conformal_weight(expected) == Fraction(2)
    with capsys.disabled():
        _report(12, "transported two-summand algebra with conformal weight exactly 2")


def test_criterion_13_trace_form(capsys):
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        verdict = verify_trace_form(n, m)
        assert verdict, verdict
    with capsys.disabled():
        _report(13, "trace form splits as m and n times the block forms, exactly")


def test_criterion_14_cardinality(capsys):
    for n in range(2, 9):
        for m in range(1, 9):
            assert len(enumerate_weights(n, m)) == comb(n + m - 1, n - 1)
    with capsys.disabled():
        _report(14, "weight counts match the binomial formula up to 8")


def test_criterion_15_twist_pairing_substitution(capsys):
    """Consequence-level stand-in for the braid-reversal statement: exact
    twist pairing across the duality, which implies agreement within the
    stated 1e-8 tolerance."""
    for n in range(2, 5):
        for m in range(2, 5):
            assert twist_pairing_check(n, m)
    with capsys.disabled():
        _report(15, "twist pairing holds exactly (stronger than 1e-8) up to 4")
