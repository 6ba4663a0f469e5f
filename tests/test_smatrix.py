import hashlib
import json
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelrank import Verdict, branching, cyclotomic, smatrix
from levelrank.branching import twist_pairing_check
from levelrank.cli import main
from levelrank.cyclotomic import CyclotomicNumber
from levelrank.fusion import verlinde_check
from levelrank.qdim import qdim_weight
from levelrank.smatrix import (
    category_central_charge,
    central_charge,
    conformal_weight,
    s_matrix,
)
from levelrank.weights import LevelWeight, enumerate_graded


def matmul(A, B):
    size = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def test_smatrix_rank2_level1_golden():
    data = s_matrix(2, 1)
    with mpmath.workprec(128):
        r = 1 / mpmath.sqrt(2)
        expect = [[r, r], [r, -r]]
        for i in range(2):
            for j in range(2):
                assert abs(data.entries[i][j] - expect[i][j]) < mpmath.mpf(10) ** -30


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4)])
def test_unitarity(n, m):
    data = s_matrix(n, m)
    assert data.unitarity_residual() == 0


def test_symmetry():
    data = s_matrix(3, 2)
    size = len(data.weights)
    with mpmath.workprec(128):
        for i in range(size):
            for j in range(size):
                assert abs(data.entries[i][j] - data.entries[j][i]) < 1e-30


def test_vacuum_row_gives_dimensions():
    data = s_matrix(2, 10)
    with mpmath.workprec(160):
        for idx, w in enumerate(data.weights):
            ratio = data.entries[0][idx] / data.entries[0][0]
            assert abs(ratio.real - qdim_weight(w).embed_real(40)) < mpmath.mpf(10) ** -10
            assert abs(ratio.imag) < mpmath.mpf(10) ** -20


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_s_squared_is_charge_conjugation(n, m):
    data = s_matrix(n, m)
    size = len(data.weights)
    with mpmath.workprec(128):
        S2 = matmul(data.entries, data.entries)
        for i, a in enumerate(data.weights):
            for j, b in enumerate(data.weights):
                want = 1 if b == a.dual() else 0
                assert abs(S2[i][j] - want) < 1e-25


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_modular_relation(n, m):
    """(S T)^3 = S^2 once T carries the exp(-2 pi i c/24) prefactor."""
    data = s_matrix(n, m)
    size = len(data.weights)
    with mpmath.workprec(128):
        c = data.central_charge
        T = []
        for w in data.weights:
            t = conformal_weight(w) - c / 24
            T.append(mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator))
        ST = [[data.entries[i][j] * T[j] for j in range(size)] for i in range(size)]
        lhs = matmul(matmul(ST, ST), ST)
        rhs = matmul(data.entries, data.entries)
        worst = max(abs(lhs[i][j] - rhs[i][j]) for i in range(size) for j in range(size))
        assert worst < 1e-20


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2)])
def test_simple_current_row_symmetry(n, m):
    data = s_matrix(n, m)
    idx = {w: i for i, w in enumerate(data.weights)}
    with mpmath.workprec(128):
        for a in data.weights:
            for b in data.weights:
                lhs = abs(data.entries[idx[a.rotate(1)]][idx[b]])
                rhs = abs(data.entries[idx[a]][idx[b]])
                assert abs(lhs - rhs) < 1e-25


def test_rank_six_level_one_dimension_ratios_are_one():
    # rank 6 (720 Weyl permutations per entry); level 1 keeps it small
    data = s_matrix(6, 1)
    assert data.unitarity_residual() == 0
    with mpmath.workprec(128):
        for idx in range(6):
            ratio = data.entries[0][idx] / data.entries[0][0]
            assert abs(ratio - 1) < 1e-25  # all level-1 objects are invertible


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 4))
@example(n=6, m=1)
@example(n=6, m=2)
@example(n=4, m=4)
def test_exact_matrix_is_symmetric_and_unitary(n, m):
    """M = M^T and M M^dagger = n (n+m)^(n-1) I over every entry, by plain
    field arithmetic: the oracle for ``unitarity_residual``, which tests the
    rows of the Galois representatives only."""
    data = s_matrix(n, m)
    M = data.exact
    size = len(M)
    scale = n * (n + m) ** (n - 1)
    conj = [[z.conjugate() for z in row] for row in M]
    for a in range(size):
        for b in range(size):
            assert M[a][b] == M[b][a]
            total = sum((M[a][c] * conj[b][c] for c in range(size)),
                        CyclotomicNumber.zero(n * (n + m)))
            assert total == (scale if a == b else 0)
    assert data.unitarity_residual() == 0


@pytest.mark.parametrize("n,m,pairs", [(3, 3, 21), (4, 3, 105), (4, 4, 332)])
def test_unitarity_catches_a_negated_pair_outside_the_representative_rows(
        n, m, pairs, monkeypatch):
    """Negating a nonzero pair M_bc = M_cb with neither b nor c a Galois
    representative leaves every representative row of M as it was, yet
    moves (M M^dagger)_0b by -2 M_0c conj(M_bc), which is nonzero since no
    M_0c vanishes: each such pair must make ``unitarity_residual`` raise.
    The pair is negated in every matrix ``smatrix._fill_cells`` makes, so
    in the packed rows of M and of its conjugate alike."""
    data = s_matrix(n, m)
    M, reps = data.exact, data.representatives
    others = [a for a in range(len(M)) if a not in reps]
    fill = smatrix._fill_cells
    caught = 0
    for i, b in enumerate(others):
        for c in others[i:]:
            if M[b][c].is_zero():
                continue

            def negating(*args, b=b, c=c):
                matrix = fill(*args)
                matrix[b][c] = matrix[c][b] = -matrix[b][c]
                return matrix

            monkeypatch.setattr(smatrix, "_fill_cells", negating)
            with pytest.raises(ArithmeticError, match=r"M M\^dagger differs from"):
                data.unitarity_residual()
            caught += 1
    monkeypatch.setattr(smatrix, "_fill_cells", fill)
    assert caught == pairs
    assert data.unitarity_residual() == 0


def test_building_and_checking_m_reduces_nothing_mod_phi(monkeypatch):
    """``s_matrix`` and a passing ``verlinde_check`` decide every identity
    on packed histograms, so no entry is reduced mod Phi_N; reading
    ``exact`` reduces each distinct cell once."""
    reduce, calls = cyclotomic._reduce_mod_phi, []

    def counting(coeffs, n):
        calls.append(n)
        return reduce(coeffs, n)

    monkeypatch.setattr(cyclotomic, "_reduce_mod_phi", counting)
    data = s_matrix(4, 4)
    assert verlinde_check(4, 3).holds
    assert calls == []
    assert data.exact and len(calls) == 389


EXACT_GOLDEN = Path(__file__).parent / "golden" / "smatrix_exact.txt"


@pytest.mark.parametrize("n,m,digest", [
    (int(n), int(m), digest)
    for n, m, digest in map(str.split, EXACT_GOLDEN.read_text().splitlines())
])
def test_exact_matrix_matches_its_golden_digest(n, m, digest):
    """sha256 over the rows of M, one line per entry holding its rational
    coefficients of 1, zeta, zeta^2, ... separated by spaces. The digests
    were taken from the matrix built with one histogram per pair."""
    h = hashlib.sha256()
    for row in s_matrix(n, m).exact:
        for z in row:
            h.update((" ".join(map(str, z.coefficients())) + "\n").encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n,m,bits", [
    (2, 1, 128), (3, 3, 128), (4, 3, 64), (2, 10, 128), (6, 2, 160), (5, 2, 32),
])
def test_float_entries_match_the_exact_matrix(n, m, bits):
    """Every float entry is within 2^-bits of the exact entry embedded at
    60 digits times conj(M_00) / (|M_00| sqrt(n (n+m)^(n-1)))."""
    data = s_matrix(n, m, precision_bits=bits)
    with mpmath.workdps(70):
        z00 = data.exact[0][0].embed(60)
        factor = mpmath.conj(z00) / (abs(z00) * mpmath.sqrt(n * (n + m) ** (n - 1)))
        tol = mpmath.mpf(2) ** -bits
        for row, exact_row in zip(data.entries, data.exact):
            for z, x in zip(row, exact_row):
                assert abs(z - x.embed(60) * factor) < tol


@pytest.mark.parametrize("n,m,digest", [
    (3, 2, "e7288973570bf66427e3866a09b0092ce16b108130830370ae77c78de49c4e0d"),
    (4, 4, "1642278855a9968f667239078c4e131fe5938e32f810c0a80f4d904718424fc9"),
    (2, 5, "d8ef14a309a2d856d038e4856d34c74753ccd9b8fcfc7a429e90fe1985d15b9e"),
    (5, 3, "1d8c5858477e28df8c2a3c585d8a006b44ad08342fcab8bef1b7df6ade58cbc4"),
    (3, 3, "933ae2ffcc1f2f8420aaa168cfc1886b6c935a518987d4513529d7ba948c40a8"),
])
def test_json_payload_matches_its_pinned_digest(n, m, digest):
    """sha256 of ``to_json()`` dumped with sorted keys, which holds every
    float entry to 17 digits. The digests were taken when ``s_matrix`` built
    the float entries eagerly; reading them lazily prints the same digits,
    exact zeros included."""
    text = json.dumps(s_matrix(n, m).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_float_entries_are_made_on_first_read():
    data = s_matrix(3, 3)
    assert "entries" not in vars(data)
    entries = data.entries
    assert vars(data)["entries"] is entries
    assert data.entries is entries


def test_precision_validation():
    with pytest.raises(ValueError):
        s_matrix(2, 2, precision_bits=16)


def test_central_charge_equality_level_one():
    for n in range(2, 51):
        for m in range(2, 51):
            ambient, pair = central_charge(n, m, 1)
            assert ambient == pair == n * m - 1


def test_central_charge_level_two_differs():
    ambient, pair = central_charge(2, 2, 2)
    assert ambient == 5
    assert pair == 4


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4))
def test_pair_central_charge_is_the_sum_of_the_two_charges(n, m, k):
    """The pair's charge, formed over one denominator, against the sum of
    the rank-n level-mk and rank-m level-nk charges."""
    _, pair = central_charge(n, m, k)
    assert pair == Fraction((n * n - 1) * m * k, n + m * k) + Fraction((m * m - 1) * n * k,
                                                                     m + n * k)


def test_central_charge_validation():
    with pytest.raises(ValueError):
        central_charge(0, 2, 1)


def test_category_central_charge():
    assert category_central_charge(2, 2) == Fraction(3, 2)
    assert category_central_charge(4, 1) == Fraction(3)
    for n, m in ((2, 5), (3, 4)):
        assert category_central_charge(n * m, 1) == n * m - 1


def test_conformal_weight_goldens():
    assert conformal_weight(LevelWeight((0, 0, 0, 1, 0, 0, 0, 1, 0, 0))) == 2
    assert conformal_weight(LevelWeight.vacuum(5, 3)) == 0
    for N in range(2, 13):
        for i in range(N):
            h = conformal_weight(LevelWeight.fundamental(N, i))
            assert h == Fraction(i * (N - i), 2 * N)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (2, 4), (4, 2)])
def test_twist_pairing_exact(n, m):
    assert twist_pairing_check(n, m)


def test_twist_pairing_reports_the_first_failure(monkeypatch, capsys):
    """Shifting every rank-2 level-3 conformal weight by 1/2 breaks the
    pairing at the first weight of class 0; the check stops there and names
    (i, a, total, target)."""
    weight = branching.conformal_weight

    def shifted(a):
        return weight(a) + (Fraction(1, 2) if (a.rank, a.level) == (2, 3) else 0)

    monkeypatch.setattr(branching, "conformal_weight", shifted)
    v = twist_pairing_check(2, 3)
    assert isinstance(v, Verdict) and v.holds is False
    i, a, total, target = v.counterexample
    assert (i, a, target) == (0, enumerate_graded(2, 3, 0)[0], 0)
    assert (total - target).denominator == 2
    assert v.checked == 1
    assert main(["verify", "twist", "--bound", "3"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] twist: n=2 m=2  (" in out
    assert "[FAIL] twist: n=2 m=3  (" in out


def test_json_payload():
    data = s_matrix(2, 2)
    payload = data.to_json()
    assert payload["weights"] == [[2, 0], [1, 1], [0, 2]]
    assert payload["central_charge"] == "3/2"
    assert len(payload["entries"]) == 3
