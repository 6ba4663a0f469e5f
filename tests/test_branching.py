import pytest

from levelrank import Verdict, branching
from levelrank.branching import (
    BranchingTable,
    branch,
    etale_necessary_conditions,
    etale_vacuum_algebra,
    mirror_transport,
    transport,
    verify_equivalence_fusion,
    verify_exhaustion,
    verify_trace_form,
)
from levelrank.cli import main
from levelrank.fusion import Decomposition, fuse
from levelrank.partitions import Partition
from levelrank.qdim import graded_dim, qdim_weight
from levelrank.weights import LevelWeight, enumerate_graded, tau, weight_table

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


def test_branch_three_six_zero_golden():
    table = branch(3, 6, 0)
    assert len(table) == 10
    assert {(a.parts, b.parts) for a, b in table.partition_pairs()} == GOLDEN_TEN


def test_branch_three_six_thirteen_contains_golden_pair():
    table = branch(3, 6, 13)
    assert (LevelWeight((3, 2, 1)), LevelWeight((1, 0, 0, 1, 1, 0))) in table


def test_branch_two_two_zero():
    table = branch(2, 2, 0)
    assert set(table.pairs) == {
        (LevelWeight((2, 0)), LevelWeight((2, 0))),
        (LevelWeight((0, 2)), LevelWeight((0, 2))),
    }


def test_branch_class_normalized_mod_nm():
    assert branch(3, 6, 13).pairs == branch(3, 6, 13 + 18).pairs


def test_branch_rejects_small_rank():
    with pytest.raises(ValueError):
        branch(1, 6, 0)
    with pytest.raises(ValueError):
        branch(3, 1, 0)


def test_etale_is_branch_zero():
    assert etale_vacuum_algebra(3, 6).pairs == branch(3, 6, 0).pairs


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_branch_structure(n, m):
    for i in range(n * m):
        table = branch(n, m, i)
        lefts, rights = zip(*table.pairs)
        # multiplicity-free in both factors
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert set(lefts) == set(enumerate_graded(n, m, i))
        for b in rights:
            assert b.degree() == i % m
        for a, b in table.pairs:
            assert b == tau(a, i)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_branch_pairs_are_tau_pairs(n, m):
    """Every table is (a, tau(a, i)) over the class in canonical order."""
    for i in range(n * m):
        table = branch(n, m, i)
        assert table.pairs == tuple((a, tau(a, i)) for a in enumerate_graded(n, m, i))


def test_branch_json_schema():
    payload = branch(2, 2, 0).to_json()
    assert payload == {
        "n": 2,
        "m": 2,
        "i": 0,
        "summands": [
            {"left": [2, 0], "right": [2, 0], "left_partition": [], "right_partition": []},
            {"left": [0, 2], "right": [0, 2], "left_partition": [2], "right_partition": [2]},
        ],
    }


def test_exhaustion_three_six_zero():
    v = verify_exhaustion(3, 6, 0)
    assert v.holds
    assert v.holds and v.counterexample is None


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_exhaustion_sweep(n, m):
    for i in range(n * m):
        assert verify_exhaustion(n, m, i)


def test_exhaustion_reports_a_wrong_graded_total(monkeypatch, capsys):
    """A graded total off by one is a counterexample (paired_sum,
    graded_total), not an exception, and the suite prints its case."""
    true_graded = branching.graded_dim
    monkeypatch.setattr(branching, "graded_dim", lambda n, m, i: true_graded(n, m, i) + 1)
    v = verify_exhaustion(2, 3, 1)
    assert isinstance(v, Verdict) and v.holds is False
    paired, graded = v.counterexample
    assert paired == true_graded(2, 3, 1)
    assert graded - paired == 1
    assert main(["verify", "exhaustion", "--bound", "2"]) == 1
    assert "[FAIL] exhaustion: n=2 m=2 i=0  (" in capsys.readouterr().out


def test_exhaustion_reports_a_right_factor_from_another_orbit(monkeypatch):
    """A table whose first right factor is swapped for a valid rank-m
    level-n weight of another rotation orbit gives a FAIL verdict with the
    counterexample (paired_sum, graded_total), not an exception."""
    true_branch = branching.branch
    (p, q), *rest = true_branch(3, 3, 0).positions
    table = weight_table(3, 3)
    a, b = table.weights[p], table.weights[q]
    swap = LevelWeight((1, 1, 1))
    assert swap not in {b.rotate(k) for k in range(3)}
    monkeypatch.setattr(branching, "branch", lambda n, m, i: BranchingTable(
        n, m, i, ((p, table.position[swap.components]), *rest)))
    v = verify_exhaustion(3, 3, 0)
    assert isinstance(v, Verdict) and v.holds is False and v.error is None
    paired, graded = v.counterexample
    assert graded == graded_dim(3, 3, 0)
    assert paired - graded == qdim_weight(a) * (qdim_weight(swap) - qdim_weight(b)) != 0


def test_transport_golden():
    assert transport(LevelWeight.vacuum(3, 4)) == LevelWeight.vacuum(4, 3)
    a = LevelWeight((4, 6))
    assert transport(a) == LevelWeight((0, 0, 0, 1, 0, 0, 0, 1, 0, 0))


def test_transport_requires_degree_zero():
    with pytest.raises(ValueError):
        transport(LevelWeight((3, 2, 1)))  # degree 1


@pytest.mark.parametrize("n,m", [(3, 4), (2, 5), (4, 3)])
def test_transport_involution(n, m):
    for a in enumerate_graded(n, m, 0):
        image = transport(a)
        assert image.degree() == 0
        assert transport(image) == a
        assert qdim_weight(image) == qdim_weight(a)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 4)])
def test_equivalence_on_fusion_coefficients(n, m):
    verdict = verify_equivalence_fusion(n, m)
    assert verdict, verdict
    assert verdict.checked == len(enumerate_graded(n, m, 0)) ** 3


def test_equivalence_reports_a_wrong_coefficient(monkeypatch, capsys):
    """An extra vacuum summand in every rank-2 product breaks
    N_ab^c = N_T(a)T(b)^T(c) at c = vacuum; the counterexample is
    (a, b, c, lhs, rhs)."""

    def wrong_fuse(x, y):
        dec = fuse(x, y)
        if x.rank != 2:
            return dec
        vacuum = LevelWeight.vacuum(2, x.level)
        terms = dict(dec.terms)
        terms[vacuum] = terms.get(vacuum, 0) + 1
        return Decomposition(2, x.level, terms)

    monkeypatch.setattr(branching, "fuse", wrong_fuse)
    v = verify_equivalence_fusion(2, 3)
    assert isinstance(v, Verdict) and v.holds is False
    a, b, c, lhs, rhs = v.counterexample
    assert c == LevelWeight.vacuum(2, 3)
    assert lhs == rhs + 1 == fuse(a, b).multiplicity(c) + 1
    assert 1 <= v.checked <= len(enumerate_graded(2, 3, 0)) ** 3
    assert main(["verify", "equivalence"]) == 1
    assert "[FAIL] equivalence: n=2 m=3  (" in capsys.readouterr().out


def test_mirror_transport_golden():
    out = mirror_transport([LevelWeight.vacuum(2, 10), LevelWeight((4, 6))])
    assert out == [LevelWeight.vacuum(10, 2),
                   LevelWeight((0, 0, 0, 1, 0, 0, 0, 1, 0, 0))]
    conditions = etale_necessary_conditions(out)
    assert all(conditions.values()), conditions


def test_mirror_transport_trivial():
    assert mirror_transport([LevelWeight.vacuum(3, 2)]) == [LevelWeight.vacuum(2, 3)]


def test_mirror_left_factors_of_vacuum_table_transport_to_mirror_table():
    for (n, m) in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 4)):
        transported = mirror_transport([a for a, _ in branch(n, m, 0).pairs])
        assert sorted(w.components for w in transported) == sorted(
            a.components for a, _ in branch(m, n, 0).pairs
        )


def test_mirror_transport_validation():
    with pytest.raises(ValueError):
        mirror_transport([])
    with pytest.raises(ValueError):
        mirror_transport([LevelWeight((1, 1, 1))])  # no vacuum
    with pytest.raises(ValueError):
        mirror_transport([LevelWeight.vacuum(2, 10), LevelWeight((9, 1))])  # degree 1
    with pytest.raises(ValueError):
        mirror_transport([LevelWeight.vacuum(2, 2), LevelWeight.vacuum(2, 2)])


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3), (6, 6)])
def test_trace_form(n, m):
    verdict = verify_trace_form(n, m)
    assert verdict, verdict
    # two blocks of (n^2-1)^2 resp. (m^2-1)^2 pairs plus the cross terms
    expected = (n * n - 1) ** 2 + (m * m - 1) ** 2 + (n * n - 1) * (m * m - 1)
    assert verdict.checked == expected


def test_trace_form_reports_a_wrong_embedding(monkeypatch, capsys):
    """Doubling the left embedding quadruples the big trace form on the
    first block; the counterexample is (block, X, Y, lhs, rhs)."""
    embed = branching._embed_left
    monkeypatch.setattr(branching, "_embed_left",
                        lambda X, n, m: {k: 2 * v for k, v in embed(X, n, m).items()})
    v = verify_trace_form(2, 3)
    assert isinstance(v, Verdict) and v.holds is False
    block, X, Y, lhs, rhs = v.counterexample
    assert block == "left"
    assert rhs != 0 and lhs == 4 * rhs
    assert main(["verify", "traceform"]) == 1
    assert "[FAIL] traceform: n=2 m=2  (left block" in capsys.readouterr().out


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_embeddings_match_a_dense_kronecker_oracle(n, m):
    """The sparse X kron I and I kron Y equal the dense Kronecker products
    entry by entry; the trace identity alone would not notice a consistent
    relabelling of the big matrix's indices."""

    def dense(S, size):
        return [[S.get((i, j), 0) for j in range(size)] for i in range(size)]

    def kron(A, B):
        return [[a * b for a in row_a for b in row_b] for row_a in A for row_b in B]

    def check(sparse, expected):
        assert dense(sparse, n * m) == expected
        # no stored zeros and no entry outside the n*m by n*m range
        assert len(sparse) == sum(v != 0 for row in expected for v in row)

    eye_n = dense({(i, i): 1 for i in range(n)}, n)
    eye_m = dense({(i, i): 1 for i in range(m)}, m)
    for X in branching._sl_basis(n):
        check(branching._embed_left(X, n, m), kron(dense(X, n), eye_m))
    for Y in branching._sl_basis(m):
        check(branching._embed_right(Y, n, m), kron(eye_n, dense(Y, m)))


def test_verify_traceform_stdout(capsys):
    assert main(["verify", "traceform"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] traceform: n=2 m=2  (27 pairings verified)\n"
        "[PASS] traceform: n=2 m=3  (97 pairings verified)\n"
        "[PASS] traceform: n=3 m=2  (97 pairings verified)\n"
        "[PASS] traceform: n=3 m=3  (192 pairings verified)\n"
        "4/4 checks passed\n"
    )


def test_trace_form_validation():
    with pytest.raises(ValueError):
        verify_trace_form(1, 3)


def test_invertible_pair_classes():
    """The vacuum pairs with the height-n column class, and the width-m row
    class pairs with the vacuum, in the classes n and m respectively."""
    from levelrank.weights import from_partition

    for (n, m) in ((2, 3), (3, 2), (3, 4), (4, 3)):
        sigma_n = from_partition(Partition((n,)), m, n)
        assert (LevelWeight.vacuum(n, m), sigma_n) in branch(n, m, n)
        sigma_m = from_partition(Partition((m,)), n, m)
        assert (sigma_m, LevelWeight.vacuum(m, n)) in branch(n, m, m)
