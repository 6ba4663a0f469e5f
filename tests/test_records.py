"""The observable behaviour of the package's records: equality, hashing,
immutability, constructor order and repr."""

import pytest

from levelrank import Verdict
from levelrank.branching import BranchingTable, branch
from levelrank.qdim import DimensionReport, dimension_report
from levelrank.record import Record
from levelrank.smatrix import SMatrixData, conformal_weight, s_matrix
from levelrank.weights import WeightTable, weight_table


def test_verdict_constructor_order_defaults_and_repr():
    error = ValueError("boom")
    v = Verdict("tau", "n=2 m=3", False, 4, (1, 2), "off", error)
    assert (v.suite, v.name, v.holds, v.checked, v.counterexample, v.detail, v.error) == (
        "tau", "n=2 m=3", False, 4, (1, 2), "off", error)
    d = Verdict("golden", "case", True)
    assert (d.checked, d.counterexample, d.detail, d.error) == (1, None, "", None)
    assert repr(d) == ("Verdict(suite='golden', name='case', holds=True, checked=1, "
                       "counterexample=None, detail='', error=None)")
    assert Verdict(suite="golden", name="case", holds=True) == d


def test_verdict_compares_and_hashes_field_by_field():
    a = Verdict("golden", "case", True, detail="x")
    b = Verdict("golden", "case", True, detail="x")
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a, b} == {a}
    assert a != Verdict("golden", "case", True, detail="y")
    assert a != Verdict("golden", "case", False, detail="x")
    assert a != ("golden", "case", True, 1, None, "x", None)


def test_verdict_is_immutable():
    v = Verdict("golden", "case", True)
    with pytest.raises(AttributeError):
        v.holds = False
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(AttributeError):
        del v.detail
    assert v.holds is True


def test_branching_table_compares_and_hashes_field_by_field():
    table = branch(2, 3, 1)
    copy = BranchingTable(2, 3, 1, tuple(table.positions))
    assert copy == table and copy is not table
    assert hash(copy) == hash(table)
    assert BranchingTable(n=2, m=3, i=1, positions=table.positions[1:]) != table
    assert repr(table) == f"BranchingTable(n=2, m=3, i=1, positions={table.positions!r})"
    with pytest.raises(AttributeError):
        table.i = 0
    assert table.i == 1


def test_weight_table_compares_by_identity_and_is_immutable():
    t = weight_table(3, 2)
    fields = (t.n, t.m, t.weights, t.position, t.classes, t.graded, t.degree,
              t.rotation, t.orbit, t.tau)
    twin = WeightTable(*fields)
    assert (twin.n, twin.m, twin.weights, twin.tau) == (3, 2, t.weights, t.tau)
    assert twin != t and t == t
    assert hash(t) == object.__hash__(t)
    assert len({t, twin}) == 2
    with pytest.raises(AttributeError):
        t.n = 4
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t.n == 3


def test_dimension_report_compares_by_identity_and_is_immutable():
    r = dimension_report(2, 3)
    twin = DimensionReport(r.n, r.m, r.dims, r.graded, r.total)
    assert twin.total == r.total and twin.dims is r.dims
    assert twin != r and r == r
    assert hash(r) == object.__hash__(r)
    with pytest.raises(AttributeError):
        r.total = None
    assert r.total == twin.total


def test_smatrix_data_compares_by_identity_and_is_immutable():
    a, b = s_matrix(2, 2), s_matrix(2, 2)
    assert a != b and a == a
    assert hash(a) == object.__hash__(a)
    assert repr(a) == (f"SMatrixData(n=2, m=2, weights={a.weights!r}, precision_bits=128, "
                       f"central_charge={a.central_charge!r})")
    with pytest.raises(AttributeError):
        a.precision_bits = 64
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.n
    assert a.precision_bits == 128
    assert a.entries and "entries" in vars(a) and "entries" not in vars(b)
    assert a.exact and "exact" in vars(a) and "exact" not in vars(b)


def test_smatrix_data_keywords_and_conformal_weights_by_position():
    a = s_matrix(2, 1)
    fields = dict(n=a.n, m=a.m, weights=a.weights, precision_bits=a.precision_bits,
                  central_charge=a.central_charge, galois_sources=a.galois_sources,
                  representatives=a.representatives, _histograms=a._histograms)
    with pytest.raises(TypeError):
        SMatrixData(**fields)  # the conformal weights have no default
    assert a.conformal_weights == tuple(map(conformal_weight, a.weights))
    assert vars(SMatrixData(**fields, conformal_weights=a.conformal_weights)) == vars(a)


def test_every_record_is_a_record_with_no_hand_written_equality():
    """The five records share one idiom: they derive from ``Record``, and
    equality, hashing and assignment come from ``record`` alone (field-wise
    from ``ValueRecord``, by identity otherwise)."""
    for cls in (Verdict, BranchingTable, WeightTable, DimensionReport, SMatrixData):
        assert issubclass(cls, Record), cls
        assert not {"__eq__", "__hash__", "__setattr__", "_fields"} & set(vars(cls)), cls
    with pytest.raises(AttributeError):
        s_matrix(3, 2).precision_bits = 40
