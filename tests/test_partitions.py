from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelrank.partitions import (
    Partition,
    ascii_diagram,
    ascii_diagram_pair,
    enumerate_rectangle,
    hooks_and_contents,
    parse_partition,
)
from levelrank.weights import parse_components

from partition_oracles import content_rows, hook_rows


def reflect_cells(lam: Partition) -> Partition:
    """Independent transpose: reflect the cell set across the diagonal."""
    cells = {(j, i) for i, j in lam.cells()}
    rows = {}
    for i, _ in cells:
        rows[i] = rows.get(i, 0) + 1
    return Partition([rows[i] for i in sorted(rows)])


def test_transpose_golden_chain():
    assert Partition((3, 1)).transpose() == Partition((2, 1, 1))


def test_transpose_empty():
    assert Partition().transpose() == Partition()


@pytest.mark.parametrize("parts", [(4, 3, 1), (2, 2), (5,), (1, 1, 1), (6, 6, 2, 1)])
def test_transpose_matches_cell_reflection(parts):
    lam = Partition(parts)
    assert lam.transpose() == reflect_cells(lam)


def test_transpose_431():
    assert Partition((4, 3, 1)).transpose() == Partition((3, 2, 2, 1))


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition((2, 0, 1))


def test_non_integral_parts_are_rejected_by_name():
    for parts, bad in (((3, 0.5), "0.5"), ((3.5,), "3.5")):
        with pytest.raises(ValueError, match=f"partition parts must be integers, got {bad}"):
            Partition(parts)
    assert Partition((3.0, 1)).parts == (3, 1)


def test_trailing_zeros_stripped():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition((0, 0)) == Partition()


def test_hooks_and_contents_golden():
    # the worked 8-cell example
    assert content_rows(Partition((4, 3, 1))) == ((0, 1, 2, 3), (-1, 0, 1), (-2,))
    assert hook_rows(Partition((4, 3, 1))) == ((6, 4, 3, 1), (4, 2, 1), (1,))


def test_hooks_single_cell():
    assert hooks_and_contents(Partition((1,))) == [((0, 0), 0, 1)]


def test_hooks_two_by_two():
    # count below/right by hand: cell (0,0) sees one right, one below
    assert content_rows(Partition((2, 2))) == ((0, 1), (-1, 0))
    assert hook_rows(Partition((2, 2))) == ((3, 2), (2, 1))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 5), (4, 3)])
def test_hook_multiset_transpose_invariant(n, m):
    for lam in enumerate_rectangle(n, m):
        mine = sorted(h for _, _, h in hooks_and_contents(lam))
        theirs = sorted(h for _, _, h in hooks_and_contents(lam.transpose()))
        assert mine == theirs
        negated = sorted(-c for _, c, _ in hooks_and_contents(lam))
        assert negated == sorted(c for _, c, _ in hooks_and_contents(lam.transpose()))


def test_enumerate_rectangle_two_by_two():
    got = {p.parts for p in enumerate_rectangle(2, 2)}
    assert got == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}


def test_enumerate_single_row():
    for m in range(1, 7):
        assert [p.parts for p in enumerate_rectangle(1, m)] == [()] + [(k,) for k in range(1, m + 1)]


def test_enumerate_rectangle_bounds():
    inside = {p.parts for p in enumerate_rectangle(3, 6)}
    assert (3, 1) in inside
    assert (7,) not in inside
    assert (1, 1, 1, 1) not in inside


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", range(1, 9))
def test_enumerate_rectangle_count(n, m):
    assert len(enumerate_rectangle(n, m)) == comb(n + m, n)


def test_enumeration_order_is_graded_lex():
    for n in range(1, 9):
        for m in range(1, 9):
            keys = [(p.size, p.parts) for p in enumerate_rectangle(n, m)]
            assert keys == sorted(set(keys)), (n, m)


@pytest.mark.parametrize("n,m", [(2, 3), (4, 4)])
def test_transpose_involution_on_rectangle(n, m):
    for lam in enumerate_rectangle(n, m):
        assert lam.transpose().transpose() == lam
        assert lam.transpose().size == lam.size
        assert lam.transpose().height == lam.width


def test_ascii_diagram():
    assert ascii_diagram(Partition((3, 1))) == "[][][]\n[]"
    assert ascii_diagram(Partition()) == "1"
    pair = ascii_diagram_pair(Partition((2,)), Partition((1, 1)))
    assert pair.splitlines()[0] == "[][] x []"


def test_parse_partition():
    assert parse_partition("(3,1)") == Partition((3, 1))
    assert parse_partition("()") == Partition()
    with pytest.raises(ValueError):
        parse_partition("(a,b)")


@pytest.mark.parametrize("parse, text, message", [
    (parse_components, "[]", "empty weight literal"),
    (parse_components, "[,]", "empty weight literal"),
    (parse_components, "[1,x]", "bad weight literal '[1,x]'"),
    (parse_components, "(1,1)", "bad weight literal '(1,1)'"),
    (parse_partition, "(a,b)", "bad partition literal '(a,b)'"),
    (parse_partition, "[2,1]", "bad partition literal '[2,1]'"),
])
def test_weight_and_partition_literals_name_what_is_wrong(parse, text, message):
    """Each parser strips only its own brackets and names the kind of
    literal it could not read."""
    with pytest.raises(ValueError) as err:
        parse(text)
    assert str(err.value) == message


def test_literals_allow_spaces_and_a_trailing_comma():
    assert parse_components(" [ 2, 0 , ] ") == (2, 0)
    assert parse_partition(" ( 2, 1, ) ") == Partition((2, 1))
    assert parse_partition(" ( ) ") == Partition()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=7))
def test_parse_partition_round_trips_literal(parts):
    lam = Partition(sorted(parts, reverse=True))
    assert parse_partition("(" + ",".join(str(p) for p in lam.parts) + ")") == lam
    # the tuple form `levelrank branch` prints, e.g. (3,) or (3, 1)
    assert parse_partition(str(lam.parts)) == lam


def test_unchecked_call_sites_match_the_validating_constructor():
    """enumerate_rectangle, LR output, LevelWeight.to_partition and
    transpose build partitions without re-validating them; each must equal
    what Partition(...) builds from the same data, for every partition in the
    5 x 5 box."""
    from levelrank.symfunc import lr_expand
    from levelrank.weights import from_partition

    def same(built: Partition, reference: Partition) -> bool:
        return (built == reference and hash(built) == hash(reference)
                and type(built.parts) is tuple and all(type(p) is int for p in built.parts))

    box = Partition((1,))
    for lam in enumerate_rectangle(5, 5):
        assert same(lam, Partition(list(lam.parts))), lam
        for nu in lr_expand(lam, box):
            added = [(i, nu.part(i) - lam.part(i)) for i in range(nu.height)
                     if nu.part(i) != lam.part(i)]
            assert len(added) == 1 and added[0][1] == 1, (lam, nu)
            grown = list(lam.parts) + [0]
            grown[added[0][0]] += 1
            assert same(nu, Partition(grown)), (lam, nu)
        (alone,) = lr_expand(lam, Partition())
        assert same(alone, Partition(list(lam.parts))), lam
        # a 6-part weight holds any partition of at most 5 rows without a full column
        w = from_partition(lam, 6, 5)
        tail = w.components[1:]
        sums = [sum(tail[i:]) for i in range(len(tail))]  # trailing zeros included
        assert same(w.to_partition(), Partition(sums)), lam
        assert same(lam.transpose(), reflect_cells(lam)), lam
