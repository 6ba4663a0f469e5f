"""Young diagram combinatorics: partitions, transposes, hooks, contents,
and enumeration of partitions inside a bounding rectangle.

Partitions are stored without trailing zeros, so equality is structural.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import comb


class Partition:
    """A weakly decreasing sequence of positive integers.

    The empty partition is ``Partition()``. Trailing zeros in the input are
    stripped; anything else that is not a weakly decreasing sequence of
    positive integers is rejected.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: tuple[int, ...] | list[int] = ()):
        cleaned = []
        for c in parts:
            p = int(c)
            if p != c:
                raise ValueError(f"partition parts must be integers, got {c!r}")
            if p == 0:
                continue
            if p < 0:
                raise ValueError(f"partition parts must be positive, got {p}")
            if cleaned and p > cleaned[-1]:
                raise ValueError(f"parts must be weakly decreasing, got {tuple(parts)}")
            cleaned.append(p)
        # trailing zeros are allowed in the input but interior zeros are not
        if any(q != 0 for q in list(parts)[len(cleaned):]):
            raise ValueError(f"parts must be weakly decreasing, got {tuple(parts)}")
        self._parts = tuple(cleaned)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        """From a tuple of ints known to be positive and weakly decreasing."""
        lam = object.__new__(cls)
        lam._parts = parts
        return lam

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def height(self) -> int:
        return len(self._parts)

    @property
    def width(self) -> int:
        return self._parts[0] if self._parts else 0

    def part(self, i: int) -> int:
        """Row length at 0-based index ``i``; zero beyond the last row."""
        return self._parts[i] if 0 <= i < len(self._parts) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        """The parts padded with zeros to length ``n``."""
        if n < len(self._parts):
            raise ValueError(f"cannot pad height-{len(self._parts)} partition to {n}")
        return self._parts + (0,) * (n - len(self._parts))

    def transpose(self) -> "Partition":
        """Reflect the diagram across the main diagonal."""
        p = self._parts + (0,)
        cols: list[int] = []
        for i in range(len(self._parts), 0, -1):  # columns p[i] .. p[i-1] - 1 have i cells
            cols += [i] * (p[i - 1] - p[i])
        return Partition._unchecked(tuple(cols))

    def fits_in(self, n: int, m: int) -> bool:
        """True when the diagram has at most ``n`` rows and ``m`` columns."""
        return self.height <= n and self.width <= m

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells as (row, column), both 0-based, row-major."""
        for i, p in enumerate(self._parts):
            for j in range(p):
                yield (i, j)

    def content(self, i: int, j: int) -> int:
        """Column index minus row index of a cell."""
        return j - i

    def hook_length(self, i: int, j: int) -> int:
        """Cells strictly to the right plus strictly below plus one."""
        arm = self._parts[i] - j - 1
        leg = sum(1 for p in self._parts[i + 1:] if p > j)
        return arm + leg + 1

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Partition") -> bool:
        # graded-lex: by size first, then tuple comparison
        return (self.size, self._parts) < (other.size, other._parts)

    def __le__(self, other: "Partition") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return f"Partition{self._parts}"


def hooks_and_contents(lam: Partition) -> list[tuple[tuple[int, int], int, int]]:
    """Per-cell table of ((row, col), content, hook length), row-major."""
    return [((i, j), lam.content(i, j), lam.hook_length(i, j)) for i, j in lam.cells()]


def rectangle_parts(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition with at most ``n`` rows and ``m``
    columns, uncached, in the order of ``enumerate_rectangle``. ``_grow``
    builds the partitions row by row, each prefix before its extensions and
    the next row in increasing length, which visits them in lexicographic
    order. Each goes into the bucket of its size as it is grown, so every
    bucket is already in order and the buckets are read out by size, with
    no sort."""
    if n < 1 or m < 1:
        raise ValueError("rectangle bounds must be positive")
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(n * m + 1)]
    _grow(by_size, (), 0, m, n)
    for bucket in by_size:
        yield from bucket


def _grow(by_size: list[list[tuple[int, ...]]], prefix: tuple[int, ...], size: int,
          maxpart: int, rows_left: int) -> None:
    """Append ``prefix`` (weakly decreasing and positive by construction)
    to the bucket of its ``size``, then every extension of it by at most
    ``rows_left`` rows of length at most ``maxpart``, depth first."""
    by_size[size].append(prefix)
    if rows_left:
        rows_left -= 1
        for p in range(1, maxpart + 1):
            _grow(by_size, prefix + (p,), size + p, p, rows_left)


@cache
def enumerate_rectangle(n: int, m: int) -> tuple[Partition, ...]:
    """The binomial(n + m, n) partitions with at most ``n`` rows and ``m``
    columns from ``rectangle_parts``: by size, then by tuple comparison."""
    result = tuple(map(Partition._unchecked, rectangle_parts(n, m)))
    assert len(result) == comb(n + m, n)
    return result


def ascii_diagram(lam: Partition) -> str:
    """Rows of boxes, one text line per row; the empty diagram renders as '1'
    (the label of the unit object)."""
    if lam.height == 0:
        return "1"
    return "\n".join("[]" * p for p in lam.parts)


def ascii_diagram_pair(left: Partition, right: Partition) -> str:
    """Two diagrams side by side, joined by " x " on the first line."""
    lrows = ascii_diagram(left).split("\n")
    rrows = ascii_diagram(right).split("\n")
    width = max(len(r) for r in lrows)
    lines = []
    for k in range(max(len(lrows), len(rrows))):
        lcell = lrows[k] if k < len(lrows) else ""
        rcell = rrows[k] if k < len(rrows) else ""
        joiner = " x " if k == 0 else "   "
        lines.append((lcell.ljust(width) + joiner + rcell).rstrip())
    return "\n".join(lines)


def parse_literal(text: str, kind: str, brackets: str) -> tuple[int, ...]:
    """The integers of a ``kind`` literal: comma-separated, optionally inside
    the two ``brackets``, as in ``(3,1)``; ``()`` when it holds none."""
    s = text.strip()
    if s.startswith(brackets[0]) and s.endswith(brackets[1]):
        s = s[1:-1]
    s = s.strip().rstrip(",")
    try:
        return tuple(int(tok) for tok in s.split(",")) if s else ()
    except ValueError as exc:
        raise ValueError(f"bad {kind} literal {text!r}") from exc


def parse_partition(text: str) -> Partition:
    """Parse a partition literal such as ``(3,1)`` or ``()``."""
    return Partition(parse_literal(text, "partition", "()"))
