"""Oracles for the partition tests: the contents and hook lengths of a
diagram, laid out like the diagram, for golden values beside the per-cell
table of ``hooks_and_contents``."""

from levelrank.partitions import Partition


def content_rows(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Contents arranged like the diagram, one tuple per row."""
    return tuple(tuple(j - i for j in range(p)) for i, p in enumerate(lam.parts))


def hook_rows(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook lengths arranged like the diagram, one tuple per row."""
    return tuple(
        tuple(lam.hook_length(i, j) for j in range(p)) for i, p in enumerate(lam.parts)
    )
