"""Oracles for the fusion tests, built on ``fuse`` alone: the product of a
decomposition with one more weight (for associativity) and the exact
quantum dimension of a decomposition (for multiplicativity)."""

from levelrank.cyclotomic import CyclotomicNumber, conductor_for
from levelrank.fusion import Decomposition, fuse
from levelrank.qdim import qdim_weight
from levelrank.weights import LevelWeight


def fuse_decompositions(dec: Decomposition, c: LevelWeight) -> Decomposition:
    """Fuse every summand of ``dec`` with ``c``."""
    out: dict[LevelWeight, int] = {}
    for w, mult in dec.terms.items():
        for v, k in fuse(w, c).terms.items():
            out[v] = out.get(v, 0) + mult * k
    return Decomposition(dec.rank, dec.level, out)


def total_qdim(dec: Decomposition) -> CyclotomicNumber:
    """The sum of the exact quantum dimensions of the summands, with
    multiplicity."""
    total = CyclotomicNumber.zero(conductor_for(dec.rank, dec.level))
    for w, c in dec.terms.items():
        total = total + qdim_weight(w) * c
    return total
