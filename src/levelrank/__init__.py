"""Exact computations around the rank/level duality of the special linear
series: branching tables for the conformal inclusion of rank n at level m
times rank m at level n inside rank n*m at level 1, affine fusion rules,
quantum dimensions in cyclotomic fields, the modular S-matrix, and exact
verification sweeps for the identities tying them together.
"""

from .branching import (
    BranchingTable,
    branch,
    etale_vacuum_algebra,
    mirror_transport,
    transport,
    verify_equivalence_fusion,
    verify_exhaustion,
    verify_trace_form,
)
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, qint
from .fusion import Decomposition, fuse, fusion_coefficient, rotation_check, verlinde_check
from .partitions import Partition, ascii_diagram, enumerate_rectangle, hooks_and_contents
from .qdim import category_dim, dimension_report, graded_dim, qdim_partition, qdim_weight
from .smatrix import SMatrixData, central_charge, conformal_weight, s_matrix
from .symfunc import SymPolynomial, lr_expand, schur, verify_skew_cauchy
from .verdict import Verdict
from .weights import LevelWeight, enumerate_graded, enumerate_weights, from_partition, tau

__version__ = "0.1.0"

__all__ = [
    "BranchingTable",
    "CyclotomicNumber",
    "Decomposition",
    "LevelWeight",
    "Partition",
    "SMatrixData",
    "SymPolynomial",
    "Verdict",
    "ascii_diagram",
    "branch",
    "category_dim",
    "central_charge",
    "conformal_weight",
    "cyclotomic_polynomial",
    "dimension_report",
    "enumerate_graded",
    "enumerate_rectangle",
    "enumerate_weights",
    "etale_vacuum_algebra",
    "from_partition",
    "fuse",
    "fusion_coefficient",
    "graded_dim",
    "hooks_and_contents",
    "lr_expand",
    "mirror_transport",
    "qdim_partition",
    "qdim_weight",
    "qint",
    "rotation_check",
    "s_matrix",
    "schur",
    "tau",
    "transport",
    "verify_equivalence_fusion",
    "verify_exhaustion",
    "verify_skew_cauchy",
    "verify_trace_form",
    "verlinde_check",
]
