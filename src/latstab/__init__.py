"""Geometrically-local stabilizer and subsystem codes on lattices: exact
distance, linear distance and energy-barrier analysis with certified
lemma-level transforms."""

# latstab calls no BLAS routine, so numpy is loaded with one OpenBLAS thread
# instead of a worker pool that only costs start-up CPU. The variable is set
# for this import only, and never when the caller chose a thread count
# (OpenBLAS reads these three, in this order) or has already loaded numpy.
import os
import sys

if "numpy" not in sys.modules and not any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

from .barrier import barrier_exact
from .codes import CodeSpec, parse_code, serialize_code
from .config import Budgets
from .errors import CertificateError
from .geometry import Lattice, Region, boundary_shell, strip_partition
from .groups import (
    GroupBasis,
    LogicalBasis,
    centralizer,
    contained_subgroup,
    get_structure,
    span_basis,
)
from .metrics import (
    BarrierResult,
    DistanceResult,
    LinearDistanceResult,
    WalkTrace,
    barrier_walk_bound,
    distance,
    distance_bruteforce,
    distance_dp,
    linear_distance,
)
from .pauli import PauliOp
from .transforms import (
    CleanResult,
    MinimalBlockResult,
    RestrictionAuditResult,
    SweepResult,
    clean_stabilizer,
    clean_subsystem,
    compress_qubits,
    minimal_block_search,
    restriction_audit,
    strip_sweep,
)
from .zoo import (
    make_bacon_shor_2d,
    make_generalized_toric,
    make_heisenberg_gauge,
    make_repetition_1d,
    make_steane_chain,
    make_surface_2d,
    make_toric_2d,
)

__version__ = "0.1.0"

__all__ = [
    "Budgets",
    "BarrierResult",
    "CertificateError",
    "CleanResult",
    "CodeSpec",
    "DistanceResult",
    "GroupBasis",
    "Lattice",
    "LinearDistanceResult",
    "LogicalBasis",
    "MinimalBlockResult",
    "PauliOp",
    "Region",
    "RestrictionAuditResult",
    "SweepResult",
    "WalkTrace",
    "barrier_exact",
    "barrier_walk_bound",
    "boundary_shell",
    "centralizer",
    "clean_stabilizer",
    "clean_subsystem",
    "compress_qubits",
    "contained_subgroup",
    "distance",
    "distance_bruteforce",
    "distance_dp",
    "get_structure",
    "linear_distance",
    "make_bacon_shor_2d",
    "make_generalized_toric",
    "make_heisenberg_gauge",
    "make_repetition_1d",
    "make_steane_chain",
    "make_surface_2d",
    "make_toric_2d",
    "minimal_block_search",
    "parse_code",
    "restriction_audit",
    "serialize_code",
    "span_basis",
    "strip_partition",
    "strip_sweep",
    "__version__",
]
