"""Polynomials with a prescribed set of perfect-power values.

For any finite set S of perfect powers (integer or rational sense), the
library constructs a polynomial f with integer coefficients whose
perfect-power values are exactly the elements of S, each a fixed point
of f.  Exhaustive bounded scans validate constructions empirically,
per-point traces check the arithmetic invariants the construction rests
on, and bounded searches document the classical Diophantine facts used
along the way.  All arithmetic is exact.
"""

from .construct import (
    CapacityError,
    CapacityEstimate,
    ConstructionArtifacts,
    PowerSetInput,
    SelectionPolicy,
    ValidationError,
    compute_k,
    construct,
    element_pairs,
    find_deltas,
)
from .ntheory import factor_integer, integer_nth_root, is_prime
from .oracles import (
    PowerHit,
    SolutionList,
    scan_gamma_minus_pow2,
    scan_recurrence_powers,
    search_catalan,
    search_fermat_quartic,
    search_lebesgue,
)
from .poly import IntPoly, rational_roots
from .powers import (
    PowerDecomposition,
    decompose_integer_power,
    decompose_rational_power,
    is_rational_perfect_power,
)
from .verify import (
    Hit,
    InvariantViolation,
    TraceRecord,
    VerificationReport,
    ensure_trace,
    rational_height,
    trace_quantities,
    verify_construction,
    verify_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CapacityEstimate",
    "ConstructionArtifacts",
    "Hit",
    "IntPoly",
    "InvariantViolation",
    "PowerDecomposition",
    "PowerHit",
    "PowerSetInput",
    "SelectionPolicy",
    "SolutionList",
    "TraceRecord",
    "ValidationError",
    "VerificationReport",
    "compute_k",
    "construct",
    "decompose_integer_power",
    "decompose_rational_power",
    "element_pairs",
    "ensure_trace",
    "factor_integer",
    "find_deltas",
    "integer_nth_root",
    "is_prime",
    "is_rational_perfect_power",
    "rational_height",
    "rational_roots",
    "scan_gamma_minus_pow2",
    "scan_recurrence_powers",
    "search_catalan",
    "search_fermat_quartic",
    "search_lebesgue",
    "trace_quantities",
    "verify_construction",
    "verify_polynomial",
    "__version__",
]
