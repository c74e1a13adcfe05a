"""Numerical Dirichlet solver for Monge-Ampere type equations on Garding cones.

The operator is the product over all p-element subsets of eigenvalue sums of
the metric endomorphism of chi + i ddbar u; p = n - 1 is the
(n-1)-plurisubharmonic case the package centers on.  The solver runs a
continuity method with damped, cone-preserving Newton steps, and a
verification harness instantiates every numerically checkable structural
property: operator concavity and homogeneity, cone preservation, the
comparison sandwich, collar barriers, boundary trace bounds and
second-order ratio monitors.
"""

from .cone import ConeMargin, admissibility_scan, cone_margin, in_level_set
from .errors import (
    BoundaryNode,
    ConeEscape,
    ContinuationStalled,
    GardingError,
    IndefiniteCoefficients,
    LinearSolveStalled,
    MaxItersExceeded,
    MetricNotPositive,
    NotAdmissible,
    NotArrowForm,
    NotHermitian,
    OutsideCone,
    ParseError,
    RadialModeUnsupported,
    SubsolutionInvalid,
    ValidationError,
)
from .grid import BoxGrid, MatrixField, ScalarField, assemble_g, complex_hessian
from .hermitian import (
    HermitianMatrix,
    Spectrum,
    herm_eigen,
    metric_endomorphism_eigen,
    trace_with_metric,
)
from .linear import SparseSystem, assemble_linearized, solve_sparse, upper_barrier
from .operator import (
    LinearizationCoeffs,
    OperatorParams,
    arrow_form_value,
    eval_M,
    eval_ftilde,
    grad_ftilde,
    linearization_coeffs,
    structure_check,
    subset_sums,
)
from .problems import ProblemSpec, manufactured_box, manufactured_radial, verify_subsolution
from .radial import RadialGrid, radial_eigenvalues
from .solver import (
    HomotopyState,
    SolveDiagnostics,
    barrier_check,
    boundary_trace_check,
    c2_ratio_monitor,
    continuity_solve,
    newton_solve_at_t,
    sandwich_check,
)
from .specfile import build_problem, emit_document, parse_document, parse_spec

__version__ = "0.1.0"
