"""Multiplicity structure, certified separation bounds, and quadratically
convergent refinement for corank-one multiple zeros of square polynomial
systems."""

from .certify import (
    ClusterCertificate,
    CoefficientTable,
    ResidualBound,
    SeparationResult,
    certify_cluster,
    coefficient_table,
    p_of_d,
    residual_lower_bound,
    separation_bound,
    separation_constant,
)
from .dualspace import (
    DualBasis,
    DualFunctional,
    chainrule_Lk,
    compute_dual_basis,
    is_normalized,
    normalizing_frame,
)
from .errors import (
    BreadthError,
    CorankError,
    InputError,
    MathDomainError,
    MultiplicityNotFoundError,
    MZeroError,
    NoRootError,
    NotNormalizedError,
    ParseError,
    SingularMatrixError,
)
from .gamma import GammaReport, LocalModel, gamma_mu
from .newton import (
    NewtonTrace,
    ThresholdSet,
    iterate_until,
    n1_step,
    rational_functions,
    refine_double,
    refine_general,
    refine_triple,
    threshold_constants,
)
from .numkit import (
    SvdResult,
    TensorNorm,
    matrix_spectral_norm,
    smallest_positive_root,
    solve_least_squares,
    solve_linear,
    svd,
    tensor_norm,
)
from .polycore import (
    CTensor,
    NormalizedFrame,
    Poly,
    PolySystem,
    apply_functional,
    parse_system,
    unitary_pullback,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
