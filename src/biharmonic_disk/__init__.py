"""Kernel-based solver for the inhomogeneous biharmonic Dirichlet problem on the unit disk."""

__version__ = "0.1.0"

from .errors import (
    CaseFormatError,
    DegenerateDataError,
    DomainError,
    SingularityError,
)
from .kernels import f0_dz, f0_eval, h0_dz, h0_eval, kernel_moment, kernel_moment_series
from .green import MobiusMap, g_dz, g_eval, h2_eval, h3_eval
from .quadrature import (
    DEFAULT_RULES,
    CircleRule,
    DiskRule,
    RuleSet,
    circle_integrate,
    disk_integrate,
    disk_integrate_centered,
)
from .solver import (
    BoundaryData,
    Case,
    SolutionField,
    SourceTerm,
    boundary_gradient,
    case_fingerprint,
    f0_transform,
    gradient_point,
    green_gradient,
    green_potential,
    h0_transform,
    solve_grid,
    solve_point,
    solve_points,
    table_coefficients,
)
from .lipschitz import (
    ABResult,
    LipschitzReport,
    analyze_case,
    classify,
    compute_ab,
    empirical_quotient,
    estimate_boundary_lipschitz,
    p_bound,
)
from .verify import (
    CheckResult,
    ManufacturedCase,
    bound_suite,
    boundary_trace_check,
    fd_bilaplacian_residual,
    gradient_crosscheck,
    identity_suite,
    manufactured_case,
    oracle_suite,
    uniqueness_checks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
