"""Kernel-based solver for the inhomogeneous biharmonic Dirichlet problem on the unit disk.

The error types and the solver are imported with the package. The names of
``kernels``, ``quadrature``, ``lipschitz`` and ``verify`` are served on
first use (PEP 562), so a process imports those modules only when it reads
one of their names.
"""

__version__ = "0.1.0"

from .errors import (
    CaseFormatError,
    DegenerateDataError,
    DomainError,
    SingularityError,
)
from .solver import (
    BoundaryData,
    Case,
    Solution,
    SolutionField,
    SourceTerm,
    boundary_gradient,
    case_fingerprint,
    f0_transform,
    green_gradient,
    green_potential,
    h0_transform,
    solve_grid,
    solve_point,
    solve_points,
)

# The names served on first use, each with the module that defines it.
_LAZY = {
    **dict.fromkeys(("KernelParts", "f0_dz", "f0_eval", "h0_dz", "h0_eval", "kernel_moment",
                     "kernel_moment_series"), "kernels"),
    **dict.fromkeys(("DEFAULT_RULES", "CircleRule", "DiskRule", "RuleSet",
                     "circle_integrate", "disk_integrate_centered"), "quadrature"),
    **dict.fromkeys(("ABResult", "LipschitzReport", "analyze_case", "classify", "compute_ab",
                     "empirical_quotient", "estimate_boundary_lipschitz", "p_bound"),
                    "lipschitz"),
    **dict.fromkeys(("CheckResult", "ManufacturedCase", "bound_suite", "boundary_trace_check",
                     "fd_bilaplacian_residual", "gradient_crosscheck", "identity_suite",
                     "manufactured_case", "oracle_suite", "uniqueness_checks"), "verify"),
}
_SUBMODULES = frozenset(_LAZY.values())

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | set(_LAZY) | _SUBMODULES)


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
