"""Machine checks for the exact identities and bounds behind the solver.

Every closed-form identity the kernel calculus rests on, and every integral
bound the distortion constants rest on, is evaluated numerically here and
reported as a ``CheckResult``. Manufactured polynomial solutions close the
loop: data generated from a known Phi* must reproduce Phi* at the solver's
advertised accuracy, the finite-difference bilaplacian of the computed
field must match the load, boundary traces must be recovered in the limit,
and closed-form gradients must agree with difference quotients.

Checks are pure functions of immutable inputs; failures are recorded in the
results, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import green, kernels
from .errors import DomainError, FingerprintMismatchError
from .lipschitz import estimate_boundary_lipschitz, p_bound
from .quadrature import (
    DEFAULT_RULES,
    circle_integrate,
    disk_integrate,
    disk_integrate_centered,
)
from .solver import (
    BoundaryData,
    Solution,
    SolutionField,
    SourceTerm,
    case_fingerprint,
    gradient_point,
    solve_points,
)

# Interior points where pointwise identities and bounds are spot-checked.
SAMPLE_POINTS = (0j, 0.25 + 0j, 0.5 * np.exp(1j * np.pi / 4), 0.75 + 0j, 0.9 + 0j)

# Radii for the circle-average (moment) identities.
SAMPLE_RADII = (0.0, 0.25, 0.5, 0.75, 0.9)

# Finite differences: the bilaplacian stencil spans two spacings, and all
# stencil nodes must stay in this disk.
_FD_MAX_SPACING = 0.05
_FD_DISK = 0.85

# Central-difference step of the gradient crosscheck.
_GRAD_STEP = 1e-5

# Tolerance of every inequality in the bound suite.
_BOUND_TOL = 1e-6

# Equispaced angles of the rings in the boundary trace checks.
_TRACE_ANGLES = 32


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numerical check.

    kind "equality" passes when |computed - expected| <= tolerance; kind
    "bound" passes when Re(computed) <= expected + tolerance. margin is the
    slack left (negative when failed).
    """

    name: str
    computed: complex
    expected: complex
    tolerance: float
    passed: bool
    kind: str
    margin: float

    @classmethod
    def equality(cls, name: str, computed, expected, tolerance: float) -> "CheckResult":
        err = abs(complex(computed) - complex(expected))
        return cls(
            name=name,
            computed=complex(computed),
            expected=complex(expected),
            tolerance=float(tolerance),
            passed=bool(err <= tolerance),
            kind="equality",
            margin=float(tolerance - err),
        )

    @classmethod
    def bound(cls, name: str, computed, limit, tolerance: float) -> "CheckResult":
        value = complex(computed).real
        slack = float(limit) + float(tolerance) - value
        return cls(
            name=name,
            computed=complex(computed),
            expected=complex(limit),
            tolerance=float(tolerance),
            passed=bool(slack >= 0.0),
            kind="bound",
            margin=slack,
        )

    def as_dict(self) -> dict:
        def num(v: complex):
            v = complex(v)
            return v.real if v.imag == 0.0 else [v.real, v.imag]

        return {
            "name": self.name,
            "kind": self.kind,
            "computed": num(self.computed),
            "expected": num(self.expected),
            "tolerance": self.tolerance,
            "margin": self.margin,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ManufacturedCase:
    """A problem instance generated from a known polynomial solution."""

    phi_star: SourceTerm
    f: BoundaryData
    h: BoundaryData
    g: SourceTerm


def manufactured_case(phi_star: SourceTerm, n_samples: int = 512) -> ManufacturedCase:
    """Data triple (f, h, g) whose unique solution is the given monomial sum.

    Termwise: z^a conj(z)^b restricts to e^{i(a-b)theta} on the circle, its
    inward normal derivative there is -(a+b) e^{i(a-b)theta}, and its
    bilaplacian is a b (a-1)(b-1) z^(a-2) conj(z)^(b-2).
    """
    f_modes: dict[int, complex] = {}
    h_modes: dict[int, complex] = {}
    for a, b, c in phi_star.terms:
        mode = a - b
        f_modes[mode] = f_modes.get(mode, 0j) + c
        h_modes[mode] = h_modes.get(mode, 0j) - (a + b) * c
    return ManufacturedCase(
        phi_star=phi_star,
        f=BoundaryData.from_fourier(f_modes.items(), n_samples),
        h=BoundaryData.from_fourier(h_modes.items(), n_samples),
        g=phi_star.bilaplacian(),
    )


def _zkey(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.4g}"
    return f"{z.real:.4g}{z.imag:+.4g}j"


def _log_ratio(z: complex, zeta: np.ndarray) -> np.ndarray:
    d = zeta - z
    w = 1.0 - np.conj(zeta) * z
    return np.log((w.real**2 + w.imag**2) / (d.real**2 + d.imag**2))


def identity_suite(trace_kernel: Optional[Callable] = None) -> list[CheckResult]:
    """Exact-equality checks: kernel means, moments, and log-kernel masses.

    Each family has its own tolerance: 1e-10 for the kernel means and the
    circle-rule moments, 1e-12 for the moment series and 1e-8 for the
    recentred log-kernel masses. ``trace_kernel`` substitutes the trace
    kernel in the mean check (used by the negative-control tests to prove
    the check can fail).
    """
    tk = kernels.f0_eval if trace_kernel is None else trace_kernel
    checks: list[CheckResult] = []
    for z in SAMPLE_POINTS:
        mean = circle_integrate(DEFAULT_RULES.circle, lambda th: tk(z * np.exp(-1j * th)))
        checks.append(CheckResult.equality(
            f"trace-kernel-mean[z={_zkey(z)}]", mean, 1.0, 1e-10))

    for beta in (1, 2):
        for r in SAMPLE_RADII:
            closed = kernels.kernel_moment(beta, r)
            series = kernels.kernel_moment_series(beta, r)
            checks.append(CheckResult.equality(
                f"moment-series[beta={beta},r={r:g}]", series, closed, 1e-12))
            quad = circle_integrate(
                DEFAULT_RULES.circle,
                lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-2 * beta),
            )
            checks.append(CheckResult.equality(
                f"moment-rule[beta={beta},r={r:g}]", quad, closed, 1e-10))
    for r in SAMPLE_RADII:
        series = kernels.kernel_moment(3, r)
        quad = circle_integrate(
            DEFAULT_RULES.circle, lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-6))
        checks.append(CheckResult.equality(
            f"moment-rule[beta=3,r={r:g}]", quad, series, 1e-10))

    for z in SAMPLE_POINTS:
        rep = disk_integrate_centered(
            DEFAULT_RULES.disk, lambda zeta: _log_ratio(z, zeta), center=z)
        checks.append(CheckResult.equality(
            f"log-kernel-mass[z={_zkey(z)}]", rep, 1.0 - abs(z) ** 2, 1e-8))

        ival = disk_integrate_centered(
            DEFAULT_RULES.disk,
            lambda zeta: np.abs(z - zeta) ** 2 * _log_ratio(z, zeta),
            center=z,
        )
        expected = (1.0 - abs(z) ** 4) / 4.0
        checks.append(CheckResult.equality(
            f"weighted-log-mass[z={_zkey(z)}]", ival, expected, 1e-8))

        # same weight integrated in the first argument at fixed second one
        jval = disk_integrate_centered(
            DEFAULT_RULES.disk,
            lambda w: np.abs(w - z) ** 2
            * np.log(np.abs((1.0 - np.conj(w) * z) / (z - w)) ** 2),
            center=z,
        )
        checks.append(CheckResult.equality(
            f"weighted-log-mass-swapped[zeta={_zkey(z)}]", jval, expected, 1e-8))
    return checks


def bound_suite() -> list[CheckResult]:
    """Inequality checks for the Green kernel and its derivative masses.

    Every bound carries the tolerance ``_BOUND_TOL`` (1e-6).

    Integrands carrying absolute values are integrated on the plain rule
    at doubled resolution (|.| breaks smoothness where the sign or a branch
    changes); the smooth sub-integrals use the recentred rule.
    """
    plain = DEFAULT_RULES.disk.doubled()
    checks: list[CheckResult] = []
    for z in SAMPLE_POINTS:
        name = _zkey(z)
        gmass = disk_integrate(plain, lambda zeta: np.abs(green.g_eval(z, zeta)))
        checks.append(CheckResult.bound(
            f"green-abs-mass[z={name}]", gmass, 0.75, _BOUND_TOL))

        gdmass = disk_integrate(plain, lambda zeta: np.abs(green.g_dz(z, zeta).d_z))
        checks.append(CheckResult.bound(
            f"green-grad-abs-mass[z={name}]", gdmass, 23.0 / 6.0, _BOUND_TOL))

        j1 = disk_integrate_centered(
            DEFAULT_RULES.disk,
            lambda zeta: np.abs(z - zeta) * _log_ratio(z, zeta),
            center=z,
        )
        checks.append(CheckResult.bound(f"j1[z={name}]", j1, 0.5, _BOUND_TOL))

        j2 = disk_integrate_centered(
            DEFAULT_RULES.disk,
            lambda zeta: (1.0 - np.abs(zeta) ** 2)
            * np.abs(z - zeta) / np.abs(1.0 - np.conj(zeta) * z),
            center=z,
        )
        checks.append(CheckResult.bound(f"j2[z={name}]", j2, 17.0 / 6.0, _BOUND_TOL))

        j3 = abs(z) * disk_integrate(
            DEFAULT_RULES.disk,
            lambda zeta: 1.0 - np.abs(zeta) ** 2,
        ).real
        checks.append(CheckResult.bound(f"j3[z={name}]", j3, 0.5, _BOUND_TOL))

        h2mass = disk_integrate(plain, lambda zeta: np.abs(green.h2_eval(z, zeta)))
        checks.append(CheckResult.bound(
            f"h2-abs-mass[z={name}]", h2mass, 5.0 * (2.0 - abs(z) ** 2), _BOUND_TOL))

        h3mass = disk_integrate(plain, lambda zeta: np.abs(green.h3_eval(z, zeta)))
        checks.append(CheckResult.bound(
            f"h3-abs-mass[z={name}]", h3mass, 7.0 / 3.0, _BOUND_TOL))

    for r in SAMPLE_RADII:
        cube = circle_integrate(
            DEFAULT_RULES.circle, lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-3))
        limit = np.sqrt(1.0 + r**2) / (1.0 - r**2) ** 2
        checks.append(CheckResult.bound(
            f"angular-cube-moment[r={r:g}]", cube, limit, _BOUND_TOL))
    return checks


def fd_bilaplacian_residual(case, grid_spacing: float, extent: float = 0.8,
                            tolerance: float = 1e-6) -> CheckResult:
    """Max |FD bilaplacian of Phi - g| on a Cartesian sub-grid.

    The field is evaluated on a square grid confined to |z| <= extent and
    the 5-point Laplacian is iterated twice and scaled by 1/16 (the solver's
    Laplacian is a quarter of the coordinate one). Second order accurate:
    exact on quartic solutions, O(spacing^2) otherwise.
    """
    h = float(grid_spacing)
    if not (0.0 < h <= _FD_MAX_SPACING):
        raise DomainError(f"grid spacing must lie in (0, {_FD_MAX_SPACING}]")
    if extent > _FD_DISK:
        raise DomainError(f"stencil support must stay inside |z| <= {_FD_DISK}")
    m = int(np.floor(extent / h))
    if m < 2:
        raise DomainError("stencil exits the allowed disk: spacing too coarse")
    coords = np.arange(-m, m + 1) * h
    zg = coords[None, :] + 1j * coords[:, None]
    inside = np.abs(zg) <= extent

    values = np.full(zg.shape, np.nan, dtype=complex)
    values[inside] = solve_points(case.f, case.h, case.g, zg[inside])

    def lap(u):
        return (u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1]
                - 4.0 * u[1:-1, 1:-1]) / h**2

    bilap = lap(lap(values)) / 16.0
    centers = zg[2:-2, 2:-2]
    resid = np.abs(bilap - case.g.evaluate(centers))
    ok = np.isfinite(resid)
    if not np.any(ok):
        raise DomainError("stencil exits the allowed disk: no interior centers")
    return CheckResult.equality(
        f"fd-bilaplacian-residual[h={h:g}]", float(np.max(resid[ok])), 0.0, tolerance)


def boundary_trace_check(case, radii: Sequence[float]) -> list[CheckResult]:
    """Recovery of f and h: in the limit r -> 1, and exactly on the circle.

    The trace gap |Phi(r e^{i theta}) - f(e^{i theta})| is compared against
    P (1 - r), the distortion bound times the distance to the circle. The
    normal-derivative check differences the two largest radii and carries a
    looser tolerance since the quotient itself is O(1 - r) away from h.
    On the circle the solution is exact, so Phi = f and the inward normal
    derivative -(z Phi_z + zbar Phi_zbar) = h are checked to round-off,
    1e-12 max(1, P).
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[-1] >= 1.0:
        raise DomainError("trace radii must lie in (0, 1)")
    l_est = estimate_boundary_lipschitz(case.f)
    scale = p_bound(l_est, case.h.sup_norm(), case.g.sup_norm_bound())
    th = 2.0 * np.pi * np.arange(_TRACE_ANGLES) / _TRACE_ANGLES
    f_ref, h_ref = case.f.eval_at(th), case.h.eval_at(th)
    solution = Solution(case.f, case.h, case.g)
    ring = {r: solution.values(r * np.exp(1j * th)) for r in radii}

    checks = []
    for r in radii:
        gap = float(np.max(np.abs(ring[r] - f_ref)))
        checks.append(CheckResult.equality(
            f"trace-recovery[r={r:g}]", gap, 0.0, scale * (1.0 - r) + 1e-6))

    if len(radii) >= 2:
        r1, r2 = radii[-2], radii[-1]
        quotient = -(ring[r2] - ring[r1]) / (r2 - r1)
        gap = float(np.max(np.abs(quotient - h_ref)))
        # the quotient approximates h only to O(1 - r); budget a generous
        # second-derivative constant
        tol = 20.0 * max(1.0, scale / 4.0) * (1.0 - r1) + 1e-3
        checks.append(CheckResult.equality(
            f"normal-trace-recovery[r={r1:g},{r2:g}]", gap, 0.0, tol))

    circle = np.exp(1j * th)
    d_z, d_zbar = solution.gradient(circle)
    normal = -(circle * d_z + np.conj(circle) * d_zbar)
    exact_tol = 1e-12 * max(1.0, scale)
    checks.append(CheckResult.equality(
        "trace-exact[r=1]", float(np.max(np.abs(solution.values(circle) - f_ref))),
        0.0, exact_tol))
    checks.append(CheckResult.equality(
        "normal-trace-exact[r=1]", float(np.max(np.abs(normal - h_ref))), 0.0, exact_tol))
    return checks


def gradient_crosscheck(case, points: Sequence[complex],
                        tolerance: float = 1e-6) -> list[CheckResult]:
    """Closed-form kernel gradients vs central differences of the field."""
    checks = []
    for z in points:
        z = complex(z)
        if abs(z) > 0.9:
            raise DomainError("crosscheck points must satisfy |z| <= 0.9")
        pair = gradient_point(case.f, case.h, case.g, z)
        stencil = z + _GRAD_STEP * np.array([1.0, -1.0, 1j, -1j])
        ve = solve_points(case.f, case.h, case.g, stencil)
        ux = (ve[0] - ve[1]) / (2.0 * _GRAD_STEP)
        uy = (ve[2] - ve[3]) / (2.0 * _GRAD_STEP)
        fd_z = (ux - 1j * uy) / 2.0
        fd_zbar = (ux + 1j * uy) / 2.0
        gap = max(abs(pair.d_z - fd_z), abs(pair.d_zbar - fd_zbar))
        checks.append(CheckResult.equality(
            f"gradient-crosscheck[z={_zkey(z)}]", gap, 0.0, tolerance))
    return checks


def solution_error(case: ManufacturedCase, field: SolutionField) -> CheckResult:
    """Sup of |computed - phi_star| over the field's nodes with r <= 0.9, to 1e-8."""
    expected = case_fingerprint(case.f, case.h, case.g)
    if field.fingerprint != expected:
        raise FingerprintMismatchError(
            "field fingerprint does not match this case's data"
        )
    sel = field.radii <= 0.9 + 1e-12
    pts = field.points[sel]
    diff = np.abs(field.values[sel] - case.phi_star.evaluate(pts))
    err = float(np.max(diff)) if diff.size else 0.0
    return CheckResult.equality("solution-error", err, 0.0, 1e-8)
