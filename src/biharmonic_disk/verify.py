"""Machine checks for the exact identities and bounds behind the solver.

Every closed-form identity the kernel calculus rests on, and every integral
bound the distortion constants rest on, is evaluated numerically here and
reported as a ``CheckResult``. Manufactured polynomial solutions close the
loop: data generated from a known Phi* must reproduce Phi* at the solver's
advertised accuracy. ``uniqueness_checks`` tests exactly on the solver's
table that its bilaplacian is g, its trace f and its inward normal
derivative h; the solution is unique, so together they certify the table.
The evaluator is checked apart: by the finite-difference bilaplacian of
the field, by its values and normal derivative on the circle, and by
difference quotients of its gradients.

Checks are pure functions of immutable inputs; failures are recorded in the
results, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import green, kernels
from .green import _abs2
from .errors import DomainError
from .quadrature import (
    DEFAULT_RULES,
    _circle_angles,
    circle_integrate,
    disk_integrate,
    disk_integrate_centered,
)
from .solver import (
    BoundaryData,
    Solution,
    SourceTerm,
    gradient_point,
    solve_points,
    table_coefficients,
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

# Mass bounds int |K(z, .)| dA <= limit(z) of the Green kernel and its
# derivatives, as (check name, kernel, limit); scripts/bound_margins.py
# sweeps the same rows over radii.
_ABS_MASS_BOUNDS = (
    ("green-abs-mass", green.KernelParts.g, lambda z: 0.75),
    ("green-grad-abs-mass", green.KernelParts.g_dz, lambda z: 23.0 / 6.0),
    ("h2-abs-mass", green.KernelParts.h2, lambda z: 5.0 * (2.0 - abs(z) ** 2)),
    ("h3-abs-mass", green.KernelParts.h3, lambda z: 7.0 / 3.0),
)


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


def _log_integrands(z: complex, zeta: np.ndarray) -> np.ndarray:
    """The recentred integrands at z, one stack for both suites.

    Rows: the log-kernel mass, its |z - zeta|^2-weighted form and the swapped
    form (identities), then j1 = |z - zeta| log-ratio and
    j2 = (1 - |zeta|^2) |z - zeta| / |1 - conj(zeta) z| (bounds).
    """
    d2 = _abs2(zeta - z)
    w2 = _abs2(1.0 - np.conj(zeta) * z)
    log = np.log(w2 / d2)
    # the weight integrated in G's first argument at fixed second one z; its
    # own formula, so that the check is not the unswapped row under a new name
    swapped = np.abs(zeta - z) ** 2 * np.log(np.abs((1.0 - np.conj(z) * zeta) / (z - zeta)) ** 2)
    dist = np.sqrt(d2)
    return np.stack([log, d2 * log, swapped, dist * log, (1.0 - _abs2(zeta)) * dist / np.sqrt(w2)])


def _abs_masses(z: complex) -> list[tuple[str, complex, float]]:
    """(check name, mass, limit) at z for each row of ``_ABS_MASS_BOUNDS``.

    |.| breaks smoothness where the sign or a branch changes, so the masses
    are integrated on the plain rule at doubled resolution, not recentred,
    all four in one pass that builds the kernels' shared parts once per block
    and folds its rows across the line through 0 and z (``mirror=z``).
    """
    def integrand(zeta):
        parts = green.KernelParts(z, zeta)
        return np.stack([np.abs(kernel(parts)) for _, kernel, _ in _ABS_MASS_BOUNDS])

    masses = disk_integrate(DEFAULT_RULES.disk.doubled(), integrand, mirror=z)
    return [(name, mass, limit(z))
            for (name, _, limit), mass in zip(_ABS_MASS_BOUNDS, masses)]


def oracle_suite(trace_kernel: Optional[Callable] = None) -> list[CheckResult]:
    """Every identity check, then every bound check, as ``identities`` reports them.

    Per sample point z one recentred pass integrates the three log-kernel
    masses of ``identity_suite`` and j1, j2 of ``bound_suite`` together, and
    one plain pass at doubled resolution the four |K| masses. Every integrand
    of both passes is a function of |zeta|, |zeta - z| and |1 - conj(zeta) z|,
    so it is symmetric across the line through 0 and z, and both passes fold
    their rows onto half circles (``mirror=z``); so does the radial area
    integral behind j3 (``mirror=0``). Every sample point lies on a grid
    angle of both disk rules, which the fold requires. ``trace_kernel``
    substitutes the trace kernel in the mean check (used by the
    negative-control tests to prove the check can fail).
    """
    tk = kernels.f0_eval if trace_kernel is None else trace_kernel
    identities: list[CheckResult] = []
    for z in SAMPLE_POINTS:
        mean = circle_integrate(DEFAULT_RULES.circle, lambda th: tk(z * np.exp(-1j * th)))
        identities.append(CheckResult.equality(
            f"trace-kernel-mean[z={_zkey(z)}]", mean, 1.0, 1e-10))

    for beta in (1, 2):
        for r in SAMPLE_RADII:
            closed = kernels.kernel_moment(beta, r)
            series = kernels.kernel_moment_series(beta, r)
            identities.append(CheckResult.equality(
                f"moment-series[beta={beta},r={r:g}]", series, closed, 1e-12))
            quad = circle_integrate(
                DEFAULT_RULES.circle,
                lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-2 * beta),
            )
            identities.append(CheckResult.equality(
                f"moment-rule[beta={beta},r={r:g}]", quad, closed, 1e-10))
    for r in SAMPLE_RADII:
        series = kernels.kernel_moment(3, r)
        quad = circle_integrate(
            DEFAULT_RULES.circle, lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-6))
        identities.append(CheckResult.equality(
            f"moment-rule[beta=3,r={r:g}]", quad, series, 1e-10))

    area = disk_integrate(DEFAULT_RULES.disk, lambda zeta: 1.0 - np.abs(zeta) ** 2, mirror=0j).real
    bounds: list[CheckResult] = []
    for z in SAMPLE_POINTS:
        name = _zkey(z)
        rep, ival, jval, j1, j2 = disk_integrate_centered(
            DEFAULT_RULES.disk, lambda zeta: _log_integrands(z, zeta), center=z, mirror=z)
        expected = (1.0 - abs(z) ** 4) / 4.0
        identities += [
            CheckResult.equality(
                f"log-kernel-mass[z={name}]", rep, 1.0 - abs(z) ** 2, 1e-8),
            CheckResult.equality(
                f"weighted-log-mass[z={name}]", ival, expected, 1e-8),
            CheckResult.equality(
                f"weighted-log-mass-swapped[zeta={name}]", jval, expected, 1e-8),
        ]
        masses = [CheckResult.bound(f"{label}[z={name}]", mass, limit, _BOUND_TOL)
                  for label, mass, limit in _abs_masses(z)]
        # the Green and gradient masses come before j1..j3, the H2 and H3 ones after
        bounds += masses[:2] + [
            CheckResult.bound(f"j1[z={name}]", j1, 0.5, _BOUND_TOL),
            CheckResult.bound(f"j2[z={name}]", j2, 17.0 / 6.0, _BOUND_TOL),
            CheckResult.bound(f"j3[z={name}]", abs(z) * area, 0.5, _BOUND_TOL),
        ] + masses[2:]

    for r in SAMPLE_RADII:
        cube = circle_integrate(
            DEFAULT_RULES.circle, lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-3))
        limit = np.sqrt(1.0 + r**2) / (1.0 - r**2) ** 2
        bounds.append(CheckResult.bound(
            f"angular-cube-moment[r={r:g}]", cube, limit, _BOUND_TOL))
    return identities + bounds


def identity_suite(trace_kernel: Optional[Callable] = None) -> list[CheckResult]:
    """Exact-equality checks: kernel means, moments, and log-kernel masses.

    The equality checks of ``oracle_suite``, which takes the same
    ``trace_kernel``. Each family has its own tolerance: 1e-10 for the kernel
    means and the circle-rule moments, 1e-12 for the moment series and 1e-8
    for the recentred log-kernel masses.
    """
    return [c for c in oracle_suite(trace_kernel) if c.kind == "equality"]


def bound_suite() -> list[CheckResult]:
    """Inequality checks for the Green kernel and its derivative masses.

    The bound checks of ``oracle_suite``. Every bound carries the tolerance
    ``_BOUND_TOL`` (1e-6). The smooth sub-integrals j1, j2 use the recentred
    rule; j3 is |z| times a fixed mass, integrated once.
    """
    return [c for c in oracle_suite() if c.kind == "bound"]


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


def _exact_checks(case, gaps) -> list[CheckResult]:
    """Per (name, gap array), its largest |entry| against 1e-12 max(1, S).

    S = sum (1 + |m|)|f_m| + sum |h_m| + sum |g_k| serves every check:
    per-check scales fail, because the s^1 row cancels across levels.
    """
    f, h = case.f, case.h
    scale = (np.sum((1 + np.arange(f.a.size)) * (np.abs(f.a) + np.abs(f.b)))
             + np.sum(np.abs([h.a, h.b])) + case.g.sup_norm_bound())
    tol = 1e-12 * max(1.0, float(scale))
    return [CheckResult.equality(name, float(np.max(np.abs(gap))), 0.0, tol)
            for name, gap in gaps]


def uniqueness_checks(case) -> list[CheckResult]:
    """The uniqueness theorem's three conditions on the table's coefficients c[d, l].

    On the circle Phi's mode d is sum_l c[d, l] and its inward normal
    derivative -sum_l (|d| + 2l) c[d, l]; Delta^2 (w_d t^l) is
    (|d|+l)(|d|+l-1) l (l-1) w_d t^(l-2), and g's z^a zbar^b sits at (a-b, min(a, b)).
    """
    c = table_coefficients(case.f, case.h, case.g)
    n, depth = c.shape
    row = np.arange(n)
    d = np.minimum(row, n - row)[:, None]  # |d| of each row in FFT order
    l = np.arange(depth)
    bilap = np.zeros_like(c)
    bilap[:, :-2] = ((d + l) * (d + l - 1) * l * (l - 1) * c)[:, 2:]
    for a, b, coef in case.g.terms:
        bilap[a - b, min(a, b)] -= coef
    return _exact_checks(case, (
        ("trace-modes-exact", np.sum(c, axis=1) - case.f.modes(n)),
        ("normal-modes-exact", -np.sum((d + 2 * l) * c, axis=1) - case.h.modes(n)),
        ("bilaplacian-exact", bilap)))


def boundary_trace_check(case) -> list[CheckResult]:
    """Phi = f and -(z Phi_z + zbar Phi_zbar) = h on the circle, through the evaluator.

    At ``_TRACE_ANGLES`` equispaced angles; ``uniqueness_checks`` never run the evaluator.
    """
    th = _circle_angles(_TRACE_ANGLES)
    circle = np.exp(1j * th)
    solution = Solution(case.f, case.h, case.g)
    d_z, d_zbar = solution.gradient(circle)
    normal = -(circle * d_z + np.conj(circle) * d_zbar)
    return _exact_checks(case, (
        ("trace-exact[r=1]", solution.values(circle) - case.f.eval_at(th)),
        ("normal-trace-exact[r=1]", normal - case.h.eval_at(th))))


def gradient_crosscheck(case, points: Sequence[complex],
                        tolerance: float = 1e-6) -> list[CheckResult]:
    """Closed-form kernel gradients vs central differences of the field."""
    checks = []
    for z in points:
        z = complex(z)
        if abs(z) > 0.9:
            raise DomainError("crosscheck points must satisfy |z| <= 0.9")
        d_z, d_zbar = gradient_point(case.f, case.h, case.g, z)
        stencil = z + _GRAD_STEP * np.array([1.0, -1.0, 1j, -1j])
        ve = solve_points(case.f, case.h, case.g, stencil)
        ux = (ve[0] - ve[1]) / (2.0 * _GRAD_STEP)
        uy = (ve[2] - ve[3]) / (2.0 * _GRAD_STEP)
        fd_z = (ux - 1j * uy) / 2.0
        fd_zbar = (ux + 1j * uy) / 2.0
        gap = max(abs(d_z - fd_z), abs(d_zbar - fd_zbar))
        checks.append(CheckResult.equality(
            f"gradient-crosscheck[z={_zkey(z)}]", gap, 0.0, tolerance))
    return checks

