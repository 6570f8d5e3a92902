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
results, never raised, but a check whose allowance or residual overflows
double precision cannot be judged and raises ``DegenerateDataError``. The
oracle's modules (``kernels`` and ``quadrature``) are imported by the
oracle functions that run them, so ``verify`` on a case loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDataError, DomainError
from .solver import BoundaryData, Case, SourceTerm, _circle_angles

# Interior points where pointwise identities and bounds are spot-checked.
SAMPLE_POINTS = (0j, 0.25 + 0j, 0.5 * np.exp(1j * np.pi / 4), 0.75 + 0j, 0.9 + 0j)

# Radii for the circle-average (moment) identities.
SAMPLE_RADII = (0.0, 0.25, 0.5, 0.75, 0.9)

# Finite differences: the bilaplacian stencil spans two spacings, and all
# stencil nodes must stay in this disk.
_FD_MAX_SPACING = 0.05
_FD_DISK = 0.85

# Central-difference step and allowance per unit of max(1, S) of the gradient crosscheck.
_GRAD_STEP = 1e-5
_GRAD_TOL = 1e-6

# Tolerance of every inequality in the bound suite.
_BOUND_TOL = 1e-6

# The most circle nodes boundary_trace_check also runs through the point route.
_POINT_NODES = 64

# Mass bounds int |K(z, .)| dA <= limit(z) of the Green kernel and its
# derivatives, as (check name, ``kernels.KernelParts`` method, limit);
# scripts/bound_margins.py sweeps the same rows over radii.
_ABS_MASS_BOUNDS = (
    ("green-abs-mass", "g", lambda z: 0.75),
    ("green-grad-abs-mass", "g_dz", lambda z: 23.0 / 6.0),
    ("h2-abs-mass", "h2", lambda z: 5.0 * (2.0 - abs(z) ** 2)),
    ("h3-abs-mass", "h3", lambda z: 7.0 / 3.0),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numerical check: what it measured, against what, within what.

    kind "equality" passes when |computed - expected| <= tolerance, even
    inf <= inf; kind "bound" when Re(computed) <= expected + tolerance.
    margin is the slack left, negative when failed (and nan for inf - inf).
    """

    name: str
    computed: complex
    expected: complex
    tolerance: float
    kind: str

    @classmethod
    def equality(cls, name: str, computed, expected, tolerance: float) -> "CheckResult":
        return cls(name, complex(computed), complex(expected), float(tolerance), "equality")

    @classmethod
    def bound(cls, name: str, computed, limit, tolerance: float) -> "CheckResult":
        return cls(name, complex(computed), complex(float(limit)), float(tolerance), "bound")

    @property
    def margin(self) -> float:
        if self.kind == "equality":
            return self.tolerance - abs(self.computed - self.expected)
        return self.expected.real + self.tolerance - self.computed.real

    @property
    def passed(self) -> bool:
        if self.kind == "equality":
            return abs(self.computed - self.expected) <= self.tolerance
        return self.margin >= 0.0

    def as_dict(self) -> dict:
        def num(v: complex):
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
class ManufacturedCase(Case):
    """A problem instance generated from a known polynomial solution."""

    phi_star: SourceTerm


def manufactured_case(phi_star: SourceTerm) -> ManufacturedCase:
    """Data triple (f, h, g) whose unique solution is the given monomial sum.

    Termwise: z^a conj(z)^b restricts to e^{i(a-b)theta} on the circle, its
    inward normal derivative there is -(a+b) e^{i(a-b)theta}, and its
    bilaplacian is a b (a-1)(b-1) z^(a-2) conj(z)^(b-2). f and h take
    ``BoundaryData.from_fourier``'s 512 samples, which resolve every mode
    |a - b| <= 16 of a load's exponents.
    """
    f_modes: dict[int, complex] = {}
    h_modes: dict[int, complex] = {}
    for a, b, c in phi_star.terms:
        mode = a - b
        f_modes[mode] = f_modes.get(mode, 0j) + c
        h_modes[mode] = h_modes.get(mode, 0j) - (a + b) * c
    return ManufacturedCase(
        f=BoundaryData.from_fourier(f_modes.items()),
        h=BoundaryData.from_fourier(h_modes.items()),
        g=phi_star.bilaplacian(),
        phi_star=phi_star,
    )


def _zkey(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.4g}"
    return f"{z.real:.4g}{z.imag:+.4g}j"


def _oracle_integrands(z: complex, zeta: np.ndarray) -> np.ndarray:
    """The nine recentred integrands at z, built from one ``KernelParts``.

    Rows: the |K| of ``_ABS_MASS_BOUNDS``, the log-kernel mass, its
    |z - zeta|^2-weighted form and the swapped form (identities), then
    j1 = |z - zeta| log-ratio and j2 = (1 - |zeta|^2) |z - zeta| / |1 - conj(zeta) z|.
    """
    from .kernels import KernelParts

    parts = KernelParts(z, zeta)
    out = np.empty((9,) + zeta.shape)
    for row, (_, kernel, _) in zip(out, _ABS_MASS_BOUNDS):
        np.abs(getattr(parts, kernel)(), out=row)
    out[4] = parts.log
    np.multiply(parts.ad2, parts.log, out=out[5])
    # the weight integrated in G's first argument at fixed second one z; its
    # own formula, so that the check is not the unswapped row under a new name
    out[6] = np.abs(zeta - z) ** 2 * np.log(np.abs((1.0 - np.conj(z) * zeta) / (z - zeta)) ** 2)
    dist = np.sqrt(parts.ad2)
    np.multiply(dist, parts.log, out=out[7])
    np.divide(parts.s * dist, np.sqrt(parts.aw2), out=out[8])
    return out


def _recentred_masses(z: complex) -> tuple[list[tuple[str, complex, float]], np.ndarray]:
    """(check name, mass, limit) at z per row of ``_ABS_MASS_BOUNDS``, and the other five masses.

    One pass of the disk rule recentred at z, folded across the line through
    0 and z.
    """
    from .quadrature import DEFAULT_RULES, disk_integrate_centered

    values = disk_integrate_centered(DEFAULT_RULES.disk, lambda zeta: _oracle_integrands(z, zeta),
                                     center=z, fold=True)
    masses = [(name, mass, limit(z)) for (name, _, limit), mass in zip(_ABS_MASS_BOUNDS, values)]
    return masses, values[len(_ABS_MASS_BOUNDS):]


def _circle_moment(r: float, p: int) -> complex:
    """Mean of |1 - r e^{-i theta}|^(-p) on the oracle's circle rule."""
    from .quadrature import DEFAULT_RULES, circle_integrate

    return circle_integrate(
        DEFAULT_RULES.circle, lambda th: np.abs(1.0 - r * np.exp(-1j * th)) ** (-p))


def oracle_suite(trace_kernel: Optional[Callable] = None) -> list[CheckResult]:
    """Every identity check, then every bound check, as ``identities`` reports them.

    Per sample point z one pass of the disk rule recentred at z integrates
    the four |K| masses and j1, j2 of ``bound_suite`` and the three log-kernel
    masses of ``identity_suite`` together, all from one ``KernelParts`` per
    block. Each of its integrands is a function of |zeta|, |zeta - z| and
    |1 - conj(zeta) z|, so it is symmetric across the line through 0 and z,
    and the pass folds its rows onto half circles (``fold=True``); so does
    the radial area integral behind j3 (centred at 0, across the real axis).
    Every sample point lies on a grid angle of the disk rule, which the fold
    requires. ``trace_kernel`` substitutes the trace kernel in the mean
    check (used by the negative-control tests to prove the check can fail).
    """
    from . import kernels
    from .quadrature import DEFAULT_RULES, circle_integrate, disk_integrate_centered

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
            identities.append(CheckResult.equality(
                f"moment-rule[beta={beta},r={r:g}]", _circle_moment(r, 2 * beta), closed, 1e-10))
    for r in SAMPLE_RADII:
        series = kernels.kernel_moment(3, r)
        identities.append(CheckResult.equality(
            f"moment-rule[beta=3,r={r:g}]", _circle_moment(r, 6), series, 1e-10))

    area = disk_integrate_centered(
        DEFAULT_RULES.disk, lambda zeta: 1.0 - np.abs(zeta) ** 2, center=0j, fold=True).real
    bounds: list[CheckResult] = []
    for z in SAMPLE_POINTS:
        name = _zkey(z)
        abs_masses, (rep, ival, jval, j1, j2) = _recentred_masses(z)
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
                  for label, mass, limit in abs_masses]
        # the Green and gradient masses come before j1..j3, the H2 and H3 ones after
        bounds += masses[:2] + [
            CheckResult.bound(f"j1[z={name}]", j1, 0.5, _BOUND_TOL),
            CheckResult.bound(f"j2[z={name}]", j2, 17.0 / 6.0, _BOUND_TOL),
            CheckResult.bound(f"j3[z={name}]", abs(z) * area, 0.5, _BOUND_TOL),
        ] + masses[2:]

    for r in SAMPLE_RADII:
        limit = np.sqrt(1.0 + r**2) / (1.0 - r**2) ** 2
        bounds.append(CheckResult.bound(
            f"angular-cube-moment[r={r:g}]", _circle_moment(r, 3), limit, _BOUND_TOL))
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
    ``_BOUND_TOL`` (1e-6). Every disk integral runs on the recentred rule;
    j3 is |z| times a fixed mass, integrated once.
    """
    return [c for c in oracle_suite() if c.kind == "bound"]


def fd_bilaplacian_residual(case: Case, grid_spacing: float, extent: float = 0.8,
                            tolerance: float = 1e-6) -> CheckResult:
    """Max |FD bilaplacian of Phi - g| on a Cartesian sub-grid.

    The field is evaluated on a square grid confined to |z| <= extent and
    the 5-point Laplacian L_h is iterated twice and scaled by 1/16 (the
    solver's Laplacian is a quarter of the coordinate one, L). The check
    allows ``tolerance`` max(1, S) for round-off (S as in
    ``_data_scale``: the round-off of the differences grows like
    eps |Phi| / h^4) plus the truncation bound
    T = (h^2/24) sum |c[d, l]| (n)_6 R^(n-6) over the table's coefficients,
    with n = |d| + 2l, R = extent and (n)_6 = n (n-1) ... (n-5), 0 below
    degree 6. Proof: L_h^2 - L^2 = (L_h - L)(L_h + L), a second difference
    obeys |d2 v / h^2 - v_xx| <= (h^2/12) sup |v_xxxx| and
    |d2 v / h^2| <= sup |v_xx| (nonnegative Peano kernels, so complex v too),
    which leaves 8 sixth derivatives over 16 on the stencil's hull, each at
    most (a+b)_6 r^(a+b-6) on z^a zbar^b (Vandermonde's identity). Only
    centres whose whole stencil lies in |z| <= extent count; a residual at
    one of them, T or S that overflows double precision raises
    ``DegenerateDataError``.
    """
    h = float(grid_spacing)
    if not (0.0 < h <= _FD_MAX_SPACING):
        raise DomainError(f"grid spacing must lie in (0, {_FD_MAX_SPACING}]")
    if not np.isfinite(extent):
        raise DomainError(f"extent must be finite, got {extent}")
    if extent > _FD_DISK:
        raise DomainError(f"stencil support must stay inside |z| <= {_FD_DISK}")
    m = int(np.floor(extent / h))
    if m < 2:
        raise DomainError("stencil exits the allowed disk: spacing too coarse")
    coords = np.arange(-m, m + 1) * h
    zg = coords[None, :] + 1j * coords[:, None]
    inside = np.abs(zg) <= extent

    values = np.full(zg.shape, np.nan, dtype=complex)
    values[inside] = case.solution.values(zg[inside])

    def lap(u):
        return (u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1]
                - 4.0 * u[1:-1, 1:-1]) / h**2

    # the centres whose whole stencil lies inside: the disk is convex, so
    # those whose four tips, two spacings out, do
    ok = inside[2:-2, 4:] & inside[2:-2, :-4] & inside[4:, 2:-2] & inside[:-4, 2:-2]
    if not np.any(ok):
        raise DomainError("stencil exits the allowed disk: no interior centers")
    c = case.solution.coefficients()
    row = np.arange(c.shape[0])
    n = np.minimum(row, c.shape[0] - row)[:, None] + 2.0 * np.arange(c.shape[1])
    weight = np.prod([np.maximum(n - k, 0.0) for k in range(6)], axis=0) * extent ** (n - 6.0)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(lap(lap(values)) / 16.0 - case.g.evaluate(zg[2:-2, 2:-2]))[ok]
        # term by term, so that only a term past the double range overflows
        truncation = float(np.sum(np.abs(c) * (h**2 / 24.0 * weight)))
    if not (np.isfinite(truncation) and np.all(np.isfinite(resid))):
        raise DegenerateDataError(
            "the FD bilaplacian residual or its truncation bound overflows double precision")
    return CheckResult.equality(f"fd-bilaplacian-residual[h={h:g}]", float(np.max(resid)),
                                0.0, tolerance * _data_scale(case) + truncation)


def _data_scale(case: Case) -> float:
    """max(1, S), S = sum (1 + |m|)|f_m| + sum |h_m| + sum |g_k|: the size of the data.

    S = T_f(0) + M_f(0) + T_h(0) + sum |g_k|, from the records of f and h;
    the load's part is its round-to-nearest sum, a size rather than the
    certified ``SourceTerm.sup_norm_bound``.
    One S serves every check: per-check scales fail, because the s^1 row
    cancels across levels. An S past the double range raises
    ``DegenerateDataError``.
    """
    f, h = case.f, case.h
    try:
        load = sum(abs(c) for _, _, c in case.g.terms)
    except OverflowError:  # a |g_k| past the double range
        load = np.inf
    scale = max(1.0, float(f.tail[0]) + float(f.moment[0]) + float(h.tail[0]) + load)
    if not np.isfinite(scale):
        raise DegenerateDataError("the size of the data overflows double precision, "
                                  "and with it every check's allowance")
    return scale


def _exact_checks(case: Case, gaps) -> list[CheckResult]:
    """Per (name, gap array, tail), its largest |entry| against 1e-12 max(1, S) + tail.

    tail is what the table's cut to the data's bandwidth may move the gap
    by on the circle: ``Solution.trace_tail`` = T_f(w) for the traces and
    ``normal_tail`` = T_h(w) for the normal derivatives. Proof, per dropped
    mode m: at r = 1 (s = 0) f's multiplier r^m (1 + m s/2) is 1 and its
    radial derivative m r^(m-1) (1 + m s/2) - m r^(m+1) is 0; h's
    multiplier r^m s/2 is 0 and its inward normal derivative -d/dr is 1.
    So a dropped mode of f moves the trace by |a_m| (or |b_m|) and the
    normal derivative not at all, one of h the other way round; summing
    over the dropped modes gives T_f(w) and T_h(w), pointwise and per mode.
    """
    tol = 1e-12 * _data_scale(case)
    return [CheckResult.equality(name, float(np.max(np.abs(gap))), 0.0, tol + tail)
            for name, gap, tail in gaps]


def uniqueness_checks(case: Case) -> list[CheckResult]:
    """The uniqueness theorem's three conditions on the table's coefficients c[d, l].

    On the circle Phi's mode d is sum_l c[d, l] and its inward normal
    derivative -sum_l (|d| + 2l) c[d, l]; Delta^2 (w_d t^l) is
    (|d|+l)(|d|+l-1) l (l-1) w_d t^(l-2), and g's z^a zbar^b sits at (a-b, min(a, b)).
    """
    c = case.solution.coefficients()
    n, depth = c.shape
    row = np.arange(n)
    d = np.minimum(row, n - row)[:, None]  # |d| of each row in FFT order
    l = np.arange(depth)
    # data near the double range can overflow a gap, which then fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        bilap = np.zeros_like(c)
        bilap[:, :-2] = ((d + l) * (d + l - 1) * l * (l - 1) * c)[:, 2:]
        for a, b, coef in case.g.terms:
            bilap[a - b, min(a, b)] -= coef
        return _exact_checks(case, (
            ("trace-modes-exact", np.sum(c, axis=1) - case.f.modes(n),
             case.solution.trace_tail),
            ("normal-modes-exact", -np.sum((d + 2 * l) * c, axis=1) - case.h.modes(n),
             case.solution.normal_tail),
            ("bilaplacian-exact", bilap, 0.0)))


def boundary_trace_check(case: Case) -> list[CheckResult]:
    """Phi = f and -(z Phi_z + zbar Phi_zbar) = h on the circle, through both evaluators.

    At each datum's own sample nodes, against its samples, so the checks
    also cover the split of the spectrum; ``uniqueness_checks`` never run
    the evaluator. Every node is evaluated on the ring route
    (``Solution._rings`` at r = 1, one inverse FFT per kind, O(N log N)),
    and every ceil(N / 64)-th node, at most 64 (``_POINT_NODES``), on the
    point route too; each check takes the largest gap of both. Data of one
    sample count share one call of each route, which gives the values and
    the gradients together.

    Both checks take ``_exact_checks``'s allowance. The normal trace also
    takes what the point route's input, the rounded node z = fl(e^(i theta)),
    moves it by, with t = Re(z)^2 + Im(z)^2 as the route forms it (the ring
    route takes exact angles). On f's mode m, c z^m (1 + m s/2), the route
    gives -m c z^m (1 - z zbar + m s/2): a node's 1 - t moves it by
    (m^2 / 2) |c| |1 - t|, beyond terms of size m u |c| that S's weight
    (1 + |m|) |f_m| covers. So the allowance adds
    max |1 - t| sum_m (m^2 / 2) (|a_m| + |b_m|) over f's spectrum, the max
    over the point route's nodes at h's sample count. On h's mode m,
    c z^m (t - m s/2), the phase moves by m |c| |z - e^(i theta)|, at most
    21 m u |c| (theta = fl(2 pi k / N) lies within 6 pi u of 2 pi k / N,
    and each part of the exponential within u), and the route's powers and
    sums add a few m u |c| more (about 6 m u |c| measured in all). S weighs
    h's modes by 1, so the allowance adds 1e-12 M_h(0) =
    1e-12 sum_m m (|a_m| + |b_m|): the weight S gives f's modes, about
    9,000 m u per unit of |h_m|.
    """
    solution, gaps = case.solution, ([], [])
    for n in sorted({case.f.n, case.h.n}):
        nodes = np.exp(1j * _circle_angles(n))
        sub = slice(None, None, -(-n // _POINT_NODES))
        if case.h.n == n:  # 1 - t at the point route's nodes, t formed as it forms it
            drift = float(np.max(np.abs(1.0 - (nodes[sub].real**2 + nodes[sub].imag**2))))
        routes = ((solution._rings(np.ones(1), n, True), nodes, slice(None)),
                  (solution._evaluate(nodes[sub], True), nodes[sub], sub))
        for (phi, d_z, d_zbar), z, at in routes:
            if case.f.n == n:
                gaps[0].append(np.ravel(phi) - case.f.samples[at])
            if case.h.n == n:  # the inward normal derivative -(z Phi_z + zbar Phi_zbar)
                gaps[1].append(np.ravel(-(z * d_z + np.conj(z) * d_zbar)) - case.h.samples[at])
    m_f, m_h = (np.arange(d.spectrum.shape[1]) for d in (case.f, case.h))
    # each weight is below 1, so the sums pass the double range only with S,
    # which _exact_checks refuses
    with np.errstate(over="ignore"):
        moved = (np.sum(np.abs(case.f.spectrum) * (drift / 2.0 * m_f * m_f))
                 + np.sum(np.abs(case.h.spectrum) * (1e-12 * m_h)))
    return _exact_checks(case, (
        ("trace-exact[r=1]", np.concatenate(gaps[0]), solution.trace_tail),
        ("normal-trace-exact[r=1]", np.concatenate(gaps[1]), solution.normal_tail + moved)))


def gradient_crosscheck(case: Case, points: Sequence[complex]) -> list[CheckResult]:
    """Table gradients vs central differences of the field, all points in one pass.

    Each point is allowed 1e-6 max(1, S) (``_GRAD_TOL``, S as in
    ``_data_scale``): the round-off of a difference quotient grows like
    eps |Phi| / step.
    """
    zs = np.asarray(points, dtype=complex).ravel()
    if np.any(np.abs(zs) > 0.9):
        raise DomainError("crosscheck points must satisfy |z| <= 0.9")
    d_z, d_zbar = case.solution.gradient(zs)
    ve = case.solution.values(zs[:, None] + _GRAD_STEP * np.array([1.0, -1.0, 1j, -1j]))
    ux, uy = ((ve[:, ::2] - ve[:, 1::2]) / (2.0 * _GRAD_STEP)).T
    gaps = np.maximum(np.abs(d_z - (ux - 1j * uy) / 2.0), np.abs(d_zbar - (ux + 1j * uy) / 2.0))
    allowance = _GRAD_TOL * _data_scale(case)
    return [CheckResult.equality(f"gradient-crosscheck[z={_zkey(z)}]", gap, 0.0, allowance)
            for z, gap in zip(zs, gaps)]

