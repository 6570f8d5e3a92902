"""Quantitative Lipschitz analysis of solved fields.

The solution operator maps data (f, h, g) to a map Phi of the disk. This
module computes the constants entering its two-sided distortion bounds:

* L, an empirical Lipschitz constant of the boundary trace f,
* the certified gradient bound  P = (220/3) L + 4 sup|h| + (23/3) sup|g|,
* the origin invariants  A = |Phi_z(0)|^2,  B = |Phi_zbar(0)|^2  and
  Q = A - B, each computed both from two coefficients of the solver's
  table and, by quadrature, from the integral formulas they reduce to,
* the verdict: Phi is reported bi-Lipschitz when Q > 2 P^2, with lower
  bound Q/P - 2P on the difference quotient, else Lipschitz-only.

The empirical difference quotient over seeded node pairs of a solved grid
gives an independent lower estimate that must stay below P.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDataError, DomainError
from .quadrature import DEFAULT_RULES, CircleRule, _circle_angles, disk_integrate_centered
from .solver import BoundaryData, SolutionField, SourceTerm, table_coefficients

# Coefficients of the certified gradient bound P.
_COEFF_L = 220.0 / 3.0
_COEFF_H = 4.0
_COEFF_G = 23.0 / 3.0

_PAIR_EPS = 1e-12

# Chord pairs held at once by estimate_boundary_lipschitz.
_PAIR_BLOCK = 1 << 15


@dataclass(frozen=True)
class ABResult:
    """Origin gradient invariants, each computed two ways.

    a_value, b_value, q_value come from the table coefficients c[1, 0] = Phi_z(0)
    and c[-1, 0] = Phi_zbar(0). a_integral / b_integral evaluate by quadrature
    the formulas

        |(1/4pi) int e^{-+i theta}(3f + h) dtheta
            - int zetabar-or-zeta (log|zeta|^2 + 1 - |zeta|^2) g dA|^2

    with the Green term subtracted. The circle integral uses
    max(512, f.n, h.n) equispaced nodes, so no mode of the sampled data
    aliases onto e^{+-i theta}.
    """

    a_value: float
    b_value: float
    q_value: float
    a_integral: float
    b_integral: float


@dataclass(frozen=True)
class LipschitzReport:
    """The distortion constants and verdict for one problem instance.

    g_sup is the certified term-sum bound used inside p_upper; g_sup_estimate
    is the dense-grid maximum (a lower estimate of the true sup). The
    verdict is "bi-lipschitz" exactly when q_value > 2 p_upper^2, in which
    case lower_bound = q_value/p_upper - 2 p_upper is positive; it is
    reported as-is (usually negative) otherwise.
    """

    l_boundary: float
    h_sup: float
    g_sup: float
    p_upper: float
    a_value: float
    b_value: float
    q_value: float
    lower_bound: float
    verdict: str
    g_sup_estimate: float


def estimate_boundary_lipschitz(f: BoundaryData) -> float:
    """Largest chord difference quotient |f_j - f_k| / |e^{i th_j} - e^{i th_k}|.

    A lower estimate of the Lipschitz constant of f on the circle,
    converging from below as the sample count grows. Every pair (j, k) is
    one node and the node k = 1..n/2 places further on, so the pairs are
    walked by offset, at most ``_PAIR_BLOCK`` of them at a time.
    """
    n = f.n
    pts = np.exp(1j * _circle_angles(n))
    # row k of each view is the array shifted by k: entry j is node j + k mod n
    f_shift = sliding_window_view(np.concatenate([f.samples, f.samples]), n)
    p_shift = sliding_window_view(np.concatenate([pts, pts]), n)
    step = max(1, _PAIR_BLOCK // n)
    best = 0.0
    for k in range(1, n // 2 + 1, step):
        stop = min(k + step, n // 2 + 1)
        num = np.abs(f.samples - f_shift[k:stop])
        den = np.abs(pts - p_shift[k:stop])
        best = max(best, float(np.max(num / den)))
    return best


def p_bound(l: float, h_sup: float, g_sup: float) -> float:
    """Certified upper bound (220/3) l + 4 h_sup + (23/3) g_sup for sup|grad Phi|."""
    if l < 0 or h_sup < 0 or g_sup < 0:
        raise DomainError("p_bound arguments must be nonnegative")
    return _COEFF_L * l + _COEFF_H * h_sup + _COEFF_G * g_sup


def _origin_boundary_terms(f: BoundaryData, h: BoundaryData):
    # (1/4pi) int e^{-+ i theta} (3 f + h) dtheta  =  Phi_z(0), Phi_zbar(0)
    # restricted to the boundary part: F0 and H0 have z-derivative
    # (3/2) e^{-i theta} and (1/2) e^{-i theta} at z = 0. No fewer nodes
    # than samples, so no mode of the data aliases onto e^{+-i theta}.
    n = max(DEFAULT_RULES.circle.n_nodes, f.n, h.n)
    th = CircleRule(n).thetas
    combo = 3.0 * f.resample(n) + h.resample(n)
    t_a = complex(np.mean(np.exp(-1j * th) * combo) / 2.0)
    t_b = complex(np.mean(np.exp(1j * th) * combo) / 2.0)
    return t_a, t_b


def _origin_green_terms(g: SourceTerm):
    # int zetabar (log|zeta|^2 + 1 - |zeta|^2) g(zeta) dA and its conjugate
    # partner; the radial panel rule absorbs the rho log rho behaviour.
    if g.is_zero:
        return 0j, 0j

    def integrand(zeta):
        rho2 = zeta.real**2 + zeta.imag**2
        weight = np.log(rho2) + 1.0 - rho2
        load = g.evaluate(zeta)
        return np.stack([np.conj(zeta) * weight * load, zeta * weight * load])

    g_a, g_b = disk_integrate_centered(DEFAULT_RULES.disk, integrand, center=0j)
    return complex(g_a), complex(g_b)


def compute_ab(f: BoundaryData, h: BoundaryData, g: SourceTerm) -> ABResult:
    """A, B, Q at the origin, from two table coefficients and from the integral formulas."""
    c = table_coefficients(f, h, g)
    a_value = abs(c[1, 0]) ** 2
    b_value = abs(c[-1, 0]) ** 2

    t_a, t_b = _origin_boundary_terms(f, h)
    g_a, g_b = _origin_green_terms(g)
    return ABResult(
        a_value=a_value,
        b_value=b_value,
        q_value=a_value - b_value,
        a_integral=abs(t_a - g_a) ** 2,
        b_integral=abs(t_b - g_b) ** 2,
    )


def classify(l_boundary: float, h_sup: float, g_sup: float,
             a_value: float, b_value: float,
             g_sup_estimate: Optional[float] = None) -> LipschitzReport:
    """Assemble the LipschitzReport from the measured constants."""
    p_upper = p_bound(l_boundary, h_sup, g_sup)
    if p_upper == 0.0:
        raise DegenerateDataError(
            "all-zero data: the gradient bound is 0 and no quotient is defined"
        )
    q_value = a_value - b_value
    lower = q_value / p_upper - 2.0 * p_upper
    verdict = "bi-lipschitz" if q_value > 2.0 * p_upper**2 else "lipschitz-only"
    return LipschitzReport(
        l_boundary=l_boundary,
        h_sup=h_sup,
        g_sup=g_sup,
        p_upper=p_upper,
        a_value=a_value,
        b_value=b_value,
        q_value=q_value,
        lower_bound=lower,
        verdict=verdict,
        g_sup_estimate=g_sup if g_sup_estimate is None else g_sup_estimate,
    )


def analyze_case(f: BoundaryData, h: BoundaryData,
                 g: SourceTerm) -> tuple[LipschitzReport, ABResult]:
    """Measure every constant for one case and classify it.

    Data near the limits of double precision can overflow on the way; any
    reported constant that is not finite raises ``DegenerateDataError``
    instead of being reported.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            ab = compute_ab(f, h, g)
            report = classify(
                l_boundary=estimate_boundary_lipschitz(f),
                h_sup=h.sup_norm(),
                g_sup=g.sup_norm_bound(),
                a_value=ab.a_value,
                b_value=ab.b_value,
                g_sup_estimate=g.sup_norm_estimate(),
            )
    except OverflowError as exc:  # a Python float power past the double range
        raise DegenerateDataError("a reported constant overflows double precision") from exc
    for result in (report, ab):
        for field in fields(result):
            value = getattr(result, field.name)
            if not isinstance(value, str) and not np.isfinite(value):
                raise DegenerateDataError(
                    f"{field.name} is {value}: the data overflow double precision")
    return report, ab


def empirical_quotient(field: SolutionField, max_pairs: int = 100_000,
                       seed: int = 42) -> float:
    """Largest |Phi(z1) - Phi(z2)| / |z1 - z2| over seeded node pairs.

    Small grids are scanned exhaustively; larger ones are subsampled with
    at most ``max_pairs`` seeded random pairs. Coincident nodes (the
    r = 0 ring) are ignored. A non-finite node value raises
    ``DegenerateDataError``: every grid node is evaluated, so one means the
    field is broken, and skipping it could make the quotient read low.
    """
    zs = field.points.ravel()
    vals = field.values.ravel()
    if not np.all(np.isfinite(vals)):
        raise DegenerateDataError("the field holds non-finite values")
    n = zs.size
    if n < 2:
        raise DegenerateDataError("need at least two evaluated nodes")
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
    gap = np.abs(zs[i] - zs[j])
    keep = gap > _PAIR_EPS
    if not np.any(keep):
        raise DegenerateDataError("all sampled node pairs coincide")
    return float(np.max(np.abs(vals[i][keep] - vals[j][keep]) / gap[keep]))
