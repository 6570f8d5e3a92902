"""Boundary kernels for the biharmonic Dirichlet problem on the unit disk.

The homogeneous problem (zero load) is solved by two circle convolutions.
``h0_eval`` gives the kernel weighting the inward normal derivative data,

    H0(z) = (1/2) (1 - |z|^2)^2 / |1 - z|^2,

and ``f0_eval`` the kernel weighting the boundary trace,

    F0(z) = H0(z) + (1/2) (1 - |z|^2)^3 / |1 - z|^4.

Both are nonnegative on the open disk, and F0 has circle mean one at every
interior point, which is the discrete sanity check the identity suite leans
on.

``h0_dz`` and ``f0_dz`` return the closed-form Wirtinger z-derivative d_z of
theta -> H0(z e^{-i theta}) and theta -> F0(z e^{-i theta}); the kernels are
real, so the zbar-derivative d_zbar is conj(d_z).

``kernel_moment`` evaluates the circle moments

    (1/2pi) int |1 - r e^{i theta}|^(-2 beta) dtheta
        = sum_n (Gamma(n+beta) / (n! Gamma(beta)))^2 r^(2n),

with closed forms for beta = 1, 2 and the series for everything else. The
series stops on a bound of its tail and refuses radii too close to 1.

All evaluators accept scalars or numpy arrays of points and refuse points
with |z| > 1 - 1e-12; the kernels degenerate on the circle and quadrature
never needs them there.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .green import _abs2

# Evaluation is refused closer to the unit circle than this.
BOUNDARY_MARGIN = 1e-12

# Moment series truncation: tail bound below this relative size, or refusal.
_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000


def _as_points(z, name: str = "z"):
    """Validate |z| <= 1 - BOUNDARY_MARGIN and return a complex ndarray."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(_abs2(arr) > (1.0 - BOUNDARY_MARGIN) ** 2):
        raise DomainError(f"{name} must satisfy |{name}| <= 1 - {BOUNDARY_MARGIN}")
    return arr


def _maybe_scalar(out):
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


def h0_eval(z):
    """Normal-derivative kernel (1/2) (1 - |z|^2)^2 / |1 - z|^2."""
    z = _as_points(z)
    return _maybe_scalar(0.5 * (1.0 - _abs2(z)) ** 2 / _abs2(1.0 - z))


def f0_eval(z):
    """Trace kernel H0(z) + (1/2) (1 - |z|^2)^3 / |1 - z|^4."""
    z = _as_points(z)
    s = 1.0 - _abs2(z)
    q = _abs2(1.0 - z)
    return _maybe_scalar(h0_eval(z) + 0.5 * s**3 / q**2)


def h0_dz(z, theta):
    """Wirtinger z-derivative d_z of theta -> H0(z e^{-i theta}); d_zbar = conj(d_z).

    (1-|z|^2) [ e^{-i th}(1-|z|^2) - 2 zbar (1 - z e^{-i th}) ]
      / [ 2 (1 - zbar e^{i th}) (1 - z e^{-i th})^2 ],

    and (1 - zbar e^{i th}) = conj(1 - z e^{-i th}).
    """
    z = _as_points(z)
    e = np.exp(-1j * np.asarray(theta, dtype=float))
    s = 1.0 - _abs2(z)
    one_m = 1.0 - z * e
    return _maybe_scalar(s * (e * s - 2.0 * np.conj(z) * one_m) / (2.0 * np.conj(one_m) * one_m**2))


def f0_dz(z, theta):
    """Wirtinger z-derivative d_z of theta -> F0(z e^{-i theta}); d_zbar = conj(d_z).

    H0's derivative plus that of (1/2) (1 - |z|^2)^3 / |1 - z e^{-i th}|^4,

    (1-|z|^2)^2 [ 2 e^{-i th}(1-|z|^2) - 3 zbar (1 - z e^{-i th}) ]
      / [ 2 (1 - zbar e^{i th})^2 (1 - z e^{-i th})^3 ].
    """
    z = _as_points(z)
    e = np.exp(-1j * np.asarray(theta, dtype=float))
    s = 1.0 - _abs2(z)
    one_m = 1.0 - z * e
    second = (s**2 * (2.0 * e * s - 3.0 * np.conj(z) * one_m)
              / (2.0 * np.conj(one_m) ** 2 * one_m**3))
    return _maybe_scalar(h0_dz(z, theta) + second)


def kernel_moment(beta: float, r: float) -> float:
    """Circle moment (1/2pi) int |1 - r e^{i theta}|^(-2 beta) dtheta.

    Closed form for beta in {1, 2}, hypergeometric series otherwise.
    """
    _check_moment_args(beta, r)
    r2 = r * r
    if beta == 1:
        return 1.0 / (1.0 - r2)
    if beta == 2:
        return (1.0 + r2) / (1.0 - r2) ** 3
    return kernel_moment_series(beta, r)


def kernel_moment_series(beta: float, r: float) -> float:
    """Same moment, always summed as sum_n (Gamma(n+beta)/(n! Gamma(beta)))^2 r^{2n}.

    The coefficient ratio ((n+beta)/(n+1))^2 makes the recurrence cheap; no
    gamma values are needed beyond the n = 0 term, which is 1. The ratios tend
    to r^2 monotonically, so q = max(ratio, r^2) bounds the tail by term q/(1-q);
    past ``_SERIES_MAX_TERMS`` terms (r too close to 1) ``DomainError`` is raised.
    """
    _check_moment_args(beta, r)
    r2 = r * r
    total = 1.0
    term = 1.0
    for n in range(_SERIES_MAX_TERMS):
        ratio = ((n + beta) / (n + 1.0)) ** 2 * r2
        term *= ratio
        total += term
        q = max(ratio, r2)
        if q < 1.0 and term * q <= _SERIES_RTOL * total * (1.0 - q):
            return total
    raise DomainError(
        f"moment series needs over {_SERIES_MAX_TERMS} terms at beta={beta:g}, r={r:g}")


def _check_moment_args(beta, r):
    if not np.isfinite(beta) or beta <= 0:
        raise DomainError("beta must be positive")
    if not np.isfinite(r) or r < 0 or r >= 1:
        raise DomainError("r must lie in [0, 1)")

