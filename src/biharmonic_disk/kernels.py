"""Boundary kernels for the biharmonic Dirichlet problem on the unit disk.

The homogeneous problem (zero load) is solved by two circle convolutions.
``h0_eval`` gives the kernel weighting the inward normal derivative data,

    H0(z) = (1/2) (1 - |z|^2)^2 / |1 - z|^2,

and ``f0_eval`` the kernel weighting the boundary trace,

    F0(z) = H0(z) + (1/2) (1 - |z|^2)^3 / |1 - z|^4.

Both are nonnegative on the open disk, and F0 has circle mean one at every
interior point, which is the discrete sanity check the identity suite leans
on.

Closed-form Wirtinger z-derivatives of theta -> H0(z e^{-i theta}) and
theta -> F0(z e^{-i theta}) are provided for gradient work; for these real
kernels the zbar-derivative is the conjugate of the z-derivative.

``kernel_moment`` evaluates the circle moments

    (1/2pi) int |1 - r e^{i theta}|^(-2 beta) dtheta
        = sum_n (Gamma(n+beta) / (n! Gamma(beta)))^2 r^(2n),

with closed forms for beta = 1, 2 and the series for everything else.

All evaluators accept scalars or numpy arrays of points and refuse points
with |z| > 1 - 1e-12; the kernels degenerate on the circle and quadrature
never needs them there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Evaluation is refused closer to the unit circle than this.
BOUNDARY_MARGIN = 1e-12

# Moment series truncation: next term below this relative size, or hard stop.
_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000


@dataclass(frozen=True)
class WirtingerPair:
    """A Wirtinger derivative pair (d/dz, d/dzbar) at one point."""

    d_z: complex
    d_zbar: complex


def _abs2(w):
    w = np.asarray(w)
    return w.real**2 + w.imag**2


def _as_points(z, name: str = "z"):
    """Validate |z| <= 1 - BOUNDARY_MARGIN and return a complex ndarray."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(_abs2(arr) > (1.0 - BOUNDARY_MARGIN) ** 2):
        raise DomainError(f"{name} must satisfy |{name}| <= 1 - {BOUNDARY_MARGIN}")
    return arr


def _maybe_scalar(out):
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
    return _maybe_scalar(0.5 * s**2 / q + 0.5 * s**3 / q**2)


def h0_dz(z, theta) -> WirtingerPair:
    """Wirtinger z-derivative of theta -> H0(z e^{-i theta}).

    Returns the pair (d_z, d_zbar); the kernel is real so d_zbar is the
    conjugate of d_z.
    """
    dz = _maybe_scalar(_h0_dz_values(_as_points(z), np.asarray(theta, dtype=float)))
    return WirtingerPair(dz, np.conj(dz))


def f0_dz(z, theta) -> WirtingerPair:
    """Wirtinger z-derivative of theta -> F0(z e^{-i theta})."""
    dz = _maybe_scalar(_f0_dz_values(_as_points(z), np.asarray(theta, dtype=float)))
    return WirtingerPair(dz, np.conj(dz))


def _h0_dz_values(z, theta):
    # (1-|z|^2) [ e^{-i th}(1-|z|^2) - 2 zbar (1 - z e^{-i th}) ]
    #   / [ 2 (1 - zbar e^{i th}) (1 - z e^{-i th})^2 ]
    # and (1 - zbar e^{i th}) = conj(1 - z e^{-i th}).
    e = np.exp(-1j * theta)
    s = 1.0 - _abs2(z)
    one_m = 1.0 - z * e
    num = s * (e * s - 2.0 * np.conj(z) * one_m)
    return num / (2.0 * np.conj(one_m) * one_m**2)


def _f0_dz_values(z, theta):
    e = np.exp(-1j * theta)
    s = 1.0 - _abs2(z)
    one_m = 1.0 - z * e
    first = s * (e * s - 2.0 * np.conj(z) * one_m) / (2.0 * np.conj(one_m) * one_m**2)
    second = (
        s**2
        * (2.0 * e * s - 3.0 * np.conj(z) * one_m)
        / (2.0 * np.conj(one_m) ** 2 * one_m**3)
    )
    return first + second


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
    gamma values are needed beyond the n = 0 term, which is 1.
    """
    _check_moment_args(beta, r)
    r2 = r * r
    total = 1.0
    term = 1.0
    n = 0
    while True:
        term *= ((n + beta) / (n + 1.0)) ** 2 * r2
        total += term
        n += 1
        if term < _SERIES_RTOL * total or n > _SERIES_MAX_TERMS:
            break
    return total


def _check_moment_args(beta, r):
    if not np.isfinite(beta) or beta <= 0:
        raise DomainError("beta must be positive")
    if not np.isfinite(r) or r < 0 or r >= 1:
        raise DomainError("r must lie in [0, 1)")

