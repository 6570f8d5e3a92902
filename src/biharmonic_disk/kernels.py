"""The kernels of the representation formula Phi = F0[f] + H0[h] - G[g] on the unit disk.

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

The load is weighted by the biharmonic Green function of the disk,

    G(z, zeta) = |z - zeta|^2 log |(1 - conj(zeta) z) / (z - zeta)|^2
                 - (1 - |z|^2)(1 - |zeta|^2),

a real, symmetric, nonpositive function of two disk points that vanishes to
second order as either argument reaches the circle. ``KernelParts(z, zeta)``
evaluates it and its derivatives in the first argument:

    g   : G itself,
    g_dz: the first Wirtinger derivative d_z; G is real, so d_zbar = conj(d_z),
    h2  : the mixed second derivative d^2 G / dz dzbar,
    h3  : the third derivative d^3 G / dz dzbar dz.

g and g_dz are continuous across the diagonal and return their limits where
z == zeta exactly; h2 diverges logarithmically and h3 like 1/|z - zeta|
there, so both refuse to evaluate there.

All four share the subexpressions z - zeta, |z - zeta|^2, 1 - conj(zeta) z,
its squared modulus and the log of their ratio. ``KernelParts`` builds them
once for a pair of arguments and evaluates each kernel from them; the
oracle in ``verify`` builds one per block of its recentred pass and reads
the four |K| masses, the log masses, j1 and j2 off it. The two rational
terms of g_dz and of h3 are folded into one fraction each (see those
methods), the form evaluated.

Every evaluator accepts scalars or numpy arrays of points and refuses
non-finite ones. F0, H0 and their derivatives degenerate on the circle and
quadrature never needs them there, so they refuse |z| > 1 - 1e-12; G is
defined up to the circle, and ``KernelParts`` refuses only points off the
open disk.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularityError

# Evaluation is refused closer to the unit circle than this.
BOUNDARY_MARGIN = 1e-12

# Moment series truncation: tail bound below this relative size, or refusal.
_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000


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


def _as_disk(z, name):
    """Validate a Green-kernel argument: finite and in the open unit disk."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(_abs2(arr) >= 1.0):
        raise DomainError(f"{name} must lie in the open unit disk")
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


def _log_ratio(ad2, aw2):
    """log(|1 - conj(zeta) z|^2 / |z - zeta|^2), safe where ad2 == 0."""
    safe = np.where(ad2 > 0.0, ad2, 1.0)
    return np.log(aw2) - np.log(safe)


class KernelParts:
    """The subexpressions the Green kernels share at (z, zeta), built once.

    d = z - zeta, ad2 = |d|^2, w = 1 - conj(zeta) z, aw2 = |w|^2,
    log = log(aw2 / ad2) (finite placeholder where ad2 == 0) and
    s = 1 - |zeta|^2. Either argument may be an array; each kernel method
    returns an array of their broadcast shape (0-d for two scalars).
    """

    __slots__ = ("z", "zeta", "d", "ad2", "w", "aw2", "log", "s")

    def __init__(self, z, zeta):
        self.z = _as_disk(z, "z")
        self.zeta = _as_disk(zeta, "zeta")
        self.d = self.z - self.zeta
        self.ad2 = _abs2(self.d)
        self.w = 1.0 - np.conjugate(self.zeta) * self.z
        self.aw2 = _abs2(self.w)
        self.log = _log_ratio(self.ad2, self.aw2)
        self.s = 1.0 - _abs2(self.zeta)

    def _refuse_diagonal(self, name):
        if np.any(self.ad2 == 0.0):
            raise SingularityError(f"{name} is singular on the diagonal z == zeta")

    def g(self):
        """G(z, zeta), with the diagonal limit -(1 - |z|^2)^2 where z == zeta.

        The log factor is tamed on the diagonal by the |z - zeta|^2 prefactor.
        """
        # |z - zeta|^2 log(...) -> 0 on the diagonal; keep 0 * inf out of the product
        log_term = np.where(self.ad2 > 0.0, self.ad2 * self.log, 0.0)
        return log_term - (1.0 - _abs2(self.z)) * self.s

    def g_dz(self):
        """First Wirtinger derivative d_z of G in z.

        d_z = (zb - zetab) log|(1 - zetab z)/(z - zeta)|^2
              - (zb - zetab)(1 - |zeta|^2)/(1 - zetab z) + zb (1 - |zeta|^2)
            = (zb - zetab) log|(1 - zetab z)/(z - zeta)|^2
              + (1 - |z|^2)(1 - |zeta|^2) zetab / (1 - zetab z),

        folded with zb (1 - zetab z) - (zb - zetab) = zetab (1 - |z|^2), the
        form evaluated. It matches central differences of ``g`` and has
        diagonal limit conj(z) (1 - |z|^2). G is real, so d_zbar = conj(d_z).
        """
        dbar = np.conj(self.d)
        log_part = np.where(self.ad2 > 0.0, dbar * self.log, 0.0)
        return log_part + (1.0 - _abs2(self.z)) * self.s * np.conj(self.zeta) / self.w

    def h2(self):
        """Mixed second derivative d^2 G / dz dzbar.

            log|(1 - zetab z)/(z - zeta)|^2
            - (1 - |zeta|^2)(1 - |z|^2 |zeta|^2) / |1 - z zetab|^2

        Real-valued; diverges logarithmically on the diagonal, where it raises
        ``SingularityError``.
        """
        self._refuse_diagonal("h2")
        return self.log - self.s * (1.0 - _abs2(self.z) * _abs2(self.zeta)) / self.aw2

    def h3(self):
        """Third derivative d^3 G / dz dzbar dz.

            -(1 - |zeta|^2) / ((z - zeta)(1 - zetab z))
            - zetab (1 - |zeta|^2) / (1 - zetab z)^2
          = -(1 - |zeta|^2)^2 / ((z - zeta)(1 - zetab z)^2),

        folded with (1 - zetab z) + zetab (z - zeta) = 1 - |zeta|^2, the form
        evaluated. Complex-valued with a simple-pole-type singularity on the
        diagonal, where it raises ``SingularityError``.
        """
        self._refuse_diagonal("h3")
        return -self.s**2 / (self.d * self.w**2)
