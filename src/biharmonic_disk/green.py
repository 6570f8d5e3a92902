"""Biharmonic Green function of the unit disk and its derivative kernels.

The Green function used throughout is

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
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularityError


def _abs2(w):
    w = np.asarray(w)
    return w.real**2 + w.imag**2


def _as_disk(z, name):
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(_abs2(arr) >= 1.0):
        raise DomainError(f"{name} must lie in the open unit disk")
    return arr


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
