"""Biharmonic Green function of the unit disk and its derivative kernels.

The Green function used throughout is

    G(z, zeta) = |z - zeta|^2 log |(1 - conj(zeta) z) / (z - zeta)|^2
                 - (1 - |z|^2)(1 - |zeta|^2),

a real, symmetric, nonpositive function of two disk points that vanishes to
second order as either argument reaches the circle. Its diagonal value is
the limit -(1 - |z|^2)^2; the log factor is tamed there by the |z - zeta|^2
prefactor, and ``g_eval`` returns that limit where z == zeta exactly.

Derivatives in the first argument:

    g_dz   : first Wirtinger derivative d_z, continuous across the diagonal
             with limit conj(z) (1 - |z|^2); G is real, so d_zbar = conj(d_z),
    h2_eval: the mixed second derivative d^2 G / dz dzbar,
    h3_eval: the third derivative d^3 G / dz dzbar dz.

h2 diverges logarithmically and h3 like 1/|z - zeta| at the diagonal, so both
refuse to evaluate there.

All four share the subexpressions z - zeta, |z - zeta|^2, 1 - conj(zeta) z,
its squared modulus and the log of their ratio. ``KernelParts`` builds them
once for a pair of arguments and evaluates each kernel from them; the four
functions above are one ``KernelParts`` each, and a caller that needs
several kernels at the same nodes (the mass bounds in ``verify``) builds
one ``KernelParts`` for all of them. The two rational terms of g_dz and
of h3 are folded into one fraction each (see their docstrings), the form
evaluated.

``MobiusMap`` carries the disk automorphism eta -> (c - eta)/(1 - eta conj(c))
used to recentre singular integrands, together with its area Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _maybe_scalar(out):
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


def _log_ratio(ad2, aw2):
    """log(|1 - conj(zeta) z|^2 / |z - zeta|^2), safe where ad2 == 0."""
    safe = np.where(ad2 > 0.0, ad2, 1.0)
    return np.log(aw2) - np.log(safe)


class KernelParts:
    """The subexpressions the Green kernels share at (z, zeta), built once.

    d = z - zeta, ad2 = |d|^2, w = 1 - conj(zeta) z, aw2 = |w|^2,
    log = log(aw2 / ad2) (finite placeholder where ad2 == 0) and
    s = 1 - |zeta|^2. Each kernel method returns an array of the broadcast
    shape of z and zeta; ``h2`` and ``h3`` refuse the diagonal.
    """

    __slots__ = ("z", "zeta", "d", "ad2", "w", "aw2", "log", "s")

    def __init__(self, z, zeta):
        self.z = _as_disk(z, "z")
        self.zeta = _as_disk(zeta, "zeta")
        self.d = self.z - self.zeta
        self.ad2 = _abs2(self.d)
        self.w = 1.0 - np.conj(self.zeta) * self.z
        self.aw2 = _abs2(self.w)
        self.log = _log_ratio(self.ad2, self.aw2)
        self.s = 1.0 - _abs2(self.zeta)

    def _refuse_diagonal(self, name):
        if np.any(self.ad2 == 0.0):
            raise SingularityError(f"{name} is singular on the diagonal z == zeta")

    def g(self):
        # |z - zeta|^2 log(...) -> 0 on the diagonal; keep 0 * inf out of the product
        log_term = np.where(self.ad2 > 0.0, self.ad2 * self.log, 0.0)
        return log_term - (1.0 - _abs2(self.z)) * self.s

    def g_dz(self):
        dbar = np.conj(self.d)
        log_part = np.where(self.ad2 > 0.0, dbar * self.log, 0.0)
        # conj(z) s - dbar s / w folds to conj(zeta) (1 - |z|^2) s / w
        return log_part + (1.0 - _abs2(self.z)) * self.s * np.conj(self.zeta) / self.w

    def h2(self):
        self._refuse_diagonal("h2_eval")
        return self.log - self.s * (1.0 - _abs2(self.z) * _abs2(self.zeta)) / self.aw2

    def h3(self):
        self._refuse_diagonal("h3_eval")
        # w + conj(zeta) d = s folds the two poles into one fraction
        return -self.s**2 / (self.d * self.w**2)


def g_eval(z, zeta):
    """Evaluate G(z, zeta); either argument may be an array."""
    return _maybe_scalar(KernelParts(z, zeta).g())


def g_dz(z, zeta):
    """First Wirtinger derivative d_z of G in z.

    d_z = (zb - zetab) log|(1 - zetab z)/(z - zeta)|^2
          - (zb - zetab)(1 - |zeta|^2)/(1 - zetab z) + zb (1 - |zeta|^2)
        = (zb - zetab) log|(1 - zetab z)/(z - zeta)|^2
          + (1 - |z|^2)(1 - |zeta|^2) zetab / (1 - zetab z),

    folded with zb (1 - zetab z) - (zb - zetab) = zetab (1 - |z|^2), the
    form evaluated. It matches central differences of g_eval and has
    diagonal limit conj(z) (1 - |z|^2). G is real, so d_zbar = conj(d_z).
    """
    return _maybe_scalar(KernelParts(z, zeta).g_dz())


def h2_eval(z, zeta):
    """Mixed second derivative d^2 G / dz dzbar.

        log|(1 - zetab z)/(z - zeta)|^2
        - (1 - |zeta|^2)(1 - |z|^2 |zeta|^2) / |1 - z zetab|^2

    Real-valued; diverges logarithmically on the diagonal.
    """
    return _maybe_scalar(KernelParts(z, zeta).h2())


def h3_eval(z, zeta):
    """Third derivative d^3 G / dz dzbar dz.

        -(1 - |zeta|^2) / ((z - zeta)(1 - zetab z))
        - zetab (1 - |zeta|^2) / (1 - zetab z)^2
      = -(1 - |zeta|^2)^2 / ((z - zeta)(1 - zetab z)^2),

    folded with (1 - zetab z) + zetab (z - zeta) = 1 - |zeta|^2, the form
    evaluated. Complex-valued with a simple-pole-type singularity on the
    diagonal.
    """
    return _maybe_scalar(KernelParts(z, zeta).h3())


@dataclass(frozen=True)
class MobiusMap:
    """Disk automorphism eta -> (center - eta) / (1 - eta conj(center)).

    The map is an involution exchanging 0 and the center, so ``apply`` and
    the point part of ``pullback`` are the same formula. ``pullback`` also
    returns the area Jacobian (1 - |center|^2)^2 / |1 - eta conj(center)|^4
    of the substitution zeta = apply(eta) in normalized area integrals.
    """

    center: complex

    def __post_init__(self):
        c = complex(self.center)
        if not (abs(c) < 1.0):
            raise DomainError("Mobius center must lie in the open unit disk")
        object.__setattr__(self, "center", c)

    def apply(self, eta):
        eta = _as_disk(eta, "eta")
        return _maybe_scalar((self.center - eta) / (1.0 - eta * np.conj(self.center)))

    def pullback(self, eta):
        """Return (zeta, jacobian) for the substitution zeta = apply(eta)."""
        eta = _as_disk(eta, "eta")
        den = 1.0 - eta * np.conj(self.center)
        zeta = (self.center - eta) / den
        jac = (1.0 - _abs2(self.center)) ** 2 / _abs2(den) ** 2
        return _maybe_scalar(zeta), _maybe_scalar(jac)

