"""Biharmonic Green function of the unit disk and its derivative kernels.

The Green function used throughout is

    G(z, zeta) = |z - zeta|^2 log |(1 - conj(zeta) z) / (z - zeta)|^2
                 - (1 - |z|^2)(1 - |zeta|^2),

a real, symmetric, nonpositive function of two disk points that vanishes to
second order as either argument reaches the circle. Its diagonal value is
the limit -(1 - |z|^2)^2; the log factor is tamed there by the |z - zeta|^2
prefactor, and ``g_eval`` returns that limit where z == zeta exactly.

Derivatives in the first argument:

    g_dz   : first Wirtinger derivative, continuous across the diagonal with
             limit conj(z) (1 - |z|^2),
    h2_eval: the mixed second derivative d^2 G / dz dzbar,
    h3_eval: the third derivative d^3 G / dz dzbar dz.

h2 diverges logarithmically and h3 like 1/|z - zeta| at the diagonal, so both
refuse to evaluate there. ``MobiusMap`` carries the disk automorphism
eta -> (c - eta)/(1 - eta conj(c)) used to recentre singular integrands,
together with its area Jacobian.
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
    return out[()] if out.ndim == 0 else out


def _log_ratio(ad2, aw2):
    """log(|1 - conj(zeta) z|^2 / |z - zeta|^2), safe where ad2 == 0."""
    safe = np.where(ad2 > 0.0, ad2, 1.0)
    return np.log(aw2) - np.log(safe)


def g_eval(z, zeta):
    """Evaluate G(z, zeta); either argument may be an array."""
    z = _as_disk(z, "z")
    zeta = _as_disk(zeta, "zeta")
    d = z - zeta
    ad2 = _abs2(d)
    aw2 = _abs2(1.0 - np.conj(zeta) * z)
    # |z - zeta|^2 log(...) -> 0 on the diagonal; keep 0 * inf out of the product
    log_term = np.where(ad2 > 0.0, ad2 * _log_ratio(ad2, aw2), 0.0)
    out = log_term - (1.0 - _abs2(z)) * (1.0 - _abs2(zeta))
    return _maybe_scalar(np.asarray(out))


def g_dz(z, zeta):
    """First Wirtinger derivative of G in z, as a WirtingerPair.

    d_z = (zb - zetab) log|(1 - zetab z)/(z - zeta)|^2
          - (zb - zetab)(1 - |zeta|^2)/(1 - zetab z) + zb (1 - |zeta|^2)

    which matches central differences of g_eval and has diagonal limit
    conj(z) (1 - |z|^2). G is real, so d_zbar is the conjugate.
    """
    from .kernels import WirtingerPair

    dz = _maybe_scalar(_g_dz_values(_as_disk(z, "z"), _as_disk(zeta, "zeta")))
    return WirtingerPair(dz, np.conj(dz))


def _g_dz_values(z, zeta):
    d = z - zeta
    ad2 = _abs2(d)
    w = 1.0 - np.conj(zeta) * z
    s = 1.0 - _abs2(zeta)
    dbar = np.conj(d)
    log_part = np.where(ad2 > 0.0, dbar * _log_ratio(ad2, _abs2(w)), 0.0)
    return log_part - dbar * s / w + np.conj(z) * s


def h2_eval(z, zeta):
    """Mixed second derivative d^2 G / dz dzbar.

        log|(1 - zetab z)/(z - zeta)|^2
        - (1 - |zeta|^2)(1 - |z|^2 |zeta|^2) / |1 - z zetab|^2

    Real-valued; diverges logarithmically on the diagonal.
    """
    z = _as_disk(z, "z")
    zeta = _as_disk(zeta, "zeta")
    ad2 = _abs2(z - zeta)
    if np.any(ad2 == 0.0):
        raise SingularityError("h2_eval is singular on the diagonal z == zeta")
    aw2 = _abs2(1.0 - np.conj(zeta) * z)
    out = _log_ratio(ad2, aw2) - (1.0 - _abs2(zeta)) * (1.0 - _abs2(z) * _abs2(zeta)) / aw2
    return _maybe_scalar(np.asarray(out))


def h3_eval(z, zeta):
    """Third derivative d^3 G / dz dzbar dz.

        -(1 - |zeta|^2) / ((z - zeta)(1 - zetab z))
        - zetab (1 - |zeta|^2) / (1 - zetab z)^2

    Complex-valued with a simple-pole-type singularity on the diagonal.
    """
    z = _as_disk(z, "z")
    zeta = _as_disk(zeta, "zeta")
    d = z - zeta
    if np.any(_abs2(d) == 0.0):
        raise SingularityError("h3_eval is singular on the diagonal z == zeta")
    w = 1.0 - np.conj(zeta) * z
    s = 1.0 - _abs2(zeta)
    out = -s / (d * w) - np.conj(zeta) * s / w**2
    return _maybe_scalar(np.asarray(out))


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
        return _maybe_scalar(zeta), _maybe_scalar(np.asarray(jac))

