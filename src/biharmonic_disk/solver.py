"""Solution operators for the inhomogeneous biharmonic Dirichlet problem.

A problem instance on the unit disk is the triple (f, h, g): boundary trace
f and inward normal derivative h on the circle, load g on the disk. The
solution is assembled from three independent transforms,

    Phi(z) = F0[f](z) + H0[h](z) - G[g](z),

where F0[.] and H0[.] are circle convolutions against the trace and
normal-derivative kernels and G[.] is the Green potential

    G[g](z) = int_D G(z, zeta) g(zeta) dA(zeta).

Boundary data is canonically a vector of uniform samples (``BoundaryData``),
loads are finite sums of monomials z^a conj(z)^b (``SourceTerm``). For this
data model every transform has a closed form, and the solver evaluates only
those (s = 1 - |z|^2, t = |z|^2):

* Boundary. F0 acts on the mode e^{i m theta} as the multiplier
  r^|m| (1 + |m| s / 2) and H0 as r^|m| s / 2. Splitting the data into
  u = A(z) + B(zbar), the analytic and antianalytic parts of its harmonic
  extension,

      F0[f] = u + (s/2) (z A'(z) + zbar B'(zbar)),    H0[h] = (s/2) u.

* Green. For one load term c z^a zbar^b,

      -G[c z^a zbar^b] = c w^|a-b| s^2 P_k(t) / ((a+1)(a+2)(b+1)(b+2)),

  with w = z if a >= b and zbar otherwise, k = min(a, b) + 2 and
  P_k(t) = sum_{i=0}^{k-2} (k-1-i) t^i. Every term of P_k is positive and
  s^2 is a factor, so nothing cancels as r -> 0 or r -> 1.

Gradients differentiate these formulas, never the field. The integral forms
(circle quadrature of the kernels in ``kernels``, recentred disk quadrature
of ``green.g_eval``) stay in ``quadrature``, ``verify`` and the tests as the
independent oracle the closed forms are checked against.

``solve_grid`` evaluates on a polar grid with radii r_max * k / n_r up to
``MAX_GRID_RADIUS``; point evaluation refuses points within 40 / 2^21 of the
circle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels  # noqa: F401 - re-exported; callers reach it as solver.kernels
from .errors import (
    DegenerateDataError,
    DomainError,
    ResolutionPolicyError,
)
from .kernels import WirtingerPair
from .quadrature import _circle_angles

# Exponent cap for SourceTerm monomials.
MAX_EXPONENT = 16

# Grid radii are refused above this.
MAX_GRID_RADIUS = 0.999

# Boundary transforms refuse points nearer the circle than this. The closed
# forms are exact there too; the limit keeps the set of refused points that
# callers and the error taxonomy rely on (40 nodes per kernel window at 2^21
# circle nodes, the resolution limit of the kernel quadrature).
_MIN_CIRCLE_DISTANCE = 40.0 / (1 << 21)

_polyval = np.polynomial.polynomial.polyval
_polyder = np.polynomial.polynomial.polyder


class BoundaryData:
    """Complex boundary data as uniform samples at angles 2 pi k / N.

    N must be even and at least 4. Construction from Fourier modes is exact
    whenever every |mode| < N/2; ``eval_at`` evaluates the band-limited
    trigonometric interpolant (real-symmetric Nyquist convention), so
    resampling to a finer uniform grid is lossless.
    """

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex).copy()
        if arr.ndim != 1 or arr.size < 4 or arr.size % 2:
            raise DegenerateDataError(
                "boundary data needs an even number of samples, at least 4"
            )
        if not np.all(np.isfinite(arr)):
            raise DegenerateDataError("boundary samples must be finite")
        arr.setflags(write=False)
        self.samples = arr

    @property
    def n(self) -> int:
        return self.samples.size

    @classmethod
    def constant(cls, value: complex, n_samples: int = 512) -> "BoundaryData":
        return cls(np.full(n_samples, complex(value)))

    @classmethod
    def zero(cls, n_samples: int = 512) -> "BoundaryData":
        return cls.constant(0.0, n_samples)

    @classmethod
    def from_fourier(cls, modes, n_samples: int = 512) -> "BoundaryData":
        """Build from (mode, coefficient) pairs: sum_m c_m e^{i m theta}."""
        th = _circle_angles(n_samples)
        out = np.zeros(n_samples, dtype=complex)
        for mode, coeff in modes:
            mode = int(mode)
            if 2 * abs(mode) >= n_samples:
                raise DegenerateDataError(
                    f"mode {mode} is not resolvable with {n_samples} samples"
                )
            out += complex(coeff) * np.exp(1j * mode * th)
        return cls(out)

    @classmethod
    def from_function(cls, fn, n_samples: int = 512) -> "BoundaryData":
        return cls(np.asarray(fn(_circle_angles(n_samples)), dtype=complex))

    def eval_at(self, theta) -> np.ndarray:
        w = np.exp(1j * np.atleast_1d(np.asarray(theta, dtype=float)))
        a, b = self._harmonic_parts()
        return _polyval(w, a) + _polyval(np.conj(w), b)

    def _harmonic_parts(self):
        """Coefficients (a, b) with u = sum_m a_m z^m + sum_m b_m zbar^m.

        u is the harmonic extension of the interpolant: a holds the modes
        0..N/2, b the modes 0, -1..-N/2 (b_0 = 0). The Nyquist coefficient is
        halved into both, so the interpolant carries it as a cosine
        (real-symmetric convention).
        """
        half = self.n // 2
        coef = np.fft.fft(self.samples) / self.n
        nyquist = 0.5 * coef[half]
        a = np.concatenate((coef[:half], [nyquist]))
        b = np.concatenate(([0.0], coef[:half:-1], [nyquist]))
        return a, b

    def resample(self, n_nodes: int) -> np.ndarray:
        """Samples of the interpolant at n_nodes uniform angles.

        Upsampling zero-pads the spectrum (O(n log n)); downsampling
        evaluates the interpolant directly.
        """
        if n_nodes == self.n:
            return self.samples
        if n_nodes < self.n:
            return self.eval_at(_circle_angles(n_nodes))
        a, b = self._harmonic_parts()
        padded = np.zeros(n_nodes, dtype=complex)
        padded[: a.size] = a
        padded[n_nodes - b.size + 1 :] = b[:0:-1]
        return np.fft.ifft(padded) * n_nodes

    def sup_norm(self) -> float:
        dense = max(2048, self.n)
        return float(np.max(np.abs(self.resample(dense))))

    def __mul__(self, scalar):
        return BoundaryData(self.samples * complex(scalar))

    __rmul__ = __mul__

    def __add__(self, other: "BoundaryData"):
        if other.n != self.n:
            other_samples = other.resample(self.n)
        else:
            other_samples = other.samples
        return BoundaryData(self.samples + other_samples)


class SourceTerm:
    """A load given as a finite sum sum_k c_k z^(a_k) conj(z)^(b_k).

    Exponents are integers in [0, 16]. Terms with equal exponents are merged
    and zero coefficients dropped at construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[int, int], complex] = {}
        for a, b, c in terms:
            a, b, c = int(a), int(b), complex(c)
            if not (0 <= a <= MAX_EXPONENT and 0 <= b <= MAX_EXPONENT):
                raise DomainError(
                    f"exponents must lie in [0, {MAX_EXPONENT}], got ({a}, {b})"
                )
            merged[(a, b)] = merged.get((a, b), 0.0) + c
        self.terms = tuple(
            (a, b, c) for (a, b), c in sorted(merged.items()) if c != 0.0
        )

    @classmethod
    def zero(cls) -> "SourceTerm":
        return cls(())

    @classmethod
    def constant(cls, value: complex) -> "SourceTerm":
        return cls(((0, 0, value),))

    @classmethod
    def monomial(cls, a: int, b: int, coeff: complex = 1.0) -> "SourceTerm":
        return cls(((a, b, coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(a == 0 and b == 0 for a, b, _ in self.terms)

    def constant_value(self) -> complex:
        return sum((c for a, b, c in self.terms if a == 0 and b == 0), 0j)

    def evaluate(self, zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=complex)
        out = np.zeros(zeta.shape, dtype=complex)
        zb = np.conj(zeta)
        for a, b, c in self.terms:
            out += c * zeta**a * zb**b
        return out

    __call__ = evaluate

    def bilaplacian(self) -> "SourceTerm":
        """Apply Delta^2 termwise, Delta = d^2/dz dzbar."""
        return SourceTerm(
            (a - 2, b - 2, a * b * (a - 1) * (b - 1) * c)
            for a, b, c in self.terms
            if a >= 2 and b >= 2
        )

    def sup_norm_bound(self) -> float:
        """Certified upper bound sum |c_k| for the sup over the closed disk."""
        return float(sum(abs(c) for _, _, c in self.terms))

    def sup_norm_estimate(self, n_radial: int = 512, n_angular: int = 512) -> float:
        """Dense polar-grid maximum of |g| over the closed disk (a lower estimate)."""
        if self.is_zero:
            return 0.0
        r = np.linspace(0.0, 1.0, n_radial)
        zeta = r[:, None] * np.exp(1j * _circle_angles(n_angular))[None, :]
        return float(np.max(np.abs(self.evaluate(zeta))))

    def scaled(self, factor: complex) -> "SourceTerm":
        return SourceTerm((a, b, c * factor) for a, b, c in self.terms)

    def __add__(self, other: "SourceTerm") -> "SourceTerm":
        return SourceTerm(tuple(self.terms) + tuple(other.terms))


@dataclass(frozen=True)
class Case:
    """One problem instance: trace f, inward normal derivative h, load g."""

    f: BoundaryData
    h: BoundaryData
    g: SourceTerm


def case_fingerprint(f: BoundaryData, h: BoundaryData, g: SourceTerm) -> str:
    """Stable hash of the problem data (f, h, g) a field was built from."""
    doc = {
        "f": [[v.real, v.imag] for v in f.samples],
        "h": [[v.real, v.imag] for v in h.samples],
        "g": [[a, b, c.real, c.imag] for a, b, c in g.terms],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# boundary transforms


def f0_transform(f: BoundaryData, z: complex) -> complex:
    """Circle convolution of the trace kernel with f at the point z."""
    vals, _ = _boundary_batch(f, None, np.asarray([z], dtype=complex))
    return complex(vals[0])


def h0_transform(h: BoundaryData, z: complex) -> complex:
    """Circle convolution of the normal-derivative kernel with h at z."""
    _, vals = _boundary_batch(None, h, np.asarray([z], dtype=complex))
    return complex(vals[0])


def _check_boundary_points(zs: np.ndarray) -> None:
    """Refuse non-finite points and points within _MIN_CIRCLE_DISTANCE of the circle."""
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    r = np.abs(zs)
    near = 1.0 - r < _MIN_CIRCLE_DISTANCE
    if np.any(near):
        raise ResolutionPolicyError(
            f"radius {float(r[near].max())} lies within {_MIN_CIRCLE_DISTANCE:.3g} "
            "of the circle, where boundary transforms are refused"
        )


def _boundary_batch(f: Optional[BoundaryData], h: Optional[BoundaryData],
                    zs: np.ndarray):
    """F0[f] and H0[h] at each z from the mode multipliers (module docstring)."""
    _check_boundary_points(zs)
    zb = np.conj(zs)
    s = 1.0 - (zs.real**2 + zs.imag**2)
    f_vals = np.zeros(zs.shape, dtype=complex)
    h_vals = np.zeros(zs.shape, dtype=complex)
    if f is not None:
        a, b = f._harmonic_parts()
        m = np.arange(a.size)
        f_vals = (_polyval(zs, a) + _polyval(zb, b)
                  + 0.5 * s * (_polyval(zs, m * a) + _polyval(zb, m * b)))
    if h is not None:
        a, b = h._harmonic_parts()
        h_vals = 0.5 * s * (_polyval(zs, a) + _polyval(zb, b))
    return f_vals, h_vals


def _boundary_gradient_batch(f: Optional[BoundaryData], h: Optional[BoundaryData],
                             zs: np.ndarray):
    """Wirtinger gradient of the combined boundary part at each z.

    With u = A(z) + B(zbar) and s = 1 - |z|^2, differentiating
    F0[f] = u + (s/2)(z A' + zbar B') and H0[h] = (s/2) u, using ds/dz = -zbar.
    """
    _check_boundary_points(zs)
    zb = np.conj(zs)
    s = 1.0 - (zs.real**2 + zs.imag**2)
    d_z = np.zeros(zs.shape, dtype=complex)
    d_zbar = np.zeros(zs.shape, dtype=complex)
    if f is not None:
        a, b = f._harmonic_parts()
        da, db = _polyder(a), _polyder(b)
        a1, b1 = _polyval(zs, da), _polyval(zb, db)
        a2, b2 = _polyval(zs, _polyder(da)), _polyval(zb, _polyder(db))
        euler = zs * a1 + zb * b1
        d_z += a1 + 0.5 * s * (a1 + zs * a2) - 0.5 * zb * euler
        d_zbar += b1 + 0.5 * s * (b1 + zb * b2) - 0.5 * zs * euler
    if h is not None:
        a, b = h._harmonic_parts()
        u = _polyval(zs, a) + _polyval(zb, b)
        d_z += 0.5 * (s * _polyval(zs, _polyder(a)) - zb * u)
        d_zbar += 0.5 * (s * _polyval(zb, _polyder(b)) - zs * u)
    return d_z, d_zbar


# ---------------------------------------------------------------------------
# Green potential

def green_potential(g: SourceTerm, z: complex) -> complex:
    """Green potential int_D G(z, zeta) g(zeta) dA(zeta) at z."""
    return complex(_green_potential_batch(g, np.asarray([z], dtype=complex))[0])


def _disk_abs2(zs: np.ndarray) -> np.ndarray:
    if np.any(np.abs(zs) >= 1.0):
        raise DomainError("Green potential requires |z| < 1")
    return zs.real**2 + zs.imag**2


def _green_factors(a: int, b: int, c: complex, t: np.ndarray):
    """(scale, k, P_k(t)) for the load term c z^a zbar^b; -G of it is scale w^|a-b| s^2 P_k."""
    k = min(a, b) + 2
    scale = c / ((a + 1) * (a + 2) * (b + 1) * (b + 2))
    return scale, k, _polyval(t, np.arange(k - 1, 0, -1.0))


def _green_potential_batch(g: SourceTerm, zs: np.ndarray) -> np.ndarray:
    """G[g] at each z, summed over the load terms in closed form (module docstring)."""
    out = np.zeros(zs.shape, dtype=complex)
    if g.is_zero:
        return out
    t = _disk_abs2(zs)
    zb = np.conj(zs)
    for a, b, c in g.terms:
        scale, _, p = _green_factors(a, b, c, t)
        out -= scale * (zs if a >= b else zb) ** abs(a - b) * p
    return out * (1.0 - t) ** 2


def _green_gradient_batch(g: SourceTerm, zs: np.ndarray):
    """Wirtinger gradient of the Green potential at each z.

    Per term, with Q(t) = s^2 P_k(t) and w the power base (z or zbar),
    d/dw [w^d Q] = d w^(d-1) Q + w^d conj(w) Q' and d/dconj(w) [w^d Q] = w^(d+1) Q',
    where Q'(t) = -k s sum_{i=0}^{k-2} t^i.
    """
    d_z = np.zeros(zs.shape, dtype=complex)
    d_zbar = np.zeros(zs.shape, dtype=complex)
    if g.is_zero:
        return d_z, d_zbar
    t = _disk_abs2(zs)
    s = 1.0 - t
    zb = np.conj(zs)
    for a, b, c in g.terms:
        scale, k, p = _green_factors(a, b, c, t)
        d = abs(a - b)
        w, w_bar = (zs, zb) if a >= b else (zb, zs)
        dq = -k * s * _polyval(t, np.ones(k - 1))
        w_d = w**d
        along = w_d * w_bar * dq
        if d:
            along += d * w ** (d - 1) * s**2 * p
        across = w_d * w * dq
        if a < b:
            along, across = across, along
        d_z -= scale * along
        d_zbar -= scale * across
    return d_z, d_zbar


# ---------------------------------------------------------------------------
# assembled solution


def solve_point(f: BoundaryData, h: BoundaryData, g: SourceTerm, z: complex) -> complex:
    """Phi(z) = F0[f](z) + H0[h](z) - G[g](z)."""
    zs = np.asarray([z], dtype=complex)
    fv, hv = _boundary_batch(f, h, zs)
    gv = _green_potential_batch(g, zs)
    return complex(fv[0] + hv[0] - gv[0])


def solve_points(f: BoundaryData, h: BoundaryData, g: SourceTerm, zs) -> np.ndarray:
    """Phi on a flat array of interior points (batched transforms)."""
    zs = np.asarray(zs, dtype=complex)
    fv, hv = _boundary_batch(f, h, zs)
    gv = _green_potential_batch(g, zs)
    return fv + hv - gv


def gradient_point(f: BoundaryData, h: BoundaryData, g: SourceTerm,
                   z: complex) -> WirtingerPair:
    """Wirtinger gradient (Phi_z, Phi_zbar) from the closed-form transforms."""
    zs = np.asarray([z], dtype=complex)
    bz, bzb = _boundary_gradient_batch(f, h, zs)
    gz, gzb = _green_gradient_batch(g, zs)
    return WirtingerPair(complex(bz[0] - gz[0]), complex(bzb[0] - gzb[0]))


def boundary_gradient(f: Optional[BoundaryData], h: Optional[BoundaryData], zs):
    """Wirtinger gradient arrays of the boundary part F0[f] + H0[h] alone."""
    return _boundary_gradient_batch(f, h, np.asarray(zs, dtype=complex))


def green_gradient(g: SourceTerm, zs):
    """Wirtinger gradient arrays of the Green part -G[g] alone."""
    gz, gzb = _green_gradient_batch(g, np.asarray(zs, dtype=complex))
    return -gz, -gzb


@dataclass
class SolutionField:
    """Solution values (and optionally gradients) on a polar grid.

    values[i, j] is Phi at radii[i] * exp(1j * thetas[j]). Nodes that failed
    to evaluate hold NaN and are listed in ``failures`` as (i, j, message).
    """

    radii: np.ndarray
    thetas: np.ndarray
    values: np.ndarray
    d_z: Optional[np.ndarray]
    d_zbar: Optional[np.ndarray]
    fingerprint: str
    r_max: float
    failures: list = field(default_factory=list)

    @property
    def n_r(self) -> int:
        return self.radii.size

    @property
    def n_theta(self) -> int:
        return self.thetas.size

    @property
    def points(self) -> np.ndarray:
        return self.radii[:, None] * np.exp(1j * self.thetas)[None, :]


def solve_grid(f: BoundaryData, h: BoundaryData, g: SourceTerm,
               n_r: int, n_theta: int, r_max: float = 1.0,
               with_gradient: bool = False) -> SolutionField:
    """Solve on the polar grid r = r_max k / n_r, theta = 2 pi j / n_theta.

    Grids whose last radius exceeds ``MAX_GRID_RADIUS`` are refused; the
    closed-form transforms are exact at every radius up to it. A node whose
    transforms raise ``DomainError`` or ``ResolutionPolicyError`` holds NaN
    and is listed in ``failures``; any other error propagates.
    """
    if n_r < 1 or n_theta < 1:
        raise DegenerateDataError("grid sizes must be positive")
    if not (0.0 < r_max <= 1.0):
        raise DomainError("r_max must lie in (0, 1]")
    radii = r_max * np.arange(n_r) / n_r
    thetas = _circle_angles(n_theta).copy()
    r_last = radii[-1]
    if r_last > MAX_GRID_RADIUS:
        raise ResolutionPolicyError(
            f"grid radius {r_last} exceeds the hard cap {MAX_GRID_RADIUS}"
        )

    zs = (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    shape = (n_r, n_theta)
    values = np.full(zs.shape, np.nan, dtype=complex)
    d_z = np.full(zs.shape, np.nan, dtype=complex) if with_gradient else None
    d_zbar = np.full(zs.shape, np.nan, dtype=complex) if with_gradient else None
    failures: list = []

    def run(sel):
        fv, hv = _boundary_batch(f, h, zs[sel])
        gv = _green_potential_batch(g, zs[sel])
        values[sel] = fv + hv - gv
        if with_gradient:
            bz, bzb = _boundary_gradient_batch(f, h, zs[sel])
            wz, wzb = _green_gradient_batch(g, zs[sel])
            d_z[sel] = bz - wz
            d_zbar[sel] = bzb - wzb

    try:
        run(slice(None))
    except (DomainError, ResolutionPolicyError):
        # isolate failing nodes instead of losing the whole grid
        for k in range(zs.size):
            try:
                run(slice(k, k + 1))
            except (DomainError, ResolutionPolicyError) as exc:
                failures.append((k // n_theta, k % n_theta, str(exc)))

    return SolutionField(
        radii=radii,
        thetas=thetas,
        values=values.reshape(shape),
        d_z=d_z.reshape(shape) if with_gradient else None,
        d_zbar=d_zbar.reshape(shape) if with_gradient else None,
        fingerprint=case_fingerprint(f, h, g),
        r_max=r_max,
        failures=failures,
    )
