"""Solution operators for the inhomogeneous biharmonic Dirichlet problem.

A problem instance on the unit disk is the triple (f, h, g): boundary trace
f and inward normal derivative h on the circle, load g on the disk. The
solution is assembled from three independent transforms,

    Phi(z) = F0[f](z) + H0[h](z) - G[g](z),

where F0[.] and H0[.] are circle convolutions against the trace and
normal-derivative kernels and G[.] is the Green potential

    G[g](z) = int_D G(z, zeta) g(zeta) dA(zeta).

Boundary data is canonically a vector of uniform samples (``BoundaryData``,
which computes its spectrum once, at construction), loads are finite sums of
monomials z^a conj(z)^b (``SourceTerm``). For this data model every
transform has a closed form, and together they make Phi a polynomial in z
and zbar of Almansi's shape (s = 1 - |z|^2, t = |z|^2):

    Phi(z) = sum over rows (p, j) of s^p t^j (alpha_pj(z) + beta_pj(zbar)).

``Solution`` assembles this table once per case, from two blocks:

* Boundary, rows (0, 0) and (1, 0). F0 acts on the mode e^{i m theta} as
  the multiplier r^|m| (1 + |m| s / 2) and H0 as r^|m| s / 2. Splitting the
  data into u = A(z) + B(zbar), the analytic and antianalytic parts of its
  harmonic extension (coefficients ``BoundaryData.a`` and ``.b``),

      F0[f] = u + (s/2) (z A'(z) + zbar B'(zbar)),    H0[h] = (s/2) u.

* Green, rows (2, j). For one load term c z^a zbar^b,

      -G[c z^a zbar^b] = c w^|a-b| s^2 P_k(t) / ((a+1)(a+2)(b+1)(b+2)),

  with w = z if a >= b and zbar otherwise, k = min(a, b) + 2 and
  P_k(t) = sum_{j=0}^{k-2} (k-1-j) t^j. Every term of P_k is positive and
  s^p stays factored out of each row, so nothing cancels as r -> 0 or r -> 1.

Values and Wirtinger gradients share one evaluator, which differentiates
the table, never the field: d/dz (s^p t^j) = zbar (j s^p t^(j-1) - p s^(p-1)
t^j) (z for d/dzbar), plus alpha' and beta'. Powers of z, s and t come from
repeated products and meet the table in one matmul per block and chunk of
points. The integral forms (circle quadrature of the kernels in ``kernels``,
recentred disk quadrature of ``green.g_eval``) stay in ``quadrature``,
``verify`` and the tests as the independent oracle for the table.

The table is exact on the closed disk: on the circle s = 0, so Phi takes
the value f there and -(z Phi_z + zbar Phi_zbar) the value h. Every point
entry point refuses a point by one rule: ``DomainError`` for a non-finite z
or |z| > 1 + ``_CIRCLE_SLACK``. ``solve_grid`` evaluates on a polar grid
with radii r_max * k / n_r.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels  # noqa: F401 - re-exported; callers reach it as solver.kernels
from .errors import DegenerateDataError, DomainError
from .quadrature import _BLOCK_NODES, _circle_angles

# Exponent cap for SourceTerm monomials.
MAX_EXPONENT = 16

# Radii and angles of the polar grid behind SourceTerm.sup_norm_estimate,
# which walks it in blocks of rows as the disk quadrature does.
_SUP_GRID = 512

# Points are refused only for |z| > 1 + this: exp(1j * theta) can round to
# |z| = 1 + 2.2e-16, and the table is exact on the circle itself.
_CIRCLE_SLACK = 4 * np.finfo(float).eps

# Points per evaluation chunk times table width stays under this, which
# bounds the table of powers of z at 512 KiB whatever the number of points.
_CHUNK_ENTRIES = 1 << 15

_polyval = np.polynomial.polynomial.polyval


class BoundaryData:
    """Complex boundary data as uniform samples at angles 2 pi k / N.

    N must be even and at least 4. Construction from Fourier modes is exact
    whenever every |mode| < N/2; ``eval_at`` evaluates the band-limited
    trigonometric interpolant (real-symmetric Nyquist convention), so
    resampling to a finer uniform grid is lossless.

    The spectrum is computed once, by one FFT at construction: ``a`` and
    ``b`` are the coefficients of the interpolant's harmonic extension
    u = sum_m a_m z^m + sum_m b_m zbar^m. a holds the modes 0..N/2, b the
    modes 0, -1..-N/2 (b_0 = 0). The Nyquist coefficient is halved into
    both, so the interpolant carries it as a cosine. ``samples``, ``a`` and
    ``b`` are read-only arrays. Samples whose spectrum overflows double
    precision raise ``DegenerateDataError``.
    """

    __slots__ = ("samples", "a", "b")

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex).copy()
        if arr.ndim != 1 or arr.size < 4 or arr.size % 2:
            raise DegenerateDataError(
                "boundary data needs an even number of samples, at least 4"
            )
        if not np.all(np.isfinite(arr)):
            raise DegenerateDataError("boundary samples must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.fft.fft(arr) / arr.size
        if not np.all(np.isfinite(coef)):
            raise DegenerateDataError(
                "the spectrum of the boundary samples overflows double precision")
        half = arr.size // 2
        nyquist = 0.5 * coef[half]
        a = np.concatenate((coef[:half], [nyquist]))
        b = np.concatenate(([0.0], coef[:half:-1], [nyquist]))
        for part in (arr, a, b):
            part.setflags(write=False)
        self.samples, self.a, self.b = arr, a, b

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
        return _polyval(w, self.a) + _polyval(np.conj(w), self.b)

    def modes(self, n: int) -> np.ndarray:
        """The spectrum as n > N coefficients in FFT order: a at modes 0..N/2, b at -1..-N/2."""
        out = np.zeros(n, dtype=complex)
        out[: self.a.size] = self.a
        out[n - self.b.size + 1 :] = self.b[:0:-1]
        return out

    def resample(self, n_nodes: int) -> np.ndarray:
        """Samples of the interpolant at n_nodes >= N uniform angles.

        Zero-pads the spectrum (O(n log n)). Fewer nodes than samples would
        alias the upper modes onto lower ones, so that raises
        ``DegenerateDataError``.
        """
        if n_nodes == self.n:
            return self.samples
        if n_nodes < self.n:
            raise DegenerateDataError(
                f"cannot resample {self.n} samples to {n_nodes} nodes without aliasing"
            )
        return np.fft.ifft(self.modes(n_nodes)) * n_nodes

    def sup_norm(self) -> float:
        dense = max(2048, self.n)
        return float(np.max(np.abs(self.resample(dense))))


class SourceTerm:
    """A load given as a finite sum sum_k c_k z^(a_k) conj(z)^(b_k).

    Exponents are integers in [0, 16] and coefficients finite. Terms with
    equal exponents are merged and zero coefficients dropped at construction.
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
            if not np.isfinite(c):
                raise DomainError(f"coefficient of z^{a} zbar^{b} must be finite, got {c}")
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

    def sup_norm_estimate(self) -> float:
        """Maximum of |g| on a 512 x 512 polar grid of the closed disk (a lower estimate)."""
        if self.is_zero:
            return 0.0
        r = np.linspace(0.0, 1.0, _SUP_GRID)
        circle = np.exp(1j * _circle_angles(_SUP_GRID))
        step = _BLOCK_NODES // _SUP_GRID
        return max(
            float(np.max(np.abs(self.evaluate(r[i:i + step, None] * circle[None, :]))))
            for i in range(0, _SUP_GRID, step)
        )

    def __add__(self, other: "SourceTerm") -> "SourceTerm":
        return SourceTerm(tuple(self.terms) + tuple(other.terms))


@dataclass(frozen=True)
class Case:
    """One problem instance: trace f, inward normal derivative h, load g."""

    f: BoundaryData
    h: BoundaryData
    g: SourceTerm


def case_fingerprint(f: BoundaryData, h: BoundaryData, g: SourceTerm) -> str:
    """Stable hash of the problem data (f, h, g) a field was built from.

    Hashes the little-endian bytes of f's and h's samples and of g's terms
    as rows (a, b, Re c, Im c), each part framed by its byte length.
    """
    terms = [(a, b, c.real, c.imag) for a, b, c in g.terms]
    digest = hashlib.sha256()
    for part in (np.asarray(f.samples, dtype="<c16"), np.asarray(h.samples, dtype="<c16"),
                 np.asarray(terms, dtype="<f8")):
        raw = part.tobytes()
        digest.update(len(raw).to_bytes(8, "little") + raw)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# assembled solution


class Solution:
    """Phi = F0[f] + H0[h] - G[g] as one Almansi table (module docstring).

    Any of f, h, g may be None. Boundary rows (width N/2 + 1) and load rows
    (width at most MAX_EXPONENT + 1) are separate blocks, so load rows are
    not padded to the band.
    """

    def __init__(self, f: Optional[BoundaryData] = None,
                 h: Optional[BoundaryData] = None, g: Optional[SourceTerm] = None):
        blocks = [b for b in (_boundary_rows(f, h), _load_rows(g)) if b is not None]
        # [alpha; conj(beta); alpha'; conj(beta')] by table row: conj(zbar^m) = z^m,
        # so one matmul against powers of z gives all four
        self._coefs = [np.vstack([a.T, b.T.conj(), _deriv(a).T, _deriv(b).T.conj()])
                       for _, _, a, b in blocks]
        self._p = np.array([p for rows in blocks for p in rows[0]], dtype=int)
        self._j = np.array([j for rows in blocks for j in rows[1]], dtype=int)
        self._width = max((coef.shape[1] for coef in self._coefs), default=1)

    def values(self, zs) -> np.ndarray:
        """Phi at each point of zs (any shape)."""
        return self._evaluate(zs, gradient=False)[0]

    def gradient(self, zs):
        """Wirtinger gradient arrays (Phi_z, Phi_zbar) at each point of zs."""
        return self._evaluate(zs, gradient=True)[1:]

    def _evaluate(self, zs, gradient: bool):
        """(Phi,), or (Phi, Phi_z, Phi_zbar) with gradient, at each point of zs."""
        zs = np.asarray(zs, dtype=complex)
        shape, zs = zs.shape, zs.ravel()
        _check_points(zs)
        p, j = self._p, self._j
        kinds = 4 if gradient else 2
        outs = np.zeros((3 if gradient else 1, zs.size), dtype=complex)
        step = max(1, _CHUNK_ENTRIES // self._width)
        for lo in range(0, zs.size if self._coefs else 0, step):
            z = zs[lo:lo + step]
            t = z.real**2 + z.imag**2
            s_pow, t_pow = _powers(1.0 - t, 3), _powers(t, j.max() + 1)
            z_pow = _powers(z, self._width)
            x = np.concatenate([
                (coef[:kinds * coef.shape[0] // 4] @ z_pow[:coef.shape[1]])
                .reshape(kinds, -1, z.size) for coef in self._coefs], axis=1)
            u = x[0] + np.conj(x[1])
            weight = s_pow[p] * t_pow[j]
            outs[0, lo:lo + step] = np.sum(weight * u, axis=0)
            if gradient:
                # d/dt (s^p t^j); d/dz multiplies it by zbar and d/dzbar by z
                d_weight = (j[:, None] * s_pow[p] * t_pow[np.maximum(j - 1, 0)]
                            - p[:, None] * s_pow[np.maximum(p - 1, 0)] * t_pow[j])
                radial = np.sum(d_weight * u, axis=0)
                outs[1, lo:lo + step] = np.conj(z) * radial + np.sum(weight * x[2], axis=0)
                outs[2, lo:lo + step] = z * radial + np.sum(weight * np.conj(x[3]), axis=0)
        return tuple(out.reshape(shape) for out in outs)


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """Rows x^0 .. x^(n-1) by repeated products.

    Each pass multiplies the rows done so far by the next power, doubling
    them: log2(n) vector products, ~3x faster than np.vander's accumulate.
    """
    out = np.empty((n, x.size), dtype=x.dtype)
    out[0] = 1.0
    done = 1
    while done < n:
        step = min(done, n - done)
        np.multiply(out[:step], out[done - 1] * x, out=out[done:done + step])
        done += step
    return out


def _deriv(c: np.ndarray) -> np.ndarray:
    """Coefficient columns of the derivative, in the same shape (last row 0)."""
    return np.roll(np.arange(c.shape[0])[:, None] * c, -1, axis=0)


def _check_points(zs: np.ndarray) -> None:
    """The one refusal rule of every point entry point (module docstring)."""
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    r = np.abs(zs)
    if np.any(r > 1.0 + _CIRCLE_SLACK):
        raise DomainError(f"radius {float(r.max())} lies outside the closed unit disk")


def table_coefficients(f: Optional[BoundaryData] = None, h: Optional[BoundaryData] = None,
                       g: Optional[SourceTerm] = None) -> np.ndarray:
    """The table expanded as Phi = sum of c[d, l] w_d t^l, w_d = z^d or zbar^|d| (d < 0).

    Rows run in FFT order (``c[d, l]`` takes either sign of d) over the modes of
    the table, of f and h, and +-1; row s^p t^j adds C(p, k) (-1)^k to level j + k.
    """
    blocks = [b for b in (_boundary_rows(f, h), _load_rows(g)) if b is not None]
    width = max([a.shape[0] for _, _, a, _ in blocks]
                + [d.n // 2 + 1 for d in (f, h) if d is not None] + [2])
    depth = max((p + j for ps, js, _, _ in blocks for p, j in zip(ps, js)), default=0) + 1
    c = np.zeros((2 * width - 1, depth), dtype=complex)
    for ps, js, alpha, beta in blocks:
        d = np.arange(alpha.shape[0])
        for row, (p, j) in enumerate(zip(ps, js)):
            for k in range(p + 1):
                weight = math.comb(p, k) * (-1) ** k
                c[d, j + k] += weight * alpha[:, row]
                c[-d, j + k] += weight * beta[:, row]
    return c


def _boundary_rows(f: Optional[BoundaryData], h: Optional[BoundaryData]):
    """(p, j, alpha, beta) of rows (0, 0) and (1, 0), or None for zero data."""
    given = [d for d in (f, h) if d is not None]
    if not any(np.any(d.samples) for d in given):
        return None
    width = max(d.n for d in given) // 2 + 1
    a_f, b_f, a_h, b_h = np.zeros((4, width), dtype=complex)
    for d, a_out, b_out in ((f, a_f, b_f), (h, a_h, b_h)):
        if d is not None:
            a_out[:d.a.size], b_out[:d.b.size] = d.a, d.b
    m = np.arange(width)
    alpha = np.stack([a_f, 0.5 * (m * a_f + a_h)], axis=1)
    beta = np.stack([b_f, 0.5 * (m * b_f + b_h)], axis=1)
    return [0, 1], [0, 0], alpha, beta


def _load_rows(g: Optional[SourceTerm]):
    """(p, j, alpha, beta) of rows (2, j): c z^a zbar^b adds scale (k-1-j) w^|a-b| to row j."""
    if g is None or g.is_zero:
        return None
    n_rows = max(min(a, b) for a, b, _ in g.terms) + 1
    width = max(abs(a - b) for a, b, _ in g.terms) + 1
    alpha, beta = np.zeros((2, width, n_rows), dtype=complex)
    for a, b, c in g.terms:
        k = min(a, b) + 2
        scale = c / ((a + 1) * (a + 2) * (b + 1) * (b + 2))
        (alpha if a >= b else beta)[abs(a - b), :k - 1] += scale * np.arange(k - 1, 0, -1.0)
    return [2] * n_rows, range(n_rows), alpha, beta


def f0_transform(f: BoundaryData, z: complex) -> complex:
    """Circle convolution of the trace kernel with f at the point z."""
    return complex(Solution(f=f).values(z))


def h0_transform(h: BoundaryData, z: complex) -> complex:
    """Circle convolution of the normal-derivative kernel with h at z."""
    return complex(Solution(h=h).values(z))


def green_potential(g: SourceTerm, z: complex) -> complex:
    """Green potential int_D G(z, zeta) g(zeta) dA(zeta) at z."""
    return -complex(Solution(g=g).values(z))


def solve_point(f: BoundaryData, h: BoundaryData, g: SourceTerm, z: complex) -> complex:
    """Phi(z) = F0[f](z) + H0[h](z) - G[g](z)."""
    return complex(Solution(f, h, g).values(z))


def solve_points(f: BoundaryData, h: BoundaryData, g: SourceTerm, zs) -> np.ndarray:
    """Phi on an array of interior points."""
    return Solution(f, h, g).values(zs)


def gradient_point(f: BoundaryData, h: BoundaryData, g: SourceTerm,
                   z: complex) -> tuple[complex, complex]:
    """Wirtinger gradient (Phi_z, Phi_zbar) at z.

    The same tuple ``Solution.gradient`` returns, with complex scalars.
    """
    return tuple(map(complex, Solution(f, h, g).gradient(z)))


def boundary_gradient(f: Optional[BoundaryData], h: Optional[BoundaryData], zs):
    """Wirtinger gradient arrays of the boundary part F0[f] + H0[h] alone."""
    return Solution(f, h).gradient(zs)


def green_gradient(g: SourceTerm, zs):
    """Wirtinger gradient arrays of the Green part -G[g] alone."""
    return Solution(g=g).gradient(zs)


@dataclass
class SolutionField:
    """Solution values (and optionally gradients) on a polar grid.

    values[i, j] is Phi at radii[i] * exp(1j * thetas[j]). ``failures`` is
    always empty: every node evaluates. It is kept because the benchmark
    harness under ``perfbench/`` reads it.
    """

    radii: np.ndarray
    thetas: np.ndarray
    values: np.ndarray
    d_z: Optional[np.ndarray]
    d_zbar: Optional[np.ndarray]
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

    Values and gradients come from one pass of the assembled table, exact at
    every radius of the grid.
    """
    if n_r < 1 or n_theta < 1:
        raise DegenerateDataError("grid sizes must be positive")
    if not (0.0 < r_max <= 1.0):
        raise DomainError("r_max must lie in (0, 1]")
    radii = r_max * np.arange(n_r) / n_r
    thetas = _circle_angles(n_theta).copy()
    zs = radii[:, None] * np.exp(1j * thetas)[None, :]
    outs = Solution(f, h, g)._evaluate(zs, gradient=with_gradient)
    d_z, d_zbar = outs[1:] if with_gradient else (None, None)
    return SolutionField(
        radii=radii,
        thetas=thetas,
        values=outs[0],
        d_z=d_z,
        d_zbar=d_zbar,
        r_max=r_max,
    )
