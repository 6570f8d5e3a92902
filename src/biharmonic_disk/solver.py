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

``Solution`` is the public evaluator. It assembles this table from two
blocks, and ``Solution.coefficients`` expands it into the coefficients of
w_d t^l (w_d = z^d, or zbar^|d| for d < 0). ``Case.solution`` is a case's
own ``Solution``, assembled on first use and then reused. The two blocks:

* Boundary, rows (0, 0) and (1, 0). F0 acts on the mode e^{i m theta} as
  the multiplier r^|m| (1 + |m| s / 2) and H0 as r^|m| s / 2. Splitting the
  data into u = A(z) + B(zbar), the analytic and antianalytic parts of its
  harmonic extension (coefficients ``BoundaryData.a`` and ``.b``),

      F0[f] = u + (s/2) (z A'(z) + zbar B'(zbar)),    H0[h] = (s/2) u.

  The block keeps the modes below the data's bandwidth w: the smallest w
  whose tail sum_{m >= w} (|a_f,m| + |b_f,m| + |a_h,m| + |b_h,m|) is at
  most u (||f.samples||_1 + ||h.samples||_1), u = eps / 2, which is what
  rounding the samples can move the spectrum by (``BoundaryData`` records
  both sums). ``Solution.value_tail`` and ``.gradient_tail`` bound what the
  dropped modes contribute.

* Green, rows (2, j). For one load term c z^a zbar^b,

      -G[c z^a zbar^b] = c w^|a-b| s^2 P_k(t) / ((a+1)(a+2)(b+1)(b+2)),

  with w = z if a >= b and zbar otherwise, k = min(a, b) + 2 and
  P_k(t) = sum_{j=0}^{k-2} (k-1-j) t^j. Every term of P_k is positive and
  s^p stays factored out of each row, so nothing cancels as r -> 0 or r -> 1.

Values and Wirtinger gradients are evaluated from the table, never the
field: d/dz (s^p t^j) = zbar (j s^p t^(j-1) - p s^(p-1) t^j) (z for
d/dzbar), plus alpha' and beta'. Powers of z, s and t come from repeated
products. Scattered points (``Solution.values``, ``.gradient``) meet the
powers of z of a block of width W by baby and giant steps (Paterson and
Stockmeyer, SIAM J. Comput. 2, 1973): with b = isqrt(W - 1) + 1 and
q = ceil(W / b), each row is sum_k (z^b)^k (C_k @ [z^0 .. z^(b-1)]), so a
chunk of points needs b + 1 powers of z instead of W, one matmul per block
for the inner sums and q - 1 multiply-adds in z^b. A polar grid
(``Solution.grid``) is evaluated ring by ring: on |z| = r each row is a
trigonometric polynomial in theta, whose modes fold mod n_theta, exactly
at the grid's angles, and one inverse FFT per ring turns the folded
spectra into the values (``Solution._rings``). Both routes lay the
table out per call from ``_kinds`` and form the weights s^p t^j and
d/dt (s^p t^j) with ``_weights``. The integral
forms (circle quadrature of the kernels in ``kernels``, recentred disk
quadrature of ``green.KernelParts.g``) stay in ``quadrature``, ``verify``
and the tests as the independent oracle for the table. The solver imports
no oracle module: it owns the helper the oracle shares with it
(``_circle_angles``), and, at import, lifts glibc's heap thresholds once
for the walkers' block arrays (the comment at the lift).

The table is exact on the closed disk, up to the dropped tail: on the
circle s = 0, so Phi takes the value f there and -(z Phi_z + zbar Phi_zbar)
the value h. Every point entry point refuses a point by one rule:
``DomainError`` for a non-finite z or |z| > 1 + ``_CIRCLE_SLACK``.
``solve_grid`` evaluates on a polar grid with radii r_max * k / n_r; its
values belong to the exact polar nodes (r_i, 2 pi j / n_theta), and
``SolutionField.points`` is their rounding radii * exp(1j * thetas). The
gradients' radial part takes its factors z and zbar at those points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import DegenerateDataError, DomainError

# Exponent cap for SourceTerm monomials.
MAX_EXPONENT = 16

# Radii and angles of SourceTerm.sup_norm_estimate's polar grid, and the
# rings it walks at a time, whose values and moduli take 192 KiB.
_SUP_GRID, _SUP_RINGS = 512, 16

# Points are refused only for |z| > 1 + this: exp(1j * theta) can round to
# |z| = 1 + 2.2e-16, and the table is exact on the circle itself.
_CIRCLE_SLACK = 4 * np.finfo(float).eps

# Points (or grid rings) per evaluation chunk times the entries each one
# needs (its baby powers of z and the inner sums of every block row the call
# contracts; a ring's spectra too) stays under this, which bounds them at
# 512 KiB whatever the number of points.
_CHUNK_ENTRIES = 1 << 15

# Unit round-off u = eps / 2: the boundary block drops the modes whose
# tail is below u times the 1-norm of the samples (``_boundary_rows``).
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@lru_cache(maxsize=64)
def _circle_angles(n: int) -> np.ndarray:
    """The n angles 2 pi k / n, read-only and cached."""
    out = 2.0 * np.pi * np.arange(n) / n
    out.setflags(write=False)
    return out


# The block walkers (the oracle's disk rule, the chord walk and the quotient
# pairs) allocate arrays of a few hundred KiB with plain numpy. glibc maps
# every request at or above its mmap threshold and returns the top of the
# heap to the system once more than its trim threshold is free. Both start
# at 128 KiB, so such arrays would be mapped, or trimmed and regrown, block
# after block or call after call, each time faulting their pages in anew.
# Freeing a mapped block raises the mmap threshold to that block's size (up
# to 32 MiB) and the trim threshold to twice it. So one 4 MiB array,
# allocated and dropped here, lifts both once per process: arrays below
# 4 MiB then come from the heap, which is trimmed only once more than 8 MiB
# of it is free. Smaller lifts were measured as too small in fresh
# processes (glibc 2.36, 2-core Xeon): at 1 MiB each later `lipschitz` call
# on mixed.json faulted 555 pages (0 at 4 MiB); at 2 MiB the second call on
# the 32,768-sample case faulted 5,082 (2,157 at 4 MiB). The package never
# sets MALLOC_* or calls mallopt; a glibc malloc tunable in the environment
# turns these dynamic thresholds, and so this lift, off.
np.empty(4 << 20, np.uint8)


class BoundaryData:
    """Complex boundary data as uniform samples at angles 2 pi k / N.

    N must be even and at least 4. ``from_fourier`` takes modes |m| < N/2
    and builds the samples by one inverse FFT (O(N log N) whatever the
    number of modes), so the spectrum recorded here differs from the given
    coefficients only by the round-off of one FFT round trip: about
    u ||c||_1 per mode at most. ``eval_at`` evaluates the band-limited
    trigonometric interpolant (real-symmetric Nyquist convention), so
    resampling to a finer uniform grid is lossless.

    The spectrum is computed once, by one FFT of the samples / N (so its
    sums overflow only if the spectrum does): ``a`` and ``b`` are the
    coefficients of the interpolant's harmonic extension
    u = sum_m a_m z^m + sum_m b_m zbar^m. a holds the modes 0..N/2, b the
    modes 0, -1..-N/2 (b_0 = 0). The Nyquist coefficient is halved into
    both, so the interpolant carries it as a cosine. Construction also
    records the sums the cut, its tails and verify's scale read: ``floor`` =
    u ||samples||_1 (u = eps / 2 scales the samples before |.|), and for
    w = 0..N/2 ``tail[w]`` = T(w) = sum_{m >= w} (|a_m| + |b_m|) and
    ``moment[w]`` = M(w) = sum_{m >= w} m (|a_m| + |b_m|), inf past the
    double range. ``samples``, ``a``, ``b``, ``tail`` and ``moment`` are
    read-only arrays. Samples whose spectrum overflows double precision
    raise ``DegenerateDataError``.
    """

    __slots__ = ("samples", "a", "b", "floor", "tail", "moment")

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex).copy()
        if arr.ndim != 1 or arr.size < 4 or arr.size % 2:
            raise DegenerateDataError(
                "boundary data needs an even number of samples, at least 4"
            )
        if not np.all(np.isfinite(arr)):
            raise DegenerateDataError("boundary samples must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.fft.fft(arr / arr.size)
        if not np.all(np.isfinite(coef)):
            raise DegenerateDataError(
                "the spectrum of the boundary samples overflows double precision")
        half = arr.size // 2
        nyquist = 0.5 * coef[half]
        a = np.concatenate((coef[:half], [nyquist]))
        b = np.concatenate(([0.0], coef[:half:-1], [nyquist]))
        mass = np.abs(a) + np.abs(b)
        with np.errstate(over="ignore"):
            tail = np.cumsum(mass[::-1])[::-1]
            moment = np.cumsum((np.arange(half + 1) * mass)[::-1])[::-1]
        for part in (arr, a, b, tail, moment):
            part.setflags(write=False)
        self.samples, self.a, self.b, self.tail, self.moment = arr, a, b, tail, moment
        self.floor = float(np.abs(_UNIT_ROUNDOFF * arr).sum())

    @property
    def n(self) -> int:
        return self.samples.size

    @classmethod
    def constant(cls, value: complex, n_samples: int = 512) -> "BoundaryData":
        return cls(np.full(_sample_count(n_samples), complex(value)))

    @classmethod
    def zero(cls, n_samples: int = 512) -> "BoundaryData":
        return cls.constant(0.0, n_samples)

    @classmethod
    def from_fourier(cls, modes, n_samples: int = 512) -> "BoundaryData":
        """Build from (mode, coefficient) pairs: sum_m c_m e^{i m theta}.

        Repeated modes add up. The samples are one inverse FFT of the
        spectrum, O(N log N); for N a power of two each lies within
        7 log2(N) u ||c||_1 of the exact sum. The spectrum they give back
        carries the noise of one FFT round trip, about u ||c||_1 per mode at
        most, whose tail past max |m| measured a tenth of the floor of the
        cut to the data's bandwidth (``Solution``) or less on seeded data at
        N = 16..32768: the table keeps the modes 0..max |m|. A mode with
        2 |m| >= N, a mode that is not an integer (1.5, 2.0 and True alike),
        a non-finite coefficient, or samples that overflow double precision
        raise ``DegenerateDataError``, and so does an ``n_samples`` that is
        not an even integer of at least 4 (or is a bool), before anything is
        allocated (as in ``constant``, ``zero`` and ``from_function``).
        """
        n_samples = _sample_count(n_samples)
        spectrum = np.zeros(n_samples, dtype=complex)
        for mode, coeff in modes:
            mode = _as_int(mode, DegenerateDataError, "a Fourier mode")
            if 2 * abs(mode) >= n_samples:
                raise DegenerateDataError(
                    f"mode {mode} is not resolvable with {n_samples} samples"
                )
            spectrum[mode] += complex(coeff)
        if not np.all(np.isfinite(spectrum)):
            raise DegenerateDataError("Fourier coefficients must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            samples = np.fft.ifft(spectrum, norm="forward")
        if not np.all(np.isfinite(samples)):
            raise DegenerateDataError(
                "the samples of the Fourier coefficients overflow double precision")
        return cls(samples)

    @classmethod
    def from_function(cls, fn, n_samples: int = 512) -> "BoundaryData":
        return cls(np.asarray(fn(_circle_angles(_sample_count(n_samples))), dtype=complex))

    def eval_at(self, theta) -> np.ndarray:
        polyval = np.polynomial.polynomial.polyval
        w = np.exp(1j * np.atleast_1d(np.asarray(theta, dtype=float)))
        return polyval(w, self.a) + polyval(np.conj(w), self.b)

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


def _as_int(value, error, what: str) -> int:
    """``value`` as an int if it is a Python or numpy integer but not a bool, else ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _sample_count(n_samples) -> int:
    """A sample count as an int: an even integer of at least 4, else ``DegenerateDataError``."""
    n = _as_int(n_samples, DegenerateDataError, "n_samples")
    if n < 4 or n % 2:
        raise DegenerateDataError(
            f"boundary data needs an even number of samples, at least 4, got {n}")
    return n


class SourceTerm:
    """A load given as a finite sum sum_k c_k z^(a_k) conj(z)^(b_k).

    Exponents are integers in [0, 16] (Python or numpy integers; a float,
    even 2.0, or a bool raises ``DomainError``) and coefficients finite.
    Terms with equal exponents are merged and zero coefficients dropped at
    construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[int, int], complex] = {}
        for a, b, c in terms:
            a, b = (_as_int(e, DomainError, "an exponent") for e in (a, b))
            c = complex(c)
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
        """Certified upper bound sum |c_k| for the sup over the closed disk, rounded up.

        abs(c) is hypot(Re c, Im c), within one ulp (glibc's documented
        bound): 2u relative for a normal result (u = eps / 2), 2^-1074 for a
        subnormal one. So |c_k| <= (a_k + 2^-1074) / (1 - 2u) for the
        computed a_k, and math.fsum rounds X = sum (a_k + 2^-1074) once (a
        subnormal X exactly): the sum S >= (1 - u) X >= (1 - 3u) sum |c_k|.
        Then (1 + 4u) S >= (1 + u - 12 u^2) sum |c_k| >= sum |c_k|, and
        nextafter steps past the rounding of that product.
        """
        if self.is_zero:
            return 0.0
        total = math.fsum([abs(c) for _, _, c in self.terms] + [len(self.terms) * math.ulp(0.0)])
        return math.nextafter(total * (1.0 + 4 * _UNIT_ROUNDOFF), math.inf)

    def sup_norm_estimate(self) -> float:
        """Maximum of |g| on a 512 x 512 polar grid of the closed disk (a lower estimate).

        Radii linspace(0, 1, 512), angles 2 pi j / 512. On the ring r,
        g = sum_m S_m(r) e^{i m theta} over the load's distinct modes (at most
        33), S_m(r) = sum_{a - b = m} c r^(a + b): a block of rings takes its
        spectra as one matmul of the powers of r against the coefficients,
        and its values as one more against the waves e^{i m theta_j}, read
        off the node of angle 2 pi (m j mod 512) / 512.
        """
        if self.is_zero:
            return 0.0
        modes = sorted({a - b for a, b, _ in self.terms})
        degrees = np.arange(max(a + b for a, b, _ in self.terms) + 1)
        coef = np.zeros((degrees.size, len(modes)), dtype=complex)
        for a, b, c in self.terms:
            coef[a + b, modes.index(a - b)] = c
        nodes = np.exp(1j * _circle_angles(_SUP_GRID))
        waves = nodes.take(np.multiply.outer(modes, np.arange(_SUP_GRID)), mode="wrap")
        r = np.linspace(0.0, 1.0, _SUP_GRID)
        return max(float(np.max(np.abs(r[i:i + _SUP_RINGS, None] ** degrees @ coef @ waves)))
                   for i in range(0, _SUP_GRID, _SUP_RINGS))

    def __add__(self, other: "SourceTerm") -> "SourceTerm":
        return SourceTerm(tuple(self.terms) + tuple(other.terms))


@dataclass(frozen=True)
class Case:
    """One problem instance: trace f, inward normal derivative h, load g."""

    f: BoundaryData
    h: BoundaryData
    g: SourceTerm

    @cached_property
    def solution(self) -> "Solution":
        """The case's table, assembled on first use and then reused."""
        return Solution(self.f, self.h, self.g)


def case_fingerprint(f: BoundaryData, h: BoundaryData, g: SourceTerm) -> str:
    """Stable hash of the problem data (f, h, g) a field was built from.

    Hashes the little-endian bytes of f's and h's samples and of g's terms
    as rows (a, b, Re c, Im c), each part framed by its byte length.
    """
    import hashlib

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

    Any of f, h, g may be None. Boundary rows (cut to the data's bandwidth
    w <= N/2 + 1, ``_boundary_rows``) and load rows (width at most
    MAX_EXPONENT + 1) are separate blocks, so load rows are not padded to
    the band. A call whose values or gradients overflow double precision
    raises ``DegenerateDataError``; the derivative rows carry one more
    factor of the mode, so gradients overflow first.

    ``value_tail`` and ``gradient_tail`` bound, on the closed disk, what the
    cut drops from Phi and from |Phi_z| + |Phi_zbar|. With T_f = T_f(w),
    M_f = M_f(w) and T_h = T_h(w) read from the records of f and h
    (``BoundaryData``), the value tail is T_f + T_h / 2 and the gradient
    tail 1.5 M_f + T_h. On the circle the cut moves the trace by at most
    ``trace_tail`` = T_f and the inward normal derivative by at most
    ``normal_tail`` = T_h (proof in ``verify._exact_checks``). Proof of the
    closed-disk bounds, for the mode z^m (zbar^m is its conjugate image,
    with the roles of d/dz and d/dzbar swapped), with x = r^2 and s = 1 - x:

    * Lemma: (m/2) r^(m-1) s <= 1/2. Its maximum over x of
      (m/2) x^k (1 - x), k = (m-1)/2, is (1/2) ((2k+1)/(k+1)) (k/(k+1))^k:
      1/2 for m = 1 and 0.38 for m = 2; for m >= 3 the middle factor is
      below 2 and (k/(k+1))^k <= 1/2.
    * Values: the F0 multiplier r^m (1 + m s/2) is at most 1, since
      r^m m s/2 <= r m r^(m-1) (1 - r) <= 1 - r^m, and the H0 multiplier
      r^m s/2 at most 1/2.
    * F0 gradient: z^m (1 + m s/2) has
      Phi_z = m z^(m-1) (1 + m s/2 - x/2) and Phi_zbar = -(m/2) z^(m+1), so
      |Phi_z| + |Phi_zbar| = m r^(m-1) (1 + m s/2) <= 1.5 m by the lemma
      (equality at m = 1, z = 0).
    * H0 gradient: z^m s/2 has Phi_z = z^(m-1) ((m/2) s - x/2) and
      Phi_zbar = -z^(m+1) / 2, so |Phi_z| + |Phi_zbar| is at most
      r^(m-1) max((m/2) s, x/2) + r^(m+1)/2 <= 1/2 + 1/2 (equality at r = 1).
    """

    def __init__(self, f: Optional[BoundaryData] = None,
                 h: Optional[BoundaryData] = None, g: Optional[SourceTerm] = None):
        boundary = _boundary_rows(f, h)
        width = 0 if boundary is None else boundary[2].shape[0]
        (t_f, m_f), (t_h, _) = _dropped(f, width), _dropped(h, width)
        self.value_tail, self.gradient_tail = t_f + t_h / 2, 1.5 * m_f + t_h
        self.trace_tail, self.normal_tail = t_f, t_h
        self._rows = blocks = [b for b in (boundary, _load_rows(g)) if b is not None]
        # the modes coefficients() covers: those of the table, of f and h, and +-1
        self._width = max([a.shape[0] for _, _, a, _ in blocks]
                          + [d.n // 2 + 1 for d in (f, h) if d is not None] + [2])
        self._p = np.array([p for rows in blocks for p in rows[0]], dtype=int)
        self._j = np.array([j for rows in blocks for j in rows[1]], dtype=int)

    def coefficients(self) -> np.ndarray:
        """The table expanded as Phi = sum of c[d, l] w_d t^l, w_d = z^d or zbar^|d| (d < 0).

        Rows run in FFT order (``c[d, l]`` takes either sign of d) over the modes of
        the table, of f and h, and +-1; row s^p t^j adds C(p, k) (-1)^k to level j + k.
        """
        depth = int(np.max(self._p + self._j, initial=0)) + 1
        c = np.zeros((2 * self._width - 1, depth), dtype=complex)
        for ps, js, alpha, beta in self._rows:
            d = np.arange(alpha.shape[0])
            for row, (p, j) in enumerate(zip(ps, js)):
                for k in range(p + 1):
                    weight = math.comb(p, k) * (-1) ** k
                    c[d, j + k] += weight * alpha[:, row]
                    c[-d, j + k] += weight * beta[:, row]
        return c

    def values(self, zs) -> np.ndarray:
        """Phi at each point of zs (any shape)."""
        return self._evaluate(zs, gradient=False)[0]

    def gradient(self, zs):
        """Wirtinger gradient arrays (Phi_z, Phi_zbar) at each point of zs."""
        return self._evaluate(zs, gradient=True)[1:]

    def grid(self, n_r: int, n_theta: int, r_max: float = 1.0,
             with_gradient: bool = False) -> "SolutionField":
        """Values (and gradients) at r = r_max k / n_r, theta = 2 pi j / n_theta, in one pass.

        The values belong to the exact polar nodes (r_k, theta_j):
        ``SolutionField.points`` is their rounding radii * exp(1j * thetas),
        which moves Phi by at most about 2u (|Phi_z| + |Phi_zbar|). The
        gradients' radial part takes its factors z and zbar at the points.
        Each ring takes one inverse FFT of its folded modes (``_rings``),
        whatever n_theta; scattered points take ``_evaluate``. The sizes are
        Python or numpy integers; a float, even 4.0, or a bool raises
        ``DegenerateDataError``.
        """
        n_r, n_theta = (_as_int(n, DegenerateDataError, "a grid size") for n in (n_r, n_theta))
        if n_r < 1 or n_theta < 1:
            raise DegenerateDataError("grid sizes must be positive")
        if not (0.0 < r_max <= 1.0):
            raise DomainError("r_max must lie in (0, 1]")
        radii = r_max * np.arange(n_r) / n_r
        thetas = _circle_angles(n_theta).copy()
        outs = self._rings(radii, n_theta, with_gradient)
        d_z, d_zbar = outs[1:] if with_gradient else (None, None)
        return SolutionField(radii=radii, thetas=thetas, values=outs[0], d_z=d_z,
                             d_zbar=d_zbar, r_max=r_max)

    def _rings(self, radii: np.ndarray, n_theta: int, gradient: bool):
        """(Phi,), or (Phi, Phi_z, Phi_zbar) with gradient, at radii[i] e^(2 pi i j / n_theta).

        On the ring r a row s^p t^j (alpha(z) + beta(zbar)) puts alpha_m r^m
        s^p t^j on mode +m and beta_m r^m s^p t^j on mode -m. Modes fold mod
        n_theta, exactly at the grid's angles. With k = min(n_theta, W) the
        fold k' of the modes k' + l k is r^k' sum_l c[k' + l k] x^l, x = r^k:
        a polynomial of degree L - 1 in x, L = ceil(W / k), which meets the
        powers of x by baby and giant steps as the point route meets those
        of z (b baby steps). One matmul of the laid-out table
        (``_ring_layout``) against the products x^i s^p t^j, i < b, gives
        the inner sums of every fold of a block of rings, and Horner in x^b
        the rest. The gradient adds alpha' and beta', and the radial part
        sum (d/dt s^p t^j) u, whose folds take a second matmul, against the
        products x^i d/dt s^p t^j. The folds of each kind fill a spectrum
        and one inverse FFT per ring and kind gives its values. The table
        holds conj(beta), whose folds are conjugate to beta's (the products
        are real), so beta's part is the conjugate of its values. The radial
        part is multiplied by zbar and z at the rounded nodes
        r * exp(1j * theta), the grid's points. Rings are walked in blocks
        under ``_CHUNK_ENTRIES``.
        """
        outs = np.zeros((3 if gradient else 1, radii.size, n_theta), dtype=complex)
        if not self._rows:
            return tuple(outs)
        p, j = self._p, self._j
        with np.errstate(over="ignore", invalid="ignore"):
            coef, k, b, q, shapes = _ring_layout(self._rows, n_theta, gradient, radii[-1])
            n_forms, n_kinds = (2, 6) if gradient else (1, 2)
            n_pow = max(3, int(j.max()) + 1, k + 1)
            nodes = np.exp(1j * _circle_angles(n_theta))
            # per ring: the forms and their products with x^i, the inner
            # sums, the powers of s, t, r and x, and the spectra and values
            step = max(1, _CHUNK_ENTRIES // (n_forms * coef.shape[0] + coef.shape[1] + 3 * n_pow
                                             + b + n_kinds * (k + n_theta)))
            for lo in range(0, radii.size, step):
                r = radii[lo:lo + step]
                t = r * r
                pows = _powers(np.concatenate([1.0 - t, t, r]), n_pow).reshape(n_pow, 3, r.size)
                forms = _weights(pows[:, 0], pows[:, 1], p, j, gradient)
                products = forms.transpose(0, 2, 1)
                if b > 1:
                    x_pow = _powers(pows[k, 2], b + 1).T
                    products = np.concatenate(
                        [(products[:, :, first:end, None] * x_pow[:, None, :baby])
                         .reshape(n_forms, r.size, -1) for baby, first, end in shapes], axis=-1)
                inner = (products[0] @ coef).view(complex).reshape(r.size, -1, q, k)
                if gradient:
                    # the radial part folds alpha and conj(beta), the first columns
                    radial = products[1] @ coef[:, :4 * q * k]
                    inner = np.concatenate(
                        [inner, radial.view(complex).reshape(r.size, 2, q, k)], axis=1)
                folds = inner[:, :, -1]
                for g in range(q - 2, -1, -1):
                    folds = folds * x_pow[:, b, None, None] + inner[:, :, g]
                # the spectra, padded with zeros from k to n_theta
                waves = np.fft.ifft(folds * pows[:k, 2].T[:, None], n_theta, norm="forward")
                np.conjugate(waves[:, 1::2], out=waves[:, 1::2])
                np.add(waves[:, 0], waves[:, 1], out=outs[0, lo:lo + step])
                if gradient:
                    z = r[:, None] * nodes
                    radial = waves[:, 4] + waves[:, 5]
                    np.add(waves[:, 2], np.conj(z) * radial, out=outs[1, lo:lo + step])
                    np.add(waves[:, 3], z * radial, out=outs[2, lo:lo + step])
        if not np.isfinite(outs).all():
            raise _overflow(gradient)
        return tuple(outs)

    def _evaluate(self, zs, gradient: bool):
        """(Phi,), or (Phi, Phi_z, Phi_zbar) with gradient, at each point of zs."""
        zs = np.asarray(zs, dtype=complex)
        shape, zs = zs.shape, zs.ravel()
        _check_points(zs)
        p, j = self._p, self._j
        kinds = 4 if gradient else 2
        outs = np.zeros((3 if gradient else 1, zs.size), dtype=complex)
        # an overflow (rows, or sums of rows, past the double range) reaches
        # the outputs as inf or nan, which the check below refuses
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [_giant_steps(a, b, kinds) for _, _, a, b in self._rows]
            baby = max((b for _, b, _ in blocks), default=1)
            # per point: the baby powers z^0 .. z^baby and the call's inner sums
            inner = sum(coef.shape[0] for coef, _, _ in blocks)
            step = max(1, _CHUNK_ENTRIES // (baby + 1 + inner))
            for lo in range(0, zs.size if blocks else 0, step):
                z = zs[lo:lo + step]
                t = z.real**2 + z.imag**2
                z_pow = _powers(z, baby + 1)
                x = np.concatenate([_contract(coef, b, q, kinds, z_pow)
                                    for coef, b, q in blocks], axis=1)
                u = x[0] + np.conj(x[1])
                forms = _weights(_powers(1.0 - t, 3), _powers(t, j.max() + 1), p, j, gradient)
                outs[0, lo:lo + step] = np.sum(forms[0] * u, axis=0)
                if gradient:
                    # d/dz multiplies d/dt (s^p t^j) by zbar and d/dzbar by z
                    radial = np.sum(forms[1] * u, axis=0)
                    outs[1, lo:lo + step] = np.conj(z) * radial + np.sum(forms[0] * x[2], axis=0)
                    outs[2, lo:lo + step] = z * radial + np.sum(forms[0] * np.conj(x[3]), axis=0)
        if not np.all(np.isfinite(outs)):
            raise _overflow(gradient)
        return tuple(out.reshape(shape) for out in outs)


def _overflow(gradient: bool) -> DegenerateDataError:
    return DegenerateDataError(
        f"the {'gradient' if gradient else 'value'} of the data overflows double precision")


def _ring_layout(blocks, n_theta: int, gradient: bool, r_out: float):
    """(coef, k, b, q, shapes): the table laid out for ``Solution._rings``.

    k = min(n_theta, W) over the widest block, whose folds take L =
    ceil(W / k) powers of x = r^k: b baby steps and q = ceil(L / b) giant
    steps. The sources are the folds k' < k of the kinds [alpha, conj(beta)]
    and, with gradient, [alpha', conj(beta')] and the radial
    [alpha, conj(beta)]: S = 2 k or 6 k of them. A ring holds about b
    products per row and q S inner sums, so b = min(L, isqrt(S L) + 1)
    balances the two. A block whose folds take L_b powers has min(b, L_b)
    baby steps: its rows (row, i) of coef hold, in columns (kind, giant step
    g, k'), the coefficient of mode k' + (g b + i) k, as pairs of floats (a
    real matmul then serves the complex coefficients). shapes lists each
    block's (baby steps, first row, end row). A row whose absolute sum on
    the outer ring r_out overflows is refused, as the point route refuses
    it at the node where its terms meet in phase.
    """
    widths = [alpha.shape[0] for _, _, alpha, _ in blocks]
    k = min(n_theta, max(widths))
    depth = -(-max(widths) // k)
    b = min(depth, math.isqrt((6 if gradient else 2) * k * depth) + 1)
    q = -(-depth // b)
    kinds = 4 if gradient else 2
    r_pow = r_out ** np.arange(q * b * k)
    shapes, first, lo = [], 0, 0
    babies = [min(b, -(-width // k)) for width in widths]
    coef = np.empty((sum(a.shape[1] * baby for (_, _, a, _), baby in zip(blocks, babies)),
                     kinds * q * k), dtype=complex)
    for (_, _, alpha, beta), baby in zip(blocks, babies):
        n_rows = alpha.shape[1]
        c = _kinds(alpha, beta, kinds, q * baby * k)
        if not math.isfinite((np.abs(c) @ r_pow[:c.shape[-1]]).max()):
            raise _overflow(gradient)
        coef[lo:lo + n_rows * baby].reshape(n_rows, baby, kinds, q, k)[...] = (
            c.reshape(kinds, n_rows, q, baby, k).transpose(1, 3, 0, 2, 4))
        shapes.append((baby, first, first + n_rows))
        first, lo = first + n_rows, lo + n_rows * baby
    return coef.view(float), k, b, q, shapes


def _kinds(alpha: np.ndarray, beta: np.ndarray, kinds: int, padded: int) -> np.ndarray:
    """A block's first kinds of [alpha, conj(beta), alpha', conj(beta')] as (kinds, rows, padded).

    Column m holds the coefficient of z^m (conj(zbar^m) = z^m), zero past
    the block's width W. Both routes lay the table out from it. Derivative
    rows that overflow are kept; each route refuses what they reach.
    """
    width, n_rows = alpha.shape
    out = np.zeros((kinds, n_rows, padded), dtype=complex)
    out[0, :, :width] = alpha.T
    np.conjugate(beta.T, out=out[1, :, :width])
    if kinds == 4:
        out[2:, :, :width - 1] = _deriv(out[:2, :, :width])
    return out


def _giant_steps(alpha: np.ndarray, beta: np.ndarray, kinds: int):
    """(matrix, b, q): a block's first kinds (``_kinds``) laid out for baby and giant steps.

    With b = isqrt(W - 1) + 1 and q = ceil(W / b), row i q + k of the matrix
    holds the coefficients C_k of z^(k b) .. z^(k b + b - 1) in row i of the kinds.
    """
    width = alpha.shape[0]
    b = math.isqrt(width - 1) + 1
    q = -(-width // b)
    return _kinds(alpha, beta, kinds, q * b).reshape(-1, b), b, q


def _contract(coef: np.ndarray, b: int, q: int, kinds: int, z_pow: np.ndarray) -> np.ndarray:
    """A block's kinds at the points of z_pow, shape (kinds, rows, n).

    sum_k (z^b)^k (C_k @ [z^0 .. z^(b-1)]): one matmul for the inner sums,
    then Horner in the giant step z^b = z_pow[b] (q - 1 multiply-adds).
    """
    n = z_pow.shape[1]
    inner = (coef @ z_pow[:b]).reshape(-1, q, n)
    acc = inner[:, -1].copy()
    for k in range(q - 2, -1, -1):
        acc *= z_pow[b]
        acc += inner[:, k]
    return acc.reshape(kinds, -1, n)


def _weights(s_pow: np.ndarray, t_pow: np.ndarray, p: np.ndarray, j: np.ndarray,
             gradient: bool) -> np.ndarray:
    """s^p t^j per row (p, j), and with gradient d/dt (s^p t^j) = j s^p t^(j-1) - p s^(p-1) t^j.

    s_pow and t_pow hold the powers of s and of t as rows, one column per point or ring.
    """
    s_p, t_j = s_pow[p], t_pow[j]
    out = np.empty((2 if gradient else 1,) + s_p.shape)
    np.multiply(s_p, t_j, out=out[0])
    if gradient:
        np.subtract(j[:, None] * s_p * t_pow[np.maximum(j - 1, 0)],
                    p[:, None] * s_pow[np.maximum(p - 1, 0)] * t_j, out=out[1])
    return out


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
    """Coefficients of the derivative along the last axis: entry m holds (m + 1) c[..., m + 1]."""
    return np.arange(1, c.shape[-1]) * c[..., 1:]


def _check_points(zs: np.ndarray) -> None:
    """The one refusal rule of every point entry point (module docstring)."""
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    r = np.abs(zs)
    if np.any(r > 1.0 + _CIRCLE_SLACK):
        raise DomainError(f"radius {float(r.max())} lies outside the closed unit disk")


def _boundary_rows(f: Optional[BoundaryData], h: Optional[BoundaryData]):
    """(p, j, alpha, beta) of rows (0, 0) and (1, 0), or None for zero data.

    The block is cut to the data's bandwidth: its width w is the smallest
    with T_f(w) + T_h(w) <= f.floor + h.floor (the records of
    ``BoundaryData``), that is, whose tail is at most u (||f.samples||_1 +
    ||h.samples||_1). Rounding each sample by u |f_k| can move the spectrum
    by that much in 1-norm, so the cut adds no more error than rounding the
    samples already does. An infinite tail keeps its modes. w >= 1 for
    nonzero data: T(0) >= max_k |f_k| + max_k |h_k|, which exceeds the floor
    for any N < 1/u, unless the whole spectrum underflows to 0.
    """
    given = [d for d in (f, h) if d is not None]
    tails = np.zeros(max((d.tail.size for d in given), default=0))
    with np.errstate(over="ignore"):
        for d in given:
            tails[:d.tail.size] += d.tail
    width = int(np.count_nonzero(tails > sum(d.floor for d in given)))
    if width == 0:
        return None
    # rows[k, p] is row (p, 0) of alpha (k = 0) or beta (k = 1): f's
    # spectrum in row 0 and h's in row 1, which then becomes (m f + h) / 2
    rows = np.zeros((2, 2, width), dtype=complex)
    for d, p in ((f, 0), (h, 1)):
        if d is not None:
            rows[0, p, :d.a.size], rows[1, p, :d.b.size] = d.a[:width], d.b[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, 1] = 0.5 * (np.arange(width) * rows[:, 0] + rows[:, 1])
    return [0, 1], [0, 0], rows[0].T, rows[1].T


def _dropped(d: Optional[BoundaryData], width: int) -> tuple[float, float]:
    """(T(width), M(width)) of a datum's records; 0 for no datum or past its modes."""
    if d is None or width >= d.tail.size:
        return 0.0, 0.0
    return float(d.tail[width]), float(d.moment[width])


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
    """Phi on an array of interior points.

    Each call assembles its own table; to evaluate one case more than once,
    hold a ``Solution`` (or ``Case.solution``) and call its ``values``.
    """
    return Solution(f, h, g).values(zs)


def gradient_point(f: BoundaryData, h: BoundaryData, g: SourceTerm,
                   z: complex) -> tuple[complex, complex]:
    """Wirtinger gradient (Phi_z, Phi_zbar) at z.

    The same tuple ``Solution.gradient`` returns, with complex scalars.
    """
    return tuple(map(complex, Solution(f, h, g).gradient(z)))


def boundary_gradient(f: Optional[BoundaryData], h: Optional[BoundaryData], zs):
    """Wirtinger gradient arrays of the boundary part F0[f] + H0[h] alone.

    Each call assembles its own table; to evaluate one case more than once,
    hold a ``Solution`` (or ``Case.solution``) and call its ``gradient``.
    """
    return Solution(f, h).gradient(zs)


def green_gradient(g: SourceTerm, zs):
    """Wirtinger gradient arrays of the Green part -G[g] alone."""
    return Solution(g=g).gradient(zs)


@dataclass
class SolutionField:
    """Solution values (and optionally gradients) on a polar grid.

    values[i, j] is Phi at the exact polar node (radii[i], thetas[j]), and
    so are d_z and d_zbar, whose radial part takes its factors z and zbar
    at ``points``. ``points`` is the nodes' rounding
    radii * exp(1j * thetas), within a few ulps of each node. ``failures``
    is always empty: every node evaluates. It is kept because the benchmark
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
    """Solve on the polar grid r = r_max k / n_r, theta = 2 pi j / n_theta (``Solution.grid``)."""
    return Solution(f, h, g).grid(n_r, n_theta, r_max, with_gradient)
