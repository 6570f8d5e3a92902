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
field: d/dz (s^p t^j) = zbar d/dt (s^p t^j) (z for d/dzbar), plus alpha'
and beta'. Each block weighs its rows by its own rule (``_row_weights``):
[1, s] with d/dt [0, -1] for the boundary rows, s^2 t^j with d/dt
j s^2 t^(j-1) - 2 s t^j for the load rows. Powers of z and t come from
repeated products. Scattered points (``Solution.values``, ``.gradient``)
meet the powers of z of a block of width W by baby and giant steps
(Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): with
b = isqrt(W - 1) + 1 and q = ceil(W / b), each row is
sum_k (z^b)^k (C_k @ [z^0 .. z^(b-1)]), so a chunk of points needs b + 1
powers of z instead of W, one matmul per block for the inner sums, and
one product with the q giant steps (z^b)^k and one sum over them. A polar
grid (``Solution.grid``) is evaluated ring by ring: on |z| = r each row
is a trigonometric polynomial in theta, whose modes fold mod n_theta,
exactly at the grid's angles; one matmul of both blocks folds them, and
one inverse FFT turns the folds into the values (``Solution._rings``).
Both routes lay the table out per call by ``_kinds``. The integral forms
(circle quadrature of the kernels in ``kernels``, recentred disk quadrature
of ``kernels.KernelParts.g``) stay in ``quadrature``, ``verify`` and the tests
as the independent oracle for the table. The solver imports no oracle
module: it owns the helper the oracle shares with it (``_circle_angles``),
and, at import, lifts glibc's heap thresholds once: the memory policy of
every block walker, stated at the lift.

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


# The memory policy of every block walker (the oracle's disk rule, the
# chord walk and the quotient pairs): each block allocates its arrays, a
# few hundred KiB, afresh with plain numpy. glibc maps every request at or
# above its mmap threshold and trims the heap's top once more than its trim
# threshold is free. Both start at 128 KiB, so such arrays would fault their
# pages in anew block after block. Freeing a mapped block raises the mmap
# threshold to its size (up to 32 MiB) and the trim threshold to twice it,
# so one 4 MiB array, allocated and dropped here, lifts both once per
# process. Smaller lifts fell short in fresh processes (glibc 2.36, 2-core
# Xeon): later `lipschitz` calls on mixed.json faulted 555 pages at 1 MiB,
# and a second one on 32,768 samples 5,082 at 2 MiB (0 and 2,157 at 4 MiB).
# The package never sets MALLOC_* or calls mallopt. A glibc malloc tunable
# in the environment turns the dynamic thresholds, and so this lift, off: a
# block array above 128 KiB then comes from the heap only if the heap has
# room, which depends on the process's history.
np.empty(4 << 20, np.uint8)


class BoundaryData:
    """Complex boundary data as uniform samples at angles 2 pi k / N.

    N must be even and at least 4. ``from_fourier`` takes modes |m| < N/2
    and builds the samples by one inverse FFT (O(N log N) whatever the
    number of modes), so the spectrum recorded here differs from the given
    coefficients only by the round-off of one FFT round trip: about
    u ||c||_1 per mode at most. The samples stand for their band-limited
    trigonometric interpolant (real-symmetric Nyquist convention):
    ``sup_norm`` reads it at max(2048, N) uniform angles by zero-padding the
    spectrum (``modes``), which resamples it losslessly.

    The spectrum is computed once, by one FFT of the samples / N (so its
    sums overflow only if the spectrum does): ``a`` and ``b`` are the
    coefficients of the interpolant's harmonic extension
    u = sum_m a_m z^m + sum_m b_m zbar^m. a holds the modes 0..N/2, b the
    modes 0, -1..-N/2 (b_0 = 0), the rows of ``spectrum``. The Nyquist
    coefficient is halved into both, as a cosine. Construction also records
    the sums the cut, its tails and verify's scale read: ``floor`` =
    u ||samples||_1 (u = eps / 2 scales the samples before |.|), and for
    w = 0..N/2 ``tail[w]`` = T(w) = sum_{m >= w} (|a_m| + |b_m|) and
    ``moment[w]`` = M(w) = sum_{m >= w} m (|a_m| + |b_m|), inf past the
    double range. ``samples``, ``spectrum``, ``tail`` and ``moment`` are
    read-only arrays. Samples whose spectrum overflows double precision
    raise ``DegenerateDataError``.
    """

    __slots__ = ("samples", "spectrum", "a", "b", "floor", "tail", "moment")

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
        spectrum = np.empty((2, half + 1), dtype=complex)
        spectrum[0, :half], spectrum[1, 1:half] = coef[:half], coef[:half:-1]
        spectrum[:, half], spectrum[1, 0] = 0.5 * coef[half], 0.0
        mass = np.abs(spectrum[0]) + np.abs(spectrum[1])
        with np.errstate(over="ignore"):
            tail = np.cumsum(mass[::-1])[::-1]
            moment = np.cumsum((np.arange(half + 1) * mass)[::-1])[::-1]
        for part in (arr, spectrum, tail, moment):
            part.setflags(write=False)
        self.samples, self.spectrum, self.tail, self.moment = arr, spectrum, tail, moment
        self.a, self.b = spectrum
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

    def modes(self, n: int) -> np.ndarray:
        """The spectrum as n > N coefficients in FFT order: a at modes 0..N/2, b at -1..-N/2."""
        out = np.zeros(n, dtype=complex)
        out[: self.a.size] = self.a
        out[n - self.b.size + 1 :] = self.b[:0:-1]
        return out

    def sup_norm(self) -> float:
        """Largest modulus of the interpolant at max(2048, N) uniform angles.

        Below 2048 samples the spectrum is zero-padded to 2048 modes and
        transformed back (O(n log n)); from 2048 on the samples are read.
        """
        n = max(2048, self.n)
        dense = self.samples if n == self.n else np.fft.ifft(self.modes(n)) * n
        return float(np.max(np.abs(dense)))


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
    MAX_EXPONENT + 1, ``_load_rows``) are separate blocks (first, alpha,
    beta), so load rows are not padded to the band; the block's weights
    start at row ``first`` of ``_row_weights``. A call whose values or gradients
    overflow double precision raises ``DegenerateDataError``; the derivative
    rows carry one more factor of the mode, so gradients overflow first.

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
        boundary, load = _boundary_rows(f, h), _load_rows(g)
        width = 0 if boundary is None else boundary[1].shape[0]
        # T(width) and M(width) of each datum's records, 0 past its modes
        (t_f, m_f), (t_h, _) = ((0.0, 0.0) if d is None or width >= d.tail.size else
                                (float(d.tail[width]), float(d.moment[width])) for d in (f, h))
        self.value_tail, self.gradient_tail = t_f + t_h / 2, 1.5 * m_f + t_h
        self.trace_tail, self.normal_tail = t_f, t_h
        self._rows = [b for b in (boundary, load) if b is not None]
        self._n_load = 0 if load is None else load[1].shape[1]
        # the modes coefficients() covers: those of the table, of f and h, and +-1
        self._width = max(width, 0 if load is None else load[1].shape[0],
                          *(d.tail.size for d in (f, h) if d is not None), 2)

    def coefficients(self) -> np.ndarray:
        """The table expanded as Phi = sum of c[d, l] w_d t^l, w_d = z^d or zbar^|d| (d < 0).

        Rows run in FFT order (``c[d, l]`` takes either sign of d) over the modes of
        the table, of f and h, and +-1; row s^p t^j adds C(p, k) (-1)^k to level j + k.
        The boundary block holds rows (0, 0) and (1, 0), the load block rows (2, j).
        """
        rows = [((2, j) if first else (j, 0), alpha[:, j], beta[:, j])
                for first, alpha, beta in self._rows for j in range(alpha.shape[1])]
        c = np.zeros((2 * self._width - 1, max([p + j for (p, j), _, _ in rows], default=0) + 1),
                     dtype=complex)
        for (p, j), alpha, beta in rows:
            d = np.arange(alpha.size)
            for k in range(p + 1):
                weight = math.comb(p, k) * (-1) ** k
                c[d, j + k] += weight * alpha
                c[-d, j + k] += weight * beta
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
        n_r = _as_int(n_r, DegenerateDataError, "a grid size")
        n_theta = _as_int(n_theta, DegenerateDataError, "a grid size")
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
        fold k' of the modes k' + J k is r^k' sum_J c[k' + J k] x^J, x = r^k,
        J < ceil(W / k). As J = i q + g, g < q, it is sum_g x^g sum_i
        c[k' + (i q + g) k] y^i, y = x^q: one real matmul of the weights times
        y^i (``_row_weights``) with the laid-out table (``_ring_layout``) sums
        both blocks' rows into every fold's inner sums, and Horner in x sums
        the q columns. It also takes alpha' and beta' with gradient, and a
        second matmul the radial part sum (d/dt s^p t^j) u. The folds times
        r^k' are the spectra, and one inverse FFT per ring and kind gives the
        values. The table holds conj(beta), whose folds are conjugate to
        beta's (the weights are real), so beta's part is the conjugate of its
        values. The radial part is multiplied by zbar and z at the rounded
        nodes r * exp(1j * theta), the grid's points. Rings are walked in
        blocks under ``_CHUNK_ENTRIES``.
        """
        n_out = 3 if gradient else 1
        outs = np.zeros((n_out, radii.size, n_theta), dtype=complex)
        if not self._rows:
            return tuple(outs)
        first = self._rows[0][0]
        with np.errstate(over="ignore", invalid="ignore"):
            coef, k, b, q, babies = _ring_layout(self._rows, n_theta, gradient, radii[-1])
            nodes = np.exp(1j * _circle_angles(n_theta)) if gradient else None
            # per ring: products, inner sums, folds, values with z and the radial part, powers
            step = max(1, _CHUNK_ENTRIES // (2 * coef.shape[2] + 3 * n_theta + k + q + b
                                             + 2 * n_out * (q * k + 2 * k + n_theta)))
            for lo in range(0, radii.size, step):
                r = radii[lo:lo + step]
                products = _row_weights(r * r, self._n_load, gradient)[:, first:].transpose(0, 2, 1)
                # complex, as the products with the folds and nodes cast it
                r_pow = _powers(r.astype(complex), k + 1)
                if b > 1:  # each block's weights times y^i
                    y_pow = _powers(_powers(r_pow[k].real, q + 1)[q], b).T
                    parts = np.split(products, [row - first for row, *_ in self._rows[1:]], axis=-1)
                    products = np.concatenate([(w[..., None] * y_pow[:, None, :baby]).reshape(
                        len(w), r.size, -1) for w, baby in zip(parts, babies)], axis=-1)
                # weights times [alpha, conj(beta)] and [alpha', conj(beta')], d/dt times the first
                inner = np.empty((n_out, 2, r.size, coef.shape[-1]))
                np.matmul(products[0], coef, out=inner[:len(coef)])
                if gradient:
                    np.matmul(products[1], coef[0], out=inner[2])
                inner = inner.view(complex).reshape(2 * n_out, r.size, q, k)
                folds = inner[:, :, -1]
                for g in range(q - 2, -1, -1):
                    folds = folds * r_pow[k, :, None] + inner[:, :, g]
                waves = np.fft.ifft(folds * r_pow[:k].T, n_theta, norm="forward")
                np.conjugate(waves[1::2], out=waves[1::2])
                np.add(waves[0], waves[1], out=outs[0, lo:lo + step])
                if gradient:
                    radial = np.add(waves[4], waves[5])
                    z = np.empty((2, r.size, n_theta), dtype=complex)
                    np.multiply(r_pow[1, :, None], nodes, out=z[1])
                    np.conjugate(z[1], out=z[0])
                    np.multiply(z, radial, out=z)
                    np.add(waves[2:4], z, out=outs[1:, lo:lo + step])
        if not np.isfinite(outs.view(float)).all():
            raise _overflow(gradient)
        return tuple(outs)

    def _evaluate(self, zs, gradient: bool):
        """(Phi,), or (Phi, Phi_z, Phi_zbar) with gradient, at each point of zs.

        Each block's kinds (``_contract``) are weighed together by one product
        with its rows of the weights (``_row_weights``) and one sum over its rows.
        """
        zs = np.asarray(zs, dtype=complex)
        shape, zs = zs.shape, zs.ravel()
        _check_points(zs)
        kinds = 4 if gradient else 2
        outs = np.zeros((3 if gradient else 1, zs.size), dtype=complex)
        # an overflow (rows, or sums of rows, past the double range) reaches
        # the outputs as inf or nan, which the check below refuses
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [(first, *_giant_steps(a, b, kinds)) for first, a, b in self._rows]
            baby = max((b for _, _, b, _ in blocks), default=1)
            # per point: the baby powers z^0 .. z^baby and the call's inner sums
            inner = sum(coef.shape[0] for _, coef, _, _ in blocks)
            step = max(1, _CHUNK_ENTRIES // (baby + 1 + inner))
            for lo in range(0, zs.size if blocks else 0, step):
                z = zs[lo:lo + step]
                z_pow = _powers(z, baby + 1)
                weights = _row_weights(z.real**2 + z.imag**2, self._n_load, gradient)
                acc = outs[:, lo:lo + step]
                for row, coef, b, q in blocks:
                    x = _contract(coef, b, q, kinds, z_pow)
                    w = weights[:, row:row + x.shape[1]]
                    v = (w[0] * x).sum(axis=1)
                    acc[0] += v[0] + np.conj(v[1])
                    if gradient:
                        # d/dz multiplies d/dt (s^p t^j) by zbar and d/dzbar by z
                        radial = (w[1] * (x[0] + np.conj(x[1]))).sum(axis=0)
                        acc[1] += np.conj(z) * radial + v[2]
                        acc[2] += z * radial + np.conj(v[3])
        if not np.all(np.isfinite(outs)):
            raise _overflow(gradient)
        return tuple(out.reshape(shape) for out in outs)


def _overflow(gradient: bool) -> DegenerateDataError:
    return DegenerateDataError(
        f"the {'gradient' if gradient else 'value'} of the data overflows double precision")


def _ring_layout(blocks, n_theta: int, gradient: bool, r_out: float):
    """(coef, k, b, q, babies): the table laid out for ``Solution._rings``.

    k = min(n_theta, W) over the widest block, whose folds take L =
    ceil(W / k) powers x^J of x = r^k, J = i q + g: b powers y^i of y = x^q
    in the left operand and q powers x^g in the columns. The sources are
    the folds k' < k of the kinds [alpha, conj(beta)] and, with gradient,
    [alpha', conj(beta')] and the radial [alpha, conj(beta)]: S = 2 k or
    6 k of them. A ring holds about b products per row and q S inner sums,
    so b = min(L, isqrt(S L) + 1) balances the two. A block of width W_b
    takes babies = ceil(W_b / (q k)) powers of y. coef[p, c] holds kind
    2 p + c (``_kinds``) as pairs of floats, for a real matmul: row (row,
    i), column (g, k') the coefficient of mode k' + (i q + g) k, so a row's
    modes lie in order. A row whose absolute sum on the outer ring r_out
    overflows is refused, as the point route refuses it at the node where
    its terms meet in phase.
    """
    widths = [alpha.shape[0] for _, alpha, _ in blocks]
    k = min(n_theta, max(widths))
    depth = -(-max(widths) // k)
    b = min(depth, math.isqrt((6 if gradient else 2) * k * depth) + 1)
    q = -(-depth // b)
    babies = [-(-width // (q * k)) for width in widths]
    kinds = 4 if gradient else 2
    rows = sum(alpha.shape[1] * baby for (_, alpha, _), baby in zip(blocks, babies))
    coef = np.zeros((kinds // 2, 2, rows, q * k), dtype=complex)
    r_pow = r_out ** np.arange(b * q * k)
    lo = 0
    for (_, alpha, beta), baby in zip(blocks, babies):
        n_rows = alpha.shape[1]
        block = coef[:, :, lo:lo + n_rows * baby].reshape(kinds, n_rows, -1)
        _kinds(alpha, beta, block)
        magnitude = np.abs(block).reshape(-1, block.shape[2])
        if not math.isfinite(np.dot(magnitude, r_pow[:magnitude.shape[1]]).max()):
            raise _overflow(gradient)
        lo += n_rows * baby
    return coef.view(float), k, b, q, babies


def _kinds(alpha: np.ndarray, beta: np.ndarray, out: np.ndarray) -> None:
    """Write a block's first kinds of [alpha, conj(beta), alpha', conj(beta')] into zeros out.

    out has shape (kinds, rows, n >= W): column m takes the coefficient of
    z^m (conj(zbar^m) = z^m) and stays zero past the block's width W. Both
    routes lay the table out by it, each into its own strides. Derivative
    rows that overflow are kept; each route refuses what they reach.
    """
    width = alpha.shape[0]
    out[0, :, :width] = alpha.T
    np.conjugate(beta.T, out=out[1, :, :width])
    if len(out) == 4:
        out[2:, :, :width - 1] = _deriv(out[:2, :, :width])


def _giant_steps(alpha: np.ndarray, beta: np.ndarray, kinds: int):
    """(matrix, b, q): a block's first kinds (``_kinds``) laid out for baby and giant steps.

    With b = isqrt(W - 1) + 1 and q = ceil(W / b), row i q + k of the matrix
    holds the coefficients C_k of z^(k b) .. z^(k b + b - 1) in row i of the kinds.
    """
    width, n_rows = alpha.shape
    b = math.isqrt(width - 1) + 1
    q = -(-width // b)
    out = np.zeros((kinds, n_rows, q * b), dtype=complex)
    _kinds(alpha, beta, out)
    return out.reshape(-1, b), b, q


def _contract(coef: np.ndarray, b: int, q: int, kinds: int, z_pow: np.ndarray) -> np.ndarray:
    """A block's kinds at the points of z_pow, shape (kinds, rows, n).

    sum_k (z^b)^k (C_k @ [z^0 .. z^(b-1)]): one matmul for the inner sums,
    then one product with the giant steps (z^b)^k, k < q (none for q = 1),
    and one sum over k.
    """
    n = z_pow.shape[1]
    inner = (coef @ z_pow[:b]).reshape(-1, q, n)
    if q > 1:
        inner *= _powers(z_pow[b], q)
    return inner.sum(axis=1).reshape(kinds, -1, n)


def _row_weights(t: np.ndarray, n_load: int, gradient: bool) -> np.ndarray:
    """Every row's weight at t = |z|^2, s = 1 - t: (1, or 2 with gradient, 2 + n_load, t.size).

    Rows 0 and 1, the boundary block's (0, 0) and (1, 0), weigh [1, s] with
    d/dt [0, -1]; row 2 + j, the load block's (2, j), weighs s^2 t^j with
    d/dt j s^2 t^(j-1) - 2 s t^j. Both routes weigh by this rule alone.
    """
    out = np.empty((2 if gradient else 1, 2 + n_load, t.size))
    out[0, 0] = 1.0
    s = np.subtract(1.0, t, out=out[0, 1])
    out[1:, 0], out[1:, 1] = 0.0, -1.0  # d/dt, with gradient
    if n_load:
        t_pow = _powers(t, n_load)
        np.multiply(s * s, t_pow, out=out[0, 2:])
        if gradient:
            np.multiply(-2.0 * s, t_pow, out=out[1, 2:])
            out[1, 3:] += np.arange(1.0, n_load)[:, None] * out[0, 2:-1]
    return out


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """Rows x^0 .. x^(n-1) by repeated products.

    Each pass multiplies the rows done so far by the next power, doubling
    them: log2(n) vector products, ~3x faster than np.vander's accumulate.
    """
    out = np.empty((n, x.size), dtype=x.dtype)
    out[:1] = 1.0
    out[1:2] = x
    done = 2
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
    # one pass: the largest modulus (0 for no points) is nan or inf for a non-finite z
    r = float(np.max(np.abs(zs), initial=0.0))
    if not r <= 1.0 + _CIRCLE_SLACK:
        if not np.all(np.isfinite(zs)):
            raise DomainError("z must be finite")
        raise DomainError(f"radius {r} lies outside the closed unit disk")


def _boundary_rows(f: Optional[BoundaryData], h: Optional[BoundaryData]):
    """(0, alpha, beta) of rows (0, 0) and (1, 0), or None for zero data.

    The block is cut to the data's bandwidth: its width w is the smallest
    with T_f(w) + T_h(w) <= f.floor + h.floor (the records of
    ``BoundaryData``), that is, whose tail is at most u (||f.samples||_1 +
    ||h.samples||_1). Rounding each sample by u |f_k| can move the spectrum
    by that much in 1-norm, so the cut adds no more error than rounding the
    samples already does. An infinite tail keeps its modes. w >= 1 for
    nonzero data: T(0) >= max_k |f_k| + max_k |h_k|, which exceeds the floor
    for any N < 1/u, unless the whole spectrum underflows to 0.
    """
    tails, floor = np.zeros(max(0 if d is None else d.tail.size for d in (f, h))), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for d in (f, h):
            if d is not None:
                tails[:d.tail.size] += d.tail
                floor += d.floor
        width = int(np.count_nonzero(tails > floor))
        if width == 0:
            return None
        # rows[p] is row (p, 0) as [alpha, beta]: f's spectrum in row 0 and
        # h's in row 1, which then becomes (m f + h) / 2
        rows = np.zeros((2, 2, width), dtype=complex)
        for p, d in enumerate((f, h)):
            if d is not None:
                rows[p, :, :d.tail.size] = d.spectrum[:, :width]
        rows[1] += np.arange(width) * rows[0]
        rows[1] *= 0.5
    return 0, rows[:, 0].T, rows[:, 1].T


def _load_rows(g: Optional[SourceTerm]):
    """(2, alpha, beta) of rows (2, j): c z^a zbar^b adds scale (k-1-j) w^|a-b| to row j."""
    if g is None or g.is_zero:
        return None
    n_rows = max(min(a, b) for a, b, _ in g.terms) + 1
    width = max(abs(a - b) for a, b, _ in g.terms) + 1
    rows = [0j] * (2 * n_rows * width)  # alpha's rows, then beta's: Python rounds as numpy
    for a, b, c in g.terms:
        k, scale = min(a, b) + 2, c / ((a + 1) * (a + 2) * (b + 1) * (b + 2))
        for j in range(k - 1):
            rows[(a < b) * n_rows * width + j * width + abs(a - b)] += scale * (k - 1 - j)
    alpha, beta = np.array(rows).reshape(2, n_rows, width)
    return 2, alpha.T, beta.T


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
