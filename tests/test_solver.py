"""Boundary data containers, loads, and the assembled solution operator."""

import decimal
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharmonic_disk import kernels, solver, verify
from biharmonic_disk.errors import DegenerateDataError, DomainError
from biharmonic_disk.quadrature import (
    DEFAULT_RULES,
    CircleRule,
    DiskRule,
    _circle_angles,
    circle_integrate,
    disk_integrate_centered,
)
from biharmonic_disk.solver import BoundaryData, SourceTerm, case_fingerprint


def _interpolant(data, theta):
    """The band-limited interpolant of boundary data at the angles theta, summed directly."""
    polyval = np.polynomial.polynomial.polyval
    w = np.exp(1j * np.atleast_1d(np.asarray(theta, dtype=float)))
    return polyval(w, data.a) + polyval(np.conj(w), data.b)


def _zero_padded(data, n):
    """The interpolant at n >= N uniform angles, by zero-padding the spectrum as ``sup_norm`` does."""
    return np.fft.ifft(data.modes(n)) * n


def _peak_bytes(call):
    """Peak Python heap allocation while running call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# BoundaryData


def test_fourier_construction_is_exact():
    data = BoundaryData.from_fourier([(2, 1.0 + 0.5j), (-1, 2.0)], n_samples=16)
    th = np.array([0.0, 0.3, 1.7])
    expected = (1.0 + 0.5j) * np.exp(2j * th) + 2.0 * np.exp(-1j * th)
    assert np.allclose(_interpolant(data, th), expected, atol=1e-13)


def test_resample_is_lossless_for_bandlimited_data():
    modes = [(3, 2.0 - 1.0j), (-2, 0.5)]
    coarse = BoundaryData.from_fourier(modes, n_samples=16)
    fine = BoundaryData.from_fourier(modes, n_samples=64)
    assert np.allclose(_zero_padded(coarse, 64), fine.samples, atol=1e-13)


def test_upsampling_keeps_the_nyquist_cosine_convention():
    # generic samples carry a Nyquist mode; zero-padding must split it
    rng = np.random.default_rng(3)
    data = BoundaryData(rng.normal(size=16) + 1j * rng.normal(size=16))
    for n in (18, 40, 64):
        assert np.allclose(_zero_padded(data, n), _interpolant(data, CircleRule(n).thetas),
                           atol=1e-13)
    th = rng.uniform(0.0, 2.0 * np.pi, size=7)
    nyquist = BoundaryData((-1.0) ** np.arange(16))
    assert np.allclose(_interpolant(nyquist, th), np.cos(8 * th), atol=1e-13)


def test_constant_and_zero_constructors():
    assert np.all(BoundaryData.constant(3j, 8).samples == 3j)
    assert np.all(BoundaryData.zero(8).samples == 0)
    assert BoundaryData.zero().n == 512


def test_from_function():
    data = BoundaryData.from_function(np.cos, n_samples=32)
    assert data.samples[0] == pytest.approx(1.0)
    assert _interpolant(data, np.pi / 3)[0] == pytest.approx(0.5, abs=1e-13)


def test_sup_norm():
    assert BoundaryData.from_fourier([(1, 1.0)]).sup_norm() == pytest.approx(1.0)
    spiked = BoundaryData.from_fourier([(0, 3.0), (2, 1.0)])
    assert spiked.sup_norm() == pytest.approx(4.0)
    assert BoundaryData.zero(16).sup_norm() == 0.0


@pytest.mark.parametrize("n_samples", [16, 512, 2048, 4096])
def test_sup_norm_reads_the_interpolant_at_2048_angles_or_more(n_samples):
    # below 2048 samples the spectrum is zero-padded, and generic samples
    # carry a Nyquist mode it must split as a cosine; from 2048 on the
    # samples themselves are read
    rng = np.random.default_rng(n_samples)
    data = BoundaryData(rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples))
    n = max(2048, n_samples)
    dense = _interpolant(data, CircleRule(n).thetas)
    assert data.sup_norm() == pytest.approx(np.max(np.abs(dense)), rel=1e-12)
    if n_samples < n:
        assert data.sup_norm() > np.max(np.abs(data.samples))


def test_sup_norm_does_not_build_a_dense_matrix():
    data = BoundaryData.from_fourier([(3, 1.0)])
    assert _peak_bytes(data.sup_norm) < 2**20


@pytest.mark.parametrize(
    "samples",
    [np.ones(3), np.ones(7), np.ones(2), [1.0, np.inf, 0.0, 0.0]],
)
def test_boundary_data_rejects_bad_samples(samples):
    with pytest.raises(DegenerateDataError):
        BoundaryData(samples)


@pytest.mark.parametrize("build", [
    lambda n: BoundaryData.from_fourier([(1, 1.0)], n),
    lambda n: BoundaryData.constant(1.0, n),
    lambda n: BoundaryData.zero(n),
    lambda n: BoundaryData.from_function(np.cos, n),
])
@pytest.mark.parametrize("n_samples, message", [
    (512.0, "must be an integer"), (16.0, "must be an integer"), (8.5, "must be an integer"),
    ("8", "must be an integer"), (-8, "at least 4"), (2, "at least 4"), (0, "at least 4"),
    (7, "even number"), (True, "must be an integer"), (np.True_, "must be an integer"),
])
def test_sample_counts_are_refused_before_allocating(build, n_samples, message):
    # a typed error, not numpy's TypeError or ValueError from the allocation
    with pytest.raises(DegenerateDataError, match=message):
        build(n_samples)


def test_unresolvable_mode_is_rejected():
    with pytest.raises(DegenerateDataError):
        BoundaryData.from_fourier([(256, 1.0)], n_samples=512)
    with pytest.raises(DegenerateDataError):
        BoundaryData.from_fourier([(-8, 1.0)], n_samples=16)


@pytest.mark.parametrize("mode", [1.5, 2.0, True])
def test_non_integer_mode_is_rejected(mode):
    # a float mode is refused, not truncated onto a neighbouring mode, and a
    # bool is not read as mode 1
    with pytest.raises(DegenerateDataError, match="must be an integer"):
        BoundaryData.from_fourier([(mode, 1.0)], 8)


def test_numpy_integer_modes_and_exponents_are_accepted():
    f = BoundaryData.from_fourier([(np.int64(1), 1.0), (np.int32(-2), 0.5)], np.int64(8))
    ref = BoundaryData.from_fourier([(1, 1.0), (-2, 0.5)], 8)
    np.testing.assert_array_equal(f.samples, ref.samples)
    assert BoundaryData.zero(np.int32(8)).n == 8
    assert SourceTerm([(np.int64(2), np.uint8(1), 1.0)]).terms == ((2, 1, 1 + 0j),)


def test_samples_are_read_only():
    data = BoundaryData.from_fourier([(1, 1.0), (-2, 0.5j)], 8)
    for part in (data.samples, data.a, data.b):
        with pytest.raises(ValueError):
            part[0] = 1.0


def test_spectrum_overflow_is_refused_at_construction():
    # samples of 1e308 (1 + i) e^{i theta} are finite, but their FFT sums overflow
    with pytest.raises(DegenerateDataError, match="overflow"):
        BoundaryData.from_fourier([(1, 1e308 + 1e308j)])


@pytest.mark.parametrize("n", [4, 512, 32768])
def test_spectrum_is_scaled_before_the_fft(n):
    # scaling by 1/N is exact for a power of two N, so the spectrum is the
    # unnormalised FFT's bit for bit, and a spectrum of modulus 1e307 no
    # longer overflows on the way
    rng = np.random.default_rng(n)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    coef = np.fft.fft(samples) / n
    data = BoundaryData(samples)
    assert np.array_equal(data.a[:n // 2], coef[:n // 2])
    assert np.array_equal(data.b[1:n // 2], coef[:n // 2:-1])
    assert BoundaryData.constant(1e307, n).a[0] == 1e307


def test_repeated_modes_merge():
    # the coefficients add up before the one inverse FFT, so modes that
    # cancel leave no trace in the samples
    merged = BoundaryData.from_fourier([(3, 1.0 + 0.5j), (-2, 2.0)], 16)
    repeated = BoundaryData.from_fourier(
        [(5, 1.0), (3, 1.0), (-2, 2.0), (3, 0.5j), (5, -1.0)], 16)
    np.testing.assert_array_equal(repeated.samples, merged.samples)
    assert _block_width(repeated, None) == 4


@given(log_n=st.integers(2, 12), data=st.data())
def test_fourier_samples_match_the_direct_sum(log_n, data):
    # Bound, to first order in u = eps / 2, with S = sum |c_m| over the M
    # given pairs (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., sections 3.6 and 24.1):
    # * from_fourier: merging a repeated mode rounds once per addition
    #   (M u S in all). The inverse FFT of N = 2^L points carries each
    #   coefficient to each sample through L radix-2 levels, each one product
    #   by a twiddle factor (computed within u) and one complex addition, at
    #   most eta = u + gamma_4 (sqrt(2) + u) < 7u relative per level, so every
    #   sample is within 7 L u S (pocketfft's radix-4 passes are two such
    #   levels, the middle one by +-1 and +-i, which is exact).
    # * the reference: the angle 2 pi r / N, r = m k mod N < N, lies below
    #   2 pi and is off by at most 3u relative (the rounded 2 pi, the product
    #   and the quotient), so by under 6 pi u < 19u; exp adds 2u and the
    #   product with c_m sqrt(2) gamma_2 < 3u, so each term is within
    #   24 u |c_m|, and summing M terms adds M u S.
    # |c_m| >= 1e-100 keeps subnormal round-off far below u S.
    n = 2**log_n
    coeff = st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e100,
                               allow_nan=False, allow_infinity=False)
    modes = data.draw(st.lists(st.tuples(st.integers(1 - n // 2, n // 2 - 1), coeff),
                               min_size=1, max_size=40))
    m = np.array([mode for mode, _ in modes])
    c = np.array([value for _, value in modes])
    k = np.arange(n)
    direct = np.sum(c[:, None] * np.exp(2j * np.pi * ((m[:, None] * k) % n) / n), axis=0)
    u = np.finfo(float).eps / 2
    bound = (7 * log_n + 2 * len(modes) + 24) * u * np.sum(np.abs(c))
    assert np.max(np.abs(BoundaryData.from_fourier(modes, n).samples - direct)) <= bound


@pytest.mark.parametrize("n_samples, n", [(4, 5), (16, 17), (16, 40), (64, 129)])
def test_modes_are_the_interpolant_in_fft_order(n_samples, n):
    rng = np.random.default_rng(n_samples + n)
    data = BoundaryData(rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples))
    spectrum = data.modes(n)
    assert spectrum.shape == (n,)
    values = np.fft.ifft(spectrum) * n
    assert np.allclose(values, _interpolant(data, CircleRule(n).thetas), atol=1e-13)


# ---------------------------------------------------------------------------
# SourceTerm


def test_source_term_merges_and_drops_zeros():
    g = SourceTerm([(1, 1, 2.0), (1, 1, -1.0), (0, 0, 0.0)])
    assert g.terms == ((1, 1, 1.0),)


def test_source_term_classification():
    assert SourceTerm.zero().is_zero
    assert not SourceTerm.constant(4.0).is_zero
    assert SourceTerm([(1, 1, 2.0), (1, 1, -2.0)]).is_zero


def test_source_term_evaluate():
    g = SourceTerm([(2, 1, 1.0)])
    z = 0.5 + 0.5j
    assert g(z) == pytest.approx(z**2 * np.conj(z))
    grid = np.array([[0.1, 0.2j], [0.3, 0.4]])
    assert g(grid).shape == (2, 2)


@pytest.mark.parametrize(
    "terms,expected",
    [
        (((2, 2, 1.0),), ((0, 0, 4.0),)),
        (((3, 3, 1.0),), ((1, 1, 36.0),)),
        (((0, 0, 1.0), (1, 1, -2.0), (2, 2, 1.0)), ((0, 0, 4.0),)),
        (((1, 0, 5.0),), ()),
    ],
)
def test_bilaplacian(terms, expected):
    assert SourceTerm(terms).bilaplacian().terms == expected


def test_sup_norm_bound_and_estimate():
    g = SourceTerm([(1, 1, 3.0), (0, 0, -1.0)])
    assert g.sup_norm_bound() == pytest.approx(4.0)
    # |3 |z|^2 - 1| peaks at 2 on the closed disk
    assert g.sup_norm_estimate() == pytest.approx(2.0, abs=1e-3)
    assert g.sup_norm_estimate() <= g.sup_norm_bound() + 1e-12
    assert SourceTerm.zero().sup_norm_estimate() == 0.0


def test_sup_norm_bound_is_an_upper_bound_in_floating_point():
    # the round-to-nearest sum of abs(c), the bound before it was rounded up,
    # lay below the exact sum |c_k| on 61 of these loads, and below the grid
    # estimate on 44
    rng = np.random.default_rng(35)
    with decimal.localcontext(decimal.Context(prec=60)):
        for _ in range(120):
            exponents = rng.integers(0, solver.MAX_EXPONENT + 1, (rng.integers(1, 4), 2))
            g = SourceTerm((a, b, complex(*rng.normal(size=2))) for a, b in exponents)
            exact = sum((Decimal(c.real) ** 2 + Decimal(c.imag) ** 2).sqrt() for _, _, c in g.terms)
            bound = g.sup_norm_bound()
            assert Decimal(bound) >= exact, g.terms
            assert bound >= g.sup_norm_estimate(), g.terms
    assert SourceTerm.zero().sup_norm_bound() == 0.0


# the load holding every exponent pair up to MAX_EXPONENT: 289 terms, 33 modes
_EVERY_TERM = SourceTerm([(a, b, 1.0 - 0.5j) for a in range(solver.MAX_EXPONENT + 1)
                          for b in range(solver.MAX_EXPONENT + 1)])


def _dense_sup(g):
    """max |g.evaluate| at the rounded nodes of the estimate's 512 x 512 polar grid."""
    r = np.linspace(0.0, 1.0, 512)
    zeta = r[:, None] * np.exp(1j * 2.0 * np.pi * np.arange(512) / 512)[None, :]
    return float(np.max(np.abs(g.evaluate(zeta))))


def _sup_allowance(g):
    """What rounding can put between sup_norm_estimate and _dense_sup, as gamma_n sum |c|.

    Both are maxima over the grid's nodes, so they differ by at most the
    largest gap between the two routes' values at one node, plus the 1 ulp
    (2u, u = eps / 2) of each modulus. Each route lies within a count of u
    sum |c| of g at the exact node (r_i, theta_j), |zeta| <= 1; with T terms,
    M distinct modes and degree d = max(a + b):

    * the estimate: r^k by numpy's pow, within 4 ulp (8u); the spectra, an
      inner product of at most T terms per mode; each wave within
      (4 pi + 2) u of e^{i m theta_j} (its angle 2 pi k / N carries 2u
      relative, exp 1 ulp a part); the values' parts are real inner products
      of length 2M, within gamma_2M whatever the order, so sqrt(2) 2M in
      modulus: n_E = T + 8 + 4 pi + 2 + 2 sqrt(2) M;
    * the dense route: the rounded node is r e^{i theta_j} (1 + eta),
      |eta| <= (4 pi + 3) u, which a term of degree a + b carries a + b
      times; zeta^a by a chain of at most a - 1 complex products, and two
      more by c and zbar^b, each within sqrt(5) u; T - 1 sums:
      n_D = d (4 pi + 3 + sqrt(5)) + 2 sqrt(5) + T - 1.
    """
    n_terms, degree = len(g.terms), max(a + b for a, b, _ in g.terms)
    n_modes = len({a - b for a, b, _ in g.terms})
    n_e = n_terms + 8 + 4 * math.pi + 2 + 2 * math.sqrt(2) * n_modes
    n_d = degree * (4 * math.pi + 3 + math.sqrt(5)) + 2 * math.sqrt(5) + n_terms - 1
    n = n_e + n_d + 4
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u) * g.sup_norm_bound()


def test_sup_norm_estimate_matches_the_dense_grid_in_bounded_memory():
    g = SourceTerm([(3, 1, 1.0 - 2j), (0, 4, 0.5), (2, 2, -1.0)])
    assert abs(g.sup_norm_estimate() - _dense_sup(g)) <= _sup_allowance(g)
    # every term is c at z = 1, a node of the grid
    estimate = _EVERY_TERM.sup_norm_estimate()
    assert abs(estimate - 289 * abs(1.0 - 0.5j)) <= _sup_allowance(_EVERY_TERM)
    for g in (SourceTerm.constant(4.0), _EVERY_TERM):
        assert _peak_bytes(g.sup_norm_estimate) < 2 * 2**20


@settings(max_examples=20)
@given(st.lists(st.tuples(st.integers(0, solver.MAX_EXPONENT), st.integers(0, solver.MAX_EXPONENT),
                          st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)),
                min_size=1, max_size=20))
def test_sup_norm_estimate_lies_within_rounding_of_the_dense_grid(terms):
    # moduli of 1e-3 .. 1e3 keep every partial product clear of underflow and
    # overflow, where a relative allowance would not hold
    g = SourceTerm(terms)
    if g.is_zero:
        return
    estimate, allowance = g.sup_norm_estimate(), _sup_allowance(g)
    assert estimate <= g.sup_norm_bound() + allowance
    assert abs(estimate - _dense_sup(g)) <= allowance


def test_source_term_exponent_validation():
    with pytest.raises(DomainError):
        SourceTerm([(-1, 0, 1.0)])
    with pytest.raises(DomainError):
        SourceTerm([(0, solver.MAX_EXPONENT + 1, 1.0)])
    # a float exponent is refused, not truncated to a lower degree, and a bool
    # is not read as 1
    for term in [(1.5, 0, 1.0), (0, 1.5, 1.0), (2.0, 0, 1.0), (0, 2.0, 1.0), (True, 0, 1.0),
                 (0, True, 1.0)]:
        with pytest.raises(DomainError, match="must be an integer"):
            SourceTerm([term])


@pytest.mark.parametrize("c", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_source_term_rejects_non_finite_coefficients(c):
    with pytest.raises(DomainError, match="must be finite"):
        SourceTerm([(0, 0, 1.0), (1, 2, c)])


def test_source_term_algebra():
    # terms with equal exponents merge, and the terms come out sorted
    g = SourceTerm([(1, 1, 2.0), (0, 0, 1.0), (1, 1, 4.0)])
    assert g.terms == ((0, 0, 1.0), (1, 1, 6.0))


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_depends_only_on_case_data():
    f = BoundaryData.from_fourier([(1, 1.0)], 16)
    h = BoundaryData.zero(16)
    g = SourceTerm.constant(4.0)
    again = case_fingerprint(
        BoundaryData.from_fourier([(1, 1.0)], 16), BoundaryData.zero(16),
        SourceTerm.constant(4.0),
    )
    assert case_fingerprint(f, h, g) == again


def test_fingerprint_sensitivity():
    f = BoundaryData.zero(16)
    h = BoundaryData.zero(16)
    base = case_fingerprint(f, h, SourceTerm.constant(4.0))
    assert case_fingerprint(f, h, SourceTerm.constant(5.0)) != base
    assert case_fingerprint(BoundaryData.constant(1e-9, 16), h, SourceTerm.constant(4.0)) != base


def test_fingerprint_tells_f_from_h():
    f = BoundaryData.from_fourier([(1, 1.0)], 16)
    h = BoundaryData.zero(16)
    g = SourceTerm.constant(4.0)
    assert case_fingerprint(f, h, g) != case_fingerprint(h, f, g)
    # equal bytes end to end; only the framing of each part tells these apart
    assert (case_fingerprint(BoundaryData.zero(8), BoundaryData.zero(16), g)
            != case_fingerprint(BoundaryData.zero(16), BoundaryData.zero(8), g))


# ---------------------------------------------------------------------------
# point solves


def test_constant_trace_reproduces_constant():
    f = BoundaryData.constant(1.0)
    h = BoundaryData.zero()
    g = SourceTerm.zero()
    for z in (0j, 0.5, 0.8j, -0.3 + 0.4j):
        assert solver.solve_point(f, h, g, z) == pytest.approx(1.0, abs=1e-12)


def test_constant_normal_derivative_field():
    # (f, h, g) = (0, 1, 0) solves to (1 - |z|^2) / 2.
    f = BoundaryData.zero()
    h = BoundaryData.constant(1.0)
    g = SourceTerm.zero()
    for r in (0.0, 0.3, 0.7, 0.95):
        expected = 0.5 * (1.0 - r**2)
        assert solver.solve_point(f, h, g, r) == pytest.approx(expected, abs=1e-10)


def test_pure_load_field():
    # (f, h, g) = (0, 0, 4) solves to (1 - |z|^2)^2.
    f = BoundaryData.zero()
    h = BoundaryData.zero()
    g = SourceTerm.constant(4.0)
    for z in (0j, 0.5, 0.3 + 0.4j):
        expected = (1.0 - abs(z) ** 2) ** 2
        assert solver.solve_point(f, h, g, z) == pytest.approx(expected, abs=1e-10)


def test_quartic_case_needs_all_three_channels():
    # |z|^4 has trace 1, inward normal derivative -4, load 4.
    f = BoundaryData.constant(1.0)
    h = BoundaryData.constant(-4.0)
    g = SourceTerm.constant(4.0)
    for z in (0.2, 0.6j, -0.5 + 0.5j):
        assert solver.solve_point(f, h, g, z) == pytest.approx(abs(z) ** 4, abs=1e-8)


def test_solution_is_linear_in_the_data():
    z = 0.4 + 0.1j
    f1, h1, g1 = BoundaryData.from_fourier([(1, 1.0)]), BoundaryData.zero(), SourceTerm.zero()
    f2, h2, g2 = BoundaryData.zero(), BoundaryData.constant(1.0), SourceTerm.constant(4.0)
    separate = solver.solve_point(f1, h1, g1, z) + solver.solve_point(f2, h2, g2, z)
    joint = solver.solve_point(BoundaryData(f1.samples + f2.samples),
                               BoundaryData(h1.samples + h2.samples),
                               SourceTerm(g1.terms + g2.terms), z)
    assert joint == pytest.approx(separate, abs=1e-9)
    # the data combine through their samples and terms: neither type defines arithmetic
    for combine in (lambda: f1 + f2, lambda: 3 * f1, lambda: g1 + g2):
        with pytest.raises(TypeError):
            combine()


@given(c=st.floats(min_value=-3.0, max_value=3.0))
def test_boundary_solve_scales_linearly(c):
    f = BoundaryData.from_fourier([(1, 1.0), (0, 0.5)], 64)
    h = BoundaryData.zero(64)
    g = SourceTerm.zero()
    z = 0.3 + 0.2j
    base = solver.solve_point(f, h, g, z)
    scaled = solver.solve_point(BoundaryData(f.samples * c), h, g, z)
    assert scaled == pytest.approx(c * base, abs=1e-12)


def test_trace_recovery_near_boundary():
    f = BoundaryData.from_function(lambda th: np.exp(np.cos(th)))
    h = BoundaryData.zero()
    g = SourceTerm.zero()
    theta0 = 1.0
    z = 0.995 * np.exp(1j * theta0)
    target = np.exp(np.cos(theta0))
    assert abs(solver.solve_point(f, h, g, z) - target) <= 0.05


def test_point_refinement_keeps_radial_profile_accurate():
    # r = 0.995 lies inside the kernel window of a 512-node circle rule.
    f = BoundaryData.zero()
    h = BoundaryData.constant(1.0)
    g = SourceTerm.zero()
    r = 0.995
    assert solver.solve_point(f, h, g, r) == pytest.approx(0.5 * (1 - r**2), abs=1e-8)


def test_point_on_and_near_the_circle_returns_f():
    f = BoundaryData.constant(1.0)
    for z in (1.0 - 1e-14, 1.0):
        value = solver.solve_point(f, BoundaryData.zero(), SourceTerm.zero(), z)
        assert abs(value - 1.0) <= 1e-15


_POINT_ENTRY_POINTS = {
    "f0_transform": lambda f, h, g, z: solver.f0_transform(f, z),
    "h0_transform": lambda f, h, g, z: solver.h0_transform(h, z),
    "green_potential": lambda f, h, g, z: solver.green_potential(g, z),
    "solve_point": solver.solve_point,
    "solve_points": lambda f, h, g, z: solver.solve_points(f, h, g, [0.5, z]),
    # the whole case's gradient at one point
    "gradient_point": lambda f, h, g, z: solver.Solution(f, h, g).gradient(z),
    "boundary_gradient": lambda f, h, g, z: solver.boundary_gradient(f, h, [0.5, z]),
    "green_gradient": lambda f, h, g, z: solver.green_gradient(g, [0.5, z]),
}


_CIRCLE_DATA = (BoundaryData.from_fourier([(0, 0.25), (1, 1.0), (-3, 0.5j)]),
                BoundaryData.from_fourier([(0, 1.0), (2, -0.5 + 0.25j)]),
                SourceTerm([(0, 0, 4.0), (3, 1, 0.5j), (2, 5, -1.0)]))


# 1 + 1e-9 lies past the round-off slack the rule grants circle points; the
# circle itself is admitted (its values: test_point_entry_points_are_exact_on_the_circle).
@pytest.mark.parametrize("z,refused", [
    (1.5, True), (1.0 + 1e-9, True), (complex(np.inf), True),
    (complex(np.nan), True), (1.0, False),
], ids=["outside", "near-circle", "inf", "nan", "circle"])
@pytest.mark.parametrize("entry", sorted(_POINT_ENTRY_POINTS))
def test_point_entry_points_share_one_refusal_rule(entry, z, refused):
    zero = (BoundaryData.zero(), BoundaryData.zero(), SourceTerm.zero())
    message = "outside the closed unit disk" if np.isfinite(z) else "z must be finite"
    for f, h, g in (_CIRCLE_DATA, zero):  # the rule does not depend on the data
        if refused:
            with pytest.raises(DomainError, match=message):
                _POINT_ENTRY_POINTS[entry](f, h, g, z)
        else:
            _POINT_ENTRY_POINTS[entry](f, h, g, z)


_ARRAY_ENTRY_POINTS = {
    "Solution.values": lambda f, h, g, zs: solver.Solution(f, h, g).values(zs),
    "Solution.gradient": lambda f, h, g, zs: solver.Solution(f, h, g).gradient(zs),
    "solve_points": solver.solve_points,
    "boundary_gradient": lambda f, h, g, zs: solver.boundary_gradient(f, h, zs),
    "green_gradient": lambda f, h, g, zs: solver.green_gradient(g, zs),
}


@pytest.mark.parametrize("zs, shape", [
    (np.array([]), (0,)), (np.zeros((0, 3)), (0, 3)), (0.5j, ()),
], ids=["empty", "empty-2d", "scalar"])
@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_array_entry_points_keep_empty_and_scalar_shapes(entry, zs, shape):
    # no points pass the refusal rule, and every output takes the input's shape
    zero = (BoundaryData.zero(), BoundaryData.zero(), SourceTerm.zero())
    for f, h, g in (_CIRCLE_DATA, zero):
        out = _ARRAY_ENTRY_POINTS[entry](f, h, g, zs)
        for part in out if isinstance(out, tuple) else (out,):
            assert isinstance(part, np.ndarray) and part.dtype == complex
            assert part.shape == shape


def _on_circle(entry, out, z):
    """The last value of an entry point's output; for gradients, -(z d_z + zbar d_zbar)."""
    if entry == "gradient_point":
        return -(z * out[0] + np.conj(z) * out[1])
    if entry in ("boundary_gradient", "green_gradient"):
        return -(z * out[0][-1] + np.conj(z) * out[1][-1])
    return np.atleast_1d(out)[-1]


@pytest.mark.parametrize("entry", sorted(_POINT_ENTRY_POINTS))
def test_point_entry_points_are_exact_on_the_circle(entry):
    # On the circle s = 0: F0 = f, H0 = 0, G = 0, Phi = f, and the inward
    # normal derivative -(z Phi_z + zbar Phi_zbar) is h for Phi and for the
    # boundary part, 0 for the Green part.
    f, h, g = _CIRCLE_DATA
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    past_one = circle[np.abs(circle) > 1.0]  # |z| = 1 + 2.2e-16 by round-off
    assert past_one.size > 0
    expected = {"f0_transform": f, "h0_transform": None, "green_potential": None,
                "solve_point": f, "solve_points": f, "gradient_point": h,
                "boundary_gradient": h, "green_gradient": None}[entry]
    for z in (1.0 + 0j, *past_one):
        value = _on_circle(entry, _POINT_ENTRY_POINTS[entry](f, h, g, z), z)
        exact = 0.0 if expected is None else _interpolant(expected, np.angle(z))[0]
        assert abs(value - exact) <= 1e-13


@pytest.mark.parametrize("r", [0.98, 0.99, 0.999])
def test_pure_load_is_exact_near_the_circle(r):
    zero = BoundaryData.zero()
    z = r * np.exp(0.7j)
    expected = (1.0 - abs(z) ** 2) ** 2
    value = solver.solve_point(zero, zero, SourceTerm.constant(4.0), z)
    assert abs(value - expected) <= 1e-12 * expected


def test_boundary_transforms_match_mode_multipliers_near_the_circle():
    modes = {0: 0.5, 1: 1.0 - 0.5j, -3: 0.25j, 17: -0.75, -40: 0.3 + 0.1j, 100: 0.2}
    data = BoundaryData.from_fourier(modes.items())
    r = 0.999
    s = 1.0 - r**2
    for theta in (0.0, 1.3, 4.0):
        z = r * np.exp(1j * theta)
        waves = {m: c * r ** abs(m) * np.exp(1j * m * theta) for m, c in modes.items()}
        f0 = sum(w * (1.0 + abs(m) * s / 2.0) for m, w in waves.items())
        h0 = sum(w * s / 2.0 for w in waves.values())
        assert abs(solver.f0_transform(data, z) - f0) <= 1e-12 * abs(f0)
        assert abs(solver.h0_transform(data, z) - h0) <= 1e-12 * abs(h0)


def test_point_solve_near_the_circle_uses_little_memory():
    f = BoundaryData.from_fourier([(1, 1.0), (-2, 0.5)])
    g = SourceTerm.constant(4.0)
    assert _peak_bytes(lambda: solver.solve_point(f, f, g, 0.999j)) < 10 * 2**20


def test_batch_solve_memory_is_bounded_by_the_chunk():
    rng = np.random.default_rng(7)
    f = BoundaryData(rng.normal(size=512) + 1j * rng.normal(size=512))
    h = BoundaryData(rng.normal(size=512) + 1j * rng.normal(size=512))
    g = SourceTerm([(16, 16, 1.0), (3, 9, 0.5j), (12, 1, -0.5)])
    n = 20_000
    zs = 0.99 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))

    def run():
        solver.solve_points(f, h, g, zs)
        solver.boundary_gradient(f, h, zs)
        solver.Solution(f, h, g).gradient(zs)

    # the outputs (at most 3 x 20,000 complex, 0.92 MiB) and one chunk's working set
    assert _peak_bytes(run) < 2 * 2**20


def test_solve_points_matches_individual_solves():
    f = BoundaryData.from_fourier([(1, 0.5)])
    h = BoundaryData.constant(1.0)
    g = SourceTerm.monomial(1, 1, 2.0)
    zs = np.array([0.1, 0.5j, -0.4 + 0.2j])
    batch = solver.solve_points(f, h, g, zs)
    single = [solver.solve_point(f, h, g, z) for z in zs]
    assert np.allclose(batch, single, atol=1e-13)


# ---------------------------------------------------------------------------
# table coefficients

_COEF = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16), _COEF), max_size=5))
def test_table_coefficients_are_the_manufactured_solution(terms):
    # w_d t^l is a basis, so the table of the unique solution holds Phi*'s
    # term z^a zbar^b at (a - b, min(a, b)) and nothing else. The FFT of the
    # 512 samples leaves ~eps noise in every mode m, which the s^1 row scales
    # by m/2: 4,000 examples reached 38 eps.
    phi = SourceTerm(terms)
    case = verify.manufactured_case(phi)
    coef = case.solution.coefficients()
    expected = np.zeros_like(coef)
    for a, b, c in phi.terms:
        expected[a - b, min(a, b)] += c
    scale = sum((1 + a + b) * abs(c) for a, b, c in phi.terms)
    assert np.max(np.abs(coef - expected)) <= 256 * np.finfo(float).eps * max(1.0, scale)


def test_table_coefficients_cover_the_data_modes():
    # rows run 0..N/2 then -N/2..-1 for the widest data, even when it is zero,
    # and always hold the modes +-1 that compute_ab reads
    coef = solver.Solution(BoundaryData.zero(8), BoundaryData.zero(16),
                           SourceTerm.monomial(0, 2)).coefficients()
    assert coef.shape == (17, 3)
    assert coef[-2, 0] == pytest.approx(1.0 / 24.0)
    assert solver.Solution(g=SourceTerm.constant(2.0)).coefficients()[1, 0] == 0.0


@pytest.mark.parametrize("data", [
    ([(1, 1.0)], [], []),
    ([(1, 0.3 - 0.2j), (-1, 0.7j), (4, 1.0)], [(-1, 2.0), (1, -0.5)], [(2, 1, 1.0 - 1j)]),
    ([], [(0, 1.0)], [(0, 1, 0.25j), (3, 2, 2.0), (0, 0, 1.0)]),
])
def test_table_coefficients_hold_the_origin_gradient(data):
    f_modes, h_modes, terms = data
    f, h = BoundaryData.from_fourier(f_modes, 64), BoundaryData.from_fourier(h_modes, 32)
    g = SourceTerm(terms)
    coef = solver.Solution(f, h, g).coefficients()
    assert (coef[1, 0], coef[-1, 0]) == solver.Solution(f, h, g).gradient(0j)


# ---------------------------------------------------------------------------
# baby-step giant-step contraction


def _levels(load, n_rows):
    """The rows (p, j) of a block: (0, 0) and (1, 0) for the boundary, (2, j) for the load."""
    return [(2, j) for j in range(n_rows)] if load else [(0, 0), (1, 0)]


def _generic_weights(levels, t):
    """The generic rule: s^p t^j and d/dt (s^p t^j) = j s^p t^(j-1) - p s^(p-1) t^j per row (p, j).

    Also the absolute sum of the two d/dt terms, which scales its round-off.
    """
    s = 1.0 - t
    p, j = (np.array(level)[:, None] for level in zip(*levels))
    d_plus = j * s**p * t ** np.maximum(j - 1, 0)
    d_minus = p * s ** np.maximum(p - 1, 0) * t**j
    return s**p * t**j, d_plus - d_minus, d_plus + d_minus


def _full_power_table(f, h, g, zs):
    """(Phi, Phi_z, Phi_zbar): every table row contracted with all W powers of z."""
    t = zs.real**2 + zs.imag**2
    out = np.zeros((3, zs.size), dtype=complex)
    for rows in (solver._boundary_rows(f, h), solver._load_rows(g)):
        if rows is None:
            continue
        load, alpha, beta = rows
        m = np.arange(alpha.shape[0])[:, None]
        z_pow = np.cumprod(np.vstack([np.ones(zs.size), np.tile(zs, (m.size - 1, 1))]), axis=0)
        dz_pow = m * np.vstack([np.zeros(zs.size), z_pow[:-1]])  # d/dz z^m = m z^(m-1)
        u = alpha.T @ z_pow + beta.T @ np.conj(z_pow)
        du, dbu = alpha.T @ dz_pow, beta.T @ np.conj(dz_pow)
        weight, d_weight, _ = _generic_weights(_levels(load, alpha.shape[1]), t)
        out[0] += np.sum(weight * u, axis=0)
        out[1] += np.sum(np.conj(zs) * d_weight * u + weight * du, axis=0)
        out[2] += np.sum(zs * d_weight * u + weight * dbu, axis=0)
    return out


@pytest.mark.parametrize("load, n_rows", [(False, 2)] + [(True, n) for n in (1, 2, 3, 9, 16, 17)])
def test_block_weights_match_the_generic_rule(load, n_rows):
    # the load block holds up to MAX_EXPONENT + 1 = 17 rows; t = 0 and t = 1
    # (s = 1 and s = 0) are exact under both rules, seeded t within round-off
    t = np.concatenate([[0.0, 1.0], np.random.default_rng(n_rows).uniform(size=64)])
    weight, d_weight, d_scale = _generic_weights(_levels(load, n_rows), t)
    # one call weighs the boundary rows, then n_load load rows
    n_load = n_rows if load else 0
    rows = slice(2, None) if load else slice(0, 2)
    values = solver._row_weights(t, n_load, gradient=False)[:, rows]
    both = solver._row_weights(t, n_load, gradient=True)[:, rows]
    assert values.shape == (1, n_rows, t.size) and both.shape == (2, n_rows, t.size)
    np.testing.assert_array_equal(values[0], both[0])
    np.testing.assert_array_equal(both[:, :, :2], [weight[:, :2], d_weight[:, :2]])
    eps = np.finfo(float).eps
    assert np.all(np.abs(both[0] - weight) <= 4 * n_rows * eps * weight)
    assert np.all(np.abs(both[1] - d_weight) <= 4 * n_rows * eps * d_scale)


def _assert_matches_full_power_table(f, h, g, zs):
    # S weighs f by 1 + |m|, the s^1 row's multiplier, and S2 by one more
    # 1 + |m| for the derivative; differentiating a load row gains at most
    # a factor MAX_EXPONENT + 1
    s1 = s2 = 0.0
    for data, power in ((f, 1), (h, 0)):
        if data is not None:
            weight = 1.0 + np.arange(data.a.size)
            mass = np.abs(data.a) + np.abs(data.b)
            s1 += np.sum(weight**power * mass)
            s2 += np.sum(weight ** (power + 1) * mass)
    g_sum = 0.0 if g is None else g.sup_norm_bound()
    s1, s2 = s1 + g_sum, s2 + (solver.MAX_EXPONENT + 1) * g_sum
    width = max([d.n // 2 + 1 for d in (f, h) if d is not None] + [solver.MAX_EXPONENT + 1])
    u = np.finfo(float).eps / 2
    solution = solver.Solution(f, h, g)
    expected = _full_power_table(f, h, g, zs)
    assert np.max(np.abs(solution.values(zs) - expected[0])) <= 8 * width * u * s1
    assert np.max(np.abs(np.array(solution.gradient(zs)) - expected[1:])) <= 8 * width * u * s2


def _disk_and_circle(rng):
    inner = np.sqrt(rng.uniform(size=60)) * np.exp(2j * np.pi * rng.uniform(size=60))
    circle = np.exp(2j * np.pi * rng.uniform(size=20))
    return np.concatenate([[0.0, 1.0, -1j], inner, circle])


def _noise(rng, n, scale=1.0):
    return BoundaryData(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))


@given(seed=st.integers(0, 2**32 - 1), n_f=st.sampled_from([4, 6, 64, 512]),
       n_h=st.sampled_from([4, 64, 512, 1024]), h_scale=st.floats(1e-3, 1e3),
       terms=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16), _COEF), max_size=3))
def test_giant_steps_match_the_full_power_table(seed, n_f, n_h, h_scale, terms):
    rng = np.random.default_rng(seed)
    f, h = _noise(rng, n_f), _noise(rng, n_h, h_scale)
    _assert_matches_full_power_table(f, h, SourceTerm(terms), _disk_and_circle(rng))


@pytest.mark.parametrize("n_f, terms, width, b, q", [
    (None, [(1, 1, 1.0), (3, 3, -0.5j)], 1, 1, 1),  # load block alone
    (None, [(15, 0, 1.0), (2, 9, 0.5)], 16, 4, 4),
    (None, [(0, 16, 1.0j), (4, 1, 2.0)], 17, 5, 4),
    (16, [], 9, 3, 3),
    (18, [], 10, 4, 3),
    (30, [(16, 0, 1.0)], 16, 4, 4),  # and a load block of width 17
    (32, [], 17, 5, 4),
])
def test_giant_steps_at_square_widths(n_f, terms, width, b, q):
    # widths b^2 and b^2 + 1 are where b = isqrt(W - 1) + 1 steps up
    rng = np.random.default_rng(width)
    f = None if n_f is None else _noise(rng, n_f)
    g = SourceTerm(terms)
    rows = solver._boundary_rows(f, f) if f is not None else solver._load_rows(g)
    assert rows[1].shape[0] == width
    assert solver._giant_steps(*rows[1:], 4)[1:] == (b, q)
    _assert_matches_full_power_table(f, f, g, _disk_and_circle(rng))


def _stacked_layout(alpha, beta):
    """The giant-step matrix by stacking: the four kinds, derivatives by np.roll, then padded."""
    def deriv(c):
        return np.roll(np.arange(c.shape[0])[:, None] * c, -1, axis=0)

    coef = np.vstack([alpha.T, beta.T.conj(), deriv(alpha).T, deriv(beta).T.conj()])
    n_rows, width = coef.shape
    b = math.isqrt(width - 1) + 1
    q = -(-width // b)
    padded = np.zeros((n_rows, q * b), dtype=complex)
    padded[:, :width] = coef
    return padded.reshape(n_rows * q, b), b, q


@pytest.mark.parametrize("top", [0, 1, 15, 16, 100, None])
def test_giant_step_layout_matches_the_stacked_kinds(top):
    rng = np.random.default_rng(top or 7)
    if top is None:
        f, h = _noise(rng, 512), _noise(rng, 64)
    else:
        f, h = (BoundaryData.from_fourier(zip([top, -top, top // 2], rng.normal(size=3) + 1j), 512)
                for _ in range(2))
    g = SourceTerm((a, b, complex(*rng.normal(size=2)))
                   for a, b in rng.integers(0, solver.MAX_EXPONENT + 1, (4, 2)))
    for rows in (solver._boundary_rows(f, h), solver._load_rows(g)):
        expected, b_ref, q_ref = _stacked_layout(*rows[1:])
        # the values take the first two kinds, a prefix of the four
        for kinds in (2, 4):
            matrix, b, q = solver._giant_steps(*rows[1:], kinds)
            assert (b, q) == (b_ref, q_ref)
            np.testing.assert_array_equal(matrix, expected[:kinds * expected.shape[0] // 4])


@pytest.mark.parametrize("modes, grid_overflows", [
    # 255^2 |a_255| / 2 passes 1.8e308 in the s^1 row's derivative
    ([(255, 1e304)], True),
    # finite rows whose sum overflows at z = 1, where their terms meet in
    # phase; the grid's rings stop short of it, and its outputs are finite
    # (test_evaluators checks them against the reference)
    ([(179, 1e304), (180, 1e304), (181, 1e304)], False),
], ids=["modes0", "modes1"])
def test_overflowing_gradients_are_refused(modes, grid_overflows):
    # the values stay finite, and no call warns
    f = BoundaryData.from_fourier(modes)
    solution = solver.Solution(f)
    zs = np.array([0.0, 0.5, 0.99j, 1.0])
    assert np.all(np.isfinite(solution.values(zs)))
    with pytest.raises(DegenerateDataError, match="gradient of the data overflows"):
        solution.gradient(zs)
    if grid_overflows:
        with pytest.raises(DegenerateDataError, match="gradient of the data overflows"):
            solver.solve_grid(f, f, SourceTerm.zero(), 2000, 4, with_gradient=True)


def test_overflowing_values_are_refused_on_both_routes():
    # each row's absolute sum is finite, but at r = 0 the value is
    # f_0 + h_0 / 2 = 2.55e308; on the circle, where s = 0, it is f_0. The
    # gradients stay finite, so every call, with gradients too, names the value
    f = BoundaryData.from_fourier([(0, 1.7e308)], 8)
    solution = solver.Solution(f, f)
    for call in (lambda: solution.grid(4, 4), lambda: solution.values([0j]),
                 lambda: solution.grid(4, 4, with_gradient=True),
                 lambda: solution.gradient([0j])):
        with pytest.raises(DegenerateDataError, match="the value of the data overflows"):
            call()
    (on_circle,) = solution._rings(np.ones(1), 8, False)
    assert np.all(on_circle == 1.7e308)


# ---------------------------------------------------------------------------
# the boundary block cut to the data's bandwidth


def _block_width(f, h):
    return solver._boundary_rows(f, h)[1].shape[0]


def _sub_floor_data(rng, n, band, n_tail, scale):
    """n samples of random modes |m| <= band plus n_tail modes above it.

    The tail modes share a quarter of u ||samples||_1, so the cut drops
    them. The samples come from an inverse FFT, as in
    ``BoundaryData.from_fourier``.
    """
    u = np.finfo(float).eps / 2
    coef = np.zeros(n, dtype=complex)
    band_modes = np.arange(-band, band + 1)
    coef[band_modes] = rng.normal(size=band_modes.size) + 1j * rng.normal(size=band_modes.size)
    floor = u * np.sum(np.abs(n * np.fft.ifft(coef)))
    tail = rng.choice(np.arange(band + 1, n // 2), n_tail, replace=False)
    amplitude = rng.uniform(0.1, 1.0, n_tail)
    coef[tail * rng.choice([-1, 1], n_tail)] = (0.25 * floor * amplitude / amplitude.sum()
                                                * np.exp(2j * np.pi * rng.uniform(size=n_tail)))
    return BoundaryData(scale * n * np.fft.ifft(coef))


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([512, 4096]),
       band=st.integers(0, 20), n_tail=st.integers(1, 5),
       h_scale=st.sampled_from([0.0, 1.0, 1e3]))
def test_the_cut_stays_within_its_recorded_tails(seed, n, band, n_tail, h_scale):
    rng = np.random.default_rng(seed)
    f, h = _sub_floor_data(rng, n, band, n_tail, 1.0), _sub_floor_data(rng, n, band, n_tail, h_scale)
    zs = _disk_and_circle(rng)
    cut = solver.Solution(f, h)
    with pytest.MonkeyPatch.context() as patch:
        # data built with a zero floor keeps every mode
        patch.setattr(solver, "_UNIT_ROUNDOFF", 0.0)
        f_all, h_all = BoundaryData(f.samples), BoundaryData(h.samples)
    full = solver.Solution(f_all, h_all)
    assert _block_width(f_all, h_all) > band + n_tail
    assert _block_width(f, h) <= band + 1
    assert 0.0 < cut.value_tail <= cut.gradient_tail
    # the two tables differ in width, so they round differently: allow a few
    # ulps of the scales _assert_matches_full_power_table weighs values and
    # gradients by
    u = np.finfo(float).eps / 2
    mass_f, mass_h = (np.abs(d.a) + np.abs(d.b) for d in (f, h))
    m = 1.0 + np.arange(f.a.size)
    s1 = np.sum(m * mass_f) + np.sum(mass_h)
    s2 = np.sum(m**2 * mass_f) + np.sum(m * mass_h)
    moved = np.abs(cut.values(zs) - full.values(zs))
    assert np.max(moved) <= cut.value_tail + 4 * u * s1
    moved = np.sum(np.abs(np.array(cut.gradient(zs)) - full.gradient(zs)), axis=0)
    assert np.max(moved) <= cut.gradient_tail + 4 * u * s2


@pytest.mark.parametrize("datum, mode, sharp", [
    ("f", 1, 0.99), ("f", 7, 0.6), ("f", 100, 0.6), ("h", 1, 0.99), ("h", 100, 0.99)])
def test_one_dropped_mode_comes_close_to_its_bounds(datum, mode, sharp):
    # eps z^m beside a constant 1, whose FFT is exact, so the cut drops
    # eps z^m alone (eps = 4e-14 is below u ||samples||_1 = 5.7e-14).
    # In f, |Phi_z| + |Phi_zbar| = eps m r^(m-1) (1 + m s/2) peaks at 1.5 eps
    # for m = 1 (at 0) and stays above eps m (on the circle), and the value
    # reaches eps on the circle; in h, the gradient reaches eps on the circle.
    # Each tail is then sharp, or within the factor 1/sharp.
    coef = np.zeros(512, dtype=complex)
    coef[mode] = 4e-14
    data = {datum: BoundaryData(512 * np.fft.ifft(coef)),
            "h" if datum == "f" else "f": BoundaryData.constant(1.0)}
    zs = np.linspace(0.0, 1.0, 4001)
    cut = solver.Solution(data["f"], data["h"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_UNIT_ROUNDOFF", 0.0)
        full = solver.Solution(BoundaryData(data["f"].samples), BoundaryData(data["h"].samples))
    assert _block_width(data["f"], data["h"]) == 1
    assert cut.value_tail == pytest.approx(4e-14 if datum == "f" else 2e-14, rel=1e-12, abs=0)
    ulps = 8 * np.finfo(float).eps  # the two tables round the constant's part differently
    moved = np.max(np.abs(cut.values(zs) - full.values(zs)))
    assert (0.99 if datum == "f" else 0.0) * cut.value_tail <= moved <= cut.value_tail + ulps
    moved = np.max(np.sum(np.abs(np.array(cut.gradient(zs)) - full.gradient(zs)), axis=0))
    assert sharp * cut.gradient_tail <= moved <= cut.gradient_tail + ulps


def test_grid_shaped_data_is_cut_to_its_modes():
    # the manufactured data of degree-6 solutions of the benchmark's grid
    # shape: load terms (3, 3) and (4, 2), free terms of degree < 5
    rng = np.random.default_rng(3)
    free = [(a, b) for a in range(5) for b in range(5) if a < 2 or b < 2]
    for _ in range(20):
        terms = [(3, 3, 1.0), (4, 2, 1j)] + [
            (*free[i], complex(*rng.normal(size=2))) for i in rng.choice(len(free), 3)]
        case = verify.manufactured_case(SourceTerm(terms))
        assert _block_width(case.f, case.h) <= 5


@pytest.mark.parametrize("n, n_modes, top", [
    (16, 3, 7),
    (512, 6, 100),  # the boundary benchmark's data
    (4096, 6, 2047),
    (32768, 6, 300),
    (32768, 1000, 16383),
])
def test_band_limited_data_is_cut_to_its_highest_mode(n, n_modes, top):
    # one inverse FFT round trip leaves about u ||c||_1 in each mode, and
    # its tail past max |m| stays below the cut's floor u ||samples||_1
    # (a tenth of it or less on 40 seeds of each shape)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data, highest = [], 0
        for _ in range(2):
            modes = rng.choice(np.arange(-top, top + 1), n_modes, replace=False)
            coeffs = (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)) / np.sqrt(n_modes)
            data.append(BoundaryData.from_fourier(zip(modes, coeffs), n))
            highest = max(highest, int(np.max(np.abs(modes))))
        assert _block_width(*data) == highest + 1


def test_white_noise_is_not_cut():
    rng = np.random.default_rng(4)
    f, h = (_noise(rng, 512) for _ in range(2))
    assert _block_width(f, h) == 257
    solution = solver.Solution(f, h)
    assert (solution.value_tail, solution.gradient_tail) == (0.0, 0.0)


def test_huge_samples_do_not_overflow_the_cut():
    # the 1-norm of these samples, about 512 * 1.3e306, overflows double
    # precision; the cut scales them by u before summing, and keeps every mode
    rng = np.random.default_rng(5)
    f = _noise(rng, 512, 1e306)
    with np.errstate(all="raise"):
        assert _block_width(f, None) == 257


def test_a_spectrum_that_underflows_is_zero_data():
    # 5e-324 / 4 rounds to 0, so every coefficient and the floor vanish: the
    # cut keeps no mode and the table is empty
    f = BoundaryData([5e-324, 0.0, 0.0, 0.0])
    assert solver._boundary_rows(f, None) is None
    assert solver.Solution(f).values(0.5) == 0.0


# ---------------------------------------------------------------------------
# the records BoundaryData keeps for the cut, its tails and the checks


def _direct_records(d):
    """(floor, T, M) of d summed directly, one suffix at a time."""
    mass = np.abs(d.a) + np.abs(d.b)
    m = np.arange(mass.size)
    with np.errstate(over="ignore"):
        tail = np.array([np.sum(mass[w:]) for w in m])
        moment = np.array([np.sum(m[w:] * mass[w:]) for w in m])
    return float(np.sum(np.abs(np.finfo(float).eps / 2 * d.samples))), tail, moment


def _joint_rule_width(f, h):
    """The cut as one cumsum over the zero-padded spectra of f and h: the oracle."""
    given = [d for d in (f, h) if d is not None]
    if not any(np.any(d.samples) for d in given):
        return 0
    spectra = np.zeros((4, max(d.n for d in given) // 2 + 1), dtype=complex)
    for d, a_out, b_out in ((f, *spectra[:2]), (h, *spectra[2:])):
        if d is not None:
            a_out[:d.a.size], b_out[:d.b.size] = d.a, d.b
    with np.errstate(over="ignore"):
        tails = np.cumsum(np.abs(spectra[:, ::-1]).sum(axis=0))
    floor = sum(float(np.abs(np.finfo(float).eps / 2 * d.samples).sum()) for d in given)
    return int(np.count_nonzero(tails > floor))


def _assert_records_and_cut(f, h):
    for d in (f, h):
        floor, tail, moment = _direct_records(d)
        assert d.floor == floor
        np.testing.assert_allclose(d.tail, tail, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(d.moment, moment, rtol=1e-12, atol=0.0)
        assert not (d.tail.flags.writeable or d.moment.flags.writeable)
    for pair in ((f, h), (f, None), (None, h)):
        rows = solver._boundary_rows(*pair)
        assert (0 if rows is None else rows[1].shape[0]) == _joint_rule_width(*pair)


def _random_datum(rng, n, kind):
    if kind == "noise":
        return _noise(rng, n, 10.0 ** rng.integers(-3, 4))
    if kind == "fourier":
        modes = rng.integers(-(n // 2) + 1, n // 2, 3)
        return BoundaryData.from_fourier(zip(modes, rng.normal(size=3) + 1j * rng.normal(size=3)), n)
    return _sub_floor_data(rng, n, int(rng.integers(0, n // 2 - 1)), 1, 1.0)


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.permutations([4, 6, 64, 512, 4096]).map(lambda p: p[:2]),
       kinds=st.tuples(*[st.sampled_from(["noise", "fourier", "sub-floor"])] * 2))
def test_records_equal_direct_sums(seed, sizes, kinds):
    rng = np.random.default_rng(seed)
    _assert_records_and_cut(*(_random_datum(rng, n, kind) for n, kind in zip(sizes, kinds)))


@pytest.mark.parametrize("f, h, inf_tails, inf_moments", [
    (BoundaryData.zero(4), BoundaryData.zero(512), 0, 0),
    # a 1-norm of the samples past the double range (the floor scales first)
    (_noise(np.random.default_rng(5), 512, 1e306), BoundaryData.zero(64), 0, 249),
    # a flat spectrum of 4 modes of modulus 5.3e307: T(0) overflows
    (BoundaryData([1.5e308 * (1 + 1j), 0.0, 0.0, 0.0]), BoundaryData.constant(1.0, 6), 1, 2),
    # a 1e308 spike in 64 samples: every coefficient is 1.6e306, and M overflows
    (BoundaryData(np.r_[1e308, np.zeros(63)]), _noise(np.random.default_rng(6), 4096), 0, 31),
])
def test_records_at_the_edges_of_the_data(f, h, inf_tails, inf_moments):
    _assert_records_and_cut(f, h)
    assert (np.isinf(f.tail).sum(), np.isinf(f.moment).sum()) == (inf_tails, inf_moments)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_of_pure_load_field():
    # Phi = (1 - |z|^2)^2 has Phi_z = -2 conj(z) (1 - |z|^2).
    g = SourceTerm.constant(4.0)
    zero = BoundaryData.zero()
    for z in (0.3 + 0.2j, -0.5j, 0.7):
        d_z, d_zbar = solver.Solution(zero, zero, g).gradient(z)
        expected = -2.0 * np.conj(z) * (1.0 - abs(z) ** 2)
        assert d_z == pytest.approx(expected, abs=1e-9)
        assert d_zbar == pytest.approx(np.conj(expected), abs=1e-9)


def test_gradient_of_normal_derivative_field():
    # Phi = (1 - |z|^2)/2 has Phi_z = -conj(z)/2.
    d_z, _ = solver.Solution(h=BoundaryData.constant(1.0)).gradient(0.5)
    assert d_z == pytest.approx(-0.25, abs=1e-10)


def test_gradient_matches_difference_quotient():
    f = BoundaryData.from_fourier([(1, 1.0), (2, 0.5j)])
    h = BoundaryData.constant(-1.0)
    g = SourceTerm.constant(2.0)
    z = 0.35 - 0.15j
    step = 1e-5
    fx = (solver.solve_point(f, h, g, z + step) - solver.solve_point(f, h, g, z - step)) / (2 * step)
    fy = (solver.solve_point(f, h, g, z + 1j * step) - solver.solve_point(f, h, g, z - 1j * step)) / (2 * step)
    d_z, d_zbar = solver.Solution(f, h, g).gradient(z)
    assert d_z == pytest.approx(0.5 * (fx - 1j * fy), abs=1e-7)
    assert d_zbar == pytest.approx(0.5 * (fx + 1j * fy), abs=1e-7)


def test_gradient_splits_into_boundary_and_green_parts():
    f = BoundaryData.constant(1.0)
    h = BoundaryData.constant(-4.0)
    g = SourceTerm.constant(4.0)
    zs = np.array([0.2 + 0.1j, -0.6j])
    d_z, d_zbar = solver.Solution(f, h, g).gradient(zs[0])
    bz, bzb = solver.boundary_gradient(f, h, zs)
    gz, gzb = solver.green_gradient(g, zs)
    assert bz[0] + gz[0] == pytest.approx(d_z, abs=1e-14)
    assert bzb[0] + gzb[0] == pytest.approx(d_zbar, abs=1e-14)


# ---------------------------------------------------------------------------
# grid solves


def test_grid_constant_case(reference_cases):
    case = reference_cases["constant"]
    field = solver.solve_grid(case.f, case.h, case.g, 8, 8)
    assert field.values.shape == (8, 8)
    assert np.allclose(field.values, 1.0, atol=1e-10)
    assert field.failures == []
    assert field.d_z is None


def test_grid_radial_profile():
    f = BoundaryData.zero()
    h = BoundaryData.constant(1.0)
    field = solver.solve_grid(f, h, SourceTerm.zero(), 8, 4)
    expected = 0.5 * (1.0 - field.radii**2)
    assert np.allclose(field.values, expected[:, None], atol=1e-10)


def test_grid_geometry():
    field = solver.solve_grid(
        BoundaryData.zero(), BoundaryData.zero(), SourceTerm.zero(), 4, 8, r_max=0.8
    )
    assert np.allclose(field.radii, 0.8 * np.arange(4) / 4)
    assert np.allclose(field.thetas, 2 * np.pi * np.arange(8) / 8)
    assert field.n_r == 4 and field.n_theta == 8
    assert field.points.shape == (4, 8)
    assert np.all(field.values == 0.0)


def test_reference_fields_match_exact_solutions(reference_cases, reference_fields):
    for name, case in reference_cases.items():
        field = reference_fields[name]
        exact = case.phi_star(field.points)
        err = np.max(np.abs(field.values - exact))
        assert err < 1e-8, f"{name}: {err}"


def test_grid_refuses_unresolvable_outer_radius():
    # The only unresolvable outer radius is one past the circle. Up to it
    # the pure load g = 4 gives (1 - |z|^2)^2 at every radius, the last
    # radius 1 - 1/n_r included (1001 radii reach past the old 0.999 cap).
    zero = BoundaryData.zero()
    for n_r in (100, 1000, 1001):
        field = solver.solve_grid(zero, zero, SourceTerm.constant(4.0), n_r, 8)
        assert field.radii[-1] == pytest.approx(1.0 - 1.0 / n_r)
        expected = (1.0 - np.abs(field.points) ** 2) ** 2
        assert np.max(np.abs(field.values - expected)) <= 1e-14
    for r_max in (1.0 + 1e-9, 1.5):
        with pytest.raises(DomainError):
            solver.solve_grid(zero, zero, SourceTerm.constant(4.0), 100, 8, r_max=r_max)


def test_grid_near_boundary_override():
    # Near-boundary grids need no override: F0 + H0 of the same data has
    # the multiplier r^|m| (1 + (|m| + 1) s / 2) up to r = 1 - 1/2000.
    modes = {0: 0.5, 1: 1.0 - 0.5j, -3: 0.25j, 17: -0.75}
    data = BoundaryData.from_fourier(modes.items())
    for n_r in (100, 1000, 2000):
        field = solver.solve_grid(data, data, SourceTerm.zero(), n_r, 8)
        r, th = field.radii[:, None], field.thetas[None, :]
        s = 1.0 - r**2
        expected = sum(c * r ** abs(m) * np.exp(1j * m * th) * (1.0 + (abs(m) + 1) * s / 2.0)
                       for m, c in modes.items())
        assert np.max(np.abs(field.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_grid_hard_radius_cap_cannot_be_overridden():
    # The hard cap is the circle itself: 2000 radii (last 0.9995) are solved
    # exactly, and no r_max past 1, however close, is admitted.
    zero = BoundaryData.zero()
    field = solver.solve_grid(zero, zero, SourceTerm.constant(4.0), 2000, 4)
    assert field.radii[-1] == pytest.approx(1.0 - 1.0 / 2000)
    expected = (1.0 - np.abs(field.points) ** 2) ** 2
    assert np.max(np.abs(field.values - expected)) <= 1e-14
    with pytest.raises(DomainError):
        solver.solve_grid(zero, zero, SourceTerm.zero(), 2000, 4, r_max=1.0 + np.finfo(float).eps)


def test_grid_argument_validation():
    zero = BoundaryData.zero()
    with pytest.raises(DegenerateDataError):
        solver.solve_grid(zero, zero, SourceTerm.zero(), 0, 4)
    with pytest.raises(DomainError):
        solver.solve_grid(zero, zero, SourceTerm.zero(), 4, 4, r_max=0.0)
    with pytest.raises(DomainError):
        solver.solve_grid(zero, zero, SourceTerm.zero(), 4, 4, r_max=1.5)
    # 2.5 rings or 4.5 angles make no grid: a float size is refused, even
    # 4.0, and so is a bool
    for sizes in [(2.5, 4), (3, 4.5), (3, np.float64(4.0)), (True, 4), (3, True)]:
        with pytest.raises(DegenerateDataError, match="must be an integer"):
            solver.solve_grid(zero, zero, SourceTerm.zero(), *sizes)


@pytest.mark.parametrize("sizes", [(1025, 1024), (10**6, 10**6)])
def test_grid_refuses_sizes_past_the_node_cap(sizes):
    # refused before anything is allocated, on both entry points
    zero = BoundaryData.zero()
    solution = solver.Solution(zero, zero, SourceTerm.constant(4.0))
    for call in (lambda: solution.grid(*sizes),
                 lambda: solver.solve_grid(zero, zero, SourceTerm.constant(4.0), *sizes)):
        def refused():
            with pytest.raises(DegenerateDataError, match="holds more than 1048576"):
                call()
        assert _peak_bytes(refused) < 2**20
    # the cap itself is admitted
    assert solution.grid(1024, 1024).values.shape == (1024, 1024)


def test_grid_takes_numpy_integer_sizes():
    f = BoundaryData.from_fourier([(1, 1.0)])
    field = solver.solve_grid(f, f, SourceTerm.zero(), np.int64(3), np.int32(4))
    assert (field.n_r, field.n_theta) == (3, 4)
    assert field.values.shape == (3, 4)


@pytest.mark.parametrize("error", [RuntimeError, DomainError])
def test_grid_propagates_evaluator_errors(monkeypatch, error):
    # No per-node fallback: an error of the ring evaluator leaves solve_grid.
    def broken(self, radii, n_theta, gradient):
        raise error("injected bug")

    monkeypatch.setattr(solver.Solution, "_rings", broken)
    zero = BoundaryData.zero(8)
    with pytest.raises(error, match="injected bug"):
        solver.solve_grid(zero, zero, SourceTerm.constant(4.0), 4, 4, r_max=0.8)


def test_grid_gradient_matches_closed_form(reference_fields):
    field = reference_fields["bump"]
    z = field.points
    expected = -2.0 * np.conj(z) * (1.0 - np.abs(z) ** 2)
    assert np.max(np.abs(field.d_z - expected)) < 1e-8
    assert np.max(np.abs(field.d_zbar - np.conj(expected))) < 1e-8


def test_grid_walks_its_rings_in_blocks():
    # CI's wide-band data: 1,000 modes each in f and h on 4096 samples, so
    # the boundary block is ~2048 wide and folds 256 deep onto 8 angles.
    # The rings' products, inner sums and spectra are walked _CHUNK_ENTRIES
    # at a time: the peak sat 1.1 MiB above the outputs, and walking all 2000
    # rings at once took 20 MiB
    rng = np.random.default_rng(0)

    def datum():
        modes = rng.choice(np.arange(-2047, 2048), 1000, replace=False)
        coeffs = rng.normal(size=(1000, 2)) / np.sqrt(1000)
        return BoundaryData.from_fourier(zip(modes, coeffs @ [1.0, 1j]), 4096)

    solution = solver.Solution(datum(), datum())
    assert solution._rows[0][1].shape[0] > 2000
    outputs = 3 * 2000 * 8 * np.dtype(complex).itemsize
    assert _peak_bytes(lambda: solution.grid(2000, 8, with_gradient=True)) < outputs + 3 * 2**20


_RING_DATUM = st.dictionaries(
    st.integers(min_value=-255, max_value=255),
    st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    max_size=6,
)


@given(parts=st.sampled_from(["both", "boundary", "load", "zero"]),
       f_modes=_RING_DATUM, h_modes=_RING_DATUM, scale=st.floats(1e-3, 1e3),
       terms=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16), _COEF), max_size=3),
       n_r=st.integers(1, 8), n_theta=st.one_of(st.integers(1, 8), st.integers(1, 64)),
       r_max=st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
def test_ring_route_matches_the_point_route_at_the_polar_nodes(
        parts, f_modes, h_modes, scale, terms, n_r, n_theta, r_max):
    # modes up to 255 fold onto every n_theta, deep enough at the fewest
    # angles for giant steps, and a load reaches exponent 16. The ring route
    # runs on rings from 0 to r_max, so r_max = 1 is the circle, and the
    # public grid on its own radii
    f = h = g = None
    if parts in ("both", "boundary"):
        f, h = (BoundaryData.from_fourier([(m, scale * c) for m, c in modes.items()], 512)
                for modes in (f_modes, h_modes))
    if parts in ("both", "load"):
        g = SourceTerm(terms)
    solution = solver.Solution(f, h, g)
    radii = np.linspace(0.0, r_max, n_r)
    field = solution.grid(n_r, n_theta, r_max, with_gradient=True)
    runs = [(radii, np.array(solution._rings(radii, n_theta, True))),
            (radii, solution._rings(radii, n_theta, False)),
            (field.radii, np.array([field.values, field.d_z, field.d_zbar]))]
    # s[o] weighs each boundary mode and load term by the factor o more
    # derivatives can gain (as _assert_matches_full_power_table does), so
    # s[0], s[1] and s[2] bound the values, the gradient and the next order.
    # The routes are allowed 8 W u s between them, the point route's
    # allowance against the full power table (they differed by under 0.5%
    # of it over 2,000 random cases), and the points zs round the exact
    # polar nodes by at most 2u |z|, which moves an output by at most
    # 2u s[o + 1]: allowed twice (the radial part of the ring route's
    # gradient takes z and zbar at zs).
    # Below the normal range rounding is absolute, by up to half the smallest
    # subnormal eta per operation, and the gradient multiplies a rounded
    # term by up to W: 8 W^2 eta (subnormal data of either route differed by
    # up to 3,752 eta, 0.4% of it, where the relative terms alone failed)
    s = np.zeros(3)
    for data, power in ((f, 1), (h, 0)):
        if data is not None:
            weight = 1.0 + np.arange(data.a.size)
            s += [np.sum(weight ** (power + o) * (np.abs(data.a) + np.abs(data.b)))
                  for o in range(3)]
    if g is not None:
        s += (solver.MAX_EXPONENT + 1.0) ** np.arange(3) * g.sup_norm_bound()
    width = max([d.n // 2 + 1 for d in (f, h) if d is not None] + [solver.MAX_EXPONENT + 1])
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    for nodes, outs in runs:
        zs = nodes[:, None] * np.exp(1j * _circle_angles(n_theta))[None, :]
        points = [solution.values(zs), *solution.gradient(zs)]
        for order, (got, expected) in enumerate(zip(outs, points)):
            allowed = (8 * width * (u * s[min(order, 1)] + width * eta)
                       + 4 * u * s[min(order, 1) + 1])
            assert np.max(np.abs(got - expected)) <= allowed
            if parts == "zero":
                assert np.all(got == 0.0) and np.all(expected == 0.0)


# ---------------------------------------------------------------------------
# closed forms against the integral form of the representation

# Mixed a != b terms with exponents up to 16 that the default disk rule at
# twice its angular and panel resolution resolves to ~1e-12 at every sample
# point. It does not resolve z^16 zbar^16 or z^16 at r = 0.9 (~1e-10
# absolute, 3e-6 relative); refining the rule further shrinks that gap
# towards the closed form.
_ORACLE_LOAD = SourceTerm([
    (0, 0, 1.0), (3, 1, 0.5 - 1.0j), (1, 4, 2.0j), (16, 5, 0.7),
    (5, 16, -0.4j), (14, 2, 0.3 + 0.3j), (9, 16, -0.6),
])


@pytest.mark.parametrize("z", verify.SAMPLE_POINTS)
def test_green_closed_form_matches_quadrature(z):
    rule = DiskRule(n_angular=512, geo_panels=80, outer_panels=20)
    g = _ORACLE_LOAD

    def oracle(kernel):
        return disk_integrate_centered(rule, lambda zeta: kernel(zeta) * g(zeta), center=z)

    value = oracle(lambda zeta: kernels.KernelParts(z, zeta).g())
    d_z = oracle(lambda zeta: kernels.KernelParts(z, zeta).g_dz())
    d_zbar = oracle(lambda zeta: np.conj(kernels.KernelParts(z, zeta).g_dz()))
    assert abs(solver.green_potential(g, z) - value) <= 1e-10
    gz, gzb = solver.green_gradient(g, [z])  # gradient of -G
    assert abs(gz[0] + d_z) <= 1e-10
    assert abs(gzb[0] + d_zbar) <= 1e-10


_modes = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    min_size=1, max_size=5,
)


@given(f_modes=_modes, h_modes=_modes,
       r=st.floats(min_value=0.0, max_value=0.9),
       theta=st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_boundary_closed_form_matches_kernel_quadrature(f_modes, h_modes, r, theta):
    f = BoundaryData.from_fourier(f_modes.items(), 64)
    h = BoundaryData.from_fourier(h_modes.items(), 64)
    z = r * np.exp(1j * theta)
    rule = DEFAULT_RULES.circle
    fs, hs = _interpolant(f, rule.thetas), _interpolant(h, rule.thetas)

    def oracle(kernel, samples):
        return circle_integrate(rule, lambda th: kernel(z * np.exp(-1j * th)) * samples)

    scale = sum(abs(c) for c in f_modes.values()) + sum(abs(c) for c in h_modes.values())
    tol = 1e-12 * max(scale, 1.0)
    assert abs(solver.f0_transform(f, z) - oracle(kernels.f0_eval, fs)) <= tol
    assert abs(solver.h0_transform(h, z) - oracle(kernels.h0_eval, hs)) <= tol

    def oracle_grad(kernel_dz, samples):
        return np.array([
            circle_integrate(rule, lambda th: part(kernel_dz(z, th)) * samples)
            for part in (np.asarray, np.conj)
        ])

    expected = oracle_grad(kernels.f0_dz, fs) + oracle_grad(kernels.h0_dz, hs)
    d_z, d_zbar = solver.boundary_gradient(f, h, [z])
    assert np.max(np.abs([d_z[0], d_zbar[0]] - expected)) <= 20 * tol
