"""Boundary data containers, loads, and the assembled solution operator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biharmonic_disk import green, kernels, solver, verify
from biharmonic_disk.errors import DegenerateDataError, DomainError
from biharmonic_disk.quadrature import (
    DEFAULT_RULES,
    CircleRule,
    circle_integrate,
    disk_integrate_centered,
)
from biharmonic_disk.solver import BoundaryData, SourceTerm, case_fingerprint


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
    assert np.allclose(data.eval_at(th), expected, atol=1e-13)


def test_resample_is_lossless_for_bandlimited_data():
    modes = [(3, 2.0 - 1.0j), (-2, 0.5)]
    coarse = BoundaryData.from_fourier(modes, n_samples=16)
    fine = BoundaryData.from_fourier(modes, n_samples=64)
    assert np.allclose(coarse.resample(64), fine.samples, atol=1e-13)


def test_upsampling_keeps_the_nyquist_cosine_convention():
    # generic samples carry a Nyquist mode; zero-padding must split it
    rng = np.random.default_rng(3)
    data = BoundaryData(rng.normal(size=16) + 1j * rng.normal(size=16))
    for n in (18, 40, 64):
        assert np.allclose(data.resample(n), data.eval_at(CircleRule(n).thetas), atol=1e-13)
    th = rng.uniform(0.0, 2.0 * np.pi, size=7)
    nyquist = BoundaryData((-1.0) ** np.arange(16))
    assert np.allclose(nyquist.eval_at(th), np.cos(8 * th), atol=1e-13)


def test_resample_same_size_returns_samples():
    data = BoundaryData.constant(2.0, 8)
    assert data.resample(8) is data.samples


def test_constant_and_zero_constructors():
    assert np.all(BoundaryData.constant(3j, 8).samples == 3j)
    assert np.all(BoundaryData.zero(8).samples == 0)
    assert BoundaryData.zero().n == 512


def test_from_function():
    data = BoundaryData.from_function(np.cos, n_samples=32)
    assert data.samples[0] == pytest.approx(1.0)
    assert data.eval_at(np.pi / 3)[0] == pytest.approx(0.5, abs=1e-13)


def test_sup_norm():
    assert BoundaryData.from_fourier([(1, 1.0)]).sup_norm() == pytest.approx(1.0)
    spiked = BoundaryData.from_fourier([(0, 3.0), (2, 1.0)])
    assert spiked.sup_norm() == pytest.approx(4.0)
    assert BoundaryData.zero(16).sup_norm() == 0.0


def test_sup_norm_does_not_build_a_dense_matrix():
    data = BoundaryData.from_fourier([(3, 1.0)])
    assert _peak_bytes(data.sup_norm) < 2**20


def test_eval_at_does_not_build_a_dense_matrix():
    rng = np.random.default_rng(5)
    data = BoundaryData(rng.normal(size=512) + 1j * rng.normal(size=512))
    th = rng.uniform(0.0, 2.0 * np.pi, size=20_000)
    assert _peak_bytes(lambda: data.eval_at(th)) < 5 * 2**20


def test_downsampling_refuses_to_alias():
    # 16 nodes would carry mode 20 as mode 4
    data = BoundaryData.from_fourier([(20, 1.0)], 64)
    with pytest.raises(DegenerateDataError):
        data.resample(16)
    with pytest.raises(TypeError):
        BoundaryData.from_fourier([(1, 1.0)], 16) + data
    with pytest.raises(TypeError):
        3 * data


@pytest.mark.parametrize(
    "samples",
    [np.ones(3), np.ones(7), np.ones(2), [1.0, np.inf, 0.0, 0.0]],
)
def test_boundary_data_rejects_bad_samples(samples):
    with pytest.raises(DegenerateDataError):
        BoundaryData(samples)


def test_unresolvable_mode_is_rejected():
    with pytest.raises(DegenerateDataError):
        BoundaryData.from_fourier([(256, 1.0)], n_samples=512)
    with pytest.raises(DegenerateDataError):
        BoundaryData.from_fourier([(-8, 1.0)], n_samples=16)


def test_samples_are_read_only():
    data = BoundaryData.from_fourier([(1, 1.0), (-2, 0.5j)], 8)
    for part in (data.samples, data.a, data.b):
        with pytest.raises(ValueError):
            part[0] = 1.0


def test_spectrum_overflow_is_refused_at_construction():
    # samples of 1e308 (1 + i) e^{i theta} are finite, but their FFT sums overflow
    with pytest.raises(DegenerateDataError, match="overflow"):
        BoundaryData.from_fourier([(1, 1e308 + 1e308j)])


@pytest.mark.parametrize("n_samples, n", [(4, 5), (16, 17), (16, 40), (64, 129)])
def test_modes_are_the_interpolant_in_fft_order(n_samples, n):
    rng = np.random.default_rng(n_samples + n)
    data = BoundaryData(rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples))
    spectrum = data.modes(n)
    assert spectrum.shape == (n,)
    values = np.fft.ifft(spectrum) * n
    assert np.allclose(values, data.eval_at(CircleRule(n).thetas), atol=1e-13)


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


def test_sup_norm_estimate_walks_its_grid_in_row_blocks():
    g = SourceTerm([(3, 1, 1.0 - 2j), (0, 4, 0.5), (2, 2, -1.0)])
    r = np.linspace(0.0, 1.0, 512)
    zeta = r[:, None] * np.exp(1j * 2.0 * np.pi * np.arange(512) / 512)[None, :]
    assert g.sup_norm_estimate() == float(np.max(np.abs(g.evaluate(zeta))))
    assert _peak_bytes(SourceTerm.constant(4.0).sup_norm_estimate) < 2 * 2**20


def test_source_term_exponent_validation():
    with pytest.raises(DomainError):
        SourceTerm([(-1, 0, 1.0)])
    with pytest.raises(DomainError):
        SourceTerm([(0, solver.MAX_EXPONENT + 1, 1.0)])


@pytest.mark.parametrize("c", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_source_term_rejects_non_finite_coefficients(c):
    with pytest.raises(DomainError, match="must be finite"):
        SourceTerm([(0, 0, 1.0), (1, 2, c)])


def test_source_term_algebra():
    g = SourceTerm.monomial(1, 1, 2.0) + SourceTerm.constant(1.0) + SourceTerm.monomial(1, 1, 4.0)
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
                               BoundaryData(h1.samples + h2.samples), g1 + g2, z)
    assert joint == pytest.approx(separate, abs=1e-9)


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
    "gradient_point": solver.gradient_point,
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
    for f, h, g in (_CIRCLE_DATA, zero):  # the rule does not depend on the data
        if refused:
            with pytest.raises(DomainError):
                _POINT_ENTRY_POINTS[entry](f, h, g, z)
        else:
            _POINT_ENTRY_POINTS[entry](f, h, g, z)


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
        exact = 0.0 if expected is None else expected.eval_at(np.angle(z))[0]
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

    assert _peak_bytes(run) < 16 * 2**20


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
    coef = solver.table_coefficients(case.f, case.h, case.g)
    expected = np.zeros_like(coef)
    for a, b, c in phi.terms:
        expected[a - b, min(a, b)] += c
    scale = sum((1 + a + b) * abs(c) for a, b, c in phi.terms)
    assert np.max(np.abs(coef - expected)) <= 256 * np.finfo(float).eps * max(1.0, scale)


def test_table_coefficients_cover_the_data_modes():
    # rows run 0..N/2 then -N/2..-1 for the widest data, even when it is zero,
    # and always hold the modes +-1 that compute_ab reads
    coef = solver.table_coefficients(BoundaryData.zero(8), BoundaryData.zero(16),
                                     SourceTerm.monomial(0, 2))
    assert coef.shape == (17, 3)
    assert coef[-2, 0] == pytest.approx(1.0 / 24.0)
    assert solver.table_coefficients(g=SourceTerm.constant(2.0))[1, 0] == 0.0


@pytest.mark.parametrize("data", [
    ([(1, 1.0)], [], []),
    ([(1, 0.3 - 0.2j), (-1, 0.7j), (4, 1.0)], [(-1, 2.0), (1, -0.5)], [(2, 1, 1.0 - 1j)]),
    ([], [(0, 1.0)], [(0, 1, 0.25j), (3, 2, 2.0), (0, 0, 1.0)]),
])
def test_table_coefficients_hold_the_origin_gradient(data):
    f_modes, h_modes, terms = data
    f, h = BoundaryData.from_fourier(f_modes, 64), BoundaryData.from_fourier(h_modes, 32)
    g = SourceTerm(terms)
    coef = solver.table_coefficients(f, h, g)
    assert (coef[1, 0], coef[-1, 0]) == solver.gradient_point(f, h, g, 0j)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_of_pure_load_field():
    # Phi = (1 - |z|^2)^2 has Phi_z = -2 conj(z) (1 - |z|^2).
    g = SourceTerm.constant(4.0)
    zero = BoundaryData.zero()
    for z in (0.3 + 0.2j, -0.5j, 0.7):
        d_z, d_zbar = solver.gradient_point(zero, zero, g, z)
        expected = -2.0 * np.conj(z) * (1.0 - abs(z) ** 2)
        assert d_z == pytest.approx(expected, abs=1e-9)
        assert d_zbar == pytest.approx(np.conj(expected), abs=1e-9)


def test_gradient_of_normal_derivative_field():
    # Phi = (1 - |z|^2)/2 has Phi_z = -conj(z)/2.
    h = BoundaryData.constant(1.0)
    zero = BoundaryData.zero()
    d_z, _ = solver.gradient_point(zero, h, SourceTerm.zero(), 0.5)
    assert d_z == pytest.approx(-0.25, abs=1e-10)


def test_gradient_matches_difference_quotient():
    f = BoundaryData.from_fourier([(1, 1.0), (2, 0.5j)])
    h = BoundaryData.constant(-1.0)
    g = SourceTerm.constant(2.0)
    z = 0.35 - 0.15j
    step = 1e-5
    fx = (solver.solve_point(f, h, g, z + step) - solver.solve_point(f, h, g, z - step)) / (2 * step)
    fy = (solver.solve_point(f, h, g, z + 1j * step) - solver.solve_point(f, h, g, z - 1j * step)) / (2 * step)
    d_z, d_zbar = solver.gradient_point(f, h, g, z)
    assert d_z == pytest.approx(0.5 * (fx - 1j * fy), abs=1e-7)
    assert d_zbar == pytest.approx(0.5 * (fx + 1j * fy), abs=1e-7)


def test_gradient_splits_into_boundary_and_green_parts():
    f = BoundaryData.constant(1.0)
    h = BoundaryData.constant(-4.0)
    g = SourceTerm.constant(4.0)
    zs = np.array([0.2 + 0.1j, -0.6j])
    d_z, d_zbar = solver.gradient_point(f, h, g, zs[0])
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


@pytest.mark.parametrize("error", [RuntimeError, DomainError])
def test_grid_propagates_evaluator_errors(monkeypatch, error):
    # No per-node fallback: an error of the evaluator leaves solve_grid.
    def broken(self, zs, gradient):
        raise error("injected bug")

    monkeypatch.setattr(solver.Solution, "_evaluate", broken)
    zero = BoundaryData.zero(8)
    with pytest.raises(error, match="injected bug"):
        solver.solve_grid(zero, zero, SourceTerm.constant(4.0), 4, 4, r_max=0.8)


def test_grid_gradient_matches_closed_form(reference_fields):
    field = reference_fields["bump"]
    z = field.points
    expected = -2.0 * np.conj(z) * (1.0 - np.abs(z) ** 2)
    assert np.max(np.abs(field.d_z - expected)) < 1e-8
    assert np.max(np.abs(field.d_zbar - np.conj(expected))) < 1e-8


# ---------------------------------------------------------------------------
# closed forms against the integral form of the representation

# Mixed a != b terms with exponents up to 16 that the doubled disk rule
# resolves to ~1e-12 at every sample point. It does not resolve z^16 zbar^16
# or z^16 at r = 0.9 (~1e-10 absolute, 3e-6 relative); refining the rule
# further shrinks that gap towards the closed form.
_ORACLE_LOAD = SourceTerm([
    (0, 0, 1.0), (3, 1, 0.5 - 1.0j), (1, 4, 2.0j), (16, 5, 0.7),
    (5, 16, -0.4j), (14, 2, 0.3 + 0.3j), (9, 16, -0.6),
])


@pytest.mark.parametrize("z", verify.SAMPLE_POINTS)
def test_green_closed_form_matches_quadrature(z):
    rule = DEFAULT_RULES.disk.doubled()
    g = _ORACLE_LOAD

    def oracle(kernel):
        return disk_integrate_centered(rule, lambda zeta: kernel(zeta) * g(zeta), center=z)

    value = oracle(lambda zeta: green.g_eval(z, zeta))
    d_z = oracle(lambda zeta: green.g_dz(z, zeta))
    d_zbar = oracle(lambda zeta: np.conj(green.g_dz(z, zeta)))
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
    fs, hs = f.resample(rule.n_nodes), h.resample(rule.n_nodes)

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
