"""Distortion constants: gradient bounds, origin invariants, quotients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biharmonic_disk import lipschitz, solver
from biharmonic_disk.errors import DegenerateDataError, DomainError
from biharmonic_disk.lipschitz import (
    classify,
    compute_ab,
    empirical_quotient,
    estimate_boundary_lipschitz,
    p_bound,
)
from biharmonic_disk.solver import BoundaryData, SourceTerm

# ---------------------------------------------------------------------------
# boundary Lipschitz estimate


def test_lipschitz_of_constant_is_zero():
    assert estimate_boundary_lipschitz(BoundaryData.constant(5.0, 64)) == 0.0


def test_lipschitz_of_first_mode():
    f = BoundaryData.from_fourier([(1, 1.0)], 256)
    assert estimate_boundary_lipschitz(f) == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_of_second_mode_approaches_two():
    f = BoundaryData.from_fourier([(2, 1.0)], 256)
    est = estimate_boundary_lipschitz(f)
    assert est == pytest.approx(2.0, abs=1e-3)
    assert est <= 2.0 + 1e-12


def test_lipschitz_estimate_grows_with_resolution():
    modes = [(3, 1.0)]
    coarse = estimate_boundary_lipschitz(BoundaryData.from_fourier(modes, 16))
    fine = estimate_boundary_lipschitz(BoundaryData.from_fourier(modes, 128))
    assert coarse <= fine + 1e-12
    assert fine <= 3.0 + 1e-12


def test_lipschitz_of_four_sample_constant_is_zero():
    # BoundaryData's fewest samples still give every chord
    assert estimate_boundary_lipschitz(BoundaryData.constant(1.0, 4)) == 0.0


@given(scale=st.floats(min_value=0.0, max_value=5.0))
def test_lipschitz_estimate_is_homogeneous(scale):
    f = BoundaryData.from_fourier([(1, 1.0), (2, 0.5j)], 64)
    base = estimate_boundary_lipschitz(f)
    assert estimate_boundary_lipschitz(BoundaryData(f.samples * scale)) == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


def _all_pairs_lipschitz(f):
    # every chord pair at once: the O(N^2) reference for the offset walk
    th = 2.0 * np.pi * np.arange(f.n) / f.n
    pts = np.exp(1j * th)
    iu = np.triu_indices(f.n, k=1)
    num = np.abs(f.samples[iu[0]] - f.samples[iu[1]])
    den = np.abs(pts[iu[0]] - pts[iu[1]])
    return float(np.max(num / den))


@pytest.mark.parametrize("n", [8, 16, 512, 1024])
def test_lipschitz_estimate_equals_all_pairs_maximum(n):
    rng = np.random.default_rng(n)
    f = BoundaryData(rng.normal(size=n) + 1j * rng.normal(size=n))
    assert estimate_boundary_lipschitz(f) == _all_pairs_lipschitz(f)


def test_lipschitz_estimate_memory_is_bounded():
    rng = np.random.default_rng(0)
    f = BoundaryData(rng.normal(size=2048) + 1j * rng.normal(size=2048))
    tracemalloc.start()
    try:
        estimate_boundary_lipschitz(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_compute_ab_working_memory_is_bounded():
    f = BoundaryData.from_fourier([(1, 1.0), (3, 0.5j)], 512)
    g = SourceTerm([(0, 0, 4.0), (2, 1, 1.0 - 1j)])
    compute_ab(f, f, g)  # the rules' node caches are filled once per process
    tracemalloc.start()
    try:
        compute_ab(f, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# certified gradient bound


@pytest.mark.parametrize(
    "l,h,g,expected",
    [
        (1.0, 0.0, 0.0, 220.0 / 3.0),
        (0.0, 1.0, 0.0, 4.0),
        (0.0, 0.0, 3.0, 23.0),
        (1.0, 1.0, 1.0, 220.0 / 3.0 + 4.0 + 23.0 / 3.0),
    ],
)
def test_p_bound_values(l, h, g, expected):
    assert p_bound(l, h, g) == pytest.approx(expected, rel=1e-15)


def test_p_bound_rejects_negative_inputs():
    with pytest.raises(DomainError):
        p_bound(-1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        p_bound(0.0, 0.0, -0.5)


@given(l=st.floats(min_value=0, max_value=10), h=st.floats(min_value=0, max_value=10),
       g=st.floats(min_value=0, max_value=10))
def test_p_bound_is_monotone(l, h, g):
    base = p_bound(l, h, g)
    assert p_bound(l + 1, h, g) > base
    assert p_bound(l, h + 1, g) > base
    assert p_bound(l, h, g + 1) > base


# ---------------------------------------------------------------------------
# origin invariants A, B, Q


def test_ab_all_zero_for_radial_case():
    zero = BoundaryData.zero()
    ab = compute_ab(zero, zero, SourceTerm.constant(4.0))
    assert abs(ab.a_value) < 1e-20
    assert abs(ab.b_value) < 1e-20
    assert abs(ab.a_integral) < 1e-20


def test_ab_for_rotation_trace():
    # f = e^{i theta}: Phi_z(0) = 3/2 f_1 = 3/2, so A = 9/4 and B = 0.
    f = BoundaryData.from_fourier([(1, 1.0)])
    ab = compute_ab(f, BoundaryData.zero(), SourceTerm.zero())
    assert ab.a_value == pytest.approx(2.25, abs=1e-12)
    assert ab.b_value == pytest.approx(0.0, abs=1e-12)
    assert ab.q_value == pytest.approx(2.25, abs=1e-12)
    assert ab.a_integral == pytest.approx(2.25, abs=1e-12)
    assert ab.b_integral == pytest.approx(0.0, abs=1e-12)


def test_ab_routes_agree_with_green_term_present():
    # Load with a first harmonic so the Green term contributes to A.
    f = BoundaryData.from_fourier([(1, 0.3), (-1, 0.1j)])
    h = BoundaryData.from_fourier([(1, -0.2)])
    g = SourceTerm([(1, 0, 1.0), (0, 1, 0.5)])
    ab = compute_ab(f, h, g)
    assert ab.a_integral == pytest.approx(ab.a_value, abs=1e-10)
    assert ab.b_integral == pytest.approx(ab.b_value, abs=1e-10)
    # dropping the load must change the integral, or the Green term vanished
    no_load = compute_ab(f, h, SourceTerm.zero())
    assert abs(no_load.a_integral - ab.a_integral) > 1e-3


@pytest.mark.parametrize("n_f,n_h", [(1024, 1024), (512, 2048)])
def test_ab_integral_route_is_exact_beyond_512_samples(n_f, n_h):
    # modes -(N/2 - 1) and N/2 - 1 alias onto e^{+-i theta} on a 512-node
    # rule once N > 512; the integral route must not see them
    f = BoundaryData.from_fourier([(1, 1.0), (-(n_f // 2 - 1), 1.0)], n_f)
    h = BoundaryData.from_fourier([(-1, 0.5), (n_h // 2 - 1, 2.0)], n_h)
    ab = compute_ab(f, h, SourceTerm.zero())
    assert ab.a_integral == pytest.approx(ab.a_value, abs=1e-12)
    assert ab.b_integral == pytest.approx(ab.b_value, abs=1e-12)


def test_ab_matches_difference_quotient_at_origin():
    f = BoundaryData.from_fourier([(1, 0.5), (2, 0.25)])
    h = BoundaryData.constant(1.0)
    g = SourceTerm.monomial(1, 0, 2.0)
    ab = compute_ab(f, h, g)
    step = 1e-5
    fx = (solver.solve_point(f, h, g, step) - solver.solve_point(f, h, g, -step)) / (2 * step)
    fy = (solver.solve_point(f, h, g, 1j * step) - solver.solve_point(f, h, g, -1j * step)) / (2 * step)
    d_z = 0.5 * (fx - 1j * fy)
    d_zbar = 0.5 * (fx + 1j * fy)
    assert ab.a_value == pytest.approx(abs(d_z) ** 2, abs=1e-6)
    assert ab.b_value == pytest.approx(abs(d_zbar) ** 2, abs=1e-6)


# ---------------------------------------------------------------------------
# classification


def test_classify_rotation_case():
    report = classify(l_boundary=1.0, h_sup=0.0, g_sup=0.0, a_value=2.25, b_value=0.0)
    assert report.p_upper == pytest.approx(220.0 / 3.0)
    assert report.q_value == pytest.approx(2.25)
    assert report.lower_bound == pytest.approx(2.25 / (220.0 / 3.0) - 440.0 / 3.0)
    assert report.verdict == "lipschitz-only"
    assert report.g_sup_estimate == 0.0


def test_classify_pure_h_case():
    report = classify(l_boundary=0.0, h_sup=1.0, g_sup=0.0, a_value=0.0, b_value=0.0)
    assert report.p_upper == pytest.approx(4.0)
    assert report.lower_bound == pytest.approx(-8.0)
    assert report.verdict == "lipschitz-only"


def test_classify_reports_bi_lipschitz_when_quotient_dominates():
    report = classify(l_boundary=0.01, h_sup=0.0, g_sup=0.0, a_value=25.0, b_value=0.0)
    # q = 25 > 2 p^2 = 2 (2.2/3)^2
    assert report.verdict == "bi-lipschitz"
    assert report.lower_bound > 0.0


def test_classify_rejects_all_zero_data():
    with pytest.raises(DegenerateDataError):
        classify(l_boundary=0.0, h_sup=0.0, g_sup=0.0, a_value=0.0, b_value=0.0)


def test_classify_keeps_separate_g_estimate():
    report = classify(l_boundary=0.0, h_sup=0.0, g_sup=4.0, a_value=0.0, b_value=0.0,
                      g_sup_estimate=3.5)
    assert report.g_sup == 4.0
    assert report.g_sup_estimate == 3.5
    assert report.p_upper == pytest.approx(92.0 / 3.0)


def test_analyze_case_end_to_end():
    f = BoundaryData.from_fourier([(1, 1.0)])
    report, ab = lipschitz.analyze_case(f, BoundaryData.zero(), SourceTerm.zero())
    assert report.l_boundary == pytest.approx(1.0, abs=1e-10)
    assert report.a_value == pytest.approx(ab.a_value)
    assert report.q_value == pytest.approx(2.25, abs=1e-10)
    assert report.verdict == "lipschitz-only"


@pytest.mark.parametrize("f, h, g", [
    # P overflows: |g| = sqrt(2) 1e308
    (BoundaryData.zero(), BoundaryData.zero(), SourceTerm([(0, 0, 1e308 + 1e308j)])),
    # L overflows on the chord quotients: a 1e308 spike has a finite
    # spectrum, so BoundaryData accepts it (A overflows as well)
    (BoundaryData(np.r_[1e308, np.zeros(63)]), BoundaryData.zero(), SourceTerm.zero()),
    # A = |Phi_z(0)|^2 overflows as a float power
    (BoundaryData.from_fourier([(1, 1e200)]), BoundaryData.zero(), SourceTerm.zero()),
])
def test_analyze_case_refuses_non_finite_constants(f, h, g):
    with pytest.raises(DegenerateDataError, match="overflow"):
        lipschitz.analyze_case(f, h, g)


# ---------------------------------------------------------------------------
# empirical quotient


def test_quotient_of_constant_field_is_zero(reference_fields):
    q = empirical_quotient(reference_fields["constant"])
    assert q < 1e-12


def test_quotient_localizes_radial_maximum(dense_radial_field):
    # For Phi = (1 - r^2)^2 the sharpest radial quotient is the slope
    # max 4 r (1 - r^2) = 8 / (3 sqrt(3)) at r = 1/sqrt(3).
    q = empirical_quotient(dense_radial_field)
    target = 8.0 / (3.0 * np.sqrt(3.0))
    assert q == pytest.approx(target, abs=5e-3)
    assert q <= target + 1e-12


def test_quotient_never_exceeds_certified_bound(reference_cases, reference_fields):
    for name, case in reference_cases.items():
        if name == "constant":
            continue  # zero gradient bound is rejected by classify
        report, _ = lipschitz.analyze_case(case.f, case.h, case.g)
        q = empirical_quotient(reference_fields[name])
        assert q <= report.p_upper + 1e-9, name


def test_quotient_subsampling_is_seeded(dense_radial_field):
    a = empirical_quotient(dense_radial_field, max_pairs=5000, seed=7)
    b = empirical_quotient(dense_radial_field, max_pairs=5000, seed=7)
    assert a == b
    # the subsample quotient can only fall short of the true slope bound
    assert a <= 8.0 / (3.0 * np.sqrt(3.0)) + 1e-12


def test_quotient_refuses_non_finite_nodes(reference_fields):
    field = reference_fields["bump"]
    broken = solver.SolutionField(
        radii=field.radii,
        thetas=field.thetas,
        values=field.values.copy(),
        d_z=None,
        d_zbar=None,
        r_max=field.r_max,
    )
    broken.values[5, :] = np.nan
    with pytest.raises(DegenerateDataError):
        empirical_quotient(broken)


def test_quotient_degenerate_fields():
    lone = solver.SolutionField(
        radii=np.array([0.0]),
        thetas=np.array([0.0]),
        values=np.array([[1.0 + 0j]]),
        d_z=None, d_zbar=None, r_max=1.0,
    )
    with pytest.raises(DegenerateDataError):
        empirical_quotient(lone)
    coincident = solver.SolutionField(
        radii=np.array([0.0]),
        thetas=np.array([0.0, np.pi]),
        values=np.ones((1, 2), dtype=complex),
        d_z=None, d_zbar=None, r_max=1.0,
    )
    with pytest.raises(DegenerateDataError):
        empirical_quotient(coincident)


# ---------------------------------------------------------------------------
# decomposition of the gradient bound


def test_gradient_parts_respect_their_bounds(reference_cases):
    # Each part of the certified bound dominates the matching gradient part:
    # boundary part by (220/3) L + 4 sup|h|, Green part by (23/3) sup|g|.
    case = reference_cases["quartic"]
    l_est = estimate_boundary_lipschitz(case.f)
    h_sup = case.h.sup_norm()
    g_sup = case.g.sup_norm_bound()
    rs = np.array([0.0, 0.3, 0.6, 0.85])
    zs = (rs[:, None] * np.exp(1j * 2 * np.pi * np.arange(8) / 8)[None, :]).ravel()

    bz, bzb = solver.boundary_gradient(case.f, case.h, zs)
    boundary_stretch = np.abs(bz) + np.abs(bzb)
    assert np.max(boundary_stretch) <= (220.0 / 3.0) * l_est + 4.0 * h_sup + 1e-9

    gz, gzb = solver.green_gradient(case.g, zs)
    green_stretch = np.abs(gz) + np.abs(gzb)
    assert np.max(green_stretch) <= (23.0 / 3.0) * g_sup + 1e-9

    total = np.abs(bz + gz) + np.abs(bzb + gzb)
    assert np.max(total) <= p_bound(l_est, h_sup, g_sup) + 1e-9


def test_field_gradient_norm_bounded_by_p(reference_cases, reference_fields):
    for name, case in reference_cases.items():
        field = reference_fields[name]
        stretch = np.abs(field.d_z) + np.abs(field.d_zbar)
        cap = p_bound(
            estimate_boundary_lipschitz(case.f), case.h.sup_norm(), case.g.sup_norm_bound()
        )
        if cap == 0.0:
            assert np.max(stretch) < 1e-12
        else:
            assert np.max(stretch) <= cap + 1e-9, name


def test_q_value_consistent_with_gradient_stats(reference_cases):
    case = reference_cases["quartic"]
    ab = compute_ab(case.f, case.h, case.g)
    d_z, d_zbar = solver.gradient_point(case.f, case.h, case.g, 0j)
    p, q = abs(d_z), abs(d_zbar)
    assert ab.q_value == pytest.approx(p * p - q * q, abs=1e-12)
    assert ab.a_value <= (p + q) ** 2 + 1e-12
