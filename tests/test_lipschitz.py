"""Distortion constants: gradient bounds, origin invariants, quotients."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
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
from biharmonic_disk.quadrature import DEFAULT_RULES, disk_integrate_centered
from biharmonic_disk.solver import BoundaryData, SourceTerm

# ---------------------------------------------------------------------------
# boundary Lipschitz estimate


def test_lipschitz_of_constant_is_zero():
    assert estimate_boundary_lipschitz(BoundaryData.constant(5.0, 64)) == 0.0


def test_lipschitz_of_first_mode():
    f = BoundaryData.from_fourier([(1, 1.0)], 256)
    assert estimate_boundary_lipschitz(f) == pytest.approx(1.0, abs=1e-12)


@given(n=st.integers(min_value=2, max_value=1024), seed=st.integers(min_value=0, max_value=2**32),
       band=st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
def test_chord_and_sup_estimates_stay_below_the_spectral_sums(n, seed, band):
    """Chord quotient <= M(0) and sup|f| <= T(0) for the trigonometric interpolant.

    Each mode obeys |e^{imx} - e^{imy}| = 2 |sin(m (x - y) / 2)|
    <= |m| 2 |sin((x - y) / 2)| = |m| |e^{ix} - e^{iy}|, from
    |sin(m x)| <= |m| |sin x|; so every chord quotient is at most
    M(0) = sum |m| (|a_m| + |b_m|), and every value at most
    T(0) = sum (|a_m| + |b_m|). Both estimates are maxima of such
    quotients and values, so they stay below, up to round-off. Data: 2n
    samples of white noise (``band`` None) or of at most ``band`` modes.
    """
    rng = np.random.default_rng(seed)
    size = 2 * n
    if band is None:
        f = BoundaryData(rng.normal(size=size) + 1j * rng.normal(size=size))
    else:
        modes = rng.integers(-(size // 2) + 1, size // 2, band + 1)
        coeffs = rng.normal(size=band + 1) + 1j * rng.normal(size=band + 1)
        f = BoundaryData.from_fourier(zip(modes.tolist(), coeffs), size)
    assert estimate_boundary_lipschitz(f) <= f.moment[0] * (1.0 + 1e-12)
    assert f.sup_norm() <= f.tail[0] * (1.0 + 1e-12)


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
    # every chord pair at once: the O(N^2) reference for the offset walk. The
    # chord of nodes d places apart is 2 sin(pi min(d, N - d) / N), the
    # circle's own chord, not a difference of rounded nodes
    i, j = np.triu_indices(f.n, k=1)
    num = np.abs(f.samples[i] - f.samples[j])
    den = 2.0 * np.sin(np.pi * np.minimum(j - i, f.n - (j - i)) / f.n)
    return float(np.max(num / den))


# at 1,536 samples a block holds 10 of the 768 offsets: the last block is partial
@pytest.mark.parametrize("n", [8, 16, 512, 1024, 1536])
def test_lipschitz_estimate_equals_all_pairs_maximum(n):
    rng = np.random.default_rng(n)
    f = BoundaryData(rng.normal(size=n) + 1j * rng.normal(size=n))
    assert estimate_boundary_lipschitz(f) == _all_pairs_lipschitz(f)


def test_lipschitz_of_a_unit_spike_is_its_shortest_chords_reciprocal():
    # every gap is 1 and the shortest chord is 2 sin(pi / N); a chord taken
    # from the rounded nodes cancels and reads it 9e-14 off at N = 4,096
    n = 4096
    samples = np.zeros(n)
    samples[n // 3] = 1.0
    assert estimate_boundary_lipschitz(BoundaryData(samples)) == 1.0 / (2.0 * np.sin(np.pi / n))


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
    compute_ab(f, f, g)  # the solver's caches are filled once per process
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


def test_ab_routes_agree_on_a_load_of_degree_31():
    # the table's load rows and the closed-form Green terms at the largest
    # exponents a load may have
    zero = BoundaryData.zero()
    g = SourceTerm([(16, 15, 1.0), (15, 16, 1j), (1, 0, 0.5)])
    ab = compute_ab(zero, zero, g)
    assert ab.a_integral == pytest.approx(ab.a_value, rel=1e-12)
    assert ab.b_integral == pytest.approx(ab.b_value, rel=1e-12)


@pytest.mark.parametrize("n_f,n_h", [(1024, 1024), (512, 2048)])
def test_ab_integral_route_is_exact_beyond_512_samples(n_f, n_h):
    # modes -(N/2 - 1) and N/2 - 1 would alias onto e^{+-i theta} on a
    # 512-node circle rule once N > 512; the integral route reads modes +-1
    # off the whole spectrum and must not see them
    f = BoundaryData.from_fourier([(1, 1.0), (-(n_f // 2 - 1), 1.0)], n_f)
    h = BoundaryData.from_fourier([(-1, 0.5), (n_h // 2 - 1, 2.0)], n_h)
    ab = compute_ab(f, h, SourceTerm.zero())
    assert ab.a_integral == pytest.approx(ab.a_value, abs=1e-12)
    assert ab.b_integral == pytest.approx(ab.b_value, abs=1e-12)


def _origin_green_by_quadrature(g):
    # the disk integrals of conj(zeta) w g and zeta w g, w = log|zeta|^2 + 1 -
    # |zeta|^2, by the oracle's recentred rule (the route compute_ab replaced)
    def integrand(zeta):
        rho2 = zeta.real**2 + zeta.imag**2
        weight = (np.log(rho2) + 1.0 - rho2) * g.evaluate(zeta)
        return np.stack([np.conj(zeta) * weight, zeta * weight])

    return disk_integrate_centered(DEFAULT_RULES.disk, integrand, center=0j)


_GREEN_TERM = st.tuples(
    st.integers(0, 16), st.integers(-2, 2),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
).filter(lambda t: 0 <= t[0] - t[1] <= 16)


@given(st.lists(_GREEN_TERM, min_size=1, max_size=6))
@example(raw=[(1, 1, 2.225073858507203e-309)])
@example(raw=[(1, -1, 2.2250738585e-313)])
def test_origin_green_terms_match_the_quadrature_oracle(raw):
    # exponents up to 16 with a - b in -2..2: the terms a - b = +-1 survive,
    # the others must integrate to 0 on both routes
    g = SourceTerm([(a, a - d, c) for a, d, c in raw])
    exact = lipschitz._origin_green_terms(g)
    oracle = _origin_green_by_quadrature(g)
    scale = sum(abs(c) for _, _, c in g.terms)
    # Below the normal range rounding is absolute: a product or quotient is
    # off by at most eta / 2 (eta the smallest subnormal), a sum not at all.
    # Per node the quadrature takes two complex products per term of g (at
    # most 2 eta each), one real-by-complex product by the weight
    # w = log|zeta|^2 + 1 - |zeta|^2 (eta) and one by conj(zeta) or zeta
    # (2 eta), so a node is off by at most (4 T |w| + 3) eta for T terms. The
    # rule's weights sum to 1 and integrate |w| to 1/2: (2 T + 3) eta. The
    # row means divide once (eta), the radial dot product takes one product
    # per row (eta each), the exact route one quotient per term (eta) and the
    # gap's modulus rounds once more (eta): (rows + 3 T + 5) eta in all
    rows = DEFAULT_RULES.disk.centered_radial_nodes[0].size
    eta = np.finfo(float).smallest_subnormal
    allowed = 1e-14 * scale + (rows + 3 * len(g.terms) + 5) * eta
    assert np.max(np.abs(np.array(exact) - oracle)) <= allowed


@pytest.mark.parametrize("k", range(1, 17))
def test_origin_green_factor_is_correctly_rounded(k):
    # z^k zbar^(k-1) feeds A and z^(k-1) zbar^k feeds B, each with the
    # factor -1/((k+1)^2 (k+2)) to within one ulp of its exact value
    exact = float(Fraction(-1, (k + 1) ** 2 * (k + 2)))
    g_a, _ = lipschitz._origin_green_terms(SourceTerm.monomial(k, k - 1))
    _, g_b = lipschitz._origin_green_terms(SourceTerm.monomial(k - 1, k))
    for got in (g_a, g_b):
        assert got.imag == 0.0
        assert abs(got.real - exact) <= math.ulp(exact)


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
    report = classify(l_boundary=1.0, h_sup=0.0, g_sup=0.0, a_value=2.25, b_value=0.0,
                      g_sup_estimate=0.0)
    assert report.p_upper == pytest.approx(220.0 / 3.0)
    assert report.lower_bound == pytest.approx(2.25 / (220.0 / 3.0) - 440.0 / 3.0)
    assert report.verdict == "lipschitz-only"
    assert report.g_sup_estimate == 0.0


def test_classify_pure_h_case():
    report = classify(l_boundary=0.0, h_sup=1.0, g_sup=0.0, a_value=0.0, b_value=0.0,
                      g_sup_estimate=0.0)
    assert report.p_upper == pytest.approx(4.0)
    assert report.lower_bound == pytest.approx(-8.0)
    assert report.verdict == "lipschitz-only"


def test_classify_reports_bi_lipschitz_when_quotient_dominates():
    report = classify(l_boundary=0.01, h_sup=0.0, g_sup=0.0, a_value=25.0, b_value=0.0,
                      g_sup_estimate=0.0)
    # q = 25 > 2 p^2 = 2 (2.2/3)^2
    assert report.verdict == "bi-lipschitz"
    assert report.lower_bound > 0.0


def test_classify_rejects_all_zero_data():
    with pytest.raises(DegenerateDataError):
        classify(l_boundary=0.0, h_sup=0.0, g_sup=0.0, a_value=0.0, b_value=0.0,
                 g_sup_estimate=0.0)


def test_classify_keeps_separate_g_estimate():
    report = classify(l_boundary=0.0, h_sup=0.0, g_sup=4.0, a_value=0.0, b_value=0.0,
                      g_sup_estimate=3.5)
    assert report.g_sup == 4.0
    assert report.g_sup_estimate == 3.5
    assert report.p_upper == pytest.approx(92.0 / 3.0)


def test_reports_store_only_the_measured_constants():
    assert [f.name for f in dataclasses.fields(lipschitz.ABResult)] == [
        "a_value", "b_value", "a_integral", "b_integral"]
    assert [f.name for f in dataclasses.fields(lipschitz.LipschitzReport)] == [
        "l_boundary", "h_sup", "g_sup", "g_sup_estimate", "q_value"]
    assert isinstance(lipschitz.ABResult.q_value, property)
    for name in ("p_upper", "lower_bound", "verdict"):
        assert isinstance(getattr(lipschitz.LipschitzReport, name), property), name
    report = classify(l_boundary=1.0, h_sup=0.5, g_sup=0.25, a_value=3.0, b_value=1.0,
                      g_sup_estimate=0.2)
    assert report.q_value == 2.0
    assert report.p_upper == p_bound(1.0, 0.5, 0.25)
    assert report.lower_bound == 2.0 / report.p_upper - 2.0 * report.p_upper


# on the knife edge Q = nextafter(2 P^2, inf) the lower bound Q/P - 2P can
# round to 0 (or below) although Q > 2 P^2 holds in floating point: the
# verdict follows the lower bound, so the two never disagree
@example(l_boundary=4.85242455334192, h_sup=0.9807371998012386, g_sup=0.0)
@given(l_boundary=st.floats(min_value=1e-3, max_value=10.0),
       h_sup=st.floats(min_value=0.0, max_value=1.0),
       g_sup=st.floats(min_value=0.0, max_value=1.0))
def test_verdict_is_the_sign_of_the_lower_bound(l_boundary, h_sup, g_sup):
    p = p_bound(l_boundary, h_sup, g_sup)
    report = classify(l_boundary=l_boundary, h_sup=h_sup, g_sup=g_sup,
                      a_value=math.nextafter(2.0 * p * p, math.inf), b_value=0.0,
                      g_sup_estimate=g_sup)
    assert (report.verdict == "bi-lipschitz") == (report.lower_bound > 0.0)


def test_knife_edge_reads_lipschitz_only():
    report = classify(l_boundary=4.85242455334192, h_sup=0.9807371998012386, g_sup=0.0,
                      a_value=258865.18729435478, b_value=0.0, g_sup_estimate=0.0)
    assert report.lower_bound == 0.0
    assert report.verdict == "lipschitz-only"


def test_finite_p_whose_square_overflows_is_reported():
    # P = (23/3) 1e200: P^2 is past the double range, Q/P - 2P is not
    report = classify(l_boundary=0.0, h_sup=0.0, g_sup=1e200, a_value=0.0, b_value=0.0,
                      g_sup_estimate=1e200)
    assert report.lower_bound == -2.0 * report.p_upper
    assert report.verdict == "lipschitz-only"
    report, ab = lipschitz.analyze_case(solver.Case(
        BoundaryData.zero(), BoundaryData.zero(), SourceTerm([(0, 0, 1e200)])))
    assert report.p_upper == pytest.approx(23.0 / 3.0 * 1e200, rel=1e-15)
    assert math.isfinite(report.lower_bound) and report.lower_bound < 0.0
    assert report.verdict == "lipschitz-only"
    assert ab.q_value == 0.0


def test_analyze_case_end_to_end():
    f = BoundaryData.from_fourier([(1, 1.0)])
    report, ab = lipschitz.analyze_case(solver.Case(f, BoundaryData.zero(), SourceTerm.zero()))
    assert report.l_boundary == pytest.approx(1.0, abs=1e-10)
    assert ab.q_value == pytest.approx(2.25, abs=1e-10)
    # the verdict reads Q off the case's ABResult
    assert report.lower_bound == ab.q_value / report.p_upper - 2.0 * report.p_upper
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
        lipschitz.analyze_case(solver.Case(f, h, g))


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
        report, _ = lipschitz.analyze_case(case)
        q = empirical_quotient(reference_fields[name])
        assert q <= report.p_upper + 1e-9, name


def test_quotient_subsampling_is_seeded(dense_radial_field):
    a = empirical_quotient(dense_radial_field, max_pairs=5000, seed=7)
    b = empirical_quotient(dense_radial_field, max_pairs=5000, seed=7)
    assert a == b
    # the subsample quotient can only fall short of the true slope bound
    assert a <= 8.0 / (3.0 * np.sqrt(3.0)) + 1e-12


def _unblocked_quotient(field, max_pairs=100_000, seed=42):
    # every pair at once, as the quotient was computed before it walked blocks
    zs, vals = field.points.ravel(), field.values.ravel()
    n = zs.size
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
    gap = np.abs(zs[i] - zs[j])
    keep = gap > 1e-12
    return float(np.max(np.abs(vals[i][keep] - vals[j][keep]) / gap[keep]))


@pytest.mark.parametrize("grid, max_pairs", [
    ((40, 80, 0.95), 100_000),  # seeded draws, seven blocks
    ((20, 20, 0.9), 100_000),  # all 79,800 pairs, five blocks
    ((20, 20, 0.9), 1_000),  # one block
])
def test_quotient_blocks_equal_the_unblocked_maximum(grid, max_pairs):
    f = BoundaryData.from_fourier([(1, 1.0), (-2, 0.5j), (5, 0.1)])
    g = SourceTerm([(2, 1, 1.0), (0, 0, -0.5)])
    field = solver.solve_grid(f, f, g, *grid[:2], r_max=grid[2])
    for seed in (1, 42):
        assert empirical_quotient(field, max_pairs, seed) == \
            _unblocked_quotient(field, max_pairs, seed)


def test_quotient_memory_is_bounded():
    # the 40 x 80 grid of the lipschitz command: 100,000 seeded pairs
    f = BoundaryData.from_fourier([(1, 1.0), (3, 0.5j)])
    field = solver.solve_grid(f, f, SourceTerm.constant(4.0), 40, 80, r_max=0.95)
    empirical_quotient(field)
    tracemalloc.start()
    try:
        empirical_quotient(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


@pytest.mark.parametrize("n_r, n_theta", [
    (20, 20),  # all 79,800 pairs at the default max_pairs
    (40, 80),  # seeded draws
])
def test_quotient_refuses_negative_seed_and_no_pairs(n_r, n_theta):
    f = BoundaryData.from_fourier([(1, 1.0), (-2, 0.5j)])
    field = solver.solve_grid(f, f, SourceTerm.constant(4.0), n_r, n_theta, r_max=0.9)
    with pytest.raises(DomainError, match="seed"):
        empirical_quotient(field, seed=-1)
    with pytest.raises(DomainError, match="max_pairs"):
        empirical_quotient(field, max_pairs=0)
    # a float is refused with a typed error, not numpy's TypeError, even 2.0,
    # and a bool is not read as 1
    for kwargs in ({"seed": 1.5}, {"seed": 2.0}, {"max_pairs": 2.0}, {"max_pairs": 1e5},
                   {"seed": True}, {"max_pairs": True}):
        with pytest.raises(DomainError, match=f"{next(iter(kwargs))} must be an integer"):
            empirical_quotient(field, **kwargs)
    assert empirical_quotient(field, max_pairs=np.int64(1000), seed=np.uint8(7)) == \
        empirical_quotient(field, max_pairs=1000, seed=7)


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
    d_z, d_zbar = case.solution.gradient(0j)
    p, q = abs(d_z), abs(d_zbar)
    assert ab.q_value == pytest.approx(p * p - q * q, abs=1e-12)
    assert ab.a_value <= (p + q) ** 2 + 1e-12
