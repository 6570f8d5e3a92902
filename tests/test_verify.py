"""The check suites: identities, bounds, residuals, traces, crosschecks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biharmonic_disk import cli, lipschitz, quadrature, solver, verify
from biharmonic_disk.errors import DegenerateDataError, DomainError
from biharmonic_disk.solver import BoundaryData, SourceTerm
from biharmonic_disk.verify import CheckResult, manufactured_case


# ---------------------------------------------------------------------------
# CheckResult semantics


def test_equality_check_pass_and_margin():
    c = CheckResult.equality("x", 1.0 + 1e-12, 1.0, 1e-10)
    assert c.passed
    assert c.kind == "equality"
    assert c.margin == pytest.approx(1e-10 - 1e-12)


def test_equality_check_failure():
    c = CheckResult.equality("x", 2.0, 1.0, 1e-10)
    assert not c.passed
    assert c.margin < 0.0


def test_bound_check_uses_real_part():
    c = CheckResult.bound("m", 0.4 + 0j, 0.5, 0.0)
    assert c.passed
    assert c.margin == pytest.approx(0.1)
    assert not CheckResult.bound("m", 0.6, 0.5, 1e-6).passed


def test_as_dict_formats_complex_values():
    real = CheckResult.equality("r", 1.0, 1.0, 1e-9).as_dict()
    assert real["computed"] == 1.0
    cplx = CheckResult.equality("c", 1.0 + 2.0j, 0.0, 1e9).as_dict()
    assert cplx["computed"] == [1.0, 2.0]
    assert set(real) == {"name", "kind", "computed", "expected", "tolerance", "margin", "passed"}


def test_check_results_hold_what_was_measured_and_derive_the_verdict():
    c = CheckResult.bound("m", 0.4, 0.5, 0.0)
    assert [f.name for f in dataclasses.fields(c)] == [
        "name", "computed", "expected", "tolerance", "kind"]
    assert type(c.passed) is bool and type(c.margin) is float


def test_check_result_edge_cases():
    nan, inf = float("nan"), float("inf")
    assert not CheckResult.equality("x", nan, 0.0, 1.0).passed
    assert not CheckResult.bound("x", nan, 0.5, 1.0).passed
    finite = CheckResult.equality("x", 1e300, 0.0, inf)
    assert finite.passed and finite.margin == inf
    # |inf - 0| <= inf: the gap is compared, not the margin inf - inf = nan
    infinite = CheckResult.equality("x", inf, 0.0, inf)
    assert infinite.passed and math.isnan(infinite.margin)
    edge = CheckResult.bound("x", 0.75, 0.5, 0.25)
    assert edge.passed and edge.margin == 0.0
    with pytest.raises(TypeError):
        CheckResult.bound("x", 0.1, 0.5 + 1j, 1e-6)


# ---------------------------------------------------------------------------
# manufactured cases


def test_manufactured_pure_load():
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (1, 1, -2.0), (2, 2, 1.0)]))
    assert np.allclose(case.f.samples, 0.0)
    assert np.allclose(case.h.samples, 0.0)
    assert case.g.terms == ((0, 0, 4.0),)


def test_manufactured_flat_case():
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (2, 2, -1.0)]))
    assert np.allclose(case.f.samples, 0.0)
    assert np.allclose(case.h.samples, 4.0)
    assert case.g.terms == ((0, 0, -4.0),)


def test_manufactured_quartic_case():
    case = manufactured_case(SourceTerm.monomial(2, 2))
    assert np.allclose(case.f.samples, 1.0)
    assert np.allclose(case.h.samples, -4.0)
    assert case.g.terms == ((0, 0, 4.0),)


def test_manufactured_rotational_mode():
    # z^3 conj(z): trace e^{2 i theta}, normal derivative -4 e^{2 i theta}.
    case = manufactured_case(SourceTerm.monomial(3, 1))
    th = 2 * np.pi * np.arange(case.f.n) / case.f.n
    assert np.allclose(case.f.samples, np.exp(2j * th), atol=1e-12)
    assert np.allclose(case.h.samples, -4.0 * np.exp(2j * th), atol=1e-12)
    assert case.g.is_zero  # z^3 conj(z) is biharmonic


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_all_pass():
    checks = verify.identity_suite()
    assert len(checks) == 45
    failures = [c.name for c in checks if not c.passed]
    assert failures == []


def test_identity_suite_contains_weighted_log_value():
    checks = {c.name: c for c in verify.identity_suite()}
    # at |z| = 0.5 the weighted log mass is (1 - 0.5^4)/4 = 0.234375
    c = checks["weighted-log-mass[z=0.3536+0.3536j]"]
    assert c.computed.real == pytest.approx(0.234375, abs=1e-8)
    assert c.expected.real == pytest.approx(0.234375)


def test_identity_suite_negative_control():
    # A trace kernel offset by +0.01 shifts every mean off 1 and must fail.
    from biharmonic_disk import kernels

    checks = verify.identity_suite(trace_kernel=lambda z: kernels.f0_eval(z) + 0.01)
    mean_checks = [c for c in checks if c.name.startswith("trace-kernel-mean")]
    assert len(mean_checks) == 5
    assert all(not c.passed for c in mean_checks)
    others = [c for c in checks if not c.name.startswith("trace-kernel-mean")]
    assert all(c.passed for c in others)


# ---------------------------------------------------------------------------
# bound suite


def test_bound_suite_all_pass_with_positive_margins():
    checks = verify.bound_suite()
    assert len(checks) == 40
    for c in checks:
        assert c.kind == "bound"
        assert c.passed, c.name
        assert c.margin > 0.0, c.name


def test_bound_suite_j3_value():
    checks = {c.name: c for c in verify.bound_suite()}
    # j3 = |z| int (1 - |zeta|^2) dA = |z| / 2
    assert checks["j3[z=0.3536+0.3536j]"].computed.real == pytest.approx(0.25, abs=1e-10)
    assert checks["j3[z=0.9]"].computed.real == pytest.approx(0.45, abs=1e-10)


def test_bound_suite_green_mass_grows_toward_center():
    checks = {c.name: c for c in verify.bound_suite()}
    near_center = checks["green-abs-mass[z=0]"].computed.real
    near_edge = checks["green-abs-mass[z=0.9]"].computed.real
    assert near_center > near_edge
    assert near_center <= 0.75


def test_abs_masses_at_origin_match_closed_forms():
    # at z = 0 every kernel is radial, and its mass is a one-dimensional
    # integral in closed form: |G| 1/4, |G_z| 8/45, |H2| 1/2, |H3| 16/15.
    # Each |K| is at most 1/|zeta| near 0, so the rule's radial panels,
    # which start at _GEO_START, skip at most 2 _GEO_START of its mass
    # (|H3| = (1 - r^2)^2 / r skips just that)
    masses = {name: mass for name, mass, _ in verify._recentred_masses(0j)[0]}
    expected = {"green-abs-mass": 1 / 4, "green-grad-abs-mass": 8 / 45,
                "h2-abs-mass": 1 / 2, "h3-abs-mass": 16 / 15}
    assert masses.keys() == expected.keys()
    for name, value in expected.items():
        assert abs(masses[name] - value) <= 1e-12 + 2 * quadrature._GEO_START, name


def test_oracle_suite_is_identities_then_bounds():
    oracle = verify.oracle_suite()
    assert len(oracle) == 85
    assert oracle == verify.identity_suite() + verify.bound_suite()


# |z| that scripts/bound_margins.py sweeps: its default radii and the CI smoke run's
_MARGIN_RADII = (0.0, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9)


def _disk_nodes(n, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0.0, 0.999, n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def _mirror_image(z, zeta):
    # reflection across the line through 0 and z; the real axis for z = 0
    u = z / abs(z) if z else 1.0
    return u * u * np.conj(zeta)


@pytest.mark.parametrize(
    "z", list(dict.fromkeys([*verify.SAMPLE_POINTS, *map(complex, _MARGIN_RADII)])),
    ids=verify._zkey)
def test_folded_integrands_are_mirror_symmetric(z):
    # the oracle folds every disk integral at z across the line through 0 and
    # z; that is exact only if each integrand takes equal values at mirror nodes
    zeta = _disk_nodes(4000, seed=11)
    here = verify._oracle_integrands(z, zeta)
    there = verify._oracle_integrands(z, _mirror_image(z, zeta))
    assert here.shape == (9, 4000)
    np.testing.assert_allclose(there, here, rtol=1e-12, atol=1e-14)


def test_oracle_makes_one_recentred_pass_per_sample_point(monkeypatch):
    # 6 calls: the j3 area, then one pass per sample point; a second pass
    # over the same nodes would show here
    calls = []
    integrate = quadrature.disk_integrate_centered

    def counted(*args, **kwargs):
        calls.append(kwargs["center"])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "disk_integrate_centered", counted)
    verify.oracle_suite()
    assert calls == [0j, *verify.SAMPLE_POINTS]


@pytest.mark.parametrize("suite", [verify.identity_suite, verify.bound_suite, verify.oracle_suite])
def test_suite_working_memory_is_bounded(suite):
    suite()  # the rules' node caches are filled once per process
    tracemalloc.start()
    try:
        suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# finite-difference residual


def test_fd_residual_quartic_is_tiny(reference_cases):
    res = verify.fd_bilaplacian_residual(reference_cases["bump"], 0.02, extent=0.5)
    assert res.passed
    assert res.computed.real < 1e-6


def test_fd_residual_zero_case():
    case = manufactured_case(SourceTerm.zero())
    res = verify.fd_bilaplacian_residual(case, 0.05, extent=0.3)
    assert res.computed.real == 0.0


def test_fd_residual_name_carries_spacing(reference_cases):
    res = verify.fd_bilaplacian_residual(reference_cases["quartic"], 0.025, extent=0.5)
    assert res.name == "fd-bilaplacian-residual[h=0.025]"
    assert res.passed


def _truncation_bound(case, h, extent):
    """(h^2/24) sum |c[d, l]| (n)_6 R^(n-6), n = |d| + 2l, entry by entry."""
    c = case.solution.coefficients()
    total = 0.0
    for (row, level), coef in np.ndenumerate(c):
        n = min(row, c.shape[0] - row) + 2 * level
        if n >= 6:
            total += abs(coef) * math.perm(n, 6) * extent ** (n - 6)
    return h * h / 24.0 * total


def test_fd_residual_passes_the_manufactured_sextic():
    # |z|^6: the truncation error is O(h^2) and far above the round-off allowance
    case = manufactured_case(SourceTerm.monomial(3, 3))
    res = verify.fd_bilaplacian_residual(case, 0.02)
    bound = _truncation_bound(case, 0.02, 0.8)
    assert res.passed
    assert res.computed.real > 1e-6
    # the round-off allowance scales with S = |f_0| + |h_0| + |g| = 1 + 6 + 36
    assert res.tolerance == pytest.approx(43e-6 + bound, rel=1e-12)
    assert bound == pytest.approx(0.02**2 / 24.0 * 720.0, rel=1e-12)


_LOW = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.integers(-18, 18), _LOW), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(-18, 18), _LOW), max_size=2),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), _LOW), max_size=3))
def test_fd_residual_stays_within_its_truncation_bound(f_modes, h_modes, terms):
    # tables up to degree 20: f and h modes |m| <= 18 (the s row adds 2),
    # loads of degree <= 16 (the Green rows add 4)
    case = solver.Case(BoundaryData.from_fourier(f_modes, 64),
                       BoundaryData.from_fourier(h_modes, 64), SourceTerm(terms))
    res = verify.fd_bilaplacian_residual(case, 0.02)
    bound = _truncation_bound(case, 0.02, 0.8)
    assert res.tolerance == pytest.approx(1e-6 * verify._data_scale(case) + bound, rel=1e-12)
    assert res.computed.real <= 1e-6 + bound
    assert res.passed


def test_fd_residual_argument_validation(reference_cases):
    case = reference_cases["bump"]
    with pytest.raises(DomainError):
        verify.fd_bilaplacian_residual(case, 0.2)
    with pytest.raises(DomainError):
        verify.fd_bilaplacian_residual(case, 0.0)
    with pytest.raises(DomainError):
        verify.fd_bilaplacian_residual(case, 0.02, extent=0.95)
    with pytest.raises(DomainError):
        verify.fd_bilaplacian_residual(case, 0.05, extent=0.05)
    for extent in (np.nan, -np.inf):
        with pytest.raises(DomainError):
            verify.fd_bilaplacian_residual(case, 0.02, extent=extent)
    with pytest.raises(DomainError):
        verify.fd_bilaplacian_residual(case, np.nan)


# the checks of the verify command, at its settings
_VERIFY_CHECKS = {
    "fd-residual": lambda case: [verify.fd_bilaplacian_residual(case, cli._FD_SPACING)],
    "uniqueness": verify.uniqueness_checks,
    "boundary-trace": verify.boundary_trace_check,
    "gradient-crosscheck": lambda case: verify.gradient_crosscheck(case, cli._CROSSCHECK_POINTS),
}


@pytest.mark.parametrize("check", sorted(_VERIFY_CHECKS))
@pytest.mark.parametrize("f_modes, h_modes, terms, refused", [
    # sum |g_k| overflows, and so would every allowance scaled by it
    ([], [], [(2, 2, 1e308), (3, 3, 1e308)], True),
    # |c| (n)_6 R^(n-6) overflows, though the FD truncation bound itself is finite
    ([(10, 1e304)], [], [], False),
    # the FD residual overflows inside the disk, and so does sum |f_m| + sum |h_m|
    ([(0, 1e308)], [(0, 1e308)], [], True),
    # a finite coefficient whose modulus lies past the double range
    ([], [], [(0, 0, 1.5e308 + 1.5e308j)], True),
], ids=["load-1e308", "mode-10-1e304", "constants-1e308", "load-modulus-past-range"])
def test_checks_near_the_double_range_are_finite_or_refused(check, f_modes, h_modes, terms,
                                                            refused):
    # no check passes on an infinite allowance, and no overflow warns
    case = solver.Case(BoundaryData.from_fourier(f_modes), BoundaryData.from_fourier(h_modes),
                       SourceTerm(terms))
    if refused:
        with pytest.raises(DegenerateDataError, match="overflows double precision"):
            _VERIFY_CHECKS[check](case)
        return
    checks = _VERIFY_CHECKS[check](case)
    assert all(np.isfinite(c.tolerance) for c in checks)
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# exact checks: the uniqueness certificate and the circle checks

_EXACT = ("trace-modes-exact", "normal-modes-exact", "bilaplacian-exact",
          "trace-exact[r=1]", "normal-trace-exact[r=1]")


def _exact_checks(case):
    return {c.name: c for c in verify.uniqueness_checks(case) + verify.boundary_trace_check(case)}


def _failed(checks):
    return {name for name, c in checks.items() if not c.passed}


def test_trace_recovery_constant_case(reference_cases):
    checks = _exact_checks(reference_cases["constant"])
    assert tuple(checks) == _EXACT
    # constant trace is recovered to roundoff
    assert all(c.passed and c.computed.real < 1e-15 for c in checks.values())


def test_trace_recovery_pure_h_case():
    # phi = 1 - |z|^2: f = 0, h = 2, g = 0, so the table is 1 - t exactly
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (1, 1, -1.0)]))
    coef = case.solution.coefficients()
    expected = np.zeros_like(coef)
    expected[0, :2] = 1.0, -1.0
    np.testing.assert_array_equal(coef, expected)
    assert _failed(_exact_checks(case)) == set()


def test_trace_recovery_flat_case(reference_cases):
    checks = _exact_checks(reference_cases["flat"])
    assert _failed(checks) == set(), [(c.name, c.computed, c.tolerance) for c in checks.values()]


def test_exact_tolerance_scales_with_the_data():
    # S = sum (1 + |m|)|f_m| + sum |h_m| + sum |g_k| = 3 * 3 + 4 + (3 + 4)
    case = solver.Case(BoundaryData.from_fourier([(-2, 3.0)], 8),
                       BoundaryData.constant(4.0, 16), SourceTerm([(1, 0, 3.0), (2, 5, 4j)]))
    zero = solver.Case(BoundaryData.zero(4), BoundaryData.zero(4), SourceTerm.zero())
    # mode 5000 lies below the cut's floor u ||f.samples||_1 = 1.8e-12, so
    # the table drops it and the trace checks see it whole: S = 1 + 5001 |f_5000|.
    # On the circle a dropped f mode moves the trace by its |f_m| and leaves
    # the normal derivative alone, so the traces allow T_f(w) = |f_5000| and
    # the normal derivatives nothing on top of 1e-12 S
    sub_floor = solver.Case(BoundaryData.from_fourier([(0, 1.0), (5000, 1.5e-12)], 16384),
                            BoundaryData.zero(4), SourceTerm.zero())
    assert sub_floor.solution.trace_tail == pytest.approx(1.5e-12, rel=1e-6)
    assert sub_floor.solution.normal_tail == 0.0
    assert _exact_checks(sub_floor)["trace-modes-exact"].computed.real > 1.2e-12
    for data, tolerance in ((case, 20e-12), (zero, 1e-12), (sub_floor, 1e-12 + 5001 * 1.5e-24)):
        checks = _exact_checks(data)
        assert _failed(checks) == set()
        # on top, what the cut to the data's bandwidth can move on the
        # circle: T_f(w) for the traces, T_h(w) for the normal derivatives
        tails = {"trace": data.solution.trace_tail, "normal": data.solution.normal_tail,
                 "bilaplacian": 0.0}
        for name, c in checks.items():
            assert c.tolerance == pytest.approx(tolerance + tails[name.split("-")[0]], rel=1e-14)


# sample counts of f and h, and the nodes each count sends through the point
# route (every ceil(N / 64)-th), one call per count, in increasing count
@pytest.mark.parametrize("n_f, n_h, points", [
    (4, 4, [4]), (130, 64, [64, 44]), (512, 32768, [64, 64])])
def test_circle_checks_run_at_most_64_nodes_through_the_point_route(monkeypatch, n_f, n_h,
                                                                    points):
    # every node goes through the ring route, and a fixed subsample of at
    # most 64 through the point route, which is O(N W)
    rng = np.random.default_rng(n_h)
    case = solver.Case(*(BoundaryData(rng.normal(size=n) + 1j * rng.normal(size=n))
                         for n in (n_f, n_h)), SourceTerm([(2, 1, 1.0)]))
    sizes, evaluate = [], solver.Solution._evaluate

    def counted(self, zs, gradient):
        sizes.append(np.size(zs))
        return evaluate(self, zs, gradient)

    monkeypatch.setattr(solver.Solution, "_evaluate", counted)
    assert _failed({c.name: c for c in verify.boundary_trace_check(case)}) == set()
    assert sizes == points


def test_exact_circle_checks_hold_on_a_high_degree_case():
    case = manufactured_case(SourceTerm([
        (16, 0, 1.0), (3, 11, 0.5j), (9, 9, -0.25), (0, 0, 1.0)]))
    checks = _exact_checks(case)
    assert _failed(checks) == set(), [(c.name, c.computed) for c in checks.values()]


_COEF = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
_MODES = st.lists(st.tuples(st.integers(-100, 100), _COEF), max_size=6)
_TERMS = st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16), _COEF), max_size=5)


@st.composite
def _problem_data(draw):
    """(case, D): random data of one of three kinds and its degree D.

    Fourier data of up to 6 modes |m| <= 100 each for f and h, or
    white-noise 512-sample f and h, with up to 5 load terms; or the data of
    a manufactured solution. h and g are scaled up to 1e6 and 1e8. D is the
    largest |mode| of f and h and exponent of g or Phi*.
    """
    kind = draw(st.sampled_from(["fourier", "noise", "manufactured"]))
    terms = draw(_TERMS)
    degree = max((max(a, b) for a, b, _ in terms), default=0)
    if kind == "manufactured":
        return manufactured_case(SourceTerm(terms)), degree
    h_scale = draw(st.sampled_from([1.0, 1e6]))
    g_scale = draw(st.sampled_from([1.0, 1e4, 1e8]))
    g = SourceTerm((a, b, g_scale * c) for a, b, c in terms)
    if kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        f, h = rng.normal(size=(2, 512)) + 1j * rng.normal(size=(2, 512))
        return solver.Case(BoundaryData(f), BoundaryData(h_scale * h), g), 256
    n = draw(st.sampled_from([256, 512]))
    f_modes, h_modes = draw(_MODES), draw(_MODES)
    f = BoundaryData.from_fourier(f_modes, n)
    h = BoundaryData.from_fourier([(m, h_scale * c) for m, c in h_modes], n)
    return solver.Case(f, h, g), max([degree] + [abs(m) for m, _ in f_modes + h_modes])


@given(_problem_data())
def test_exact_checks_hold_on_random_data(data):
    # The normal checks cancel terms of size ~|m|^2 |f_m| against S's
    # (1 + |m|)|f_m|, and the bilaplacian ones terms of size ~k |g_k| for a
    # load of degree k, so round-off grows like eps D S. Measured on 3,000
    # examples: at most eps (1 + D) S.
    case, degree = data
    for name, c in _exact_checks(case).items():
        scale = c.tolerance / 1e-12
        assert c.passed, name
        assert c.computed.real <= 4 * np.finfo(float).eps * (1 + degree) * scale, (
            name, c.computed.real / scale)


def _patch_rows(monkeypatch, name, scale_rows):
    """Replace solver.<name> by the original with its (alpha, beta) rescaled."""
    original = getattr(solver, name)

    def patched(*args):
        rows = original(*args)
        if rows is None:
            return None
        load, alpha, beta = rows
        return load, scale_rows(alpha), scale_rows(beta)

    monkeypatch.setattr(solver, name, patched)


def test_exact_normal_trace_catches_a_relative_error_of_1e_6(monkeypatch):
    # Scaling the s^1 row by 1 + 1e-6 leaves the trace exact (s = 0 on the
    # circle) but moves the normal derivative on the circle by ~1e-6.
    _patch_rows(monkeypatch, "_boundary_rows", lambda c: c * np.array([1.0, 1.0 + 1e-6]))
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (2, 2, -1.0)]))  # h = 4
    assert _failed(_exact_checks(case)) == {"normal-modes-exact", "normal-trace-exact[r=1]"}


@pytest.mark.parametrize("datum, n, mode", [("h", 4096, 2041), ("f", 32768, 16000)])
def test_high_mode_allowances_still_catch_a_relative_error_of_1e_6(monkeypatch, datum, n, mode):
    # the normal trace's allowance grows with the modes (m^2 / 2 per unit
    # of f's, 1e-12 m of h's), yet stays far below a 1e-6 error in the s^1 row
    _patch_rows(monkeypatch, "_boundary_rows", lambda c: c * np.array([1.0, 1.0 + 1e-6]))
    data = {datum: BoundaryData.from_fourier([(mode, 1.0)], n)}
    case = solver.Case(data.get("f", BoundaryData.zero(n)), data.get("h", BoundaryData.zero(n)),
                       SourceTerm.zero())
    assert _failed(_exact_checks(case)) == {"normal-modes-exact", "normal-trace-exact[r=1]"}


def test_normal_checks_do_not_allow_the_dropped_trace_modes(monkeypatch):
    # f's mode 5000 (1.5e-12) lies below the cut, so the table drops it. A
    # dropped f mode moves the trace on the circle but not the normal
    # derivative, so the normal checks allow only T_h(w) = 0 on top of
    # 1e-12 S: a shift of 1e-10 in the s^1 row, which leaves the trace alone
    # (s = 0 on the circle), must fail them. The closed-disk gradient tail,
    # 1.5 * 5000 * 1.5e-12 = 1.1e-8, would let it pass.
    _patch_rows(monkeypatch, "_boundary_rows", lambda c: c + np.array([0.0, 1e-10]))
    case = solver.Case(BoundaryData.from_fourier([(0, 1.0), (5000, 1.5e-12)], 16384),
                       BoundaryData.constant(1.0, 16), SourceTerm.zero())
    assert case.solution.gradient_tail > 1e-8
    assert _failed(_exact_checks(case)) == {"normal-modes-exact", "normal-trace-exact[r=1]"}


def test_exact_bilaplacian_catches_a_scaled_green_row(monkeypatch):
    # Green rows carry s^2, so they vanish with their normal derivative on
    # the circle: only the bilaplacian sees a 1e-6 error in one of them.
    def skew(c):
        c = c.copy()
        c[:, 1] *= 1.0 + 1e-6
        return c

    _patch_rows(monkeypatch, "_load_rows", skew)
    case = manufactured_case(SourceTerm([(3, 3, 1.0), (4, 2, 0.5j)]))
    assert _failed(_exact_checks(case)) == {"bilaplacian-exact"}


def test_exact_trace_catches_an_unsplit_nyquist_mode(monkeypatch):
    # The table must carry half the Nyquist coefficient at each of z^(N/2)
    # and zbar^(N/2); dropping the halving doubles the cosine on the circle.
    def unsplit(c):
        c = c.copy()
        c[-1] *= 2.0
        return c

    _patch_rows(monkeypatch, "_boundary_rows", unsplit)
    case = solver.Case(BoundaryData([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
                       BoundaryData.zero(8), SourceTerm.zero())
    assert {"trace-modes-exact", "trace-exact[r=1]"} <= _failed(_exact_checks(case))


def _scaled_case(f_modes, h_modes, terms, scale):
    return solver.Case(BoundaryData.from_fourier([(m, scale * c) for m, c in f_modes]),
                       BoundaryData.from_fourier([(m, scale * c) for m, c in h_modes]),
                       SourceTerm((a, b, scale * c) for a, b, c in terms))


@pytest.mark.parametrize("k", range(13))
def test_scaled_allowances_still_catch_a_relative_error_of_1e_4(monkeypatch, k):
    # The FD residual and the crosschecks allow round-off in proportion to
    # max(1, S), so correct data passes at any scale (tests/test_cli.py);
    # a table off by 1e-4 must fail them at every scale all the same.
    scale = 10.0**k
    mixed = _scaled_case([(0, 1.0)], [(0, -4.0)], [(0, 0, 4.0)], scale)  # |z|^4
    rotation = _scaled_case([(1, 1.0)], [], [], scale)
    deriv = solver._deriv
    _patch_rows(monkeypatch, "_load_rows", lambda c: c * (1.0 + 1e-4))
    monkeypatch.setattr(solver, "_deriv", lambda c: deriv(c) * (1.0 + 1e-4))
    assert not verify.fd_bilaplacian_residual(mixed, 0.02).passed
    crosschecks = verify.gradient_crosscheck(rotation, [0.3 + 0.2j, -0.4 + 0j, 0.5j])
    assert not any(c.passed for c in crosschecks)


def test_cases_assemble_their_table_once():
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (3, 1, 0.5)]))
    assert isinstance(case, solver.Case)
    assert case.solution is case.solution
    np.testing.assert_array_equal(
        case.solution.coefficients(), solver.Solution(case.f, case.h, case.g).coefficients())


def test_checks_take_the_spectrum_from_the_data(monkeypatch):
    # every datum runs its one FFT when it is built; no check runs another
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (2, 2, -1.0), (2, 1, 0.5)]))
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(1) or fft(*args, **kw))
    verify.fd_bilaplacian_residual(case, 0.02)
    verify.uniqueness_checks(case)
    verify.boundary_trace_check(case)
    verify.gradient_crosscheck(case, [0.3 + 0.2j, -0.4 + 0j])
    lipschitz.analyze_case(case)
    assert calls == []


# ---------------------------------------------------------------------------
# gradient crosscheck


def test_gradient_crosscheck_bump(reference_cases):
    checks = verify.gradient_crosscheck(reference_cases["bump"], [0.3 + 0.2j, -0.4 + 0j, 0.5j])
    assert len(checks) == 3
    for c in checks:
        assert c.passed
        assert c.computed.real < 1e-7


def test_gradient_crosscheck_batch_matches_a_point_loop():
    case = manufactured_case(SourceTerm([(5, 2, 1.0), (0, 3, 0.5j), (1, 1, -2.0)]))
    points = [0.3 + 0.2j, -0.4 + 0j, 0.5j, 0.1 - 0.7j]
    batched = [c.computed.real for c in verify.gradient_crosscheck(case, points)]
    for z, gap in zip(points, batched):
        d_z, d_zbar = case.solution.gradient(z)
        ve = case.solution.values(z + verify._GRAD_STEP * np.array([1.0, -1.0, 1j, -1j]))
        ux = (ve[0] - ve[1]) / (2.0 * verify._GRAD_STEP)
        uy = (ve[2] - ve[3]) / (2.0 * verify._GRAD_STEP)
        looped = max(abs(d_z - (ux - 1j * uy) / 2.0), abs(d_zbar - (ux + 1j * uy) / 2.0))
        # a gap is a difference of gradient-sized numbers, and a matmul over
        # more points may round them by an ulp: compare at the gradients' scale
        assert abs(gap - looped) <= 4 * np.finfo(float).eps * max(abs(d_z), abs(d_zbar))


def test_gradient_crosscheck_quartic(reference_cases):
    checks = verify.gradient_crosscheck(reference_cases["quartic"], [0.5 + 0j])
    assert checks[0].passed


def test_gradient_crosscheck_rejects_outer_points(reference_cases):
    with pytest.raises(DomainError):
        verify.gradient_crosscheck(reference_cases["bump"], [0.95 + 0j])


def test_sample_point_sets():
    assert len(verify.SAMPLE_POINTS) == 5
    assert len(verify.SAMPLE_RADII) == 5
    assert verify.SAMPLE_POINTS[0] == 0j
    assert all(abs(z) <= 0.9 for z in verify.SAMPLE_POINTS)
