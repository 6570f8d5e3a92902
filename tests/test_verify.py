"""The check suites: identities, bounds, residuals, traces, crosschecks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biharmonic_disk import green, lipschitz, solver, verify
from biharmonic_disk.errors import DomainError
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
    def integrands(zeta):
        parts = green.KernelParts(z, zeta)
        masses = [np.abs(kernel(parts)) for _, kernel, _ in verify._ABS_MASS_BOUNDS]
        return np.concatenate([masses, verify._log_integrands(z, zeta)])

    zeta = _disk_nodes(4000, seed=11)
    here, there = integrands(zeta), integrands(_mirror_image(z, zeta))
    assert here.shape == (9, 4000)
    np.testing.assert_allclose(there, here, rtol=1e-12, atol=1e-14)


def test_origin_green_integrand_is_not_mirror_symmetric(monkeypatch):
    # compute_ab's Green terms integrate conj(zeta) w(zeta) g(zeta), which the
    # reflection zeta -> conj(zeta) does not preserve for a generic load, so
    # that pass must not fold
    seen = {}

    def capture(rule, integrand, center, mirror=None):
        seen.update(integrand=integrand, center=center, mirror=mirror)
        return np.zeros(2, dtype=complex)

    monkeypatch.setattr(lipschitz, "disk_integrate_centered", capture)
    lipschitz._origin_green_terms(SourceTerm([(0, 0, 0.5), (2, 1, 1.0 - 1j)]))
    assert seen["center"] == 0 and seen["mirror"] is None
    zeta = _disk_nodes(4000, seed=11)
    here, there = seen["integrand"](zeta), seen["integrand"](np.conj(zeta))
    assert np.max(np.abs(there - here)) > 0.1 * np.max(np.abs(here))


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
    coef = solver.table_coefficients(case.f, case.h, case.g)
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
    for data, tolerance in ((case, 20e-12), (zero, 1e-12)):
        checks = _exact_checks(data)
        assert _failed(checks) == set()
        for c in checks.values():
            assert c.tolerance == pytest.approx(tolerance, rel=1e-14)


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
        p, j, alpha, beta = rows
        return p, j, scale_rows(alpha), scale_rows(beta)

    monkeypatch.setattr(solver, name, patched)


def test_exact_normal_trace_catches_a_relative_error_of_1e_6(monkeypatch):
    # Scaling the s^1 row by 1 + 1e-6 leaves the trace exact (s = 0 on the
    # circle) but moves the normal derivative on the circle by ~1e-6.
    _patch_rows(monkeypatch, "_boundary_rows", lambda c: c * np.array([1.0, 1.0 + 1e-6]))
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (2, 2, -1.0)]))  # h = 4
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
    lipschitz.analyze_case(case.f, case.h, case.g)
    assert calls == []


# ---------------------------------------------------------------------------
# gradient crosscheck


def test_gradient_crosscheck_bump(reference_cases):
    checks = verify.gradient_crosscheck(
        reference_cases["bump"], [0.3 + 0.2j, -0.4 + 0j, 0.5j], tolerance=1e-7
    )
    assert len(checks) == 3
    for c in checks:
        assert c.passed
        assert c.computed.real < 1e-7


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
