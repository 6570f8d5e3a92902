"""The check suites: identities, bounds, residuals, traces, crosschecks."""

import numpy as np
import pytest

from biharmonic_disk import solver, verify
from biharmonic_disk.errors import DomainError, FingerprintMismatchError
from biharmonic_disk.solver import BoundaryData, SourceTerm, solve_grid
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
# boundary trace recovery


def test_trace_recovery_constant_case(reference_cases):
    checks = verify.boundary_trace_check(reference_cases["constant"], [0.98, 0.99])
    assert len(checks) == 5
    trace = [c for c in checks if c.name.startswith("trace-recovery")]
    assert all(c.passed for c in trace)
    # constant trace is recovered to roundoff
    assert all(c.computed.real < 1e-10 for c in trace)


def test_trace_recovery_pure_h_case():
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (1, 1, -1.0)]))
    # phi = 1 - |z|^2: f = 0, h = 2, g = 0; trace gap at r is exactly 1 - r^2
    checks = verify.boundary_trace_check(case, [0.98, 0.99])
    by_name = {c.name: c for c in checks}
    gap = by_name["trace-recovery[r=0.98]"].computed.real
    assert gap == pytest.approx(1 - 0.98**2, abs=1e-8)
    assert by_name["trace-recovery[r=0.98]"].passed
    quotient = by_name["normal-trace-recovery[r=0.98,0.99]"]
    # -(phi(r2) - phi(r1))/(r2 - r1) = r1 + r2 -> 2 = h
    assert quotient.computed.real == pytest.approx(abs(0.98 + 0.99 - 2.0), abs=1e-7)
    assert quotient.passed


def test_trace_recovery_flat_case(reference_cases):
    checks = verify.boundary_trace_check(reference_cases["flat"], [0.98, 0.99])
    assert all(c.passed for c in checks), [(c.name, c.computed, c.tolerance) for c in checks]


def test_exact_circle_checks_hold_on_a_high_degree_case():
    case = manufactured_case(SourceTerm([
        (16, 0, 1.0), (3, 11, 0.5j), (9, 9, -0.25), (0, 0, 1.0)]))
    by_name = {c.name: c for c in verify.boundary_trace_check(case, [0.98, 0.99])}
    for name in ("trace-exact[r=1]", "normal-trace-exact[r=1]"):
        assert by_name[name].passed, (name, by_name[name].computed)


def test_exact_normal_trace_catches_a_relative_error_of_1e_6(monkeypatch):
    # Scaling the s^1 row by 1 + 1e-6 leaves the trace exact (s = 0 on the
    # circle) and hides inside the loose quotient tolerance, but moves the
    # normal derivative on the circle by ~1e-6.
    original = solver._boundary_rows

    def skewed(f, h):
        p, j, alpha, beta = original(f, h)
        scale = np.array([1.0, 1.0 + 1e-6])
        return p, j, alpha * scale, beta * scale

    monkeypatch.setattr(solver, "_boundary_rows", skewed)
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (2, 2, -1.0)]))  # h = 4
    by_name = {c.name: c for c in verify.boundary_trace_check(case, [0.98, 0.99])}
    assert by_name["trace-exact[r=1]"].passed
    assert by_name["normal-trace-recovery[r=0.98,0.99]"].passed
    assert not by_name["normal-trace-exact[r=1]"].passed


def test_trace_radii_validation(reference_cases):
    with pytest.raises(DomainError):
        verify.boundary_trace_check(reference_cases["bump"], [0.5, 1.0])
    with pytest.raises(DomainError):
        verify.boundary_trace_check(reference_cases["bump"], [])


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


# ---------------------------------------------------------------------------
# solution error


def test_solution_error_on_solved_fields(reference_cases, reference_fields):
    for name, case in reference_cases.items():
        res = verify.solution_error(case, reference_fields[name])
        assert res.passed, name
        assert res.computed.real < 1e-10


def test_solution_error_requires_matching_fingerprint(reference_cases, reference_fields):
    with pytest.raises(FingerprintMismatchError):
        verify.solution_error(reference_cases["bump"], reference_fields["quartic"])


def test_solution_error_ignores_outer_radii():
    case = manufactured_case(SourceTerm([(0, 0, 1.0), (1, 1, -1.0)]))
    field = solve_grid(case.f, case.h, case.g, 24, 8, r_max=0.96)
    assert field.radii[-1] > 0.9  # some nodes fall outside the scored disk
    res = verify.solution_error(case, field)
    assert res.passed


def test_sample_point_sets():
    assert len(verify.SAMPLE_POINTS) == 5
    assert len(verify.SAMPLE_RADII) == 5
    assert verify.SAMPLE_POINTS[0] == 0j
    assert all(abs(z) <= 0.9 for z in verify.SAMPLE_POINTS)
