"""Circle and disk quadrature: exactness, normalization, singular recentering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biharmonic_disk import quadrature
from biharmonic_disk.errors import DomainError
from biharmonic_disk.quadrature import CircleRule, DiskRule, circle_integrate, disk_integrate, disk_integrate_centered


def test_circle_rule_mass():
    rule = CircleRule(64)
    assert circle_integrate(rule, lambda t: np.ones_like(t)) == pytest.approx(1.0)


def test_circle_rule_kills_low_modes():
    rule = CircleRule(64)
    for k in (1, 2, 5, 31):
        val = circle_integrate(rule, lambda t, k=k: np.exp(1j * k * t))
        assert abs(val) < 1e-14


def test_circle_rule_aliases_node_count_mode():
    # e^{i n theta} at n equispaced angles sums to n, not 0.
    rule = CircleRule(16)
    val = circle_integrate(rule, lambda t: np.exp(1j * 16 * t))
    assert val == pytest.approx(1.0)


def test_circle_trig_polynomial_exact():
    rule = CircleRule(32)
    val = circle_integrate(rule, lambda t: 2.0 + np.cos(t) ** 2)
    assert val == pytest.approx(2.5, abs=1e-14)


def test_circle_rule_validation():
    with pytest.raises(DomainError):
        CircleRule(0)


def test_circle_integrand_shape_check():
    rule = CircleRule(8)
    with pytest.raises(DomainError):
        circle_integrate(rule, lambda t: np.ones(3))


def test_disk_mass_is_one():
    rule = DiskRule(n_radial=16, n_angular=32)
    assert disk_integrate(rule, lambda z: np.ones_like(z, dtype=float)) == pytest.approx(1.0, abs=1e-14)


def test_disk_weight_moment():
    # int (1 - |zeta|^2) dA = 1/2 under normalized area measure.
    rule = DiskRule(n_radial=16, n_angular=32)
    val = disk_integrate(rule, lambda z: 1.0 - np.abs(z) ** 2)
    assert val == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (2, 1), (0, 3)])
def test_disk_monomial_moments(a, b):
    # int z^a conj(z)^b dA = delta_ab / (a + 1).
    rule = DiskRule(n_radial=24, n_angular=48)
    val = disk_integrate(rule, lambda z: z**a * np.conj(z) ** b)
    expected = 1.0 / (a + 1) if a == b else 0.0
    assert val == pytest.approx(expected, abs=1e-13)


def test_disk_integrand_shape_check():
    rule = DiskRule(n_radial=4, n_angular=8)
    with pytest.raises(DomainError):
        disk_integrate(rule, lambda z: np.ones(5))


@pytest.mark.parametrize("center", [0j, 0.3 + 0j, 0.8j])
def test_centered_mass_is_one(center):
    val = disk_integrate_centered(DiskRule(), lambda z: np.ones_like(z, dtype=float), center)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_centered_log_identity():
    # int log|(1 - conj(z) zeta)/(z - zeta)|^2 dA(zeta) = 1 - |z|^2.
    z = 0.3 + 0j

    def integrand(zeta):
        num = np.abs(1.0 - np.conj(z) * zeta) ** 2
        den = np.abs(z - zeta) ** 2
        return np.log(num / den)

    assert disk_integrate_centered(DiskRule(), integrand, z) == pytest.approx(0.91, abs=1e-10)


def test_centered_handles_inverse_square_root_singularity():
    # int |zeta|^(-1/2) dA = int_0^1 r^(-1/2) 2r dr = 4/3, centered at the origin.
    val = disk_integrate_centered(DiskRule(), lambda z: np.abs(z) ** -0.5, 0j)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_doubled_doubles_every_resolution_knob():
    rule = DiskRule(n_radial=10, n_angular=20, geo_panels=5, outer_panels=3)
    d = rule.doubled()
    assert (d.n_radial, d.n_angular, d.geo_panels, d.outer_panels) == (20, 40, 10, 6)


def test_rule_validation():
    with pytest.raises(DomainError):
        DiskRule(n_radial=0)
    with pytest.raises(DomainError):
        disk_integrate_centered(DiskRule(), lambda z: np.ones_like(z), center=1.0)
    with pytest.raises(DomainError):
        DiskRule(geo_start=0.7, geo_split=0.5)


def test_radial_nodes_integrate_weight():
    r, w = DiskRule(n_radial=12).radial_nodes
    # int_0^1 r dr = 1/2 and int_0^1 r^3 r dr = 1/5.
    assert np.sum(w) == pytest.approx(0.5, abs=1e-15)
    assert np.dot(w, r**3) == pytest.approx(0.2, abs=1e-15)


def test_centered_radial_nodes_integrate_unit_interval():
    rule = DiskRule()
    rho, w = rule.centered_radial_nodes
    # panels span [geo_start, 1], so the constant mass misses exactly geo_start
    assert np.sum(w) == pytest.approx(1.0 - rule.geo_start, abs=1e-14)
    assert np.dot(w, rho) == pytest.approx(0.5, abs=1e-13)


@given(k=st.integers(min_value=0, max_value=6))
def test_plain_rule_radial_polynomial_exact(k):
    rule = DiskRule(n_radial=16, n_angular=8)
    val = disk_integrate(rule, lambda z, k=k: np.abs(z) ** (2 * k))
    assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)


@given(c=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False))
def test_centered_polynomial_matches_plain(c):
    rule = DiskRule(n_radial=32, n_angular=128)

    def integrand(z):
        return (1.0 - np.abs(z) ** 2) ** 2

    a = disk_integrate(rule, integrand)
    b = disk_integrate_centered(rule, integrand, c)
    assert b == pytest.approx(a, abs=1e-9)


def test_default_rules_bundle():
    rules = quadrature.DEFAULT_RULES
    assert rules.circle.n_nodes == 512
    assert rules.disk.n_angular == 256
