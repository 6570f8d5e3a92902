"""Green function values, derivative kernels, and the recentering map."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from biharmonic_disk import kernels
from biharmonic_disk.errors import DomainError, SingularityError
from biharmonic_disk.quadrature import DiskRule, _pullback, disk_integrate_centered

disk_points = st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False)


def g(z, zeta):
    return kernels.KernelParts(z, zeta).g()


def g_dz(z, zeta):
    return kernels.KernelParts(z, zeta).g_dz()


def h2(z, zeta):
    return kernels.KernelParts(z, zeta).h2()


def h3(z, zeta):
    return kernels.KernelParts(z, zeta).h3()


def test_value_at_origin_pair():
    assert g(0j, 0.5) == pytest.approx(-0.40342640972002736, abs=1e-15)


@pytest.mark.parametrize("z", [0j, 0.3, 0.5j, -0.7 + 0.1j])
def test_diagonal_value(z):
    expected = -((1.0 - abs(z) ** 2) ** 2)
    assert g(z, z) == pytest.approx(expected, abs=1e-14)


def test_near_diagonal_continuity():
    z = 0.4 + 0.2j
    exact = g(z, z)
    assert g(z, z + 1e-9) == pytest.approx(exact, abs=1e-8)


@given(z=disk_points, zeta=disk_points)
def test_symmetry(z, zeta):
    assert g(z, zeta) == pytest.approx(g(zeta, z), abs=1e-12)


@given(z=disk_points, zeta=disk_points)
def test_nonpositive(z, zeta):
    assert g(z, zeta) <= 1e-14


def test_array_broadcast():
    zetas = np.array([0.1, 0.2j, -0.3])
    vals = g(0j, zetas)
    assert vals.shape == (3,)
    assert np.all(vals <= 0.0)


def test_domain_validation():
    with pytest.raises(DomainError):
        g(1.0, 0.0)
    with pytest.raises(DomainError):
        g(0.0, complex("inf"))


def test_g_dz_oracle_value():
    assert g_dz(0j, 0.5) == pytest.approx(-0.3181471805599453, abs=1e-15)


@pytest.mark.parametrize("z", [0.2, 0.5j, -0.4 + 0.3j])
def test_g_dz_diagonal_limit(z):
    assert g_dz(z, z) == pytest.approx(np.conj(z) * (1.0 - abs(z) ** 2), abs=1e-12)


@given(z=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False),
       zeta=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False))
def test_g_dz_matches_difference_quotient(z, zeta):
    assume(abs(z - zeta) > 1e-3)
    step = 1e-6
    dx = (g(z + step, zeta) - g(z - step, zeta)) / (2 * step)
    dy = (g(z + 1j * step, zeta) - g(z - 1j * step, zeta)) / (2 * step)
    fd = 0.5 * (dx - 1j * dy)
    assert g_dz(z, zeta) == pytest.approx(fd, abs=2e-5)


def test_h2_oracle_value():
    assert h2(0j, 0.5) == pytest.approx(0.6362943611198906, abs=1e-14)


def test_h3_oracle_value():
    assert h3(0j, 0.5) == pytest.approx(1.125, abs=1e-14)


@pytest.mark.parametrize("func", [h2, h3])
def test_second_derivatives_refuse_diagonal(func):
    with pytest.raises(SingularityError):
        func(0.3 + 0.1j, 0.3 + 0.1j)
    with pytest.raises(SingularityError):
        func(np.array([0.1, 0.2 + 0j]), np.array([0.5, 0.2 + 0j]))


@given(z=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False),
       zeta=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False))
def test_h2_is_quarter_laplacian_of_g(z, zeta):
    assume(abs(z - zeta) > 0.05)
    step = 1e-4
    stencil = (
        g(z + step, zeta)
        + g(z - step, zeta)
        + g(z + 1j * step, zeta)
        + g(z - 1j * step, zeta)
        - 4.0 * g(z, zeta)
    ) / step**2
    assert h2(z, zeta) == pytest.approx(stencil / 4.0, abs=5e-4)


@given(z=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False),
       zeta=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False))
def test_h3_is_z_derivative_of_h2(z, zeta):
    assume(abs(z - zeta) > 0.05)
    step = 1e-5
    dx = (h2(z + step, zeta) - h2(z - step, zeta)) / (2 * step)
    dy = (h2(z + 1j * step, zeta) - h2(z - 1j * step, zeta)) / (2 * step)
    fd = 0.5 * (dx - 1j * dy)
    assert h3(z, zeta) == pytest.approx(fd, abs=1e-3)


def _kernel_pairs(kind, n=2000):
    """Seeded (z, zeta) pairs: anywhere in the disk, 1e-9 apart, or zeta 1e-9 inside the circle."""
    rng = np.random.default_rng(20171)

    def disk(rmax):
        return np.sqrt(rng.uniform(0.0, rmax**2, n)) * np.exp(2j * np.pi * rng.uniform(size=n))

    z = disk(0.99)
    if kind == "near-diagonal":
        return z, z + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=n))
    if kind == "near-circle":
        return z, (1.0 - 1e-9) * np.exp(2j * np.pi * rng.uniform(size=n))
    return z, disk(0.999)


@pytest.mark.parametrize("kind", ["anywhere", "near-diagonal", "near-circle"])
def test_folded_kernels_match_unfolded_formulas(kind):
    # h3 and g_dz are evaluated with their rational terms folded into one
    # fraction; the unfolded sums are written out here on the same
    # subexpressions. Near the circle the unfolded terms cancel to O(s^2),
    # so the tolerance is relative to the sum of their magnitudes.
    z, zeta = _kernel_pairs(kind)
    parts = kernels.KernelParts(z, zeta)
    d, w, s, log = parts.d, parts.w, parts.s, parts.log
    h3_terms = (-s / (d * w), -np.conj(zeta) * s / w**2)
    g_dz_terms = (np.conj(d) * log, -np.conj(d) * s / w, np.conj(z) * s)
    for got, terms in ((h3(z, zeta), h3_terms), (g_dz(z, zeta), g_dz_terms)):
        scale = sum(np.abs(t) for t in terms)
        assert np.all(np.abs(got - sum(terms)) <= 1e-12 * scale)


def test_h2_real_and_log_divergent():
    # Approaching the diagonal the log ratio dominates and is positive.
    z = 0.3
    assert abs(np.imag(h2(z, z + 1e-6))) < 1e-12
    assert h2(z, z + 1e-6) > 10.0


def test_mobius_involution_on_points():
    c = 0.4 + 0.3j
    etas = np.array([0j, 0.2, -0.5j, 0.1 + 0.6j])
    assert np.allclose(_pullback(c, _pullback(c, etas)[0])[0], etas, atol=1e-14)


def test_mobius_swaps_center_and_origin():
    assert _pullback(0.6j, 0j)[0] == pytest.approx(0.6j)
    assert _pullback(0.6j, 0.6j)[0] == pytest.approx(0j, abs=1e-15)


def test_mobius_jacobian_at_origin():
    _, jac = _pullback(0.5, 0j)
    assert jac == pytest.approx((1 - 0.25) ** 2)


@given(c=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False),
       eta=st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False))
def test_mobius_preserves_disk(c, eta):
    assert abs(_pullback(c, eta)[0]) < 1.0


def test_mobius_rejects_circle_center():
    with pytest.raises(DomainError):
        disk_integrate_centered(DiskRule(), lambda zeta: np.ones(zeta.shape), center=1.0)
