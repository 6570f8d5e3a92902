"""Green function values, derivative kernels, and the recentering map."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from biharmonic_disk import green
from biharmonic_disk.errors import DomainError, SingularityError

disk_points = st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False)


def test_value_at_origin_pair():
    assert green.g_eval(0j, 0.5) == pytest.approx(-0.40342640972002736, abs=1e-15)


@pytest.mark.parametrize("z", [0j, 0.3, 0.5j, -0.7 + 0.1j])
def test_diagonal_value(z):
    expected = -((1.0 - abs(z) ** 2) ** 2)
    assert green.g_eval(z, z) == pytest.approx(expected, abs=1e-14)


def test_near_diagonal_continuity():
    z = 0.4 + 0.2j
    exact = green.g_eval(z, z)
    assert green.g_eval(z, z + 1e-9) == pytest.approx(exact, abs=1e-8)


@given(z=disk_points, zeta=disk_points)
def test_symmetry(z, zeta):
    assert green.g_eval(z, zeta) == pytest.approx(green.g_eval(zeta, z), abs=1e-12)


@given(z=disk_points, zeta=disk_points)
def test_nonpositive(z, zeta):
    assert green.g_eval(z, zeta) <= 1e-14


def test_array_broadcast():
    zetas = np.array([0.1, 0.2j, -0.3])
    vals = green.g_eval(0j, zetas)
    assert vals.shape == (3,)
    assert np.all(vals <= 0.0)


def test_domain_validation():
    with pytest.raises(DomainError):
        green.g_eval(1.0, 0.0)
    with pytest.raises(DomainError):
        green.g_eval(0.0, complex("inf"))


def test_g_dz_oracle_value():
    pair = green.g_dz(0j, 0.5)
    assert pair.d_z == pytest.approx(-0.3181471805599453, abs=1e-15)
    assert pair.d_zbar == pytest.approx(np.conj(pair.d_z))


@pytest.mark.parametrize("z", [0.2, 0.5j, -0.4 + 0.3j])
def test_g_dz_diagonal_limit(z):
    pair = green.g_dz(z, z)
    assert pair.d_z == pytest.approx(np.conj(z) * (1.0 - abs(z) ** 2), abs=1e-12)


@given(z=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False),
       zeta=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False))
def test_g_dz_matches_difference_quotient(z, zeta):
    assume(abs(z - zeta) > 1e-3)
    step = 1e-6
    dx = (green.g_eval(z + step, zeta) - green.g_eval(z - step, zeta)) / (2 * step)
    dy = (green.g_eval(z + 1j * step, zeta) - green.g_eval(z - 1j * step, zeta)) / (2 * step)
    fd = 0.5 * (dx - 1j * dy)
    assert green.g_dz(z, zeta).d_z == pytest.approx(fd, abs=2e-5)


def test_h2_oracle_value():
    assert green.h2_eval(0j, 0.5) == pytest.approx(0.6362943611198906, abs=1e-14)


def test_h3_oracle_value():
    assert green.h3_eval(0j, 0.5) == pytest.approx(1.125, abs=1e-14)


@pytest.mark.parametrize("func", [green.h2_eval, green.h3_eval])
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
        green.g_eval(z + step, zeta)
        + green.g_eval(z - step, zeta)
        + green.g_eval(z + 1j * step, zeta)
        + green.g_eval(z - 1j * step, zeta)
        - 4.0 * green.g_eval(z, zeta)
    ) / step**2
    assert green.h2_eval(z, zeta) == pytest.approx(stencil / 4.0, abs=5e-4)


@given(z=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False),
       zeta=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False))
def test_h3_is_z_derivative_of_h2(z, zeta):
    assume(abs(z - zeta) > 0.05)
    step = 1e-5
    dx = (green.h2_eval(z + step, zeta) - green.h2_eval(z - step, zeta)) / (2 * step)
    dy = (green.h2_eval(z + 1j * step, zeta) - green.h2_eval(z - 1j * step, zeta)) / (2 * step)
    fd = 0.5 * (dx - 1j * dy)
    assert green.h3_eval(z, zeta) == pytest.approx(fd, abs=1e-3)


def test_h2_real_and_log_divergent():
    # Approaching the diagonal the log ratio dominates and is positive.
    z = 0.3
    assert abs(np.imag(green.h2_eval(z, z + 1e-6))) < 1e-12
    assert green.h2_eval(z, z + 1e-6) > 10.0


def test_mobius_involution_on_points():
    m = green.MobiusMap(0.4 + 0.3j)
    etas = np.array([0j, 0.2, -0.5j, 0.1 + 0.6j])
    assert np.allclose(m.apply(m.apply(etas)), etas, atol=1e-14)


def test_mobius_swaps_center_and_origin():
    m = green.MobiusMap(0.6j)
    assert m.apply(0j) == pytest.approx(0.6j)
    assert m.apply(0.6j) == pytest.approx(0j, abs=1e-15)


def test_mobius_jacobian_at_origin():
    m = green.MobiusMap(0.5)
    _, jac = m.pullback(0j)
    assert jac == pytest.approx((1 - 0.25) ** 2)


@given(c=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False),
       eta=st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False))
def test_mobius_preserves_disk(c, eta):
    m = green.MobiusMap(c)
    assert abs(m.apply(eta)) < 1.0


def test_mobius_rejects_circle_center():
    with pytest.raises(DomainError):
        green.MobiusMap(1.0)
