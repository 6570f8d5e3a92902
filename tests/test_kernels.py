"""Boundary kernel values, derivatives, and circle moments."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biharmonic_disk import kernels
from biharmonic_disk.errors import DomainError

disk_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2 * np.pi)
radii = st.floats(min_value=0.0, max_value=0.95)


@pytest.mark.parametrize(
    "z,expected",
    [
        (0.5, 1.125),
        (0.9, 1.805),
        (0j, 0.5),
    ],
)
def test_h0_values(z, expected):
    assert kernels.h0_eval(z) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "z,expected",
    [
        (0.5, 4.5),
        (0.5j, 0.36),
        (0j, 1.0),
    ],
)
def test_f0_values(z, expected):
    assert kernels.f0_eval(z) == pytest.approx(expected, abs=1e-12)


def test_evaluators_accept_arrays():
    zs = np.array([0j, 0.5, 0.5j])
    out = kernels.f0_eval(zs)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(4.5)


@pytest.mark.parametrize("func", [kernels.h0_eval, kernels.f0_eval])
def test_evaluators_refuse_circle_points(func):
    with pytest.raises(DomainError):
        func(1.0 + 0j)
    with pytest.raises(DomainError):
        func(np.array([0j, 1.2]))
    with pytest.raises(DomainError):
        func(complex("nan"))


@given(z=disk_points)
def test_kernels_are_nonnegative(z):
    assert kernels.h0_eval(z) >= 0.0


@given(z=disk_points)
def test_trace_kernel_dominates_normal_kernel(z):
    # F0 = H0 + a nonnegative remainder, pointwise.
    assert kernels.f0_eval(z) >= kernels.h0_eval(z) - 1e-15


def test_h0_dz_on_axis():
    pair = kernels.h0_dz(0.5, 0.0)
    assert pair.d_z == pytest.approx(0.75, abs=1e-12)
    assert pair.d_zbar == pytest.approx(np.conj(pair.d_z))


def test_f0_dz_at_origin():
    # The origin derivative picks out the first Fourier mode with weight 3/2.
    for theta in (0.0, 0.7, 2.0):
        pair = kernels.f0_dz(0j, theta)
        assert pair.d_z == pytest.approx(1.5 * np.exp(-1j * theta), abs=1e-12)


def test_h0_dz_at_origin():
    for theta in (0.0, 1.1):
        pair = kernels.h0_dz(0j, theta)
        assert pair.d_z == pytest.approx(0.5 * np.exp(-1j * theta), abs=1e-12)


@given(z=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False), theta=angles)
def test_f0_dz_matches_difference_quotient(z, theta):
    step = 1e-6

    def k(w):
        return kernels.f0_eval(w * np.exp(-1j * theta))

    dx = (k(z + step) - k(z - step)) / (2 * step)
    dy = (k(z + 1j * step) - k(z - 1j * step)) / (2 * step)
    fd = 0.5 * (dx - 1j * dy)
    assert kernels.f0_dz(z, theta).d_z == pytest.approx(fd, abs=5e-5)


@given(z=st.complex_numbers(max_magnitude=0.8, allow_infinity=False, allow_nan=False), theta=angles)
def test_h0_dz_matches_difference_quotient(z, theta):
    step = 1e-6

    def k(w):
        return kernels.h0_eval(w * np.exp(-1j * theta))

    dx = (k(z + step) - k(z - step)) / (2 * step)
    dy = (k(z + 1j * step) - k(z - 1j * step)) / (2 * step)
    fd = 0.5 * (dx - 1j * dy)
    assert kernels.h0_dz(z, theta).d_z == pytest.approx(fd, abs=5e-5)


@pytest.mark.parametrize(
    "r,expected",
    [
        (0.0, 1.0),
        (0.5, 1.0 / 0.75),
        (0.9, 1.0 / 0.19),
    ],
)
def test_moment_beta_one_closed_form(r, expected):
    assert kernels.kernel_moment(1, r) == pytest.approx(expected, rel=1e-14)


def test_moment_beta_two_closed_form():
    r = 0.5
    assert kernels.kernel_moment(2, r) == pytest.approx(1.25 / 0.75**3, rel=1e-14)


@given(r=radii, beta=st.sampled_from([1.0, 2.0]))
def test_moment_series_matches_closed_form(r, beta):
    closed = kernels.kernel_moment(beta, r)
    series = kernels.kernel_moment_series(beta, r)
    assert series == pytest.approx(closed, rel=1e-12)


@given(beta=st.floats(min_value=0.5, max_value=4.0))
def test_moment_at_zero_radius_is_one(beta):
    assert kernels.kernel_moment(beta, 0.0) == pytest.approx(1.0)


@given(beta=st.floats(min_value=0.5, max_value=3.5), r=st.floats(min_value=0.0, max_value=0.9))
def test_moment_series_increases_in_radius(beta, r):
    # All series coefficients are positive squares.
    assert kernels.kernel_moment_series(beta, r + 0.05) >= kernels.kernel_moment_series(beta, r)


def test_moment_argument_validation():
    with pytest.raises(DomainError):
        kernels.kernel_moment(0.0, 0.5)
    with pytest.raises(DomainError):
        kernels.kernel_moment(-1.0, 0.5)
    with pytest.raises(DomainError):
        kernels.kernel_moment(1.0, 1.0)
    with pytest.raises(DomainError):
        kernels.kernel_moment(1.0, -0.1)
