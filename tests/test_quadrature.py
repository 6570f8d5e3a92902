"""Circle and disk quadrature: exactness, normalization, singular recentering."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import biharmonic_disk
from biharmonic_disk import quadrature
from biharmonic_disk.errors import DomainError
from biharmonic_disk.quadrature import CircleRule, DiskRule, circle_integrate, disk_integrate_centered


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


@pytest.mark.parametrize("n_nodes", [0, 2.5, True])
def test_circle_rule_validation(n_nodes):
    # a node count that is not an integer would integrate e^{i theta} to 0.167-0.121i
    with pytest.raises(DomainError):
        CircleRule(n_nodes)


def test_circle_integrand_shape_check():
    rule = CircleRule(8)
    with pytest.raises(DomainError):
        circle_integrate(rule, lambda t: np.ones(3))


def test_disk_mass_is_one():
    val = disk_integrate_centered(DiskRule(n_angular=32), lambda z: np.ones_like(z, dtype=float), 0j)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_disk_weight_moment():
    # int (1 - |zeta|^2) dA = 1/2 under normalized area measure.
    rule = DiskRule(n_angular=32)
    val = disk_integrate_centered(rule, lambda z: 1.0 - np.abs(z) ** 2, 0j)
    assert val == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (2, 1), (0, 3)])
def test_disk_monomial_moments(a, b):
    # int z^a conj(z)^b dA = delta_ab / (a + 1); centred at 0 the rule is a
    # polar product rule, exact for these degrees.
    rule = DiskRule(n_angular=48)
    val = disk_integrate_centered(rule, lambda z: z**a * np.conj(z) ** b, 0j)
    expected = 1.0 / (a + 1) if a == b else 0.0
    assert val == pytest.approx(expected, abs=1e-13)


def test_disk_integrand_shape_check():
    rule = DiskRule(n_angular=8)
    with pytest.raises(DomainError):
        disk_integrate_centered(rule, lambda z: np.ones(5), 0j)
    with pytest.raises(DomainError):
        disk_integrate_centered(rule, lambda z: np.ones((2,) + z.shape + (1,)), 0j)


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


@pytest.mark.parametrize("resolution", [
    {"n_angular": 0}, {"n_angular": 2.5}, {"n_angular": True}, {"geo_panels": 0},
    {"geo_panels": 2.5}, {"outer_panels": 0}, {"outer_panels": 3.0},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_rule_validation(resolution):
    with pytest.raises(DomainError):
        DiskRule(**resolution)


@pytest.mark.parametrize("center", [1.0, complex("nan"), complex("inf")])
def test_rule_center_validation(center):
    with pytest.raises(DomainError):
        disk_integrate_centered(DiskRule(), lambda z: np.ones_like(z), center=center)


def test_rules_take_numpy_integers():
    def one(z):
        return np.ones_like(z, dtype=float)

    rule = DiskRule(n_angular=np.int64(32), geo_panels=np.int32(40))
    reference = disk_integrate_centered(DiskRule(n_angular=32), one, 0j)
    assert disk_integrate_centered(rule, one, 0j) == reference
    assert CircleRule(np.int64(8)).thetas.size == 8


def test_centered_radial_nodes_integrate_unit_interval():
    rho, w = DiskRule().centered_radial_nodes
    # panels span [_GEO_START, 1], so the constant mass misses exactly _GEO_START
    assert np.sum(w) == pytest.approx(1.0 - quadrature._GEO_START, abs=1e-14)
    assert np.dot(w, rho) == pytest.approx(0.5, abs=1e-13)


@given(c=st.complex_numbers(max_magnitude=0.7, allow_infinity=False, allow_nan=False))
def test_centered_polynomial_matches_closed_form(c):
    # int (1 - |zeta|^2)^2 dA = 1/3, wherever the rule is centred
    rule = DiskRule(n_angular=128)
    val = disk_integrate_centered(rule, lambda z: (1.0 - np.abs(z) ** 2) ** 2, c)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_package_imports_without_scipy():
    # the rules are built from numpy alone; nothing the package imports pulls scipy in
    code = ("import sys, biharmonic_disk, biharmonic_disk.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(biharmonic_disk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_default_rules_bundle():
    rules = quadrature.DEFAULT_RULES
    assert rules.circle.n_nodes == 512
    assert rules.disk.n_angular == 256


# ---------------------------------------------------------------------------
# row blocks and stacked integrands


def _full_grid(rule, integrand, center):
    """Reference: values on the whole grid at once, row means, then one dot.

    The real and imaginary parts get their own row means and their own dot.
    """
    circle = np.exp(1j * 2.0 * np.pi * np.arange(rule.n_angular) / rule.n_angular)
    rho, w = rule.centered_radial_nodes
    weights = 2.0 * rho * w
    zeta, jac = quadrature._pullback(center, rho[:, None] * circle[None, :])
    vals = np.asarray(integrand(zeta)) * jac
    return complex(np.dot(weights, vals.real.mean(axis=1)),
                   np.dot(weights, vals.imag.mean(axis=1)))


def _log_moment(c):
    return lambda zeta: np.conj(zeta) * np.log(np.abs(zeta - c) ** 2)


def _assert_within_one_ulp(got, expected):
    for a, b in ((got.real, expected.real), (got.imag, expected.imag)):
        assert abs(a - b) <= np.spacing(abs(b))


@pytest.mark.parametrize("center", [0j, 0.5 * np.exp(1j * np.pi / 4), 0.9 + 0j])
def test_blocked_centered_rule_matches_full_grid(center):
    rule = DiskRule()
    assert rule.centered_radial_nodes[0].size * rule.n_angular > 4 * quadrature._BLOCK_NODES
    got = disk_integrate_centered(rule, _log_moment(center), center)
    _assert_within_one_ulp(got, _full_grid(rule, _log_moment(center), center))


# (center, fold) of each rule case; a folded rule folds across the line
# through 0 and its centre, the real axis for a centre at 0
_RULE_CASES = [pytest.param(c, False, id=str(c)) for c in (0j, 0.5j, 0.9 + 0j)] + [
    pytest.param(0j, True, id="0j-mirror"),
    pytest.param(0.5j, True, id="0.5j-mirror"),
]


@pytest.mark.parametrize("center, fold", _RULE_CASES)
def test_stacked_integrand_equals_separate_calls(center, fold):
    def run(integrand):
        return disk_integrate_centered(DiskRule(), integrand, center, fold=fold)

    parts = [lambda z: np.ones(z.shape), lambda z: np.abs(z - 0.1), _log_moment(0.5j)]
    stacked = run(lambda z: np.stack([part(z) for part in parts]))
    assert stacked.shape == (3,)
    assert list(stacked) == [run(part) for part in parts]


@pytest.mark.parametrize("center, fold", _RULE_CASES)
def test_real_integrand_equals_its_complex_cast(center, fold):
    # a real integrand is integrated in its own dtype, with the same sums
    # its complex cast gets for the real part
    def run(integrand):
        return disk_integrate_centered(DiskRule(), integrand, center, fold=fold)

    def real(z):
        return np.stack([np.abs(z - 0.1), np.log(np.abs(z - 0.5j) ** 2), 1.0 - np.abs(z) ** 2])

    got = run(real)
    cast = run(lambda z: real(z).astype(complex))
    assert got.dtype == cast.dtype == complex
    assert list(got) == list(cast)
    assert all(v.imag == 0.0 for v in got)
    single = run(lambda z: real(z)[1])
    assert single == run(lambda z: real(z)[1] + 0j) == got[1]


# ---------------------------------------------------------------------------
# mirror-folded rows


def _mirror_symmetric(c):
    # complex, and symmetric across the line through 0 and c; log-singular at c
    return lambda zeta: (1.0 + 0.5j + np.abs(zeta) ** 2) * np.log(np.abs(zeta - c) ** 2)


# (singular point, whether the rule is centred at 0 rather than there); a
# rule at 0 folds across the real axis, so only real points go there
_FOLD_CASES = (
    [pytest.param(c, False, id=f"{c}-centered")
     for c in (0j, 0.25 + 0j, 0.5 * np.exp(1j * np.pi / 4), 0.9 + 0j)]
    + [pytest.param(c, True, id=f"{c}-origin") for c in (0j, 0.25 + 0j, 0.9 + 0j)])


@pytest.mark.parametrize("center, at_origin", _FOLD_CASES)
def test_folded_rule_matches_full_grid(center, at_origin):
    # the rule centred at the integrand's singular point, or at 0, folded
    # across the line through 0 and that point
    rule = DiskRule()
    rule_center = 0j if at_origin else center
    columns = set()

    def integrand(zeta):
        columns.add(zeta.shape[-1])
        return _mirror_symmetric(center)(zeta)

    got = disk_integrate_centered(rule, integrand, rule_center, fold=True)
    ref = _full_grid(rule, _mirror_symmetric(center), rule_center)
    assert columns == {rule.n_angular // 2 + 1}  # a closed half circle per row
    assert abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("call", [
    # an odd angular count has no node opposite the axis node
    lambda f: disk_integrate_centered(DiskRule(n_angular=255), f, 0j, fold=True),
    # the fold line passes between two grid angles, or through none
    lambda f: disk_integrate_centered(DiskRule(), f, 0.5 * np.exp(1j * np.pi / 256), fold=True),
    lambda f: disk_integrate_centered(DiskRule(), f, 0.5 * np.exp(0.1j), fold=True),
], ids=["odd-count", "between-angles", "off-grid"])
def test_folded_rule_refusals(call):
    with pytest.raises(DomainError):
        call(lambda z: np.ones(z.shape))
