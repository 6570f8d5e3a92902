"""Quadrature rules for the unit circle and the unit disk.

Area integrals are always taken against normalized Lebesgue measure
dA = dx dy / pi, so the disk has mass one, and circle integrals against
dtheta / 2pi, so the circle mean of 1 is 1.

These rules are the independent oracle that ``verify`` and ``lipschitz``
hold the closed forms against, at the fixed resolution ``DEFAULT_RULES``.

* ``CircleRule``: equally weighted, equally spaced angles. Spectrally
  accurate for smooth periodic integrands and exact for trigonometric
  polynomials of degree below the node count.

* ``disk_integrate``: Gauss nodes for the radial weight r on [0, 1]
  (exact for radial polynomials of degree <= 2 n_radial - 1) crossed with a
  CircleRule in angle. Exact for monomials z^a conj(z)^b up to the rule's
  degree, but blind to the logarithmic singularities the Green kernels carry.

* ``disk_integrate_centered``: the integrand is pulled back through the
  Mobius involution exchanging 0 and a given centre, so that the singular
  point of a Green-type integrand lands at the origin, where the radial grid
  is graded geometrically. Radial panels run from ``geo_start`` to
  ``geo_split`` geometrically and uniformly from there to 1, with a fixed
  Gauss-Legendre order per panel; the node at radius 0 is never used.

A ``DiskRule`` carries the resolution of both. Node sets are cached per
parameter combination, and summation is performed angle first, then
ascending radius, so repeated calls are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import DomainError
from .green import MobiusMap


@dataclass(frozen=True)
class CircleRule:
    """Equal-weight rule with angles 2 pi k / n_nodes."""

    n_nodes: int = 512

    def __post_init__(self):
        if self.n_nodes < 1:
            raise DomainError("CircleRule needs at least one node")

    @property
    def thetas(self) -> np.ndarray:
        return _circle_angles(self.n_nodes)


def circle_integrate(rule: CircleRule, integrand) -> complex:
    """Mean of ``integrand(thetas)`` against dtheta / 2pi.

    The integrand receives the full angle array and must return values of
    the same shape.
    """
    vals = np.asarray(integrand(rule.thetas), dtype=complex)
    if vals.shape != rule.thetas.shape:
        raise DomainError("circle integrand must return one value per node")
    return complex(np.mean(vals))


@dataclass(frozen=True)
class DiskRule:
    """Resolution of the two disk rules, plain and recentred.

    n_radial only affects ``disk_integrate``; the radial grid of
    ``disk_integrate_centered`` is controlled by the panel fields.
    n_angular is shared.
    """

    n_radial: int = 128
    n_angular: int = 256
    geo_panels: int = 40
    geo_start: float = 1e-12
    geo_split: float = 0.5
    outer_panels: int = 10
    panel_order: int = 8

    def __post_init__(self):
        if self.n_radial < 1 or self.n_angular < 1:
            raise DomainError("DiskRule needs positive node counts")
        if not (0.0 < self.geo_start < self.geo_split < 1.0):
            raise DomainError("need 0 < geo_start < geo_split < 1")
        if self.geo_panels < 1 or self.outer_panels < 1 or self.panel_order < 1:
            raise DomainError("panel counts and order must be positive")

    def doubled(self) -> "DiskRule":
        """Same rule with radial and angular resolution doubled."""
        return replace(
            self,
            n_radial=2 * self.n_radial,
            n_angular=2 * self.n_angular,
            geo_panels=2 * self.geo_panels,
            outer_panels=2 * self.outer_panels,
        )

    @property
    def radial_nodes(self):
        """(radii, weights) integrating int_0^1 p(r) r dr for ``disk_integrate``."""
        return _jacobi_radial(self.n_radial)

    @property
    def centered_radial_nodes(self):
        """(rho, weights) integrating int_0^1 F(rho) drho on the panel grid."""
        return _panel_radial(
            self.geo_panels,
            self.geo_start,
            self.geo_split,
            self.outer_panels,
            self.panel_order,
        )


def disk_integrate(rule: DiskRule, integrand) -> complex:
    """Integrate ``integrand(zeta)`` over the disk against dA = dx dy / pi.

    The integrand receives a 2d complex array of nodes and must return a
    matching array.
    """
    radii, w = rule.radial_nodes
    zeta = radii[:, None] * np.exp(1j * _circle_angles(rule.n_angular))[None, :]
    vals = np.asarray(integrand(zeta), dtype=complex)
    if vals.shape != zeta.shape:
        raise DomainError("disk integrand must return one value per node")
    return complex(np.dot(2.0 * w, vals.mean(axis=1)))


def disk_integrate_centered(rule: DiskRule, integrand, center: complex) -> complex:
    """Integrate with the pulled-back grid centered at the singular point.

    ``center`` must lie in the open unit disk. The integrand sees the
    physical nodes zeta (not the pulled-back ones) and the Jacobian of the
    substitution is applied internally.
    """
    mob = MobiusMap(center)
    rho, w = rule.centered_radial_nodes
    eta = rho[:, None] * np.exp(1j * _circle_angles(rule.n_angular))[None, :]
    zeta, jac = mob.pullback(eta)
    vals = np.asarray(integrand(zeta), dtype=complex) * jac
    if vals.shape != eta.shape:
        raise DomainError("disk integrand must return one value per node")
    return complex(np.dot(2.0 * rho * w, vals.mean(axis=1)))


@dataclass(frozen=True)
class RuleSet:
    """The oracle's quadrature pair: one circle rule, one disk rule."""

    circle: CircleRule = CircleRule()
    disk: DiskRule = DiskRule()


DEFAULT_RULES = RuleSet()


@lru_cache(maxsize=64)
def _circle_angles(n: int) -> np.ndarray:
    out = 2.0 * np.pi * np.arange(n) / n
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _jacobi_radial(n: int):
    # Gauss rule for int_{-1}^{1} q(x) (1+x) dx, mapped to [0, 1] with r = (1+x)/2:
    # int_0^1 p(r) r dr = sum v_i/4 p((1+x_i)/2).
    x, v = roots_jacobi(n, 0.0, 1.0)
    r = 0.5 * (1.0 + x)
    w = 0.25 * v
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w


@lru_cache(maxsize=32)
def _panel_radial(geo_panels, geo_start, geo_split, outer_panels, order):
    edges = np.concatenate(
        [
            np.geomspace(geo_start, geo_split, geo_panels + 1),
            np.linspace(geo_split, 1.0, outer_panels + 1)[1:],
        ]
    )
    x, v = roots_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    rho = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    w = (half[:, None] * v[None, :]).ravel()
    rho.setflags(write=False)
    w.setflags(write=False)
    return rho, w
