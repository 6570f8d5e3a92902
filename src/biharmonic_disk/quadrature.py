"""Quadrature rules for the unit circle and the unit disk.

Area integrals are always taken against normalized Lebesgue measure
dA = dx dy / pi, so the disk has mass one, and circle integrals against
dtheta / 2pi, so the circle mean of 1 is 1.

These rules are the independent oracle that ``verify.oracle_suite`` (the
``identities`` command) and the tests hold the closed forms against, at the
fixed resolution ``DEFAULT_RULES``.

* ``CircleRule``: equally weighted, equally spaced angles. Spectrally
  accurate for smooth periodic integrands and exact for trigonometric
  polynomials of degree below the node count.

* ``disk_integrate_centered``: the integrand is pulled back through the
  Mobius involution exchanging 0 and a given centre, so that the singular
  point of a Green-type integrand lands at the origin, where the radial grid
  is graded geometrically. Radial panels run from ``_GEO_START`` (1e-12) to
  ``_GEO_SPLIT`` (0.5) geometrically and uniformly from there to 1, with
  ``_PANEL_ORDER`` (8) Gauss-Legendre nodes per panel (numpy's ``leggauss``);
  the node at radius 0 is never used. Centred at 0 the map is zeta = -eta
  with Jacobian 1: a polar product rule, exact for z^a conj(z)^b with
  a + b <= 14 and |a - b| < n_angular but for the mass below ``_GEO_START``.

A ``DiskRule`` carries its resolution. Node sets, built with numpy alone,
are cached per resolution.

The disk rule walks its grid in blocks of whole radial rows, about
``_BLOCK_NODES`` (8192) evaluated nodes each; each block is pulled back
through the Mobius involution in one pass. The centre is validated once per
call; the nodes lie strictly inside the disk by construction and are not
checked. The integrand may return a stack of integrands, shape
``(k,) + zeta.shape``, which share that block's nodes and Jacobian; the
result is then an array of k values. Integrand values keep their own
dtype: a real integrand is never widened to complex. Working memory, in
plain numpy arrays (the memory policy stated at the lift in ``solver``),
is one block's nodes plus whatever the integrand builds on them: 64 KiB
per real and 128 KiB per complex array, whatever the rule's resolution.
Summation is angle first (the mean of each row, taken separately for the
real and the imaginary part and kept for every row) and then one dot of
the row means against the radial weights per integrand and part, the
order a single pass over the whole grid uses. Block size does not change
the result, a stacked integrand gets exactly what separate calls get, a
real integrand gets exactly what its complex cast gets, and repeated
calls are bitwise reproducible.

The disk rule takes ``fold``, a promise that the integrand takes equal
values at zeta and at its reflection across the fold line, the line
through 0 and the centre (the real axis when the centre is 0). That line
must pass through a grid angle, n_angular arg(center) / pi an even integer,
and n_angular must be even, so that the reflection maps the grid onto
itself and fixes the two axis nodes of each row; otherwise ``DomainError``.
Each row is then evaluated only on the n_angular / 2 + 1 angles of the
closed half circle between the two axis directions, with the weights
(1, 2, ..., 2, 1) / n_angular: the row mean is
(2 * sum of the inner columns + (first + last)) / n_angular. A folded block
holds twice the rows of an unfolded one. The Mobius map centred on the
line commutes with the reflection, so the pulled-back integrand times the
Jacobian is symmetric in the same way and is folded on the same half grid.
The promises above hold for folded rows too; a folded result differs from
the unfolded one by round-off only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import _abs2
from .solver import _as_int, _circle_angles

# Split points and Gauss-Legendre order of the recentred rule's radial panels.
_GEO_START = 1e-12
_GEO_SPLIT = 0.5
_PANEL_ORDER = 8

_EPS = np.finfo(float).eps

# Nodes per block of radial rows the disk rule walks: one complex array over
# a block is 128 KiB, so an integrand's temporaries stay within a few MiB.
_BLOCK_NODES = 1 << 13


@dataclass(frozen=True)
class CircleRule:
    """Equal-weight rule with angles 2 pi k / n_nodes."""

    n_nodes: int = 512

    def __post_init__(self):
        if _as_int(self.n_nodes, DomainError, "n_nodes") < 1:
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
    """Resolution of the recentred disk rule.

    The radial grid is set by the panel counts (the split points and panel
    order are the constants ``_GEO_START``, ``_GEO_SPLIT``,
    ``_PANEL_ORDER``); a folded rule (``fold``) needs n_angular even.
    """

    n_angular: int = 256
    geo_panels: int = 40
    outer_panels: int = 10

    def __post_init__(self):
        for name in ("n_angular", "geo_panels", "outer_panels"):
            _as_int(getattr(self, name), DomainError, name)
        if self.n_angular < 1:
            raise DomainError("DiskRule needs a positive angular node count")
        if self.geo_panels < 1 or self.outer_panels < 1:
            raise DomainError("panel counts must be positive")

    @property
    def centered_radial_nodes(self):
        """(rho, weights) integrating int_0^1 F(rho) drho on the panel grid."""
        return _panel_radial(self.geo_panels, self.outer_panels)


def disk_integrate_centered(rule: DiskRule, integrand, center: complex, fold: bool = False):
    """Integrate ``integrand(zeta)`` over the disk against dA = dx dy / pi.

    The grid is pulled back through the Mobius map centred at ``center``,
    which must lie in the open unit disk; put it at the integrand's singular
    point. The integrand sees the physical nodes zeta (not the pulled-back
    ones) as a 2d complex array, one block of radial rows at a time, and
    returns either a matching array, real or complex (the result is a
    complex), or a stack of them, shape ``(k,) + zeta.shape`` (the result is
    an array of k complexes, one per integrand). The Jacobian of the
    substitution is applied internally.

    ``fold`` promises that the integrand takes equal values at zeta and at
    its reflection across the line through 0 and ``center`` (the real axis
    when ``center`` is 0), with which the Mobius map commutes. The rule then
    evaluates only the closed half circle of each row on one side of the
    line (see the module docstring).
    """
    center = complex(center)
    if not abs(center) < 1.0:
        raise DomainError("Mobius center must lie in the open unit disk")
    rho, w = rule.centered_radial_nodes
    circle = _angular_nodes(rule.n_angular, center, fold)
    step = max(1, _BLOCK_NODES // circle.size)

    def block(lo, hi):
        zeta, jac = _pullback(center, rho[lo:hi, None] * circle)
        return _block_values(integrand, zeta) * jac

    return _sum_rows(block, step, 2.0 * rho * w, rule.n_angular, fold)


def _pullback(center, eta):
    """(zeta, jacobian) for the substitution zeta = (center - eta) / (1 - eta conj(center)).

    The Mobius involution exchanging 0 and ``center``; the area Jacobian of
    the substitution is (1 - |center|^2)^2 / |1 - eta conj(center)|^4. The
    caller keeps ``center`` inside the disk; eta is not checked, as the
    rule's nodes lie strictly inside it by construction.
    """
    eta = np.asarray(eta, dtype=complex)
    den = 1.0 - eta * np.conj(center)
    zeta = (center - eta) / den
    # |den|^4 as (re^2 + im^2)^2
    jac = den.real**2 + den.imag**2
    return zeta, (1.0 - _abs2(center)) ** 2 / jac**2


def _angular_nodes(n, center, fold):
    """Unit-circle nodes of one row.

    Unfolded these are the n nodes e^{2 pi i k / n}. Folded, the line
    through 0 and ``center`` (the real axis for a centre at 0) must pass
    through a node, so that the grid is closed under the reflection across
    it and that node and its opposite are fixed by it: n arg(center) / pi
    must be an even integer (to round-off) and n even. The nodes are then
    the n/2 + 1 of the closed half circle from that node, counterclockwise,
    to its opposite.
    """
    circle = np.exp(1j * _circle_angles(n))
    if not fold:
        return circle
    if n % 2:
        raise DomainError("a folded rule needs an even angular node count")
    turns = n * np.angle(center) / np.pi
    k = round(turns)
    if k % 2 or abs(turns - k) > 4 * n * _EPS:
        raise DomainError(
            f"the {n}-angle grid is not closed under the reflection across the line "
            f"through 0 and {center}")
    return circle[(k // 2 + np.arange(n // 2 + 1)) % n]


def _block_values(integrand, zeta):
    # a real integrand stays real: its values are never widened to complex
    vals = np.asarray(integrand(zeta))
    if not np.iscomplexobj(vals):
        vals = vals.astype(float, copy=False)
    if vals.ndim not in (2, 3) or vals.shape[-2:] != zeta.shape:
        raise DomainError("disk integrand must return one value per node")
    return vals


def _row_mean(part, n, folded):
    """Angular mean of each row of a real array.

    A folded row is a closed half circle: its two ends stand for one node of
    the full row each and every other column for two, the weights
    (1, 2, ..., 2, 1) / n.
    """
    if not folded:
        return part.mean(axis=-1)
    return (2.0 * part[..., 1:-1].sum(axis=-1) + (part[..., 0] + part[..., -1])) / n


def _row_means(vals, n, folded):
    """Angular means of the real and of the imaginary parts, stacked."""
    re = _row_mean(vals.real, n, folded)
    im = _row_mean(vals.imag, n, folded) if np.iscomplexobj(vals) else np.zeros_like(re)
    return np.stack([re, im])


def _sum_rows(block, step, weights, n_angular, folded):
    """Sum of each row's angular mean times its radial weight.

    ``block(lo, hi)`` returns the values on rows lo..hi - 1, ``step`` rows
    at a time. The row means of the real and imaginary parts are kept and
    dotted with the weights once per integrand and part at the end, the
    order of a single pass over the whole grid.
    """
    re, im = np.concatenate(
        [_row_means(block(lo, min(lo + step, weights.size)), n_angular, folded)
         for lo in range(0, weights.size, step)],
        axis=-1)
    if re.ndim == 1:
        return complex(np.dot(weights, re), np.dot(weights, im))
    return np.array([complex(np.dot(weights, a), np.dot(weights, b)) for a, b in zip(re, im)])


@dataclass(frozen=True)
class RuleSet:
    """The oracle's quadrature pair: one circle rule, one disk rule."""

    circle: CircleRule = CircleRule()
    disk: DiskRule = DiskRule()


DEFAULT_RULES = RuleSet()


@lru_cache(maxsize=32)
def _panel_radial(geo_panels, outer_panels):
    edges = np.concatenate(
        [
            np.geomspace(_GEO_START, _GEO_SPLIT, geo_panels + 1),
            np.linspace(_GEO_SPLIT, 1.0, outer_panels + 1)[1:],
        ]
    )
    x, v = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    rho = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    w = (half[:, None] * v[None, :]).ravel()
    rho.setflags(write=False)
    w.setflags(write=False)
    return rho, w
