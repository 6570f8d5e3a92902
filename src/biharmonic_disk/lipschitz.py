"""Quantitative Lipschitz analysis of solved fields.

The solution operator maps data (f, h, g) to a map Phi of the disk. This
module computes the constants entering its two-sided distortion bounds:

* L, an empirical Lipschitz constant of the boundary trace f,
* the paper's gradient bound  P = (220/3) L + 4 sup|h| + (23/3) sup|g|.
  ``analyze_case`` evaluates it on two lower estimates, L (the largest
  chord quotient) and sup|h| (a dense-grid maximum), so the P it reports
  is an estimate of the bound, not a certified one (ROADMAP item 3),
* the origin invariants  A = |Phi_z(0)|^2,  B = |Phi_zbar(0)|^2  and
  Q = A - B, each computed both from the solver's table at the origin
  and, in closed form, from the integral formulas they reduce to,
* the verdict: Phi is reported bi-Lipschitz when Q > 2 P^2, that is, when
  the lower bound Q/P - 2P on the difference quotient is positive (P > 0),
  else Lipschitz-only.

``LipschitzReport`` stores only the measured constants; P, the lower bound
and the verdict are properties derived from them, so they cannot disagree,
and P is never squared.

The empirical difference quotient over seeded node pairs of a solved grid
gives an independent lower estimate that must stay below P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDataError, DomainError
from .solver import BoundaryData, Case, SolutionField, SourceTerm, _as_int

# Coefficients of the gradient bound P.
_COEFF_L = 220.0 / 3.0
_COEFF_H = 4.0
_COEFF_G = 23.0 / 3.0

_PAIR_EPS = 1e-12

# Pairs per block of the chord walk and the quotient pairs, in plain numpy
# (the memory policy at the lift in ``solver``): at most three complex
# arrays of this length, 768 KiB, live at once; twice as many read 1 MB
# more peak RSS on the certify workload.
_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class ABResult:
    """Origin gradient invariants, each computed two ways.

    a_value and b_value come from the table's gradient at the origin,
    Phi_z(0) = c[1, 0] and Phi_zbar(0) = c[-1, 0] of ``Solution.coefficients``;
    q_value = a_value - b_value is derived from them. a_integral / b_integral
    evaluate in closed form the formulas

        |(1/4pi) int e^{-+i theta}(3f + h) dtheta
            - int zetabar-or-zeta (log|zeta|^2 + 1 - |zeta|^2) g dA|^2

    with the Green term subtracted: (3 f_{+-1} + h_{+-1}) / 2 from the data's
    spectra, minus a sum over the load's terms derived apart from the table.
    """

    a_value: float
    b_value: float
    a_integral: float
    b_integral: float

    @property
    def q_value(self) -> float:
        return self.a_value - self.b_value


@dataclass(frozen=True)
class LipschitzReport:
    """The measured distortion constants of one problem instance, and what follows from them.

    Only measured constants are stored; p_upper, lower_bound and verdict are
    derived from them on each read. g_sup is the certified term-sum bound used
    inside p_upper; g_sup_estimate is the dense-grid maximum (a lower
    estimate of the true sup). p_upper is not certified: l_boundary and
    h_sup, which it is built from, are lower estimates (the largest chord
    quotient and a dense-grid maximum). q_value is Q = A - B of the case's
    ``ABResult``. lower_bound = Q/p_upper - 2 p_upper, and the verdict is
    "bi-lipschitz" exactly when it is positive, the paper's Q > 2 P^2 as
    P > 0; the lower bound is reported as-is (usually negative) otherwise.
    """

    l_boundary: float
    h_sup: float
    g_sup: float
    g_sup_estimate: float
    q_value: float

    @property
    def p_upper(self) -> float:
        return p_bound(self.l_boundary, self.h_sup, self.g_sup)

    @property
    def lower_bound(self) -> float:
        p = self.p_upper
        return self.q_value / p - 2.0 * p

    @property
    def verdict(self) -> str:
        return "bi-lipschitz" if self.lower_bound > 0.0 else "lipschitz-only"


def estimate_boundary_lipschitz(f: BoundaryData) -> float:
    """Largest chord difference quotient |f_j - f_k| / |e^{i th_j} - e^{i th_k}|.

    A lower estimate of the Lipschitz constant of f on the circle,
    converging from below as the sample count grows. Every pair is a node j
    and the node j + k, k = 1..n/2, whose chord is 2 sin(pi k / n), taken
    directly rather than from the rounded nodes. The offsets are walked at
    most ``_PAIR_BLOCK`` pairs (or one offset, for larger n) at a time, and
    each offset's largest sample gap max_j |f_j - f_{j+k}| is divided by its
    chord. Rounded division is monotone, so this is the largest quotient
    over all pairs, bit for bit.
    """
    n = f.n
    # row k of the view is the samples shifted by k: entry j is sample j + k mod n
    shifted = sliding_window_view(np.concatenate([f.samples, f.samples]), n)
    step = max(1, _PAIR_BLOCK // n)
    best = 0.0
    for k in range(1, n // 2 + 1, step):
        stop = min(k + step, n // 2 + 1)
        gaps = np.max(np.abs(f.samples - shifted[k:stop]), axis=1)
        best = max(best, float(np.max(gaps / (2.0 * np.sin(np.pi * np.arange(k, stop) / n)))))
    return best


def p_bound(l: float, h_sup: float, g_sup: float) -> float:
    """The paper's bound (220/3) l + 4 h_sup + (23/3) g_sup for sup|grad Phi|.

    An upper bound only when l, h_sup and g_sup are upper bounds; the lower
    estimates ``analyze_case`` passes for l and h_sup make it an estimate.
    """
    if l < 0 or h_sup < 0 or g_sup < 0:
        raise DomainError("p_bound arguments must be nonnegative")
    return _COEFF_L * l + _COEFF_H * h_sup + _COEFF_G * g_sup


def _origin_boundary_terms(f: BoundaryData, h: BoundaryData):
    # (1/4pi) int e^{-+ i theta} (3 f + h) dtheta  =  Phi_z(0), Phi_zbar(0)
    # restricted to the boundary part: F0 and H0 have z-derivative
    # (3/2) e^{-i theta} and (1/2) e^{-i theta} at z = 0: modes +-1 of the data
    return complex(3.0 * f.a[1] + h.a[1]) / 2.0, complex(3.0 * f.b[1] + h.b[1]) / 2.0


def _origin_green_terms(g: SourceTerm):
    # int zetabar-or-zeta (log|zeta|^2 + 1 - |zeta|^2) g dA, dA = dx dy / pi.
    # At zeta = r e^{it} the term c zeta^a zetabar^b gives c r^(a+b+1)
    # e^{i(a-b-+1)t}: only a - b = +-1 survives the angular mean, and then,
    # with k = max(a, b),
    #     2c int_0^1 r^(2k+1) (2 log r + 1 - r^2) dr = -c / ((k+1)^2 (k+2)),
    # in factored form: the sum of its three fractions cancels to 1e-14.
    sums = {1: 0j, -1: 0j}
    for a, b, c in g.terms:
        if a - b in sums:
            sums[a - b] -= c / ((max(a, b) + 1) ** 2 * (max(a, b) + 2))
    return sums[1], sums[-1]


def compute_ab(f: BoundaryData, h: BoundaryData, g: SourceTerm) -> ABResult:
    """A, B, Q at the origin, from the table's gradient there and from the integral formulas."""
    return _origin_invariants(Case(f, h, g))


def _origin_invariants(case: Case) -> ABResult:
    a_value, b_value = np.abs(case.solution.gradient(0j)) ** 2
    t_a, t_b = _origin_boundary_terms(case.f, case.h)
    g_a, g_b = _origin_green_terms(case.g)
    return ABResult(a_value, b_value, abs(t_a - g_a) ** 2, abs(t_b - g_b) ** 2)


def classify(l_boundary: float, h_sup: float, g_sup: float,
             a_value: float, b_value: float, g_sup_estimate: float) -> LipschitzReport:
    """Assemble the LipschitzReport from the measured constants; A and B set the verdict."""
    report = LipschitzReport(l_boundary, h_sup, g_sup, g_sup_estimate, a_value - b_value)
    if report.p_upper == 0.0:
        raise DegenerateDataError(
            "f is constant and h = g = 0: the gradient bound P is 0 and no quotient is defined"
        )
    return report


def analyze_case(case: Case) -> tuple[LipschitzReport, ABResult]:
    """Measure every constant for one case and classify it.

    A and B come from ``case.solution``. Data near the limits of double
    precision can overflow on the way; any reported constant that is not
    finite raises ``DegenerateDataError`` instead of being reported.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            ab = _origin_invariants(case)
            report = classify(
                l_boundary=estimate_boundary_lipschitz(case.f),
                h_sup=case.h.sup_norm(),
                g_sup=case.g.sup_norm_bound(),
                a_value=ab.a_value,
                b_value=ab.b_value,
                g_sup_estimate=case.g.sup_norm_estimate(),
            )
            # every reported constant, the derived ones too
            constants = [(name, getattr(ab, name)) for name in (
                "a_value", "b_value", "q_value", "a_integral", "b_integral")]
            constants += [(name, getattr(report, name)) for name in (
                "l_boundary", "h_sup", "g_sup", "p_upper", "lower_bound", "g_sup_estimate")]
    except OverflowError as exc:  # a Python float power past the double range
        raise DegenerateDataError("a reported constant overflows double precision") from exc
    for name, value in constants:
        if not np.isfinite(value):
            raise DegenerateDataError(f"{name} is {value}: the data overflow double precision")
    return report, ab


def empirical_quotient(field: SolutionField, max_pairs: int = 100_000,
                       seed: int = 42) -> float:
    """Largest |Phi(z1) - Phi(z2)| / |z1 - z2| over seeded node pairs.

    Small grids are scanned exhaustively; larger ones are subsampled with
    at most ``max_pairs`` seeded random pairs, walked ``_PAIR_BLOCK`` at a
    time. Coincident nodes (the r = 0 ring) are ignored. A ``seed`` or
    ``max_pairs`` that is not a Python or numpy integer (1.5, 2.0 and True
    alike), a negative ``seed`` or ``max_pairs`` below 1 raises
    ``DomainError`` whatever the grid. A non-finite node value raises
    ``DegenerateDataError``: every grid node is evaluated, so one means the
    field is broken, and skipping it could make the quotient read low. No
    command sets ``max_pairs``; it is kept because the benchmark harness
    under ``perfbench/`` reads it to count the pairs.
    """
    seed = _as_int(seed, DomainError, "seed")
    max_pairs = _as_int(max_pairs, DomainError, "max_pairs")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if max_pairs < 1:
        raise DomainError(f"max_pairs must be at least 1, got {max_pairs}")
    zs = field.points.ravel()
    vals = field.values.ravel()
    if not np.all(np.isfinite(vals)):
        raise DegenerateDataError("the field holds non-finite values")
    n = zs.size
    if n < 2:
        raise DegenerateDataError("need at least two evaluated nodes")
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
    best = -np.inf
    for lo in range(0, i.size, _PAIR_BLOCK):
        bi, bj = i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK]
        gap = np.abs(zs[bi] - zs[bj])
        keep = gap > _PAIR_EPS
        quotient = np.abs(vals[bi] - vals[bj])
        np.divide(quotient, gap, out=quotient, where=keep)
        best = max(best, float(np.max(quotient, where=keep, initial=-np.inf)))
    if best < 0.0:
        raise DegenerateDataError("all sampled node pairs coincide")
    return best
