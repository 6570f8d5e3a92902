"""The benchmark's workloads: seeded inputs, one timed op each, exact references.

Every workload is closed-loop with one client: the next op is issued only
when the last one has returned. Inputs are generated from the run's seed
before an op's clock starts, and each output is checked afterwards against a
closed-form reference that this file computes without the package.

* ``grid``     -- ``solve_grid(f, h, g, 16, 32, with_gradient=True)`` on a
  manufactured polynomial solution. The Green potential is ~97% of it.
* ``boundary`` -- ``solve_points`` and ``boundary_gradient`` at 256 points up
  to r = 0.96 for band-limited f, h and g = 0. The Green layer is bypassed.
* ``certify``  -- the five CLI commands on one case file, in-process.

Errors are reported relative to the sup of the reference over the op's
points, split at r = 0.9 into an interior and an edge figure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np

EDGE_RADIUS = 0.9
GRID_SHAPE = (16, 32)

# Every grid op has the same two load terms (monomials with a nonzero
# bilaplacian) with unit-modulus seeded coefficients, so all ops do the same
# Green work and see errors of the same size; the seed draws their phases and
# up to three free terms (harmonic-type, exponents <= 4) that shape f and h.
_GRID_LOAD = ((3, 3), (4, 2))
_FREE_PAIRS = [(a, b) for a in range(5) for b in range(5) if a < 2 or b < 2]

BOUNDARY_POINTS = 256
BOUNDARY_MAX_MODE = 100
BOUNDARY_MODES = 6
# Points reach r = 0.96, so refinement groups go up to 1024 circle nodes and
# the dense resampling matrices stay near cache size. Nearer the circle the
# op is bound by memory traffic (gigabytes per op at r = 0.999), and on a
# shared host its time swung by a third between runs, too much to gate.
BOUNDARY_MIN_DISTANCE = 0.04

# Per-op tolerances on the relative sup error. The edge tolerance of ``grid``
# admits the known near-circle Green error at r = 0.9375 (up to ~1e-6 on the
# seed) and nothing near the circle; the others sit far above round-off.
TOLERANCE = {
    "grid": (1e-9, 1e-4),
    "boundary": (1e-10, 1e-8),
    "certify": (1e-10, 1e-10),
}

_CHECKS_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass
class OpResult:
    """Outcome of checking one op against its reference."""

    points: int
    interior_err: float
    edge_err: float
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# exact references (independent of the package)


class Poly:
    """sum c z^a conj(z)^b with its Wirtinger derivatives."""

    def __init__(self, terms):
        self.terms = [(int(a), int(b), complex(c)) for a, b, c in terms]

    def __call__(self, z):
        zb = np.conj(z)
        return sum(c * z**a * zb**b for a, b, c in self.terms)

    def d_z(self, z):
        zb = np.conj(z)
        return sum(a * c * z ** (a - 1) * zb**b for a, b, c in self.terms if a)

    def d_zbar(self, z):
        zb = np.conj(z)
        return sum(b * c * z**a * zb ** (b - 1) for a, b, c in self.terms if b)

    def manufactured(self):
        """Fourier modes of f and h and load terms of g with this as the solution."""
        f_modes, h_modes, load = {}, {}, []
        for a, b, c in self.terms:
            f_modes[a - b] = f_modes.get(a - b, 0j) + c
            h_modes[a - b] = h_modes.get(a - b, 0j) - (a + b) * c
            if a >= 2 and b >= 2:
                load.append((a - 2, b - 2, a * b * (a - 1) * (b - 1) * c))
        return f_modes, h_modes, load


def _zeros_like(z):
    return np.zeros(np.shape(z), dtype=complex)


def boundary_reference(f_modes, h_modes, z):
    """F0[f] + H0[h] and its Wirtinger gradient from the mode multipliers.

    On e^{i m t}, F0 acts as r^|m| (1 + |m| (1 - r^2) / 2) and H0 as
    r^|m| (1 - r^2) / 2; r^|m| e^{i m t} is z^m for m >= 0 and zbar^|m| else.
    """
    zb = np.conj(z)
    s = 1.0 - z * zb
    val, dz, dzb = _zeros_like(z), _zeros_like(z), _zeros_like(z)

    def add(modes, is_trace):
        nonlocal val, dz, dzb
        for m, c in modes.items():
            k = abs(m)
            w, wb = (z, zb) if m >= 0 else (zb, z)  # the power base and its partner
            p = w**k
            dp = k * w ** (k - 1) if k else _zeros_like(z)
            mult = (1.0 + k * s / 2.0) if is_trace else s / 2.0
            d_mult_dw = -(k if is_trace else 1.0) * wb / 2.0  # d(mult)/d(w)
            d_mult_dwb = -(k if is_trace else 1.0) * w / 2.0
            d_w = dp * mult + p * d_mult_dw
            d_wb = p * d_mult_dwb
            val = val + c * p * mult
            if m >= 0:
                dz, dzb = dz + c * d_w, dzb + c * d_wb
            else:
                dz, dzb = dz + c * d_wb, dzb + c * d_w

    add(f_modes, True)
    add(h_modes, False)
    return val, dz, dzb


def _rel_err(computed, reference, region):
    """max over (value, d_z, d_zbar) of sup|err| on region / sup|ref| on all points."""
    worst = 0.0
    for got, ref in zip(computed, reference):
        got, ref = np.ravel(got), np.ravel(ref)
        scale = float(np.max(np.abs(ref)))
        if not region.any():
            continue
        diff = np.abs(got[region] - ref[region])
        if not np.all(np.isfinite(diff)):
            return float("inf")
        worst = max(worst, float(np.max(diff)) / max(scale, 1e-300))
    return worst


def _errors(computed, reference, radii):
    radii = np.ravel(radii)
    interior = _rel_err(computed, reference, radii <= EDGE_RADIUS)
    edge = _rel_err(computed, reference, radii > EDGE_RADIUS)
    return interior, edge


def _tolerance_problems(workload, interior, edge):
    tol_in, tol_edge = TOLERANCE[workload]
    problems = []
    if not interior <= tol_in:
        problems.append(f"interior error {interior:.3e} > {tol_in:.0e}")
    if not edge <= tol_edge:
        problems.append(f"edge error {edge:.3e} > {tol_edge:.0e}")
    return problems


def _complex_normal(rng, size=None):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


# ---------------------------------------------------------------------------
# grid


@dataclass
class GridInput:
    phi: Poly
    f: object
    h: object
    g: object


def random_solution(rng) -> Poly:
    """Phi* with the fixed load terms and 0-3 seeded free terms (2-5 terms)."""
    phases = np.exp(2j * np.pi * rng.uniform(size=len(_GRID_LOAD)))
    free = rng.choice(len(_FREE_PAIRS), rng.integers(0, 4), replace=False)
    terms = [(a, b, c) for (a, b), c in zip(_GRID_LOAD, phases)]
    terms += [(*_FREE_PAIRS[i], c) for i, c in zip(free, _complex_normal(rng, free.size))]
    return Poly(terms)


def grid_input(rng, bd) -> GridInput:
    phi = random_solution(rng)
    f_modes, h_modes, load = phi.manufactured()
    return GridInput(
        phi=phi,
        f=bd.BoundaryData.from_fourier(f_modes.items()),
        h=bd.BoundaryData.from_fourier(h_modes.items()),
        g=bd.SourceTerm(load),
    )


def grid_op(bd, inp: GridInput):
    return bd.solve_grid(inp.f, inp.h, inp.g, *GRID_SHAPE, with_gradient=True)


def grid_check(inp: GridInput, fld) -> OpResult:
    pts = fld.points
    computed = (fld.values, fld.d_z, fld.d_zbar)
    reference = (inp.phi(pts), inp.phi.d_z(pts), inp.phi.d_zbar(pts))
    radii = np.broadcast_to(fld.radii[:, None], pts.shape)
    interior, edge = _errors(computed, reference, radii)
    problems = _tolerance_problems("grid", interior, edge)
    if fld.failures:
        problems.append(f"{len(fld.failures)} grid nodes failed")
    return OpResult(pts.size, interior, edge, problems)


# ---------------------------------------------------------------------------
# boundary


@dataclass
class BoundaryInput:
    f_modes: dict
    h_modes: dict
    zs: np.ndarray
    f: object
    h: object
    g: object


def _band_limited(rng):
    modes = rng.choice(np.arange(-BOUNDARY_MAX_MODE, BOUNDARY_MAX_MODE + 1),
                       BOUNDARY_MODES, replace=False)
    coeffs = _complex_normal(rng, BOUNDARY_MODES) / np.sqrt(BOUNDARY_MODES)
    return {int(m): complex(c) for m, c in zip(modes, coeffs)}


def boundary_input(rng, bd) -> BoundaryInput:
    f_modes, h_modes = _band_limited(rng), _band_limited(rng)
    # distance to the circle log-uniform on [BOUNDARY_MIN_DISTANCE, 1]
    dist = np.exp(rng.uniform(np.log(BOUNDARY_MIN_DISTANCE), 0.0, BOUNDARY_POINTS))
    zs = (1.0 - dist) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, BOUNDARY_POINTS))
    return BoundaryInput(
        f_modes=f_modes,
        h_modes=h_modes,
        zs=zs,
        f=bd.BoundaryData.from_fourier(f_modes.items()),
        h=bd.BoundaryData.from_fourier(h_modes.items()),
        g=bd.SourceTerm.zero(),
    )


def boundary_op(bd, inp: BoundaryInput):
    values = bd.solve_points(inp.f, inp.h, inp.g, inp.zs)
    d_z, d_zbar = bd.boundary_gradient(inp.f, inp.h, inp.zs)
    return values, d_z, d_zbar


def boundary_check(inp: BoundaryInput, out) -> OpResult:
    reference = boundary_reference(inp.f_modes, inp.h_modes, inp.zs)
    interior, edge = _errors(out, reference, np.abs(inp.zs))
    return OpResult(inp.zs.size, interior, edge,
                    _tolerance_problems("boundary", interior, edge))


# ---------------------------------------------------------------------------
# certify

# Exact solutions of the demo cases in scripts/cases.
DEMO_SOLUTIONS = {
    "pure_load": Poly([(0, 0, 1.0), (1, 1, -2.0), (2, 2, 1.0)]),  # (1 - |z|^2)^2
    "rotation": Poly([(1, 0, 1.5), (2, 1, -0.5)]),  # z (3 - |z|^2) / 2
    "mixed": Poly([(2, 2, 1.0)]),  # |z|^4
}

# Generated cases: a constant load plus harmonic-type terms of total degree
# <= 4, so the finite-difference residual in ``verify`` is exact up to
# round-off and every case costs what the demo load cases cost.
_GEN_FREE = [(a, b) for a in range(5) for b in range(5)
             if (a < 2 or b < 2) and a + b <= 4]

GENERATED_CASES = 2
CERTIFY_GRID = "16,32"
CERTIFY_R_MAX = "0.9"


@dataclass
class CertifyInput:
    path: str
    phi: Poly
    out_path: str
    z: complex
    zeta: complex


def generated_solution(rng) -> Poly:
    free = rng.choice(len(_GEN_FREE), 3, replace=False)
    coeffs = _complex_normal(rng, 4) / 2.0
    terms = [(2, 2, coeffs[0])] + [(*_GEN_FREE[i], c) for i, c in zip(free, coeffs[1:])]
    return Poly(terms)


def write_case(path: str, phi: Poly) -> None:
    f_modes, h_modes, load = phi.manufactured()

    def fourier(modes):
        return [[m, c.real, c.imag] for m, c in sorted(modes.items())]

    doc = {
        "schema": 1,
        "f": {"fourier": fourier(f_modes)},
        "h": {"fourier": fourier(h_modes)},
        "g": {"terms": [[a, b, c.real, c.imag] for a, b, c in load]},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def certify_cases(rng, cases_dir: str, work_dir: str):
    """The demo cases and the generated ones, in a seeded order."""
    cases = [(name, os.path.join(cases_dir, f"{name}.json"), phi)
             for name, phi in DEMO_SOLUTIONS.items()]
    for k in range(GENERATED_CASES):
        phi = generated_solution(rng)
        path = os.path.join(work_dir, f"generated_{k}.json")
        write_case(path, phi)
        cases.append((f"generated_{k}", path, phi))
    return [cases[i] for i in rng.permutation(len(cases))]


def certify_input(rng, case, work_dir: str) -> CertifyInput:
    _, path, phi = case
    r = 1.0 - np.exp(rng.uniform(np.log(1e-3), np.log(0.1)))  # edge point, r in (0.9, 0.999)
    z = complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    zeta = complex(0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return CertifyInput(path, phi, os.path.join(work_dir, "field.json"), z, zeta)


def _point(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def certify_argvs(inp: CertifyInput):
    return [
        ("identities", ["identities"]),
        ("solve", ["solve", "--case", inp.path, "--grid", CERTIFY_GRID,
                   "--r-max", CERTIFY_R_MAX, "--gradient", "--out", inp.out_path]),
        ("verify", ["verify", "--case", inp.path]),
        ("lipschitz", ["lipschitz", "--case", inp.path]),
        ("kernel-F0", ["kernel", "--which", "F0", f"--z={_point(inp.z)}"]),
        ("kernel-H0", ["kernel", "--which", "H0", f"--z={_point(inp.z)}"]),
        ("kernel-G", ["kernel", "--which", "G", f"--z={_point(inp.z)}",
                      f"--zeta={_point(inp.zeta)}"]),
    ]


def certify_op(cli, inp: CertifyInput):
    """Run every command in-process; returns {label: (exit code, stdout)}."""
    if os.path.exists(inp.out_path):
        os.remove(inp.out_path)  # a failed solve must not leave the last op's file
    out = {}
    for label, argv in certify_argvs(inp):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        out[label] = (rc, buf.getvalue())
    return out


def kernel_reference(which: str, z: complex, zeta: complex):
    """(value, scale) of F0, H0 or G at z from the closed forms, in 40 digits.

    ``scale`` is the sum of the magnitudes of the formula's terms: G vanishes
    to second order at the circle, so its error is measured against its terms.
    """
    with mpmath.workdps(40):
        zm, wm = mpmath.mpc(z), mpmath.mpc(zeta)
        s = 1 - abs(zm) ** 2
        q = abs(1 - zm) ** 2
        if which == "H0":
            value = s**2 / (2 * q)
            return complex(value), float(abs(value))
        if which == "F0":
            value = s**2 / (2 * q) + s**3 / (2 * q**2)
            return complex(value), float(abs(value))
        d2 = abs(zm - wm) ** 2
        log_term = d2 * mpmath.log(abs(1 - mpmath.conj(wm) * zm) ** 2 / d2)
        flat = s * (1 - abs(wm) ** 2)
        return complex(log_term - flat), float(abs(log_term) + abs(flat))


def _checks_passed(text: str):
    lines = text.strip().splitlines()
    match = _CHECKS_LINE.match(lines[-1]) if lines else None
    if not match:
        return None
    return int(match.group(1)), int(match.group(2))


def certify_check(inp: CertifyInput, out) -> OpResult:
    problems = []
    for label, (rc, _) in out.items():
        if rc != 0:
            problems.append(f"{label} exited {rc}")

    for label in ("identities", "verify"):
        counts = _checks_passed(out[label][1])
        if counts is None or counts[1] == 0 or counts[0] != counts[1]:
            problems.append(f"{label}: check counts {counts}")

    lip = dict(
        line.split("=", 1) for line in out["lipschitz"][1].splitlines() if "=" in line)
    lip = {k.strip(): v.strip() for k, v in lip.items()}
    try:
        l_est = float(lip["L (boundary Lipschitz estimate)"])
        p_val = float(lip["P (gradient bound)"])
        expect = 220.0 / 3.0 * l_est + 4.0 * float(lip["sup|h|"]) \
            + 23.0 / 3.0 * float(lip["sup|g| (certified bound)"])
        if abs(p_val - expect) > 1e-9 * max(1.0, abs(expect)):
            problems.append(f"lipschitz: P = {p_val} but the formula gives {expect}")
    except (KeyError, ValueError):
        problems.append("lipschitz: report lines missing")
    if "verdict:" not in out["lipschitz"][1]:
        problems.append("lipschitz: no verdict")

    interior, points = float("inf"), 0
    try:
        with open(inp.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = np.asarray(doc["rows"], dtype=float)
        if doc["failures"]:
            problems.append(f"solve: {len(doc['failures'])} nodes failed")
        points = len(rows)
        pts = rows[:, 0] * np.exp(1j * rows[:, 1])
        computed = (rows[:, 2] + 1j * rows[:, 3], rows[:, 4] + 1j * rows[:, 5],
                    rows[:, 6] + 1j * rows[:, 7])
        reference = (inp.phi(pts), inp.phi.d_z(pts), inp.phi.d_zbar(pts))
        interior = _rel_err(computed, reference, rows[:, 0] <= EDGE_RADIUS)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        problems.append(f"solve: unreadable output ({exc})")

    edge = 0.0
    for which in ("F0", "H0", "G"):
        try:
            got = json.loads(out[f"kernel-{which}"][1])["value"]
            got = complex(got[0], got[1])
        except (ValueError, KeyError, IndexError, TypeError):
            problems.append(f"kernel {which}: unreadable output")
            continue
        ref, scale = kernel_reference(which, inp.z, inp.zeta)
        edge = max(edge, abs(got - ref) / scale)

    problems += _tolerance_problems("certify", interior, edge)
    return OpResult(points, interior, edge, problems)
