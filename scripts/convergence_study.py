#!/usr/bin/env python3
"""Convergence study: solver error and finite-difference residual vs resolution.

Two sweeps on manufactured polynomial solutions:

  * solution error: sup |Phi - Phi*| over polar grids of increasing size,
    which should sit at the round-off floor for every polynomial case;
  * residual order: the finite-difference bilaplacian residual at a
    sequence of spacings, second order (slope ~ 2) on degree-6 solutions
    and at the floor on quartics.

Run from the repository root:

    python3 scripts/convergence_study.py --case sextic --spacings 0.04,0.02,0.01
"""

from __future__ import annotations

import argparse

import numpy as np

from biharmonic_disk import SourceTerm, manufactured_case, solve_grid
from biharmonic_disk.verify import fd_bilaplacian_residual

CASES = {
    "bump": SourceTerm([(0, 0, 1.0), (1, 1, -2.0), (2, 2, 1.0)]),  # (1-|z|^2)^2
    "flat": SourceTerm([(0, 0, 1.0), (2, 2, -1.0)]),  # 1-|z|^4
    "quartic": SourceTerm.monomial(2, 2),  # |z|^4
    "sextic": SourceTerm.monomial(3, 3),  # |z|^6
    "swirl": SourceTerm([(3, 1, 1.0), (2, 2, 0.5)]),  # non-radial degree 4
}

# Polar grids (n_r, n_theta) of the solution error sweep, and their outer radius.
GRIDS = ((8, 16), (16, 32), (32, 64))
R_MAX = 0.9


def solution_error_sweep(name: str) -> None:
    case = manufactured_case(CASES[name])
    print(f"\nsolution error, case {name!r}, r <= {R_MAX:g}")
    print(f"{'grid':>10}  {'sup error':>12}")
    for n_r, n_theta in GRIDS:
        fld = solve_grid(case.f, case.h, case.g, n_r, n_theta, r_max=R_MAX)
        err = float(np.max(np.abs(fld.values - case.phi_star(fld.points))))
        print(f"{n_r:>4}x{n_theta:<5}  {err:12.3e}")


def residual_sweep(name: str, spacings, extent: float) -> None:
    case = manufactured_case(CASES[name])
    print(f"\nbilaplacian residual, case {name!r}, extent {extent:g}")
    print(f"{'spacing':>8}  {'residual':>12}  {'order':>6}")
    previous = None
    for h in spacings:
        res = fd_bilaplacian_residual(case, h, extent=extent, tolerance=np.inf).computed.real
        order = ""
        if previous is not None:
            h_prev, r_prev = previous
            order = f"{np.log(r_prev / res) / np.log(h_prev / h):6.2f}"
        print(f"{h:8g}  {res:12.3e}  {order:>6}")
        previous = (h, res)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="sextic", choices=sorted(CASES))
    parser.add_argument("--spacings", default="0.04,0.02",
                        help="comma-separated finite-difference spacings")
    parser.add_argument("--extent", type=float, default=0.5,
                        help="half-width of the residual grid")
    args = parser.parse_args()
    solution_error_sweep(args.case)
    residual_sweep(args.case, [float(s) for s in args.spacings.split(",")], args.extent)


if __name__ == "__main__":
    main()
