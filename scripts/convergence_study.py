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
from dataclasses import dataclass

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


@dataclass
class StudyConfig:
    case: str = "sextic"
    spacings: tuple = (0.04, 0.02)
    extent: float = 0.5
    grids: tuple = ((8, 16), (16, 32), (32, 64))
    r_max: float = 0.9
    run_field: bool = True
    run_residual: bool = True


def solution_error_sweep(cfg: StudyConfig) -> None:
    case = manufactured_case(CASES[cfg.case])
    print(f"\nsolution error, case {cfg.case!r}, r <= {cfg.r_max:g}")
    print(f"{'grid':>10}  {'sup error':>12}")
    for n_r, n_theta in cfg.grids:
        fld = solve_grid(case.f, case.h, case.g, n_r, n_theta, r_max=cfg.r_max)
        err = float(np.max(np.abs(fld.values - case.phi_star(fld.points))))
        print(f"{n_r:>4}x{n_theta:<5}  {err:12.3e}")


def residual_sweep(cfg: StudyConfig) -> None:
    case = manufactured_case(CASES[cfg.case])
    print(f"\nbilaplacian residual, case {cfg.case!r}, extent {cfg.extent:g}")
    print(f"{'spacing':>8}  {'residual':>12}  {'order':>6}")
    previous = None
    for h in cfg.spacings:
        res = fd_bilaplacian_residual(case, h, extent=cfg.extent, tolerance=np.inf).computed.real
        order = ""
        if previous is not None:
            h_prev, r_prev = previous
            order = f"{np.log(r_prev / res) / np.log(h_prev / h):6.2f}"
        print(f"{h:8g}  {res:12.3e}  {order:>6}")
        previous = (h, res)


def parse_args() -> StudyConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="sextic", choices=sorted(CASES))
    parser.add_argument("--spacings", default="0.04,0.02",
                        help="comma-separated finite-difference spacings")
    parser.add_argument("--extent", type=float, default=0.5,
                        help="half-width of the residual grid")
    parser.add_argument("--skip-field", action="store_true",
                        help="skip the grid solution error sweep")
    parser.add_argument("--skip-residual", action="store_true",
                        help="skip the residual order sweep")
    args = parser.parse_args()
    return StudyConfig(
        case=args.case,
        spacings=tuple(float(s) for s in args.spacings.split(",")),
        extent=args.extent,
        run_field=not args.skip_field,
        run_residual=not args.skip_residual,
    )


def main() -> None:
    cfg = parse_args()
    if cfg.run_field:
        solution_error_sweep(cfg)
    if cfg.run_residual:
        residual_sweep(cfg)


if __name__ == "__main__":
    main()
