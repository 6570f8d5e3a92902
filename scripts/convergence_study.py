#!/usr/bin/env python3
"""Convergence study: the finite-difference residual vs spacing.

The finite-difference bilaplacian residual of a manufactured polynomial
solution at a sequence of spacings: second order (slope ~ 2) on degree-6
solutions and at the floor on quartics. The solver itself is exact for
this data, so only the check's own discretisation error varies. A spacing
the package refuses (one whose grid passes the node cap, say) ends the
sweep with one ``error:`` line on stderr and exit status 2, after the rows
already printed.

Run from the repository root:

    python3 scripts/convergence_study.py --case sextic --spacings 0.04,0.02,0.01
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from biharmonic_disk import SourceTerm, manufactured_case
from biharmonic_disk.errors import DegenerateDataError, DomainError, SingularityError
from biharmonic_disk.verify import fd_bilaplacian_residual

CASES = {
    "bump": SourceTerm([(0, 0, 1.0), (1, 1, -2.0), (2, 2, 1.0)]),  # (1-|z|^2)^2
    "flat": SourceTerm([(0, 0, 1.0), (2, 2, -1.0)]),  # 1-|z|^4
    "quartic": SourceTerm.monomial(2, 2),  # |z|^4
    "sextic": SourceTerm.monomial(3, 3),  # |z|^6
    "swirl": SourceTerm([(3, 1, 1.0), (2, 2, 0.5)]),  # non-radial degree 4
}


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="sextic", choices=sorted(CASES))
    parser.add_argument("--spacings", default="0.04,0.02",
                        help="comma-separated finite-difference spacings")
    parser.add_argument("--extent", type=float, default=0.5,
                        help="half-width of the residual grid")
    args = parser.parse_args()
    try:
        residual_sweep(args.case, [float(s) for s in args.spacings.split(",")], args.extent)
    except (DomainError, DegenerateDataError, SingularityError) as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
