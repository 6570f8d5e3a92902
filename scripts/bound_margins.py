#!/usr/bin/env python3
"""Margins of the Green-kernel mass bounds across the disk.

Sweeps |z| over a radius grid and reports how much slack each certified
integral bound leaves:

    int |G(z, .)| dA      <= 3/4
    int |G_z(z, .)| dA    <= 23/6
    int |H2(z, .)| dA     <= 5 (2 - |z|^2)
    int |H3(z, .)| dA     <= 7/3

The gradient-mass bound 23/6 is the one entering the certified Lipschitz
constant, so its worst margin over the sweep is printed last.

    python3 scripts/bound_margins.py --radii 0,0.2,0.4,0.6,0.8,0.9
"""

from __future__ import annotations

import argparse

import numpy as np

from biharmonic_disk import green
from biharmonic_disk.quadrature import DEFAULT_RULES, disk_integrate


BOUNDS = (
    ("int |G|", lambda z, zeta: np.abs(green.g_eval(z, zeta)), lambda z: 0.75),
    ("int |G_z|", lambda z, zeta: np.abs(green.g_dz(z, zeta).d_z), lambda z: 23.0 / 6.0),
    ("int |H2|", lambda z, zeta: np.abs(green.h2_eval(z, zeta)), lambda z: 5.0 * (2.0 - abs(z) ** 2)),
    ("int |H3|", lambda z, zeta: np.abs(green.h3_eval(z, zeta)), lambda z: 7.0 / 3.0),
)


def sweep(radii) -> float:
    # |.| integrands lose smoothness on the sign/branch locus, so integrate
    # on the doubled plain rule, as verify.bound_suite does, instead of
    # recentring
    rule = DEFAULT_RULES.disk.doubled()
    print(f"{'|z|':>5}  " + "".join(f"{name + ' margin':>18}" for name, _, _ in BOUNDS))
    worst_grad = np.inf
    for r in radii:
        z = complex(r)
        margins = []
        for name, integrand, limit in BOUNDS:
            mass = disk_integrate(rule, lambda zeta: integrand(z, zeta)).real
            margins.append(limit(z) - mass)
            if name == "int |G_z|":
                worst_grad = min(worst_grad, margins[-1])
        print(f"{r:5.2f}  " + "".join(f"{m:18.6f}" for m in margins))
    print(f"\nsmallest gradient-mass margin: {worst_grad:.6f} (must stay positive)")
    return worst_grad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radii", default="0,0.2,0.4,0.6,0.8,0.9",
                        help="comma-separated |z| values to sweep")
    args = parser.parse_args()
    worst = sweep([float(r) for r in args.radii.split(",")])
    raise SystemExit(0 if worst > 0 else 1)


if __name__ == "__main__":
    main()
