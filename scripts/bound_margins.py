#!/usr/bin/env python3
"""Margins of the Green-kernel mass bounds across the disk.

Sweeps |z| over a radius grid and reports how much slack each certified
integral bound leaves:

    int |G(z, .)| dA      <= 3/4
    int |G_z(z, .)| dA    <= 23/6
    int |H2(z, .)| dA     <= 5 (2 - |z|^2)
    int |H3(z, .)| dA     <= 7/3

The integrands, limits and quadrature rule are those of the matching
``verify.bound_suite`` checks. The gradient-mass bound 23/6 is the one
entering the certified Lipschitz constant, so its worst margin over the
sweep is printed last.

    python3 scripts/bound_margins.py --radii 0,0.2,0.4,0.6,0.8,0.9
"""

from __future__ import annotations

import argparse

import numpy as np

from biharmonic_disk import verify

# Column heading of each verify.bound_suite mass check, in column order.
LABELS = {
    "green-abs-mass": "int |G|",
    "green-grad-abs-mass": "int |G_z|",
    "h2-abs-mass": "int |H2|",
    "h3-abs-mass": "int |H3|",
}


def sweep(radii) -> float:
    print(f"{'|z|':>5}  " + "".join(f"{label + ' margin':>18}" for label in LABELS.values()))
    worst_grad = np.inf
    for r in radii:
        margins = {name: limit - mass.real
                   for name, mass, limit in verify._abs_masses(complex(r))}
        worst_grad = min(worst_grad, margins["green-grad-abs-mass"])
        print(f"{r:5.2f}  " + "".join(f"{margins[name]:18.6f}" for name in LABELS))
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
