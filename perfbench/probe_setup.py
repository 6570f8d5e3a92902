"""Set-up probe: run once per fresh process by ``run.py``.

Prints one JSON object: ``import_s``, the time to import the package and its
CLI, and ``first_use_s``, how much longer the first tiny solve and CLI call
take than the second (lazy node tables, caches). Interpreter start-up is not
counted; only what the package itself does.

Usage: python3 perfbench/probe_setup.py <checkout root>
"""

import json
import os
import sys
import time


def _tiny_use(bd, cli, devnull):
    f = bd.BoundaryData.from_fourier([(1, 1.0)])
    g = bd.SourceTerm([(1, 1, 1.0), (2, 0, 0.5)])
    t0 = time.perf_counter()
    bd.solve_grid(f, f, g, 1, 2, r_max=0.5, with_gradient=True)
    stdout, sys.stdout = sys.stdout, devnull
    try:
        cli.main(["kernel", "--which", "F0", "--z", "0.1,0.2"])
    finally:
        sys.stdout = stdout
    return time.perf_counter() - t0


def main() -> int:
    root = sys.argv[1]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import biharmonic_disk as bd
    import biharmonic_disk.cli as cli

    import_s = time.perf_counter() - t0
    with open(os.devnull, "w") as devnull:
        first = _tiny_use(bd, cli, devnull)
        second = _tiny_use(bd, cli, devnull)
    print(json.dumps({"import_s": import_s, "first_use_s": first - second}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
