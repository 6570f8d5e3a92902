"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload grid --seeds 1-10

For every end-to-end metric it prints the median over the seeds and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to a third of the metric's bound in
``BENCHMARK.json``. Each run's full output goes to
``.perfbench-out/<workload>-<seed>.txt``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10 or 3,5,8")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=600)
        log = OUT / f"{args.workload}-{seed}.txt"
        log.write_text(proc.stdout + proc.stderr, encoding="utf-8")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        line = f"{name:24s} median {med:.6g}"
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line += f"  spread {spread:.4f}"
            if bounds.get(name) is not None:
                line += f"  (bound/3 {bounds[name] / 3:.4f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
