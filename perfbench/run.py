"""Benchmark of the biharmonic-disk solver: one closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {grid,boundary,certify} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; no install is needed.
One client issues ops back to back for ``--seconds`` seconds (the op in
flight when time runs out is finished). BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics: set-up in fresh processes,
then op wall times, throughput, accuracy against exact references and peak
RSS. ``--trace 1`` alternates untraced and traced runs of the same input and
reports per-layer self times and work counts per traced op, plus the ratio
of traced to untraced op time. Metric names and units are those declared in
``BENCHMARK.json``.

Every op is checked against its exact reference; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 1 when any op failed or missed its tolerance, 2 when the checkout
lacks the package or the demo cases.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CASES_DIR = ROOT / "scripts" / "cases"
PROBE = Path(__file__).resolve().parent / "probe_setup.py"

WORKLOADS = ("grid", "boundary", "certify")
BLAS_THREADS = 1
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Relative errors below this are round-off and all read as ROUND_OFF: the
# seed's interior errors sit at 1e-15..1e-12 and move with any reordering.
ROUND_OFF = 1e-12

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _missing_inputs() -> list[str]:
    need = [SRC / "biharmonic_disk" / "__init__.py", ROOT / "BENCHMARK.json"]
    need += [CASES_DIR / f"{name}.json" for name in ("pure_load", "rotation", "mixed")]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(env) -> list[float]:
    """Import plus first-use set-up time of the package, one fresh process each."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(ROOT)], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(doc["import_s"] + doc["first_use_s"])
    return samples


def tail(times):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With fewer than 100 samples that percentile would fall below p90 (below
    the median under 20 samples), so the maximum is reported as p100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def digits(err: float) -> float:
    """Correct decimal digits of a relative error, capped at the round-off floor."""
    return -math.log10(max(err, ROUND_OFF))


class Runner:
    """Inputs, op and reference check of one workload, seeded."""

    def __init__(self, name, seed, work_dir):
        import numpy as np

        import biharmonic_disk as bd
        import biharmonic_disk.cli as cli
        import workloads as W

        self.rng = np.random.default_rng(seed)
        if name == "grid":
            self.make = lambda i: W.grid_input(self.rng, bd)
            self.op = lambda inp: W.grid_op(bd, inp)
            self.check = W.grid_check
        elif name == "boundary":
            self.make = lambda i: W.boundary_input(self.rng, bd)
            self.op = lambda inp: W.boundary_op(bd, inp)
            self.check = W.boundary_check
        else:
            cases = W.certify_cases(self.rng, str(CASES_DIR), work_dir)
            self.make = lambda i: W.certify_input(self.rng, cases[i % len(cases)], work_dir)
            self.op = lambda inp: W.certify_op(cli, inp)
            self.check = W.certify_check
        # lazy node tables and caches fill here, outside the timed ops: a tiny
        # solve, and for certify one untimed op on the cheap rotation case
        f = bd.BoundaryData.from_fourier([(1, 1.0)])
        bd.solve_grid(f, f, bd.SourceTerm([(1, 1, 1.0)]), 1, 2, r_max=0.5,
                      with_gradient=True)
        if name == "certify":
            rotation = ("rotation", str(CASES_DIR / "rotation.json"),
                        W.DEMO_SOLUTIONS["rotation"])
            W.certify_op(cli, W.certify_input(np.random.default_rng(0), rotation, work_dir))


def run_loop(runner, seconds, tracer):
    """Closed loop until ``seconds`` have passed; returns the op records.

    With a tracer, ops come in pairs on the same input, one untraced and one
    traced, so the two halves see identical work; which goes first
    alternates from pair to pair.
    """
    records = []
    min_ops = 1 if tracer is None else 2
    start = time.perf_counter()
    i = 0
    inp = None
    while i < min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and (i % 2) != (i // 2) % 2
        if tracer is None or i % 2 == 0:
            inp = runner.make(i if tracer is None else i // 2)
        rec = {"traced": traced, "wall": None, "result": None, "error": None}
        try:
            if traced:
                tracer.install()
                try:
                    tracer.open_root()
                    try:
                        out = runner.op(inp)
                    finally:
                        rec["wall"] = tracer.close_root()
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                out = runner.op(inp)
                rec["wall"] = time.perf_counter() - t0
            rec["result"] = runner.check(inp, out)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op, with its traceback
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
        records.append(rec)
        i += 1
    return records


def end_to_end(records, setup_samples) -> dict:
    """The declared end-to-end metrics of a run whose ops all passed."""
    times = [r["wall"] for r in records]
    results = [r["result"] for r in records]
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times),
        "points_per_s": statistics.median(r.points / t for r, t in zip(results, times)),
        "max_err_digits": statistics.median(digits(r.interior_err) for r in results),
        "edge_err_digits": statistics.median(digits(r.edge_err) for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _failed(records) -> int:
    return sum(1 for r in records if r["error"] or not r["result"].ok)


def _report(args, env, records, setup_samples):
    """Human-readable lines before the result line: ops, sample counts, raw errors."""
    times = [r["wall"] for r in records if r["wall"] is not None and not r["traced"]]
    checked = [r["result"] for r in records if r["result"] is not None]
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: closed loop, 1 client, {len(records)} ops")
    for i, r in enumerate(records):
        res = r["result"]
        line = f"op {i}: wall={r['wall'] or 0.0:.4f} s traced={int(r['traced'])}"
        if res is not None:
            line += (f" points={res.points} interior_err={res.interior_err:.3e}"
                     f" edge_err={res.edge_err:.3e}")
            if res.problems:
                line += f" FAILED: {'; '.join(res.problems)}"
        elif r["error"]:
            line += " FAILED: raised"
        print(line)
    if setup_samples:
        print(f"setup: median of {len(setup_samples)} fresh processes")
    if times:
        value, pct = tail(times)
        print(f"op_p50_s over {len(times)} untraced ops")
        print(f"op_tail_s = {value:.6g} s: p{pct:.4g}"
              f"{', the maximum: fewer than 100 samples' if len(times) < 100 else ''}")
    if checked:
        print(f"max_err = {max(c.interior_err for c in checked):.3e} "
              f"(sup relative error over {len(checked)} ops, r <= 0.9)")
        print(f"edge_err = {max(c.edge_err for c in checked):.3e} "
              f"(sup relative error, r > 0.9)")
    failed = _failed(records)
    print(f"fail_ratio = {failed}/{len(records)} = {failed / len(records):g}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = _missing_inputs()
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # pin BLAS before numpy loads; children inherit the same environment
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import biharmonic_disk

    if Path(biharmonic_disk.__file__).resolve().parent != SRC / "biharmonic_disk":
        print(f"error: imported {biharmonic_disk.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    import tracer as T

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    setup_samples = [] if args.trace else measure_setup(dict(os.environ))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=str(ROOT)) as work_dir:
        runner = Runner(args.workload, args.seed, work_dir)
        tracer = T.Tracer(T.TARGETS) if args.trace else None
        records = run_loop(runner, args.seconds, tracer)

    _report(args, env, records, setup_samples)
    failed = _failed(records)
    if failed:
        print(json.dumps({"correct": False, "attempted": len(records),
                          "failed": failed, "metrics": {}}))
        return 1

    if tracer is None:
        metrics = end_to_end(records, setup_samples)
        section = "end_to_end"
    else:
        n_traced = sum(1 for r in records if r["traced"])
        metrics = T.layer_metrics(tracer, n_traced)
        traced = [r["wall"] for r in records if r["traced"]]
        untraced = [r["wall"] for r in records if not r["traced"]]
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        for item in tracer.missing:
            print(f"trace: entry point {item} not found", file=sys.stderr)
        for span, n in tracer.counter_errors.items():
            print(f"trace: {n} calls of {span} could not be counted", file=sys.stderr)
        section = "per_layer"

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json {section}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": len(records),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
