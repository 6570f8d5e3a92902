"""Checks of the benchmark's tracer (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py

One traced op of each workload runs once per test run (about 15 s).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import biharmonic_disk as bd  # noqa: E402
from biharmonic_disk import cli, lipschitz, quadrature, solver, verify  # noqa: E402

import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

# Spans each workload is designed to reach.
EXPECTED_SPANS = {
    "grid": {"solver.grid", "solver.green", "solver.green_grad", "solver.boundary",
             "solver.boundary_grad", "solver.resample", "kernels"},
    "boundary": {"solver", "solver.boundary", "solver.boundary_grad",
                 "solver.resample", "kernels"},
    "certify": {"solver.grid", "solver.green", "solver.green_grad", "solver.boundary",
                "solver.boundary_grad", "solver.resample", "solver", "kernels",
                "green", "quadrature", "lipschitz", "verify", "cli"}
               | {f"cli.{cmd}" for cmd in T.CLI_COMMANDS},
}

# Layers the grid and boundary solver paths never call.
NOT_ON_SOLVER_PATH = {"quadrature", "green", "verify", "lipschitz", "cli"}


def _inputs(name, work_dir):
    rng = np.random.default_rng(0)
    if name == "grid":
        return W.grid_input(rng, bd), lambda inp: W.grid_op(bd, inp), W.grid_check
    if name == "boundary":
        return W.boundary_input(rng, bd), lambda inp: W.boundary_op(bd, inp), W.boundary_check
    case = ("rotation", str(run.CASES_DIR / "rotation.json"), W.DEMO_SOLUTIONS["rotation"])
    return (W.certify_input(rng, case, work_dir), lambda inp: W.certify_op(cli, inp),
            W.certify_check)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced op per workload: {name: (tracer, op wall time)}."""
    out = {}
    for name in EXPECTED_SPANS:
        inp, op, check = _inputs(name, str(tmp_path_factory.mktemp(name)))
        tr = T.Tracer(T.TARGETS)
        tr.install()
        try:
            tr.open_root()
            try:
                result = op(inp)
            finally:
                wall = tr.close_root()
        finally:
            tr.uninstall()
        assert check(inp, result).ok
        out[name] = (tr, wall)
    return out


# Entry points imported by name into other modules, each with its importer.
REIMPORTED = [
    (verify, "solve_points"), (verify, "gradient_point"), (lipschitz, "gradient_point"),
    (cli, "solve_grid"), (verify, "disk_integrate_centered"),
    (lipschitz, "disk_integrate_centered"), (verify, "estimate_boundary_lipschitz"),
    (verify, "p_bound"), (solver.kernels, "f0_eval"), (bd, "solve_grid"),
]


def test_entry_points_wrapped_under_every_import_name():
    originals = [getattr(mod, name) for mod, name in REIMPORTED]
    tr = T.Tracer(T.TARGETS)
    tr.install()
    try:
        assert tr.missing == []
        for (mod, name), original in zip(REIMPORTED, originals):
            wrapped = getattr(mod, name)
            assert T.is_wrapped(wrapped), f"{mod.__name__}.{name}"
            assert wrapped.__wrapped__ is original
        assert T.is_wrapped(quadrature.MobiusMap.pullback)
        assert T.is_wrapped(solver.BoundaryData.eval_at)
    finally:
        tr.uninstall()
    assert [getattr(mod, name) for mod, name in REIMPORTED] == originals
    assert not T.is_wrapped(solver.BoundaryData.eval_at)
    assert not T.is_wrapped(quadrature.MobiusMap.pullback)


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_named_spans_fire_on_their_workload(traced, name):
    tr, _ = traced[name]
    fired = {span for span, st in tr.stats.items() if st.calls > 0}
    assert EXPECTED_SPANS[name] <= fired, EXPECTED_SPANS[name] - fired
    assert not tr.counter_errors
    if name in ("grid", "boundary"):
        assert not fired & NOT_ON_SOLVER_PATH


def test_green_layer_idle_on_boundary(traced):
    tr, wall = traced["boundary"]
    green = tr.stats["solver.green"]
    assert green.counts["quad_nodes"] == 0
    assert green.self_s < 1e-2 * wall
    assert "solver.green_grad" not in tr.stats


def test_green_dominates_grid(traced):
    tr, wall = traced["grid"]
    share = (tr.stats["solver.green"].self_s + tr.stats["solver.green_grad"].self_s) / wall
    assert share > 0.8


def test_counts_on_certify(traced):
    tr, _ = traced["certify"]
    layers = T.layer_metrics(tr, 1)
    assert layers["cli.bytes_written"] > 0
    assert layers["verify.checks"] > 0 and layers["verify.checks_failed"] == 0
    assert layers["lipschitz.chord_pairs"] > 0 and layers["lipschitz.quotient_pairs"] > 0
    assert layers["quadrature.nodes"] > 0 and layers["green.evals"] > 0
    assert layers["solver.grid.retry_calls"] == 0


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_self_times_sum_to_op_wall(traced, name):
    tr, wall = traced[name]
    selves = [st.self_s for st in tr.stats.values()]
    assert min(selves) >= 0.0
    unaccounted = wall - sum(selves)
    assert -1e-6 <= unaccounted <= tr.overhead_s + 1e-6


def test_untraced_run_installs_no_wrappers(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(T.Tracer, "install", refuse)
    inp, op, check = _inputs("certify", str(tmp_path))

    def watched(inp):
        for mod in T._package_modules().values():
            assert not any(T.is_wrapped(v) for v in vars(mod).values()), mod.__name__
        assert not T.is_wrapped(solver.BoundaryData.eval_at)
        return op(inp)

    runner = type("R", (), {"make": staticmethod(lambda i: inp), "op": staticmethod(watched),
                            "check": staticmethod(check)})()
    records = run.run_loop(runner, 0.0, None)
    assert len(records) == 1 and records[0]["error"] is None
    assert records[0]["result"].ok


def test_retry_calls_count_the_per_node_fallback(monkeypatch):
    real = solver._green_potential_batch

    def refuse_batches(g, zs, rules=solver.DEFAULT_RULES):
        if np.size(zs) > 1:
            raise FloatingPointError("batch refused")
        return real(g, zs, rules)

    monkeypatch.setattr(solver, "_green_potential_batch", refuse_batches)
    f = bd.BoundaryData.from_fourier([(1, 1.0)])
    tr = T.Tracer(T.TARGETS)
    tr.install()
    try:
        tr.open_root()
        fld = bd.solve_grid(f, f, bd.SourceTerm.constant(4.0), 2, 3, r_max=0.5)
        tr.close_root()
    finally:
        tr.uninstall()
    assert fld.failures == []
    layers = T.layer_metrics(tr, 1)
    assert layers["solver.grid.retry_calls"] == 6
    assert layers["solver.grid.failures"] == 0
