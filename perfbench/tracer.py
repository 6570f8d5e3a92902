"""Span tracer for the benchmark's traced runs.

The tracer wraps the entry points of each ``biharmonic_disk`` module from the
outside: it replaces the function object under every module name it was
imported into (``verify.solve_points`` is the same object as
``solver.solve_points``, ``cli.solve_grid`` as ``solver.solve_grid``, and so
on), and methods on their class. Nothing under ``src/`` is edited, and an
untraced run never constructs a tracer, so it installs no wrappers.

Each wrapped call is a span. A span's self time is its duration minus the
time its child spans cover (including the tracer's own bookkeeping inside
them), so the self times of all spans, the op's root span included, add up
to the op's wall time less ``overhead_s``. A call into a span of the same name as the one already open
is folded into it: ``disk_integrate`` delegating to
``disk_integrate_centered`` is one ``quadrature`` call, not two.

After each call a counter reads work counts from the arguments and the
result (points, kernel entries, checks, ...). Counting is done outside the
span's timed interval and is charged to ``overhead_s``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

PACKAGE = "biharmonic_disk"

# Exceptions a counter may raise when the program's signatures or internals
# change; the span is still timed, only its counts are lost.
_COUNTER_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OSError)


@dataclass
class SpanStats:
    """Totals for one span name over a run."""

    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, key: str, value: float) -> None:
        if key.startswith("max_"):
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value


@dataclass
class _Frame:
    name: str
    start: float
    args: dict
    child_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` recorded as span ``span``."""

    span: str
    module: str
    qualname: str
    count: Optional[Callable] = None  # (args, result, tracer) -> {key: increment}
    enter: Optional[Callable] = None  # (args, tracer), before the call, even if it raises


class Tracer:
    """Collects spans in memory while installed; ``uninstall`` restores everything."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.overhead_s = 0.0
        self.counter_errors: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        self.missing = []
        for target in self.targets:
            owner, attr, original = _resolve(modules, target)
            if original is None:
                self.missing.append(f"{target.module}:{target.qualname}")
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- spans --------------------------------------------------------------

    def open_root(self, name: str = "op") -> None:
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self._stack.append(_Frame(name, time.perf_counter(), {}))

    def close_root(self) -> float:
        end = time.perf_counter()
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("root span closed with spans still open")
        wall = end - frame.start
        st = self.stats[frame.name]
        st.calls += 1
        st.wall_s += wall
        st.self_s += wall - frame.child_s
        return wall

    def add(self, span: str, key: str, value: float) -> None:
        self.stats[span].add(key, value)

    def frames(self) -> list[_Frame]:
        return list(self._stack)

    def _wrap(self, target: Target, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1].name == target.span:
                return fn(*args, **kwargs)
            t_pre = time.perf_counter()
            bound = {}
            if sig is not None:
                try:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    bound = ba.arguments
                except TypeError:
                    bound = {}
            if target.enter is not None:
                try:
                    target.enter(bound, self)
                except _COUNTER_ERRORS:
                    self.counter_errors[target.span] += 1
            frame = _Frame(target.span, time.perf_counter(), bound)
            self._stack.append(frame)
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t_end = time.perf_counter()
                self._stack.pop()
                st = self.stats[target.span]
                st.calls += 1
                st.wall_s += t_end - frame.start
                st.self_s += t_end - frame.start - frame.child_s
                if target.count is not None and returned:
                    try:
                        for key, value in target.count(bound, result, self).items():
                            st.add(key, float(value))
                    except _COUNTER_ERRORS:
                        self.counter_errors[target.span] += 1
                t_done = time.perf_counter()
                self.overhead_s += (frame.start - t_pre) + (t_done - t_end)
                if self._stack:
                    self._stack[-1].child_s += t_done - t_pre

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = target.span
        return wrapper


def _package_modules() -> dict:
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{PACKAGE}.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _resolve(modules, target: Target):
    """(owner, attribute, original) for a target, or (None, None, None)."""
    mod = modules.get(f"{PACKAGE}.{target.module}")
    if mod is None:
        return None, None, None
    owner = mod
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    if isinstance(owner, type):
        original = vars(owner).get(parts[-1])  # the plain function, not a bound method
    else:
        original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None, None, None
    return owner, parts[-1], original


def is_wrapped(obj) -> bool:
    return hasattr(obj, "__perfbench_span__")


# ---------------------------------------------------------------------------
# counters: (bound arguments, result, tracer) -> {key: increment}


def _size(x) -> int:
    return int(np.size(x))


def _count_grid(args, result, tracer):
    return {"failures": len(result.failures)}


def _count_green(args, result, tracer):
    zs, g, rules = args["zs"], args["g"], args["rules"]
    n_points = _size(zs)
    if g.is_zero:
        return {"points": n_points, "quad_nodes": 0}
    rho, _ = rules.disk.centered_radial_nodes
    return {"points": n_points, "quad_nodes": n_points * rho.size * rules.disk.n_angular}


def _enter_boundary(args, tracer):
    """Count size-1 value batches issued inside a multi-node solve_grid.

    solve_grid's per-node fallback re-solves the grid one node at a time, each
    with one boundary value batch.
    """
    if np.size(args["zs"]) != 1:
        return
    for frame in tracer.frames():
        if frame.name == "solver.grid" and frame.args["n_r"] * frame.args["n_theta"] > 1:
            tracer.add("solver.grid", "retry_calls", 1)
            return


def _count_boundary(args, result, tracer):
    from biharmonic_disk import solver

    zs = np.asarray(args["zs"])
    n_points = zs.size
    if n_points == 0:
        return {"points": 0}
    nodes = solver._effective_nodes(args["rules"].circle.n_nodes, zs.ravel())
    channels = (args["f"] is not None) + (args["h"] is not None)
    return {
        "points": n_points,
        "kernel_entries": channels * int(nodes.sum()),
        "max_circle_nodes": int(nodes.max()),
    }


def _count_resample(args, result, tracer):
    return {"dense_entries": _size(result) * args["self"].n}


def _count_evals(args, result, tracer):
    if hasattr(result, "d_z"):
        return {"evals": _size(result.d_z)}
    if isinstance(result, tuple):
        return {"evals": _size(result[0])}
    return {"evals": _size(result)}


def _disk_nodes(rule, centered: bool) -> int:
    if centered:
        return rule.centered_radial_nodes[0].size * rule.n_angular
    return rule.n_radial * rule.n_angular


def _count_circle(args, result, tracer):
    return {"nodes": args["rule"].n_nodes}


def _count_disk(args, result, tracer):
    rule = args["rule"]
    return {"nodes": _disk_nodes(rule, rule.scheme == "centered")}


def _count_disk_centered(args, result, tracer):
    return {"nodes": _disk_nodes(args["rule"], True)}


def _count_checks(args, result, tracer):
    checks = result if isinstance(result, list) else [result]
    return {"checks": len(checks), "checks_failed": sum(not c.passed for c in checks)}


def _count_chords(args, result, tracer):
    n = args["f"].n
    return {"chord_pairs": n * (n - 1) // 2}


def _count_quotient(args, result, tracer):
    n = int(np.isfinite(args["field"].values).sum())
    return {"quotient_pairs": min(n * (n - 1) // 2, int(args["max_pairs"]))}


def _count_written(args, result, tracer):
    return {"bytes_written": os.path.getsize(args["path"])}


def _targets(span, module, names, count=None):
    return [Target(span, module, name, count) for name in names]


TARGETS = (
    [Target("solver.grid", "solver", "solve_grid", _count_grid),
     Target("solver.green", "solver", "_green_potential_batch", _count_green),
     Target("solver.green_grad", "solver", "_green_gradient_batch", _count_green),
     Target("solver.boundary", "solver", "_boundary_batch", _count_boundary,
            _enter_boundary),
     Target("solver.boundary_grad", "solver", "_boundary_gradient_batch", _count_boundary),
     Target("solver.resample", "solver", "BoundaryData.eval_at", _count_resample)]
    + _targets("solver", "solver", [
        "solve_point", "solve_points", "gradient_point", "boundary_gradient",
        "green_gradient", "green_potential", "f0_transform", "h0_transform"])
    + _targets("kernels", "kernels", [
        "f0_eval", "h0_eval", "poisson_eval", "f0_dz", "h0_dz",
        "_f0_dz_values", "_h0_dz_values"], _count_evals)
    + _targets("kernels", "kernels", [
        "kernel_moment", "kernel_moment_series", "polylog_integral"],
        lambda args, result, tracer: {"evals": 1})
    + _targets("green", "green", [
        "g_eval", "g_dz", "h2_eval", "h3_eval", "mobius_pullback",
        "MobiusMap.apply", "MobiusMap.pullback"], _count_evals)
    + [Target("quadrature", "quadrature", "circle_integrate", _count_circle),
       Target("quadrature", "quadrature", "disk_integrate", _count_disk),
       Target("quadrature", "quadrature", "disk_integrate_centered", _count_disk_centered)]
    + [Target("lipschitz", "lipschitz", "estimate_boundary_lipschitz", _count_chords),
       Target("lipschitz", "lipschitz", "empirical_quotient", _count_quotient)]
    + _targets("lipschitz", "lipschitz", [
        "compute_ab", "classify", "analyze_case", "p_bound"])
    + _targets("verify", "verify", [
        "identity_suite", "bound_suite", "fd_bilaplacian_residual",
        "boundary_trace_check", "gradient_crosscheck", "solution_error"], _count_checks)
    + _targets("verify", "verify", ["manufactured_case"])
    + [Target(f"cli.{cmd}", "cli", f"cmd_{cmd}")
       for cmd in ("identities", "solve", "verify", "lipschitz", "kernel")]
    + _targets("cli", "cli", ["main", "parse_case"])
    + [Target("cli", "cli", "_atomic_write_json", _count_written)]
)

CLI_COMMANDS = ("identities", "solve", "verify", "lipschitz", "kernel")

# (span, count keys) reported per layer; every span also reports self_s and calls.
LAYERS = (
    ("solver.grid", ("retry_calls", "failures")),
    ("solver.green", ("points", "quad_nodes")),
    ("solver.green_grad", ("points",)),
    ("solver.boundary", ("points", "kernel_entries", "max_circle_nodes")),
    ("solver.boundary_grad", ("points", "kernel_entries", "max_circle_nodes")),
    ("solver.resample", ("dense_entries",)),
    ("solver", ()),
    ("kernels", ("evals",)),
    ("green", ("evals",)),
    ("quadrature", ("nodes",)),
    ("lipschitz", ("chord_pairs", "quotient_pairs")),
    ("verify", ("checks", "checks_failed")),
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op figures for every layer: run totals divided by the traced op count.

    ``max_*`` counts are the largest value seen, not divided.
    """
    n = max(n_ops, 1)
    out = {}
    for span, keys in LAYERS:
        st = tracer.stats.get(span, SpanStats())
        out[f"{span}.self_s"] = st.self_s / n
        out[f"{span}.calls"] = st.calls / n
        for key in keys:
            value = st.counts.get(key, 0.0)
            out[f"{span}.{key}"] = value if key.startswith("max_") else value / n
    cli_spans = ["cli"] + [f"cli.{cmd}" for cmd in CLI_COMMANDS]
    out["cli.self_s"] = sum(tracer.stats[s].self_s for s in cli_spans if s in tracer.stats) / n
    out["cli.bytes_written"] = tracer.stats.get("cli", SpanStats()).counts.get(
        "bytes_written", 0.0) / n
    for cmd in CLI_COMMANDS:
        st = tracer.stats.get(f"cli.{cmd}", SpanStats())
        out[f"cli.{cmd}.wall_s"] = st.wall_s / n
    root = tracer.stats.get("op", SpanStats())
    out["op.wall_s"] = root.wall_s / n
    out["op.self_s"] = root.self_s / n
    out["trace.bookkeeping_s"] = tracer.overhead_s / n
    return out
