"""The package's import boundary and its walkers' allocation pattern, each in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biharmonic_disk
from biharmonic_disk import lipschitz, quadrature, verify

SRC = str(Path(biharmonic_disk.__file__).resolve().parent.parent)

# modules a fresh process must not pay for unless a command runs them
_ORACLE = ["biharmonic_disk.verify", "biharmonic_disk.lipschitz", "biharmonic_disk.quadrature",
           "biharmonic_disk.kernels"]
_HEAVY = _ORACLE + ["hashlib", "numpy.polynomial"]

# biharmonic_disk.__all__, pinned: a name enters or leaves it only on purpose
_PUBLIC = {
    "ABResult", "BoundaryData", "Case", "CaseFormatError", "CheckResult", "CircleRule",
    "DEFAULT_RULES", "DegenerateDataError", "DiskRule", "DomainError", "KernelParts",
    "LipschitzReport", "ManufacturedCase", "RuleSet", "SingularityError", "Solution",
    "SolutionField", "SourceTerm", "analyze_case", "bound_suite", "boundary_gradient",
    "boundary_trace_check", "case_fingerprint", "circle_integrate", "classify", "compute_ab",
    "disk_integrate_centered", "empirical_quotient", "errors", "estimate_boundary_lipschitz",
    "f0_dz", "f0_eval", "f0_transform", "fd_bilaplacian_residual", "gradient_crosscheck",
    "green_gradient", "green_potential", "h0_dz", "h0_eval", "h0_transform", "identity_suite",
    "kernel_moment", "kernel_moment_series", "kernels", "lipschitz", "manufactured_case",
    "oracle_suite", "p_bound", "quadrature", "solve_grid", "solve_point", "solve_points",
    "solver", "uniqueness_checks", "verify",
}


def _fresh(code: str, tunables=None):
    """Run code in a new interpreter on this checkout's package; its last stdout line, as JSON.

    The allocator tunables of glibc are left out of the child's environment,
    so that it runs with the defaults a user's process has, unless given in
    ``tunables``.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(tunables or {})
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded(modules):
    return f"[m for m in {modules!r} if m in sys.modules]"


def test_importing_the_package_and_cli_loads_no_oracle_module():
    loaded = _fresh(f"import json, sys\nimport biharmonic_disk, biharmonic_disk.cli\n"
                    f"print(json.dumps({_loaded(_HEAVY)}))")
    assert loaded == []


def test_kernel_command_loads_kernels_only():
    loaded = _fresh(
        "import io, json, sys, contextlib\nimport biharmonic_disk.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['kernel', '--which', 'F0', '--z', '0.1,0.2'])\n"
        f"print(json.dumps([rc, {_loaded(_HEAVY)}]))")
    assert loaded[0] == 0
    assert "biharmonic_disk.kernels" in loaded[1]
    assert not {"biharmonic_disk.verify", "biharmonic_disk.quadrature",
                "biharmonic_disk.lipschitz"} & set(loaded[1])


def test_verify_command_loads_no_oracle_module():
    # the oracle's modules are imported by the oracle functions alone
    case = Path(__file__).resolve().parent.parent / "scripts" / "cases" / "mixed.json"
    loaded = _fresh(
        "import io, json, sys, contextlib\nimport biharmonic_disk.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main(['verify', '--case', {str(case)!r}])\n"
        f"print(json.dumps([rc, {_loaded(_HEAVY)}]))")
    assert loaded[0] == 0
    assert "biharmonic_disk.verify" in loaded[1]
    assert not {"biharmonic_disk.kernels", "biharmonic_disk.quadrature"} & set(loaded[1])


def test_every_public_name_is_its_defining_modules_object():
    # in a fresh process, so that every lazy name is served by __getattr__
    code = """
import importlib, json, sys, types
import biharmonic_disk as bd
bad = []
for name in bd.__all__:
    obj = getattr(bd, name)
    if isinstance(obj, types.ModuleType):
        owner = obj.__name__ == f"biharmonic_disk.{name}" and obj
    else:
        module = bd._LAZY.get(name) or obj.__module__.rsplit(".", 1)[-1]
        owner = getattr(importlib.import_module(f"biharmonic_disk.{module}"), name)
    if owner is not obj or name not in dir(bd):
        bad.append(name)
print(json.dumps([sorted(bd.__all__), bad]))
"""
    names, bad = _fresh(code)
    assert set(names) == _PUBLIC
    assert bad == []


def test_star_import_and_unknown_names():
    names = _fresh("import json\nfrom biharmonic_disk import *\n"
                   "print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))")
    assert set(names) >= _PUBLIC
    with pytest.raises(AttributeError, match="no_such_name"):
        biharmonic_disk.no_such_name


def _faults_per_call(setup: str, call: str, calls: int, tunables=None) -> list:
    """Minor page faults of each of ``calls`` runs of ``call`` in a fresh process."""
    return _fresh(
        "import io, json, resource, contextlib\nimport biharmonic_disk.cli as cli\n"
        f"{setup}\nfaults = []\n"
        f"for _ in range({calls}):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"    {call}\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps(faults))", tunables)


# A glibc malloc tunable in the environment turns its dynamic thresholds off,
# and with them the lift at solver's import: the mmap threshold stays at
# 128 KiB, and the heap is trimmed only past 64 MiB free.
_TRIM_OFF = {"MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


@pytest.mark.parametrize("tunables", [None, _TRIM_OFF], ids=["default", "trim-threshold"])
def test_later_oracle_suite_calls_fault_less_than_one_blocks_rows(tunables):
    # The suite's passes allocate their block arrays with plain numpy (the
    # memory policy at the lift in solver). By the lift, a later call reuses
    # the heap pages the first one faulted in: were one block's arrays
    # mapped anew, a later call would fault at least the integrand's rows of
    # one block in, and that is the bound. Without the lift a later call
    # faults 12,900 pages. Under the tunable the lift is off, and the
    # 576 KiB integrand block, above the 128 KiB mmap threshold, comes from
    # the heap only if the heap already has room, which depends on the
    # process's history: later calls faulted 1,430 pages each when the
    # package's bytecode was cached, and 0-1 when the fresh process compiled
    # it. What holds whatever the history is that a later call faults no
    # more than the first, which also faults the suite's caches in.
    faults = _faults_per_call("from biharmonic_disk import verify", "verify.oracle_suite()", 3,
                              tunables)
    if tunables:
        assert max(faults[1:]) <= faults[0], faults
        return
    rule = quadrature.DEFAULT_RULES.disk
    cols = rule.n_angular // 2 + 1  # every pass folds its rows
    block = min(quadrature._BLOCK_NODES // cols, rule.centered_radial_nodes[0].size) * cols
    rows = len(verify._oracle_integrands(0j, np.full((1, 1), 0.5 + 0j)))
    bound = rows * block * 8 // os.sysconf("SC_PAGE_SIZE")
    assert max(faults[1:]) < bound, faults


def test_later_lipschitz_calls_fault_less_than_one_pair_block():
    # The chord walk and the quotient pairs allocate each block's arrays
    # with plain numpy, and the quotient draws 800 kB index arrays; by the
    # lift at solver's import all come from the heap. A later call on the
    # same case then reuses the first call's pages: fewer faults than the
    # complex differences of one block of pairs take if mapped anew. Index
    # arrays mapped anew in the second call fault about 400 pages.
    case = Path(__file__).resolve().parent.parent / "scripts" / "cases" / "mixed.json"
    faults = _faults_per_call(
        "", "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert cli.main(['lipschitz', '--case', {str(case)!r}]) == 0", 3)
    bound = lipschitz._PAIR_BLOCK * 16 // os.sysconf("SC_PAGE_SIZE")
    assert max(faults[1:]) < bound, faults
