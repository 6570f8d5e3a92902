"""Command-line front end: case files in, field/report files out.

Cases are JSON documents describing the data triple (f, h, g) and a
sampling seed:

    {
      "schema": 1,
      "f": {"fourier": [[1, 1.0, 0.0]]},
      "h": {"samples": [[0.0, 0.0], ...]},
      "g": {"terms": [[0, 0, 4.0, 0.0]]},
      "seed": 42
    }

Fourier coefficients are [mode, re, im] triples, monomial loads are
[a, b, re, im] quadruples, and every omitted field defaults to zero data.
Modes, exponents, ``n_samples`` and ``seed`` must be JSON integers: 1.5,
1.0, "1" and true are refused, not truncated.
Solved values come from closed forms; the integral route for A and B in
``lipschitz`` and the ``identities`` checks use the fixed oracle rules
``quadrature.DEFAULT_RULES``.
Unknown keys anywhere are rejected. Output files are written atomically
(temp file then rename) with sorted keys and shortest round-trip floats,
so identical inputs produce byte-identical files at one BLAS thread count.
Another count may reorder the solver's matmul sums, which moves ``solve``'s
values and ``verify``'s ``normal-trace-exact[r=1]`` by round-off.

Commands: identities, solve, verify, lipschitz, kernel. Every check runs
at its fixed tolerance, and the ``verify`` residual at spacing 0.02. Exit
status is 0 only on full success; malformed input and refused points or
data (such as boundary data whose spectrum overflows) exit 2, failed checks
and I/O errors exit 1. ``solve`` writes ``solver.case_fingerprint`` of the
data with the field. It evaluates every grid node, so the ``failures`` key
of its output is always ``[]``; it is kept because the benchmark harness
under ``perfbench/`` reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__, green, kernels, lipschitz, verify
from .errors import CaseFormatError, DegenerateDataError, DomainError, SingularityError
from .solver import BoundaryData, SourceTerm, case_fingerprint, solve_grid

_SCHEMA = 1

# finite-difference spacing of the bilaplacian residual check
_FD_SPACING = 0.02

# default interior points for the gradient crosscheck
_CROSSCHECK_POINTS = (0.3 + 0.2j, -0.4 + 0j, 0.5j)

# grid used to sample the empirical difference quotient
_QUOTIENT_GRID = (40, 80, 0.95)


@dataclass(eq=False)
class CaseFile:
    """A parsed case: data triple and sampling seed."""

    f: BoundaryData
    h: BoundaryData
    g: SourceTerm
    seed: int


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python, so refuse it explicitly."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise CaseFormatError(
            f"unknown key {sorted(unknown)[0]!r} in {where}"
        )


def _parse_boundary(doc, where: str) -> BoundaryData:
    if doc is None:
        return BoundaryData.zero()
    if not isinstance(doc, dict):
        raise CaseFormatError(f"{where} must be an object")
    _require_keys(doc, {"fourier", "samples", "n_samples"}, where)
    if "fourier" in doc and "samples" in doc:
        raise CaseFormatError(f"{where} cannot give both fourier and samples")
    n_samples = doc.get("n_samples", 512)
    if not _is_int(n_samples) or n_samples < 4 or n_samples % 2:
        raise CaseFormatError(f"{where}.n_samples must be an even integer >= 4")
    if "samples" in doc:
        if "n_samples" in doc:
            raise CaseFormatError(f"{where}.n_samples conflicts with samples")
        rows = doc["samples"]
        try:
            values = [complex(float(re), float(im)) for re, im in rows]
        except (TypeError, ValueError) as exc:
            raise CaseFormatError(f"{where}.samples must be [re, im] pairs") from exc
        try:
            return BoundaryData(values)
        except DegenerateDataError as exc:
            raise CaseFormatError(f"{where}.samples: {exc}") from exc
    modes = []
    for row in doc.get("fourier", ()):
        try:
            m, re, im = row
            value = complex(float(re), float(im))
        except (TypeError, ValueError) as exc:
            raise CaseFormatError(
                f"{where}.fourier must be [mode, re, im] triples") from exc
        if not _is_int(m):
            raise CaseFormatError(f"{where}.fourier modes must be integers, got {m!r}")
        modes.append((m, value))
    try:
        return BoundaryData.from_fourier(modes, n_samples)
    except DegenerateDataError as exc:
        raise CaseFormatError(f"{where}.fourier: {exc}") from exc


def _parse_source(doc, where: str) -> SourceTerm:
    if doc is None:
        return SourceTerm.zero()
    if not isinstance(doc, dict):
        raise CaseFormatError(f"{where} must be an object")
    _require_keys(doc, {"terms"}, where)
    terms = []
    for row in doc.get("terms", ()):
        try:
            a, b, re, im = row
            value = complex(float(re), float(im))
        except (TypeError, ValueError) as exc:
            raise CaseFormatError(
                f"{where}.terms must be [a, b, re, im] quadruples") from exc
        if not (_is_int(a) and _is_int(b)):
            raise CaseFormatError(
                f"{where}.terms exponents must be integers, got {a!r}, {b!r}")
        if a < 0 or b < 0:
            raise CaseFormatError(f"negative exponent in {where}.terms")
        terms.append((a, b, value))
    try:
        return SourceTerm(terms)
    except DomainError as exc:
        raise CaseFormatError(f"{where}.terms: {exc}") from exc


def parse_case_dict(doc: dict) -> CaseFile:
    """Validate and build a CaseFile from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise CaseFormatError("case file must contain a JSON object")
    _require_keys(doc, {"schema", "f", "h", "g", "seed"}, "case")
    if doc.get("schema", _SCHEMA) != _SCHEMA:
        raise CaseFormatError(f"unsupported schema {doc.get('schema')!r}")
    seed = doc.get("seed", 42)
    if not _is_int(seed):
        raise CaseFormatError("seed must be an integer")
    return CaseFile(
        f=_parse_boundary(doc.get("f"), "f"),
        h=_parse_boundary(doc.get("h"), "h"),
        g=_parse_source(doc.get("g"), "g"),
        seed=seed,
    )


def parse_case(path: str) -> CaseFile:
    """Load and validate a case file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"{path}: not UTF-8 text (byte {exc.start})")
    return parse_case_dict(doc)


def _atomic_write_json(path: str, doc) -> None:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: complex) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}j"


def _print_checks(checks, out=None) -> bool:
    out = out or sys.stdout
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(
            f"{c.name:<{width}}  {c.kind:<8}  computed={_fmt(c.computed):<22}  "
            f"expected={_fmt(c.expected):<22}  margin={c.margin: .3e}  {status}",
            file=out,
        )
    passed = sum(c.passed for c in checks)
    print(f"{passed}/{len(checks)} checks passed", file=out)
    return passed == len(checks)


def _report_doc(checks) -> dict:
    return {
        "schema": _SCHEMA,
        "tool_version": __version__,
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }


def cmd_identities(args) -> int:
    checks = verify.oracle_suite()
    ok = _print_checks(checks)
    if args.json:
        _atomic_write_json(args.json, _report_doc(checks))
    return 0 if ok else 1


def cmd_solve(args) -> int:
    case = parse_case(args.case)
    try:
        n_r, n_theta = (int(part) for part in args.grid.split(","))
    except ValueError:
        raise CaseFormatError("--grid expects NR,NT with integer sizes")
    field = solve_grid(
        case.f, case.h, case.g, n_r, n_theta,
        r_max=args.r_max, with_gradient=args.gradient,
    )
    columns = ["r", "theta", "re", "im"]
    if args.gradient:
        columns += ["dz_re", "dz_im", "dzb_re", "dzb_im"]
    r, th = np.meshgrid(field.radii, field.thetas, indexing="ij")
    parts = [r, th, field.values.real, field.values.imag]
    if args.gradient:
        parts += [field.d_z.real, field.d_z.imag, field.d_zbar.real, field.d_zbar.imag]
    rows = np.stack(parts, axis=-1).reshape(-1, len(columns)).tolist()
    doc = {
        "schema": _SCHEMA,
        "case_fingerprint": case_fingerprint(case.f, case.h, case.g),
        "tool_version": __version__,
        "n_r": field.n_r,
        "n_theta": field.n_theta,
        "r_max": field.r_max,
        "columns": columns,
        "rows": rows,
        "failures": field.failures,
    }
    _atomic_write_json(args.out, doc)
    return 0


def cmd_verify(args) -> int:
    case = parse_case(args.case)
    checks = [verify.fd_bilaplacian_residual(case, _FD_SPACING)]
    checks += verify.uniqueness_checks(case)
    checks += verify.boundary_trace_check(case)
    checks += verify.gradient_crosscheck(case, _CROSSCHECK_POINTS)
    ok = _print_checks(checks)
    if args.json:
        _atomic_write_json(args.json, _report_doc(checks))
    return 0 if ok else 1


def cmd_lipschitz(args) -> int:
    case = parse_case(args.case)
    report, ab = lipschitz.analyze_case(case.f, case.h, case.g)
    n_r, n_theta, r_max = _QUOTIENT_GRID
    field = solve_grid(case.f, case.h, case.g, n_r, n_theta, r_max=r_max)
    quotient = lipschitz.empirical_quotient(field, seed=case.seed)
    print(f"L (boundary Lipschitz estimate) = {report.l_boundary:.12g}")
    print(f"sup|h|                          = {report.h_sup:.12g}")
    print(f"sup|g| (certified bound)        = {report.g_sup:.12g}")
    print(f"sup|g| (grid estimate)          = {report.g_sup_estimate:.12g}")
    print(f"P (gradient bound)              = {report.p_upper:.12g}")
    print(f"A = |Phi_z(0)|^2                = {report.a_value:.12g}")
    print(f"B = |Phi_zbar(0)|^2             = {report.b_value:.12g}")
    print(f"Q = A - B                       = {report.q_value:.12g}")
    print(f"A (integral form)               = {ab.a_integral:.12g}")
    print(f"B (integral form)               = {ab.b_integral:.12g}")
    print(f"upper bound                     = {report.p_upper:.12g}")
    print(f"lower bound                     = {report.lower_bound:.12g}")
    print(f"empirical quotient              = {quotient:.12g}")
    print(f"verdict: {report.verdict}")
    return 0


def cmd_kernel(args) -> int:
    z = _parse_complex(args.z, "--z")
    if args.which == "G":
        if args.zeta is None:
            raise CaseFormatError("kernel G needs --zeta")
        zeta = _parse_complex(args.zeta, "--zeta")
        value = complex(green.g_eval(z, zeta))
    elif args.which == "F0":
        value = complex(kernels.f0_eval(z))
    else:
        value = complex(kernels.h0_eval(z))
    print(json.dumps(
        {"which": args.which, "z": [z.real, z.imag], "value": [value.real, value.imag]},
        sort_keys=True,
    ))
    return 0


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise CaseFormatError(f"{flag} expects RE,IM")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise CaseFormatError(f"{flag} expects numeric RE,IM")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharmonic-disk",
        description="Solve and verify the disk biharmonic Dirichlet problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities",
                       help="run the identity and bound checks at their fixed tolerances")
    p.add_argument("--json", default=None, help="also write a JSON report")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("solve", help="solve a case on a polar grid")
    p.add_argument("--case", required=True)
    p.add_argument("--grid", required=True, metavar="NR,NT")
    p.add_argument("--gradient", action="store_true",
                   help="include Wirtinger gradient columns")
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="residual, trace, and gradient checks on a case")
    p.add_argument("--case", required=True)
    p.add_argument("--json", default=None, help="also write a JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lipschitz", help="distortion constants and verdict")
    p.add_argument("--case", required=True)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("kernel", help="evaluate a kernel at a point")
    p.add_argument("--which", required=True, choices=["F0", "H0", "G"])
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--zeta", default=None, metavar="RE,IM")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (CaseFormatError, DomainError, DegenerateDataError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
