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
``fourier``, ``terms`` and ``samples`` must be JSON arrays of such arrays
(not 5, null, {} or "") and re and im JSON numbers (not "1" or true).
Modes, exponents, ``n_samples`` and ``seed`` must be JSON integers: 1.5,
1.0, "1" and true are refused, not truncated, and so is a negative seed
(modes and exponents by ``BoundaryData.from_fourier`` and ``SourceTerm``,
whose errors name the datum, such as ``f.fourier:`` or ``g.terms:``).
A datum holds an even number of samples, at least 4 (``BoundaryData``'s
rule) and at most ``_MAX_SAMPLES`` = 32768, by ``n_samples`` or by its
``samples`` list; more is refused before anything is allocated. The chord
estimate of ``lipschitz`` is O(N^2) and the verify checks grow with the
table: on 32768 samples of white noise for f and h, a fresh ``verify``
took 0.5-0.7 s and ``lipschitz`` 3.0 s at a peak RSS of 54 and 51 MB
(2-core Xeon, one BLAS thread). CI runs the 32768-sample case.
A ``solve`` grid holds at most ``_MAX_GRID_NODES`` = 2^20 nodes, n_r n_theta;
more is refused before anything is allocated. ``solve`` builds every row
of its output as a Python list, then one JSON string: with ``--gradient``
on ``mixed.json`` a 1000x1000 grid peaked at 728 MB, so the cap bounds a
solve near 760 MB. It admits that grid and every grid CI and the benchmark
run, the largest 2 x 32768; a blockwise writer may lift it.
A case file holds at most ``_MAX_CASE_BYTES`` = 9 MiB. ``parse_case``
reads at most one byte more, from a file or a pipe alike, and refuses a
longer file before decoding it. The cap admits every case that gives each
mode and each exponent pair once, written at ``indent=4`` or tighter. The
largest such case holds f and h as 32,767 [mode, re, im] triples each
(|m| < 16,384) with 24-character floats (the longest ``repr``) and all
289 load terms: 8.47 MiB at ``indent=4``, 6.21 MiB at ``indent=2`` and
3.82 MiB compact (as 32,768 sample pairs each, 7.04 MiB at ``indent=4``).
It parses at a 59 MB peak RSS in a fresh process. Decoding takes memory
by the file's bytes, before the caps above can read its content: the
worst JSON per byte, a run of ``[]`` or ``[0,0]`` entries, took 26.6 MB of
RSS per MiB, so a file at the cap peaks near 270 MB (28.6 MB after
import) before the sample cap or the shape check refuses it (2-core Xeon,
Python 3.11).
``solve``, ``verify`` and ``lipschitz`` run closed forms only, the
integral route for A and B included; only the ``identities`` checks use
quadrature, at the fixed oracle rules ``quadrature.DEFAULT_RULES``. Each
command imports the modules it runs when it runs (``solve`` none beyond
``solver``), so a fresh process pays for no other.
Unknown keys anywhere are rejected, and so is a key repeated within one
object, which ``json`` would otherwise resolve silently to its last value.
Output files are written atomically (temp file then rename) with sorted
keys and shortest round-trip floats, so identical inputs produce
byte-identical files, with one or two BLAS threads alike, except
``verify --json`` on tables wider than 16,384 modes (at the sample cap),
whose complex matmul OpenBLAS rounds by thread split.

Commands: identities, solve, verify, lipschitz, kernel. Every check runs
at its fixed tolerance, and the ``verify`` residual at spacing 0.02. Exit
status is 0 only on full success; malformed input and refused points or
data (such as boundary data whose spectrum, or whose derivative table for
``solve --gradient`` and ``verify``, overflows) exit 2, failed checks
and I/O errors exit 1. ``solve`` writes ``solver.case_fingerprint`` of the
data with the field. It evaluates every grid node, so the ``failures`` key
of its output is always ``[]``; it is kept because the benchmark harness
under ``perfbench/`` reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import CaseFormatError, DegenerateDataError, DomainError, SingularityError
from .solver import BoundaryData, Case, SourceTerm, _as_int, _sample_count, case_fingerprint

_SCHEMA = 1

# finite-difference spacing of the bilaplacian residual check
_FD_SPACING = 0.02

# default interior points for the gradient crosscheck
_CROSSCHECK_POINTS = (0.3 + 0.2j, -0.4 + 0j, 0.5j)

# grid used to sample the empirical difference quotient
_QUOTIENT_GRID = (40, 80, 0.95)

# most samples a datum of a case file may hold (module docstring)
_MAX_SAMPLES = 1 << 15

# most nodes a solve grid may hold (module docstring)
_MAX_GRID_NODES = 1 << 20

# most bytes a case file may hold (module docstring)
_MAX_CASE_BYTES = 9 << 20


@dataclass(frozen=True)
class CaseFile(Case):
    """A parsed case: the data triple and a sampling seed."""

    seed: int


def _require_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise CaseFormatError(
            f"unknown key {sorted(unknown)[0]!r} in {where}"
        )


def _rows(doc: dict, key: str, lead: int, where: str, shape: str) -> tuple[list, list]:
    """(rows, values) of doc[key] (default none): arrays of ``lead`` entries the caller
    checks, then JSON numbers re and im in the double range; values[i] = re + i im."""
    rows = doc.get(key, [])
    try:
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and len(row) == lead + 2 and all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in row[lead:])
                for row in rows):
            raise TypeError
        return rows, [complex(float(row[-2]), float(row[-1])) for row in rows]
    except (TypeError, OverflowError):
        raise CaseFormatError(f"{where}.{key} must be {shape} of numbers") from None


def _parse_boundary(doc, where: str) -> BoundaryData:
    if doc is None:
        return BoundaryData.zero()
    if not isinstance(doc, dict):
        raise CaseFormatError(f"{where} must be an object")
    _require_keys(doc, {"fourier", "samples", "n_samples"}, where)
    if "fourier" in doc and "samples" in doc:
        raise CaseFormatError(f"{where} cannot give both fourier and samples")
    n_samples = _as_int(doc.get("n_samples", 512), CaseFormatError, f"{where}.n_samples")
    if n_samples > _MAX_SAMPLES:
        raise CaseFormatError(f"{where}.n_samples must be at most {_MAX_SAMPLES}, got {n_samples}")
    try:
        _sample_count(n_samples)
    except DegenerateDataError as exc:
        raise CaseFormatError(f"{where}: {exc}") from exc
    if "samples" in doc:
        if "n_samples" in doc:
            raise CaseFormatError(f"{where}.n_samples conflicts with samples")
        _, values = _rows(doc, "samples", 0, where, "[re, im] pairs")
        if len(values) > _MAX_SAMPLES:
            raise CaseFormatError(f"{where}.samples holds more than {_MAX_SAMPLES} samples")
        try:
            return BoundaryData(values)
        except DegenerateDataError as exc:
            raise CaseFormatError(f"{where}.samples: {exc}") from exc
    rows, values = _rows(doc, "fourier", 1, where, "[mode, re, im] triples")
    try:
        return BoundaryData.from_fourier([(row[0], value) for row, value in zip(rows, values)],
                                         n_samples)
    except DegenerateDataError as exc:
        raise CaseFormatError(f"{where}.fourier: {exc}") from exc


def _parse_source(doc, where: str) -> SourceTerm:
    if doc is None:
        return SourceTerm.zero()
    if not isinstance(doc, dict):
        raise CaseFormatError(f"{where} must be an object")
    _require_keys(doc, {"terms"}, where)
    rows, values = _rows(doc, "terms", 2, where, "[a, b, re, im] quadruples")
    try:
        return SourceTerm((row[0], row[1], value) for row, value in zip(rows, values))
    except DomainError as exc:
        raise CaseFormatError(f"{where}.terms: {exc}") from exc


def parse_case_dict(doc: dict) -> CaseFile:
    """Validate and build a CaseFile from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise CaseFormatError("case file must contain a JSON object")
    _require_keys(doc, {"schema", "f", "h", "g", "seed"}, "case")
    if doc.get("schema", _SCHEMA) != _SCHEMA:
        raise CaseFormatError(f"unsupported schema {doc.get('schema')!r}")
    seed = _as_int(doc.get("seed", 42), CaseFormatError, "seed")
    if seed < 0:
        raise CaseFormatError("seed must be a non-negative integer")
    return CaseFile(
        f=_parse_boundary(doc.get("f"), "f"),
        h=_parse_boundary(doc.get("h"), "h"),
        g=_parse_source(doc.get("g"), "g"),
        seed=seed,
    )


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, or ``CaseFormatError`` if a key repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise CaseFormatError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _case_bytes(path: str) -> bytearray:
    """A case file's bytes, or ``CaseFormatError`` past ``_MAX_CASE_BYTES`` (module docstring)."""
    raw = bytearray()
    with open(path, "rb") as fh:
        # in blocks: one read of the cap would allocate all of it up front
        while part := fh.read(min(1 << 16, _MAX_CASE_BYTES + 1 - len(raw))):
            raw += part
    if len(raw) > _MAX_CASE_BYTES:
        raise CaseFormatError(f"a case file holds at most {_MAX_CASE_BYTES} bytes")
    return raw


def parse_case(path: str) -> CaseFile:
    """Load and validate a case file."""
    try:
        # unnamed: the bytes are freed once decoded, and the text once parsed
        doc = json.loads(_case_bytes(path).decode("utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"{path}: not UTF-8 text (byte {exc.start})")
    except RecursionError:
        raise CaseFormatError(f"{path}: JSON nested too deeply")
    except ValueError as exc:  # the byte cap, a repeated key, or an integer past Python's digit cap
        raise CaseFormatError(f"{path}: {exc}") from None
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


def _print_checks(checks) -> bool:
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(
            f"{c.name:<{width}}  {c.kind:<8}  computed={_fmt(c.computed):<22}  "
            f"expected={_fmt(c.expected):<22}  margin={c.margin: .3e}  {status}"
        )
    passed = sum(c.passed for c in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return passed == len(checks)


def _report_doc(checks) -> dict:
    return {
        "schema": _SCHEMA,
        "tool_version": __version__,
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }


def cmd_identities(args) -> int:
    from . import verify

    checks = verify.oracle_suite()
    ok = _print_checks(checks)
    if args.json:
        _atomic_write_json(args.json, _report_doc(checks))
    return 0 if ok else 1


def cmd_solve(args) -> int:
    try:
        n_r, n_theta = (int(part) for part in args.grid.split(","))
    except ValueError:
        raise CaseFormatError("--grid expects NR,NT with integer sizes")
    if min(n_r, n_theta) > 0 and n_r * n_theta > _MAX_GRID_NODES:
        raise CaseFormatError(
            f"--grid {n_r},{n_theta} holds {n_r * n_theta} nodes, more than {_MAX_GRID_NODES}")
    case = parse_case(args.case)
    field = case.solution.grid(n_r, n_theta, r_max=args.r_max, with_gradient=args.gradient)
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
    from . import verify

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
    from . import lipschitz

    case = parse_case(args.case)
    report, ab = lipschitz.analyze_case(case)
    quotient = lipschitz.empirical_quotient(case.solution.grid(*_QUOTIENT_GRID), seed=case.seed)
    print(f"L (boundary Lipschitz estimate) = {report.l_boundary:.12g}")
    print(f"sup|h|                          = {report.h_sup:.12g}")
    print(f"sup|g| (certified bound)        = {report.g_sup:.12g}")
    print(f"sup|g| (grid estimate)          = {report.g_sup_estimate:.12g}")
    print(f"P (gradient bound)              = {report.p_upper:.12g}")
    print(f"A = |Phi_z(0)|^2                = {ab.a_value:.12g}")
    print(f"B = |Phi_zbar(0)|^2             = {ab.b_value:.12g}")
    print(f"Q = A - B                       = {ab.q_value:.12g}")
    print(f"A (integral form)               = {ab.a_integral:.12g}")
    print(f"B (integral form)               = {ab.b_integral:.12g}")
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
        from .kernels import KernelParts

        value = complex(KernelParts(z, zeta).g())
    elif args.zeta is not None:
        raise CaseFormatError(f"kernel {args.which} takes no --zeta")
    else:
        from . import kernels

        value = complex((kernels.f0_eval if args.which == "F0" else kernels.h0_eval)(z))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later ``main``."""
    parser = argparse.ArgumentParser(
        prog="biharmonic-disk",
        description="Solve and verify the disk biharmonic Dirichlet problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities",
                       help="run the identity and bound checks at their fixed tolerances")
    p.add_argument("--json", default=None, help="also write a JSON report")

    p = sub.add_parser("solve", help="solve a case on a polar grid")
    p.add_argument("--case", required=True)
    p.add_argument("--grid", required=True, metavar="NR,NT")
    p.add_argument("--gradient", action="store_true",
                   help="include Wirtinger gradient columns")
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="residual, trace, and gradient checks on a case")
    p.add_argument("--case", required=True)
    p.add_argument("--json", default=None, help="also write a JSON report")

    p = sub.add_parser("lipschitz", help="distortion constants and verdict")
    p.add_argument("--case", required=True)

    p = sub.add_parser("kernel", help="evaluate a kernel at a point")
    p.add_argument("--which", required=True, choices=["F0", "H0", "G"])
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--zeta", default=None, metavar="RE,IM")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # looked up by name on every call, so a wrapper later set on
        # cli.cmd_<command> applies although the parser is built once
        return globals()[f"cmd_{args.command}"](args)
    except (CaseFormatError, DomainError, DegenerateDataError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
