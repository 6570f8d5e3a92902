"""Case-file parsing and the command-line entry points, run in-process."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from biharmonic_disk import cli, quadrature, solver, verify
from biharmonic_disk.errors import CaseFormatError


def write_case(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PURE_LOAD = {"schema": 1, "g": {"terms": [[0, 0, 4.0, 0.0]]}}
ROTATION = {"schema": 1, "f": {"fourier": [[1, 1.0, 0.0]]}}
CONSTANT = {"schema": 1, "f": {"fourier": [[0, 1.0, 0.0]]}}
FOUR_SAMPLES = {"f": {"n_samples": 4, "fourier": [[1, 1.0, 0.0]]}}
# finite samples whose spectrum overflows double precision
OVERFLOW = {"f": {"fourier": [[1, 1e308, 1e308]]}}
# a finite spectrum whose derivative rows overflow: 255^2 1e304 / 2 > 1.8e308
DERIVATIVE_OVERFLOW = {"f": {"fourier": [[255, 1e304, 0.0]]}}
# spectra near the top of the double range: a 1e307 constant and first mode
# pass, while the derivative row 200 * 1e307 / 2 of mode 200 overflows
HUGE_CONSTANT = {"f": {"fourier": [[0, 1e307, 0.0]]}}
HUGE_FIRST_MODE = {"f": {"fourier": [[1, 1e307, 0.0]]}}
HUGE_MODE_200 = {"f": {"fourier": [[200, 1e307, 0.0]]}}
DEMO_CASES = sorted((Path(__file__).resolve().parents[1] / "scripts" / "cases").glob("*.json"))
MIXED = {"schema": 1, "f": {"fourier": [[0, 1.0, 0.0]]}, "h": {"fourier": [[0, -4.0, 0.0]]},
         "g": {"terms": [[0, 0, 4.0, 0.0]]}, "seed": 7}
# one mode below the cut's floor u ||samples||_1 (1.8e-12 for 16384 unit
# samples, 3.6e-12 for 32768): the table drops it, and the checks allow its tail
SUB_FLOOR_F = {"f": {"n_samples": 16384, "fourier": [[0, 1.0, 0.0], [5000, 1.5e-12, 0.0]]}}
SUB_FLOOR_H = {"h": {"n_samples": 32768, "fourier": [[0, 1.0, 0.0], [9000, 3.5e-12, 0.0]]}}
# a table of degree 22, far past the quartics the FD residual is exact on
DEGREE_20 = {"f": {"fourier": [[20, 1.0, 0.0], [-7, 0.5, 0.5], [3, 0.0, -1.0]]},
             "h": {"fourier": [[3, 1.0, 0.0], [-12, 0.0, 0.5]]},
             "g": {"terms": [[5, 0, 1.0, 0.0], [2, 3, 0.0, 1.0], [4, 1, -0.5, 0.0]]}}


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_case():
    case = cli.parse_case_dict({"schema": 1})
    assert np.all(case.f.samples == 0)
    assert np.all(case.h.samples == 0)
    assert case.g.is_zero
    assert case.seed == 42
    assert isinstance(case, solver.Case)
    assert case.solution is case.solution


def test_parse_full_case():
    case = cli.parse_case_dict(
        {
            "schema": 1,
            "f": {"fourier": [[1, 1.0, 0.0], [-2, 0.0, 0.5]]},
            "h": {"samples": [[1.0, 0.0]] * 8},
            "g": {"terms": [[1, 1, 2.0, 0.0]]},
            "seed": 7,
        }
    )
    assert case.f.n == 512
    assert case.h.n == 8
    assert np.all(case.h.samples == 1.0)
    assert case.g.terms == ((1, 1, 2.0),)
    assert case.seed == 7


def test_parse_fourier_n_samples():
    case = cli.parse_case_dict({"schema": 1, "f": {"fourier": [[3, 1.0, 0.0]], "n_samples": 32}})
    assert case.f.n == 32


# values of fourier, samples or terms that are not arrays of rows
_NOT_ARRAYS = [5, None, {}, ""]


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"schema": 2}, "unsupported schema"),
        ({"schema": 1, "bogus": 1}, "unknown key 'bogus' in case"),
        ({"schema": 1, "f": {"weird": []}}, "unknown key 'weird' in f"),
        ({"schema": 1, "g": {"whatever": []}}, "unknown key 'whatever' in g"),
        ({"schema": 1, "quadrature": {"nodes": 3}}, "unknown key 'quadrature' in case"),
        ({"schema": 1, "seed": "abc"}, "seed must be an integer"),
        ({"schema": 1, "f": {"fourier": [[1, 1.0]]}}, "f.fourier must be"),
        ({"schema": 1, "f": {"samples": [[0.0, 0.0]] * 3}}, "f.samples"),
        ({"schema": 1, "f": {"samples": [], "fourier": []}}, "cannot give both"),
        ({"schema": 1, "f": {"samples": [[0.0, 0.0]] * 8, "n_samples": 8}}, "conflicts"),
        ({"schema": 1, "g": {"terms": [[-1, 0, 1.0, 0.0]]}}, "g.terms: exponents must lie in [0, 16]"),
        ({"schema": 1, "g": {"terms": [[1, 1, 1.0]]}}, "g.terms must be"),
        ({"schema": 1, "quadrature": {"circle_nodes": 0}}, "unknown key 'quadrature' in case"),
        ({"schema": 1, "f": []}, "f must be an object"),
        ([1, 2], "JSON object"),
        ({"schema": 1, "quadrature": {"radial_nodes": 64}},
         "unknown key 'quadrature' in case"),
        ({"schema": 1, "g": {"terms": [[0, 0, float("nan"), 0.0]]}}, "must be finite"),
        ({"schema": 1, "f": {"fourier": [[1.5, 1, 0]]}}, "f.fourier: a Fourier mode must be an integer"),
        ({"schema": 1, "h": {"fourier": [[1.0, 1, 0]]}}, "h.fourier: a Fourier mode must be an integer"),
        ({"schema": 1, "f": {"fourier": [[True, 1, 0]]}}, "f.fourier: a Fourier mode must be an integer"),
        ({"schema": 1, "f": {"fourier": [["2", 1, 0]]}}, "f.fourier: a Fourier mode must be an integer"),
        # json reads 1e400 as inf
        ({"schema": 1, "f": {"fourier": [[float("inf"), 1, 0]]}},
         "f.fourier: a Fourier mode must be an integer"),
        ({"schema": 1, "g": {"terms": [[2.7, 0, 1, 0]]}}, "g.terms: an exponent must be an integer"),
        ({"schema": 1, "g": {"terms": [[0, True, 1, 0]]}}, "g.terms: an exponent must be an integer"),
        ({"schema": 1, "g": {"terms": [["2", 0, 1, 0]]}}, "g.terms: an exponent must be an integer"),
        ({"schema": 1, "f": {"fourier": [], "n_samples": 8.0}},
         "f.n_samples must be an integer, got 8.0"),
        ({"schema": 1, "h": {"fourier": [], "n_samples": True}},
         "h.n_samples must be an integer, got True"),
        ({"schema": 1, "seed": True}, "seed must be an integer"),
        ({"schema": 1, "seed": 7.0}, "seed must be an integer"),
        ({"schema": 1, "f": {"n_samples": 2**15 + 2}}, "f.n_samples must be at most 32768, got 32770"),
        ({"schema": 1, "h": {"samples": [[1.0, 0.0]] * (2**15 + 2)}},
         "h.samples holds more than 32768 samples"),
        ({"schema": 1, "f": {"fourier": [[1, float("nan"), 0.0]]}},
         "f.fourier: Fourier coefficients must be finite"),
        ({"schema": 1, "seed": -1}, "seed must be a non-negative integer"),
        ({"schema": 1, "f": {"samples": [[0.0, 0.0, 0.0]] * 4}},
         "f.samples must be [re, im] pairs"),
        ({"schema": 1, "g": [[0, 0, 1.0, 0.0]]}, "g must be an object"),
        # arrays that are not arrays, and coefficients that are not numbers
        *(({"schema": 1, "f": {"fourier": bad}}, "f.fourier must be") for bad in _NOT_ARRAYS),
        *(({"schema": 1, "h": {"samples": bad}}, "h.samples must be [re, im] pairs")
          for bad in _NOT_ARRAYS),
        *(({"schema": 1, "g": {"terms": bad}}, "g.terms must be") for bad in _NOT_ARRAYS),
        ({"schema": 1, "f": {"fourier": [[1, "1", 0]]}}, "f.fourier must be"),
        ({"schema": 1, "f": {"fourier": [[1, 1.0, True]]}}, "f.fourier must be"),
        ({"schema": 1, "f": {"fourier": [[1, 10**400, 0]]}}, "f.fourier must be"),
        ({"schema": 1, "h": {"samples": [["1", 0.0]] * 4}}, "h.samples must be [re, im] pairs"),
        ({"schema": 1, "h": {"samples": [[0.0, False]] * 4}}, "h.samples must be [re, im] pairs"),
        ({"schema": 1, "h": {"samples": ["12"] * 4}}, "h.samples must be [re, im] pairs"),
        ({"schema": 1, "g": {"terms": [[0, 0, "1", 0]]}}, "g.terms must be"),
        ({"schema": 1, "g": {"terms": [[0, 0, 1.0, True]]}}, "g.terms must be"),
        # odd and too-small counts: BoundaryData's rule, naming the datum
        ({"schema": 1, "f": {"fourier": [[1, 1.0, 0.0]], "n_samples": 3}},
         "f: boundary data needs an even number of samples, at least 4, got 3"),
        ({"schema": 1, "h": {"n_samples": 2}},
         "h: boundary data needs an even number of samples, at least 4, got 2"),
        ({"schema": 1, "f": {"n_samples": -4}},
         "f: boundary data needs an even number of samples, at least 4, got -4"),
    ],
)
def test_parse_rejections(doc, fragment):
    with pytest.raises(CaseFormatError) as exc_info:
        cli.parse_case_dict(doc)
    assert fragment in str(exc_info.value)


@pytest.mark.parametrize("key, datum", [("f", "fourier"), ("h", "samples"), ("g", "terms")])
@pytest.mark.parametrize("bad", _NOT_ARRAYS)
def test_case_arrays_that_are_not_arrays_exit_2(tmp_path, capsys, key, datum, bad):
    # refused as malformed input, not a traceback or zero data
    rc = cli.main(["lipschitz", "--case", write_case(tmp_path, {key: {datum: bad}})])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {key}.{datum} must be")
    assert captured.out == ""


def test_parse_case_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,\n  oops\n}')
    with pytest.raises(CaseFormatError) as exc_info:
        cli.parse_case(str(path))
    assert "line 2" in str(exc_info.value)


def test_parse_case_refuses_non_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"schema": 1, "seed": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(CaseFormatError) as exc_info:
        cli.parse_case(str(path))
    assert str(path) in str(exc_info.value)
    assert "UTF-8" in str(exc_info.value)
    rc = cli.main(["verify", "--case", str(path)])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_huge_sample_counts_are_refused_before_allocating(tmp_path, capsys):
    # 2^40 samples would take 16 TiB: the cap refuses them while parsing
    case = write_case(tmp_path, {"f": {"n_samples": 2**40}})
    tracemalloc.start()
    try:
        rc = cli.main(["solve", "--case", case, "--grid", "4,4", "--out", str(tmp_path / "o.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "f.n_samples must be at most 32768" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not (tmp_path / "o.json").exists()


def test_deeply_nested_case_files_exit_2(tmp_path, capsys):
    # json.load recurses once per level: refused as malformed input
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    rc = cli.main(["verify", "--case", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {path}: JSON nested too deeply\n"
    assert captured.out == ""


def test_the_sample_cap_admits_32768_samples():
    case = cli.parse_case_dict({"f": {"n_samples": 2**15}, "h": {"samples": [[1.0, 0.0]] * 2**15}})
    assert case.f.n == case.h.n == 2**15


def _one_error_line(capsys, fragment):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert fragment in captured.err


def test_a_case_file_past_the_byte_cap_is_refused_before_decoding(tmp_path, monkeypatch, capsys):
    path = tmp_path / "long.json"
    doc = json.dumps(ROTATION)
    path.write_text(doc + " " * (cli._MAX_CASE_BYTES + 1 - len(doc)))

    def decode(*args, **kwargs):
        raise AssertionError("the decoder ran")

    monkeypatch.setattr(cli.json, "loads", decode)
    assert cli.main(["verify", "--case", str(path)]) == 2
    _one_error_line(capsys, f"holds at most {cli._MAX_CASE_BYTES} bytes")


def test_the_byte_cap_admits_a_file_at_the_cap(tmp_path):
    path = tmp_path / "padded.json"
    doc = json.dumps(ROTATION)
    path.write_text(doc + " " * (cli._MAX_CASE_BYTES - len(doc)))
    assert cli.parse_case(str(path)).f.n == 512


def test_the_byte_cap_admits_the_largest_case_at_indent_4(tmp_path):
    # each mode of f and h once, at the sample cap, with the longest float
    # repr, and every load term: the largest case the other caps admit
    x = -2.2250738585072014e-308
    datum = {"n_samples": 2**15, "fourier": [[m, x, x] for m in range(1 - 2**14, 2**14)]}
    terms = [[a, b, x, x] for a in range(17) for b in range(17)]
    path = tmp_path / "largest.json"
    path.write_text(json.dumps({"schema": 1, "f": datum, "h": datum, "g": {"terms": terms},
                                "seed": 2**63}, indent=4))
    assert cli._MAX_CASE_BYTES - (1 << 20) < path.stat().st_size <= cli._MAX_CASE_BYTES
    case = cli.parse_case(str(path))
    assert case.f.n == case.h.n == 2**15 and len(case.g.terms) == 289


@pytest.mark.parametrize("text, key", [
    ('{"f": {"fourier": [[1, 1.0, 0.0]]}, "f": {"fourier": [[2, 5.0, 0.0]]}}', "'f'"),
    ('{"f": {"fourier": [[1, 1.0, 0.0]], "fourier": [[2, 5.0, 0.0]]}}', "'fourier'"),
])
@pytest.mark.parametrize("command", ["verify", "lipschitz"])
def test_a_repeated_key_exits_2(tmp_path, capsys, text, key, command):
    # json would keep the last value silently: lipschitz solved the second f
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert cli.main([command, "--case", str(path)]) == 2
    _one_error_line(capsys, f"{path}: repeated key {key}")


def test_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # Python refuses to convert an integer of more than 4,300 digits
    path = tmp_path / "seed.json"
    path.write_text('{"seed": ' + "1" * 5000 + "}")
    assert cli.main(["lipschitz", "--case", str(path)]) == 2
    _one_error_line(capsys, str(path))


# ---------------------------------------------------------------------------
# solve command


def test_solve_constant_case(tmp_path):
    case = write_case(tmp_path, CONSTANT)
    out = str(tmp_path / "field.json")
    rc = cli.main(["solve", "--case", case, "--grid", "8,8", "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["schema"] == 1
    assert doc["n_r"] == 8 and doc["n_theta"] == 8
    assert doc["columns"] == ["r", "theta", "re", "im"]
    assert len(doc["rows"]) == 64
    assert doc["failures"] == []
    values = np.array([row[2] + 1j * row[3] for row in doc["rows"]])
    assert np.max(np.abs(values - 1.0)) < 1e-10


def test_solve_pure_load_row_value(tmp_path):
    case = write_case(tmp_path, PURE_LOAD)
    out = str(tmp_path / "field.json")
    rc = cli.main(["solve", "--case", case, "--grid", "16,16", "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    by_node = {(round(r, 12), round(th, 12)): re + 1j * im
               for r, th, re, im in doc["rows"]}
    # at r = 0.5 the field (1 - r^2)^2 is 0.5625
    assert by_node[(0.5, 0.0)] == pytest.approx(0.5625, abs=1e-8)


def test_solve_is_deterministic(tmp_path):
    case = write_case(tmp_path, PURE_LOAD)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["solve", "--case", case, "--grid", "6,6", "--out", out1]) == 0
    assert cli.main(["solve", "--case", case, "--grid", "6,6", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_solve_gradient_columns(tmp_path):
    case = write_case(tmp_path, PURE_LOAD)
    out = str(tmp_path / "field.json")
    rc = cli.main(["solve", "--case", case, "--grid", "6,6", "--gradient",
                   "--r-max", "0.9", "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["columns"][-4:] == ["dz_re", "dz_im", "dzb_re", "dzb_im"]
    assert doc["r_max"] == 0.9
    for row in doc["rows"]:
        r, th = row[0], row[1]
        z = r * np.exp(1j * th)
        dz = row[4] + 1j * row[5]
        expected = -2.0 * np.conj(z) * (1.0 - r**2)
        assert abs(dz - expected) < 1e-8


def test_solve_bad_grid_argument(tmp_path):
    case = write_case(tmp_path, CONSTANT)
    rc = cli.main(["solve", "--case", case, "--grid", "8x8",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 2


@pytest.mark.parametrize("grid", ["1000000,1000000", "1025,1024"])
def test_solve_refuses_grids_above_the_cap_before_allocating(tmp_path, capsys, grid):
    # 10^12 nodes would take 14.6 TiB; the cap is 2^20 nodes
    tracemalloc.start()
    try:
        rc = cli.main(["solve", "--case", str(DEMO_CASES[0]), "--grid", grid,
                       "--out", str(tmp_path / "o.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: --grid {grid} holds ")
    assert peak < 1 << 20
    assert not (tmp_path / "o.json").exists()


def test_the_grid_cap_admits_2_to_the_20_nodes(tmp_path, capsys):
    # past the cap, a missing case file is what refuses the solve
    missing = str(tmp_path / "missing.json")
    rc = cli.main(["solve", "--case", missing, "--grid", "1024,1024", "--out", missing])
    assert rc == 1
    assert "missing.json" in capsys.readouterr().err


def test_solve_near_boundary_grid_is_exact(tmp_path):
    case = write_case(tmp_path, PURE_LOAD)
    out = str(tmp_path / "o.json")
    rc = cli.main(["solve", "--case", case, "--grid", "2000,8", "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["failures"] == []
    rows = np.array(doc["rows"])
    assert rows[:, 0].max() == pytest.approx(1.0 - 1.0 / 2000)
    expected = (1.0 - rows[:, 0] ** 2) ** 2
    assert np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - expected)) <= 1e-14


def test_solve_unwritable_output_leaves_no_file(tmp_path):
    case = write_case(tmp_path, CONSTANT)
    target_dir = tmp_path / "missing"
    out = str(target_dir / "field.json")
    rc = cli.main(["solve", "--case", case, "--grid", "4,4", "--out", out])
    assert rc == 1
    assert not target_dir.exists()


def test_solve_output_naming_a_directory_leaves_no_partial_file(tmp_path):
    case = write_case(tmp_path, CONSTANT)
    out = tmp_path / "field.json"
    out.mkdir()
    rc = cli.main(["solve", "--case", case, "--grid", "4,4", "--out", str(out)])
    assert rc == 1
    assert out.is_dir() and not any(out.iterdir())
    assert not list(tmp_path.glob(".partial-*"))


def test_solve_fingerprint_matches_case(tmp_path):
    doc = {"schema": 1, "f": {"fourier": [[1, 1.0, 0.0]]}, "h": {"fourier": [[0, -4.0, 0.0]]},
           "g": {"terms": [[1, 1, 2.0, 0.5]]}}
    case = write_case(tmp_path, doc)
    out = str(tmp_path / "field.json")
    assert cli.main(["solve", "--case", case, "--grid", "4,4", "--out", out]) == 0
    parsed = cli.parse_case(case)
    expected = solver.case_fingerprint(parsed.f, parsed.h, parsed.g)
    assert json.loads(open(out).read())["case_fingerprint"] == expected


def test_overflowing_spectrum_is_refused(tmp_path, capsys):
    case = write_case(tmp_path, OVERFLOW)
    out = tmp_path / "field.json"
    for argv in (["solve", "--case", case, "--grid", "4,4", "--out", str(out)],
                 ["verify", "--case", case]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "overflow" in captured.err
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("doc", [HUGE_CONSTANT, HUGE_FIRST_MODE])
def test_spectrum_near_the_double_range_is_solved(tmp_path, capsys, doc):
    # the samples are scaled by 1/N before the FFT, so its sums stay finite
    case = write_case(tmp_path, doc)
    out = tmp_path / "field.json"
    assert cli.main(["solve", "--case", case, "--grid", "4,4", "--gradient", "--out", str(out)]) == 0
    assert cli.main(["verify", "--case", case]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


def test_overflowing_derivative_row_is_refused(tmp_path, capsys):
    # m a_m / 2 overflows in the boundary rows; with RuntimeWarning an error
    # (the suite's setting) it must still be refused, not raised
    case = write_case(tmp_path, HUGE_MODE_200)
    out = tmp_path / "field.json"
    for argv in (["solve", "--case", case, "--grid", "4,4", "--gradient", "--out", str(out)],
                 ["verify", "--case", case]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "overflows" in captured.err
        assert captured.out == ""
    assert not out.exists()


def test_overflowing_derivative_table_is_refused(tmp_path, capsys):
    case = write_case(tmp_path, DERIVATIVE_OVERFLOW)
    out = tmp_path / "field.json"
    for argv in (["solve", "--case", case, "--grid", "4,4", "--gradient", "--out", str(out)],
                 ["verify", "--case", case]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "gradient of the data overflows" in captured.err
        assert captured.out == ""
    assert not out.exists()
    # the value rows are finite, so a values-only solve still succeeds
    assert cli.main(["solve", "--case", case, "--grid", "4,4", "--out", str(out)]) == 0
    rows = np.array(json.loads(out.read_text())["rows"])
    assert np.all(np.isfinite(rows))


def test_solve_missing_case_file(tmp_path):
    rc = cli.main(["solve", "--case", str(tmp_path / "nope.json"),
                   "--grid", "4,4", "--out", str(tmp_path / "o.json")])
    assert rc == 1


# ---------------------------------------------------------------------------
# identities command


def test_identities_pass(capsys):
    rc = cli.main(["identities"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "85/85 checks passed" in out
    assert "trace-kernel-mean[z=0]" in out


def test_identities_failed_check_exits_1(monkeypatch, capsys):
    failing = verify.CheckResult.bound("planted", 2.0, 1.0, 0.0)
    monkeypatch.setattr(verify, "oracle_suite", lambda: [failing])
    rc = cli.main(["identities"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_identities_json_report(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    rc = cli.main(["identities", "--json", report])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(open(report).read())
    assert doc["passed"] is True
    assert len(doc["checks"]) == 85
    names = {c["name"] for c in doc["checks"]}
    assert "moment-rule[beta=2,r=0.5]" in names
    assert all(c["passed"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# kernel command


def test_kernel_f0(capsys):
    rc = cli.main(["kernel", "--which", "F0", "--z", "0.5,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == [pytest.approx(4.5), 0.0]


def test_kernel_green(capsys):
    rc = cli.main(["kernel", "--which", "G", "--z", "0,0", "--zeta", "0.5,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"][0] == pytest.approx(-0.40342640972002736)


def test_kernel_green_requires_zeta(capsys):
    rc = cli.main(["kernel", "--which", "G", "--z", "0,0"])
    assert rc == 2


@pytest.mark.parametrize("which", ["F0", "H0"])
@pytest.mark.parametrize("zeta", ["garbage", "0.5,0"])
def test_kernel_refuses_a_stray_zeta(capsys, which, zeta):
    # only G has a second point: a --zeta for F0 or H0 is refused, malformed or not
    assert cli.main(["kernel", "--which", which, "--z", "0.5,0", "--zeta", zeta]) == 2
    captured = capsys.readouterr()
    assert f"kernel {which} takes no --zeta" in captured.err
    assert captured.out == ""


def test_kernel_rejects_malformed_point(capsys):
    assert cli.main(["kernel", "--which", "F0", "--z", "0.5"]) == 2
    assert cli.main(["kernel", "--which", "F0", "--z", "a,b"]) == 2


def test_kernel_rejects_circle_point(capsys):
    assert cli.main(["kernel", "--which", "F0", "--z", "1,0"]) == 2
    assert cli.main(["kernel", "--which", "G", "--z", "1,0", "--zeta", "0,0"]) == 2
    assert "z must lie in the open unit disk" in capsys.readouterr().err


def test_unknown_command_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# lipschitz command


def test_lipschitz_rotation_case(tmp_path, capsys):
    case = write_case(tmp_path, ROTATION)
    rc = cli.main(["lipschitz", "--case", case])
    out = capsys.readouterr().out
    assert rc == 0
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, tail = line.rpartition("=")
            values[key.strip()] = float(tail)

    def get(prefix):
        return next(v for k, v in values.items() if k.startswith(prefix))

    assert get("L (boundary") == pytest.approx(1.0, abs=1e-6)
    assert get("P (gradient") == pytest.approx(220.0 / 3.0, rel=1e-9)
    assert get("A = |Phi_z(0)") == pytest.approx(2.25, abs=1e-9)
    assert get("Q = A - B") == pytest.approx(2.25, abs=1e-9)
    assert get("empirical quotient") <= get("P (gradient") + 1e-9
    assert "verdict: lipschitz-only" in out


def test_lipschitz_integral_form_matches_on_1024_samples(tmp_path, capsys):
    # e^{-511 i theta} aliases onto e^{i theta} on a 512-node circle rule;
    # the integral route must take as many nodes as the data has samples.
    doc = {"schema": 1, "f": {"fourier": [[1, 1.0, 0.0], [-511, 1.0, 0.0]],
                              "n_samples": 1024}}
    rc = cli.main(["lipschitz", "--case", write_case(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    values = {}
    for line in out.splitlines():
        key, sep, tail = line.rpartition("=")
        if sep and key.startswith("A "):
            values[key.strip()] = float(tail)
    assert values["A (integral form)"] == pytest.approx(2.25, abs=1e-12)
    assert values["A (integral form)"] == pytest.approx(values["A = |Phi_z(0)|^2"], abs=1e-12)


def test_lipschitz_all_zero_case_is_degenerate(tmp_path, capsys):
    case = write_case(tmp_path, {"schema": 1})
    rc = cli.main(["lipschitz", "--case", case])
    assert rc == 2


def test_lipschitz_constant_f_is_degenerate(tmp_path, capsys):
    # the data are not zero, but constant f with h = g = 0 gives P = 0
    rc = cli.main(["lipschitz", "--case", write_case(tmp_path, CONSTANT)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "f is constant and h = g = 0" in captured.err
    assert captured.out == ""


def test_lipschitz_accepts_four_samples(tmp_path, capsys):
    rc = cli.main(["lipschitz", "--case", write_case(tmp_path, FOUR_SAMPLES)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("L (boundary Lipschitz estimate) = 1\n")
    assert "verdict: lipschitz-only" in out


def test_lipschitz_refuses_overflowing_constants(tmp_path, capsys):
    # |g| = sqrt(2) 1e308 overflows P; nothing is printed as a result
    doc = {"schema": 1, "g": {"terms": [[0, 0, 1e308, 1e308]]}}
    rc = cli.main(["lipschitz", "--case", write_case(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "overflow" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# verify command


def test_verify_pure_load_case(tmp_path, capsys):
    case = write_case(tmp_path, PURE_LOAD)
    report = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--case", case, "--json", report])
    out = capsys.readouterr().out
    assert rc == 0
    assert "9/9 checks passed" in out
    doc = json.loads(open(report).read())
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names[0].startswith("fd-bilaplacian-residual")
    exact = ["trace-modes-exact", "normal-modes-exact", "bilaplacian-exact",
             "trace-exact[r=1]", "normal-trace-exact[r=1]"]
    assert names[1:6] == exact
    assert all(n.startswith("gradient-crosscheck") for n in names[6:])
    # S = sum |g_k| = 4 for g = 4, so every exact check carries 4e-12
    assert {c["tolerance"] for c in doc["checks"] if c["name"] in exact} == {4e-12}


def _count_assemblies(monkeypatch):
    calls = []
    rows = solver._boundary_rows
    monkeypatch.setattr(solver, "_boundary_rows", lambda *args: calls.append(1) or rows(*args))
    return calls


def test_verify_assembles_the_table_once(tmp_path, monkeypatch, capsys):
    calls = _count_assemblies(monkeypatch)
    assert cli.main(["verify", "--case", write_case(tmp_path, MIXED)]) == 0
    assert len(calls) == 1


def test_lipschitz_assembles_the_table_once(tmp_path, monkeypatch, capsys):
    # A and B at the origin and the quotient grid read the case's one table
    calls = _count_assemblies(monkeypatch)
    assert cli.main(["lipschitz", "--case", write_case(tmp_path, MIXED)]) == 0
    assert len(calls) == 1


def test_solve_assembles_the_table_once(tmp_path, monkeypatch):
    calls = _count_assemblies(monkeypatch)
    out = str(tmp_path / "field.json")
    assert cli.main(["solve", "--case", write_case(tmp_path, MIXED), "--grid", "4,8",
                     "--gradient", "--out", out]) == 0
    assert len(calls) == 1


def test_verify_passes_a_high_degree_case(tmp_path, capsys):
    case = write_case(tmp_path, DEGREE_20)
    assert cli.main(["verify", "--case", case]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out
    assert cli.main(["lipschitz", "--case", case]) == 0


@pytest.mark.parametrize("k", range(13))
def test_verify_passes_mixed_scaled_by_powers_of_ten(tmp_path, capsys, k):
    # every allowance scales with the data, the FD residual's and the
    # crosschecks' round-off too
    scale = 10.0**k
    doc = {"f": {"fourier": [[0, scale, 0.0]]}, "h": {"fourier": [[0, -4.0 * scale, 0.0]]},
           "g": {"terms": [[0, 0, 4.0 * scale, 0.0]]}}
    assert cli.main(["verify", "--case", write_case(tmp_path, doc)]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [SUB_FLOOR_F, SUB_FLOOR_H])
def test_verify_passes_a_mode_below_the_cut(tmp_path, capsys, doc):
    # the h mode's gap, 3.5e-12, exceeds 1e-12 plus the value tail (1.75e-12):
    # the normal checks need the gradient tail
    assert cli.main(["verify", "--case", write_case(tmp_path, doc)]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("datum, n, mode", [
    ("h", 4096, 2041), ("h", 32768, 16000), ("f", 32768, 16000), ("f", 32768, 16383)])
def test_verify_passes_a_unit_mode_near_the_band_edge(tmp_path, capsys, datum, n, mode):
    # the point route takes rounded nodes: 1 - |z|^2 moves an f mode's normal
    # derivative by (m^2 / 2) |1 - |z|^2|, and the rounded angle an h mode's by
    # about m u; the normal trace's allowance carries both
    doc = {datum: {"n_samples": n, "fourier": [[mode, 1.0, 0.0]]}}
    assert cli.main(["verify", "--case", write_case(tmp_path, doc)]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


def test_verify_accepts_four_samples(tmp_path, capsys):
    # solve accepts 4-sample data, and so must verify: its tolerances come
    # from the data's coefficients
    rc = cli.main(["verify", "--case", write_case(tmp_path, FOUR_SAMPLES)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "9/9 checks passed" in out


def test_the_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch, capsys):
    # a wrapper set on cli.cmd_<command> after the parser exists still runs
    assert cli.main(["kernel", "--which", "F0", "--z", "0.5,0"]) == 0
    assert cli._build_parser() is cli._build_parser()
    calls = []
    kernel = cli.cmd_kernel
    monkeypatch.setattr(cli, "cmd_kernel", lambda args: calls.append(args.which) or kernel(args))
    assert cli.main(["kernel", "--which", "H0", "--z", "0.5,0"]) == 0
    assert calls == ["H0"]


def test_only_identities_reaches_quadrature(tmp_path, monkeypatch, capsys):
    # solve, verify and lipschitz run closed forms only; identities runs the
    # quadrature oracle, so the patch must bite there
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature reached")

    monkeypatch.setattr(quadrature, "_pullback", refuse)
    monkeypatch.setattr(quadrature.CircleRule, "thetas", property(refuse))
    assert len(DEMO_CASES) == 3
    out = str(tmp_path / "field.json")
    for path in map(str, DEMO_CASES):
        assert cli.main(["solve", "--case", path, "--grid", "8,16", "--gradient", "--out", out]) == 0
        assert cli.main(["verify", "--case", path]) == 0
        assert cli.main(["lipschitz", "--case", path]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="quadrature reached"):
        cli.main(["identities"])
