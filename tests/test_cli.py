"""End-to-end tests of the command-line interface: file formats,
determinism, exit codes."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passfpca import (
    FunctionalSample,
    SimulationConfig,
    SolverOptions,
    cli,
    generate,
    make_grid,
)
from passfpca.cli import (
    EXIT_ESTIMATION,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_STRICT,
    EXIT_USAGE,
    main,
    read_curves_csv,
    write_curves_csv,
)


def _run(*argv):
    return main(list(argv))


def _simulate(tmp_path, *extra, name="curves.csv"):
    out = tmp_path / name
    code = _run("simulate", "--n", "50", "--seed", "7",
                "--out", str(out), *extra)
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_byte_deterministic(tmp_path):
    first = _simulate(tmp_path, "--law", "gaussian", name="a.csv")
    second = _simulate(tmp_path, "--law", "gaussian", name="b.csv")
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a_truth.csv").read_bytes() == \
        (tmp_path / "b_truth.csv").read_bytes()


def test_simulate_outlier_mask_count(tmp_path):
    out = tmp_path / "c.csv"
    code = _run("simulate", "--n", "100", "--seed", "3",
                "--outliers", "ol1", "--out", str(out))
    assert code == EXIT_OK
    mask_rows = [line.split(",") for line in
                 (tmp_path / "c_truth.csv").read_text().splitlines()
                 if line.startswith("outlier_mask,")]
    assert len(mask_rows) == 100
    assert sum(int(row[3]) for row in mask_rows) == 5


def test_simulate_noise_level(tmp_path):
    clean = _simulate(tmp_path, name="clean.csv")
    noisy = _simulate(tmp_path, "--noise-sd", "2", name="noisy.csv")
    residual = (read_curves_csv(str(noisy)).values
                - read_curves_csv(str(clean)).values)
    assert residual.std() == pytest.approx(2.0, rel=0.05)


def test_simulate_custom_truth_path(tmp_path):
    out = tmp_path / "x.csv"
    truth = tmp_path / "gen.csv"
    assert _run("simulate", "--n", "10", "--seed", "1", "--out", str(out),
                "--truth", str(truth)) == EXIT_OK
    assert truth.exists()
    header = truth.read_text().splitlines()[0]
    assert header == "component,order,position,value"


# ---------------------------------------------------------------------------
# curves CSV round trip


def test_curves_csv_round_trip(tmp_path):
    path = _simulate(tmp_path, "--law", "lognormal")
    sample = read_curves_csv(str(path))
    assert sample.values.shape == (50, 101)
    again = tmp_path / "again.csv"
    write_curves_csv(str(again), sample)
    recovered = read_curves_csv(str(again))
    assert np.array_equal(recovered.values, sample.values)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "curve_id"
    grid = make_grid(101)
    assert header[1] == format(grid.points[0], ".12g")
    assert header[-1] == format(grid.points[-1], ".12g")


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return str(tmp_path_factory.mktemp("round_trip") / "curves.csv")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), n_points=st.integers(2, 6))
def test_curves_csv_round_trip_is_exact(scratch_csv, data, n, n_points):
    # Every finite double survives, bit for bit: signed zeros,
    # subnormals and magnitudes near the overflow limit included.
    special = st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, -1e308])
    value = st.one_of(special,
                      st.floats(allow_nan=False, allow_infinity=False))
    rows = data.draw(st.lists(st.lists(value, min_size=n_points,
                                       max_size=n_points),
                              min_size=n, max_size=n))
    values = np.array(rows, dtype=float)
    write_curves_csv(scratch_csv, FunctionalSample(values))
    recovered = read_curves_csv(scratch_csv).values
    assert np.array_equal(recovered.view(np.uint64), values.view(np.uint64))


_CSV_HEADER = "curve_id,0.333333333333,0.666666666667,1"

_PLAIN = [[1.5, -2000.0, 0.25], [3.0, 4.0, 5.0]]

# File text after the header, and the values read or the line of the
# format error.
_CSV_EDGE_CASES = {
    "plain": ("\n0,1.5,-2e3,.25\n1,3,4,5\n", _PLAIN),
    "blank lines": ("\n\n0,1.5,-2e3,.25\n\n1,3,4,5\n\n", _PLAIN),
    "whitespace-only line": ("\n0,1.5,-2e3,.25\n  \n1,3,4,5\n", 3),
    "CRLF": ("\r\n0,1.5,-2e3,.25\r\n1,3,4,5\r\n", _PLAIN),
    "CR only": ("\r0,1.5,-2e3,.25\r1,3,4,5\r", _PLAIN),
    "extra field": ("\n0,1.5,-2e3,.25,7\n1,3,4,5\n", 2),
    "extra fields and whitespace-only line":
        ("\n0,1.5,-2e3,.25,7,8,9\n \n1,3,4,5\n", 2),
    "trailing comma": ("\n0,1.5,-2e3,.25\n1,3,4,5,\n", 3),
    "short row": ("\n0,1.5,-2e3\n1,3,4,5\n", 2),
    "quoted field": ('\n0,"1.5",-2e3,.25\n1,3,4,5\n', 2),
    "underscore": ("\n0,1_0,-2e3,.25\n1,3,4,5\n", 2),
    "non-ASCII digit": ("\n0,\u0661,-2e3,.25\n1,3,4,5\n", 2),
    "comment mark": ("\n0,1.5,-2e3,.25 #\n1,3,4,5\n", 2),
    "empty field": ("\n0,,-2e3,.25\n1,3,4,5\n", 2),
    "non-numeric curve_id": ("\nday one,1.5,-2e3,.25\nx,3,4,5\n", _PLAIN),
    "NaN row": ("\n0,1.5,-2e3,.25\n1,nan,4,5\n", 3),
    "unit separator": ("\n0,1.5,-2e3,.25\x1c\n1,3,4,5\n", 2),
}

_ACCEPTED_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"")


def _row_parser(raw):
    """The syntax of docs/schema.md, line by line: the rows of a curves
    file with the header ``_CSV_HEADER``, else the number of its first
    bad line (None when no line is bad but there is no row)."""
    lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    if lines[0] != _CSV_HEADER.encode():
        return 1
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(b",")[1:]
        if (line.translate(None, _ACCEPTED_BYTES) or len(fields) != 3
                or any(b"_" in field for field in fields)):
            return line_no
        try:
            rows.append([float(field) for field in fields])
        except ValueError:
            return line_no
        if not np.isfinite(rows[-1]).all():
            return line_no
    return rows or None


def _check_read(path, expected):
    """``read_curves_csv`` gives the expected rows bit for bit, or the
    format error at the expected line."""
    try:
        values = read_curves_csv(path).values
    except cli._FormatError as exc:
        where = path if expected is None else f"{path}:{expected}"
        assert str(exc).startswith(f"{where}: ")
    else:
        assert isinstance(expected, list)
        assert values.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("case", sorted(_CSV_EDGE_CASES))
def test_curves_csv_fast_path_matches_the_row_parser(tmp_path, case, bom):
    # The values or the path:line of the table, and the same from the
    # line-by-line reference; a BOM fails the header's byte check.
    body, expected = _CSV_EDGE_CASES[case]
    raw = ("\ufeff" if bom else "").encode() + (_CSV_HEADER + body).encode()
    path = tmp_path / "curves.csv"
    path.write_bytes(raw)
    assert _row_parser(raw) == (1 if bom else expected)
    _check_read(str(path), 1 if bom else expected)


_NUMBER_CHARS = "0123456789.e+- \t\"_#naif\xff"
_VALUE = st.one_of(
    st.sampled_from(["1", "-2.5e3", ".25", "+0", "-0.0", " 7 ", "5.", "1E-3"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_FIELD = st.one_of(_VALUE, st.text(_NUMBER_CHARS, max_size=5))
_LINE = st.one_of(
    st.lists(_VALUE, min_size=3, max_size=3).map(
        lambda v: ",".join(["0", *v])),
    st.lists(_FIELD, min_size=2, max_size=5).map(",".join),
    st.text(_NUMBER_CHARS + ",\r", max_size=12))
_BODY = st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r", "\r\n"])),
                 max_size=5)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lines=_BODY)
def test_curves_csv_reader_agrees_with_the_row_parser(scratch_csv, lines):
    # Over fuzzed bodies the reader returns the reference's values bit for
    # bit or its path:line format error, and raises nothing else.
    raw = (_CSV_HEADER + "\n" + "".join(a + b for a, b in lines)).encode(
        "latin-1")
    with open(scratch_csv, "wb") as handle:
        handle.write(raw)
    _check_read(scratch_csv, _row_parser(raw))


# Malformed files the row parser reads, and the line of the error.
_MALFORMED_CURVES = {
    # An unbalanced quote runs on past csv's 131,072-character field limit.
    "field over the csv limit":
        (('\n0,1,2,3\n1,"2,3,4\n' + "2,3,4,5\n" * 20_000).encode(), 3),
    "byte that is not UTF-8": (b"\r0,1,2,3\r1,2,\xff,4\r", 3),
    "underscore in a number": (b"\n0,1,2,3\n1,1_0,3,4\n", 3),
    "non-ASCII digit": ("\n0,1,2,3\n\n1,\u0661,3,4\n".encode(), 4),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CURVES))
def test_malformed_curves_file_is_a_format_error(tmp_path, capsys, case):
    # Exit 4 with path:line, as for any malformed CSV, not a traceback.
    body, line = _MALFORMED_CURVES[case]
    path = tmp_path / "curves.csv"
    path.write_bytes(_CSV_HEADER.encode() + body)
    code = _run("fit", "--input", str(path), "--result",
                str(tmp_path / "fit.json"), "--eigenfunctions",
                str(tmp_path / "ef.csv"))
    assert code == EXIT_FORMAT
    assert f"{path}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    "id,0.5,1", "curve_id,1", "curve_id,0.5,one", "curve_id,0.5,1_0"])
def test_malformed_header_is_a_format_error(tmp_path, capsys, header):
    # Not starting with curve_id, fewer than two grid columns, and grid
    # names that are not plain numbers.
    path = tmp_path / "curves.csv"
    path.write_text(f"{header}\n0,1,2\n1,3,4\n")
    code = _run("fit", "--input", str(path), "--result",
                str(tmp_path / "fit.json"), "--eigenfunctions",
                str(tmp_path / "ef.csv"))
    assert code == EXIT_FORMAT
    assert f"{path}:1: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# fit


def test_fit_round_trip(tmp_path):
    curves = _simulate(tmp_path)
    efs = tmp_path / "ef.csv"
    result = tmp_path / "fit.json"
    assert _run("fit", "--input", str(curves), "--eigenfunctions",
                str(efs), "--result", str(result)) == EXIT_OK
    rows = efs.read_text().splitlines()
    assert rows[0] == "t,phi_1,phi_2,phi_3,phi_4"
    assert len(rows) == 102
    doc = json.loads(result.read_text())
    assert doc["method"] == "pass"
    assert doc["n_curves"] == 50
    assert doc["ratios"][0] == 1.0
    assert doc["ratio_solver"]["converged"] is True
    # Unit-trace surface: operator eigenvalues over the full rank sum
    # to one, so the leading four sum to slightly less.
    assert 0.8 < sum(doc["eigenvalues"]) <= 1.0 + 1e-8


def test_fit_two_curves_rank_one(tmp_path):
    curves = tmp_path / "two.csv"
    assert _run("simulate", "--n", "2", "--seed", "3",
                "--out", str(curves)) == EXIT_OK
    efs = tmp_path / "ef.csv"
    result = tmp_path / "fit.json"
    assert _run("fit", "--input", str(curves), "--eigenfunctions",
                str(efs), "--result", str(result)) == EXIT_OK
    doc = json.loads(result.read_text())
    values = doc["eigenvalues"]
    assert sum(values) == pytest.approx(1.0, abs=1e-8)
    assert values[0] == pytest.approx(1.0, abs=1e-8)
    assert all(abs(v) < 1e-8 for v in values[1:])
    # The single pair cannot support the ratio refinement.
    assert doc["ratios"] is None
    assert doc["ratio_solver"]["converged"] is False


def test_fit_classical_reports_eigenvalue_ratios(tmp_path):
    curves = _simulate(tmp_path)
    result = tmp_path / "fit.json"
    assert _run("fit", "--input", str(curves), "--method", "classical",
                "--eigenfunctions", str(tmp_path / "ef.csv"),
                "--result", str(result)) == EXIT_OK
    doc = json.loads(result.read_text())
    assert doc["ratios"][0] == 1.0
    assert doc["ratio_solver"] is None
    values = doc["eigenvalues"]
    assert doc["ratios"][1] == pytest.approx(values[1] / values[0])


def _identical_curves(tmp_path):
    """Copies of one curve: three of 0..7, whose mean is exact, and 30 of a
    simulated curve, whose mean is not."""
    sample, _ = generate(SimulationConfig(n=30, seed=0))
    for name, values in (("flat.csv", np.tile(np.arange(8.0), (3, 1))),
                         ("copies.csv", np.tile(sample.values[0], (30, 1)))):
        curves = tmp_path / name
        write_curves_csv(str(curves), FunctionalSample(values))
        yield curves


def test_fit_classical_writes_null_for_undefined_ratios(tmp_path):
    # Identical curves have a zero covariance, so no ratio is defined.
    for curves in _identical_curves(tmp_path):
        result = tmp_path / "fit.json"
        assert _run("fit", "--input", str(curves), "--method", "classical",
                    "--eigenfunctions", str(tmp_path / "ef.csv"),
                    "--result", str(result)) == EXIT_OK
        doc = json.loads(result.read_text())
        assert doc["eigenvalues"] == [0.0] * doc["q"]
        assert doc["ratios"] is None


def test_fit_mspc_on_identical_curves_is_estimation_error(tmp_path, capsys):
    # Every curve is the spatial median, so no sign is defined.
    for curves in _identical_curves(tmp_path):
        code = _run("fit", "--input", str(curves), "--method", "mspc",
                    "--eigenfunctions", str(tmp_path / "ef.csv"))
        assert code == EXIT_ESTIMATION
        assert "spatial median" in capsys.readouterr().err


def test_fit_mspc_rejects_surface_smoothing(tmp_path):
    curves = _simulate(tmp_path)
    code = _run("fit", "--input", str(curves), "--method", "mspc",
                "--smoothing", "smooth_cf",
                "--eigenfunctions", str(tmp_path / "ef.csv"))
    assert code == EXIT_FORMAT


def test_fit_ratio_solver_method_is_mc(tmp_path):
    # Both the converged and the failed refinement name the solver "mc",
    # as docs/schema.md specifies.
    many = _simulate(tmp_path)
    two = tmp_path / "two.csv"
    assert _run("simulate", "--n", "2", "--seed", "3",
                "--out", str(two)) == EXIT_OK
    for curves, converged in ((many, True), (two, False)):
        result = tmp_path / "fit.json"
        assert _run("fit", "--input", str(curves), "--eigenfunctions",
                    str(tmp_path / "ef.csv"), "--result",
                    str(result)) == EXIT_OK
        solver = json.loads(result.read_text())["ratio_solver"]
        assert solver["method"] == "mc"
        assert solver["converged"] is converged


@pytest.mark.parametrize("command, flag, value", [
    ("fit", "--trim", "0.5"),
    ("fit", "--tol", "0"),
    ("fit", "--max-iter", "0"),
    ("fit", "--basis-size", "3"),
    ("ratio", "--trim", "-0.1"),
    ("ratio", "--tol", "-0.5"),
    ("ratio", "--max-iter", "0"),
])
def test_out_of_range_solver_flag_is_estimation_error(
        tmp_path, capsys, command, flag, value):
    curves = _simulate(tmp_path)
    outputs = (["--eigenfunctions", str(tmp_path / "ef.csv")]
               if command == "fit" else [])
    code = _run(command, "--input", str(curves), flag, value,
                "--result", str(tmp_path / "out.json"), *outputs)
    assert code == EXIT_ESTIMATION
    assert "estimation error" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# ratio


def test_ratio_solvers_agree_on_clean_data(tmp_path):
    curves = _simulate(tmp_path, name="r.csv")
    docs = {}
    for solver in ("mc", "elliptical"):
        result = tmp_path / f"{solver}.json"
        assert _run("ratio", "--input", str(curves), "--solver", solver,
                    "--result", str(result)) == EXIT_OK
        docs[solver] = json.loads(result.read_text())
    for solver, doc in docs.items():
        assert doc["solver"] == solver
        assert doc["ratios"][0] == 1.0
        assert doc["converged"] is True
        assert doc["pve_1"] == pytest.approx(
            1.0 / sum(doc["ratios"]), rel=1e-12)
    assert docs["mc"]["pass_eigenvalues"] == \
        docs["elliptical"]["pass_eigenvalues"]


def test_curves_whose_classical_eigenvalues_overflow(tmp_path, capsys):
    # The classical surface of curves at 2^510 is finite, but its
    # eigenvalues are not: the ratio solvers start from ones instead,
    # and the classical fit is an estimation error, not a result
    # document holding Infinity and NaN.
    sample, _ = generate(SimulationConfig(n=40, noise_sd=0.5, seed=2))
    curves = tmp_path / "big.csv"
    write_curves_csv(str(curves),
                     FunctionalSample(np.ldexp(sample.values, 510)))
    for solver in ("mc", "elliptical"):
        result = tmp_path / f"{solver}.json"
        assert _run("ratio", "--input", str(curves), "--solver", solver,
                    "--result", str(result)) == EXIT_OK
        doc = json.loads(result.read_text())
        assert doc["converged"] is True
        assert np.isfinite(doc["ratios"]).all()
    result = tmp_path / "fit.json"
    code = _run("fit", "--input", str(curves), "--method", "classical",
                "--eigenfunctions", str(tmp_path / "ef.csv"),
                "--result", str(result))
    assert code == EXIT_ESTIMATION
    assert "eigenvalues must be finite" in capsys.readouterr().err
    assert not result.exists()


# ---------------------------------------------------------------------------
# bench


def _write_bench_config(tmp_path, text):
    path = tmp_path / "bench.yaml"
    path.write_text(text)
    return path


def test_bench_runs_and_is_deterministic(tmp_path):
    config = _write_bench_config(tmp_path, """\
seed: 11
replications: 2
methods: [pass, classical_ratio]
settings:
  - {n: 25}
  - {n: 25, score_law: chisquare}
""")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    summary = tmp_path / "s.json"
    assert _run("bench", "--config", str(config), "--out", str(out_a),
                "--summary", str(summary)) == EXIT_OK
    assert _run("bench", "--config", str(config), "--out", str(out_b),
                "--summary", str(tmp_path / "s2.json")) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "setting,method,mse,bias,pve_mse,failures,replications"
    assert len(lines) == 5
    doc = json.loads(summary.read_text())
    assert doc["failed_cells"] == []
    assert doc["failure_reasons"] == []
    assert doc["rows"] == 4
    assert doc["results_csv"] == str(out_a)


def test_bench_empty_methods_is_usage_error(tmp_path):
    config = _write_bench_config(tmp_path, """\
seed: 1
replications: 1
methods: []
settings:
  - {n: 10}
""")
    assert _run("bench", "--config", str(config)) == EXIT_USAGE


def test_bench_unknown_key_is_format_error(tmp_path):
    config = _write_bench_config(tmp_path, """\
seed: 1
replications: 1
methods: [pass]
settings:
  - {n: 10, bandwidth: 0.2}
""")
    assert _run("bench", "--config", str(config)) == EXIT_FORMAT


def test_bench_unknown_method_is_format_error(tmp_path, capsys):
    config = _write_bench_config(tmp_path, """\
seed: 1
replications: 1
methods: [pass, ridge]
settings:
  - {n: 10}
""")
    assert _run("bench", "--config", str(config)) == EXIT_FORMAT
    assert "ridge" in capsys.readouterr().err


def test_bench_repeated_method_is_format_error(tmp_path, monkeypatch,
                                               capsys):
    # A repeated method would count each replicate's failure twice, so
    # that a cell's failures exceed its replications.
    monkeypatch.chdir(tmp_path)
    config = _write_bench_config(tmp_path, """\
seed: 1
replications: 3
methods: [pass_mc, pass_mc]
settings:
  - {n: 2}
""")
    assert _run("bench", "--config", str(config)) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(config) in err and "pass_mc" in err
    assert list(tmp_path.iterdir()) == [config]


def test_bench_strict_flags_failed_cell(tmp_path):
    # Two curves give one pair; the default trimming removes it, so the
    # ratio cell can never succeed.
    config = _write_bench_config(tmp_path, """\
seed: 1
replications: 2
methods: [pass_mc]
settings:
  - {n: 2}
output: out.csv
summary: summary.json
""")
    relaxed = _run("bench", "--config", str(config), "--out",
                   str(tmp_path / "o1.csv"), "--summary",
                   str(tmp_path / "s1.json"))
    assert relaxed == EXIT_OK
    strict = _run("bench", "--config", str(config), "--strict", "--out",
                  str(tmp_path / "o2.csv"), "--summary",
                  str(tmp_path / "s2.json"))
    assert strict == EXIT_STRICT
    doc = json.loads((tmp_path / "s2.json").read_text())
    assert len(doc["failed_cells"]) == 1
    assert doc["failed_cells"][0]["method"] == "pass_mc"
    assert doc["failure_reasons"] == [{
        "setting": doc["failed_cells"][0]["setting"], "method": "pass_mc",
        "counts": {"InsufficientSampleError": 2}}]
    with open(tmp_path / "o2.csv", newline="") as handle:
        row = list(csv.reader(handle))[1]
    assert row[2] == row[3] == row[4] == ""
    assert row[5] == row[6] == "2"


@pytest.mark.parametrize("entry", [
    "seed: true", "seed: 1.0", "replications: true", "replications: 1.5",
    "output: true", "output: ''", "summary: 7", "summary: null",
    "settings: [{n: 20.5}]", "settings: [{n: true}]", "settings: [{n: 20.0}]",
    "settings: [{n: 10, n_points: 20.0}]", "solver: {q: 2.5}",
    "solver: {max_iter: true}", "solver: {basis_size: 6.0}",
    "settings: [{n: 10, noise_sd: true}]",
    "settings: [{n: 10, outlier_fraction: false}]",
    "settings: [{n: 10, noise_sd: .nan}]",
    "settings: [{n: 10, noise_sd: .inf}]",
    "solver: {tol: true}", "solver: {trim_fraction: false}",
    "solver: []", "solver: 0", "solver: false", "solver: ''",
    "settings: []", "settings: {n: 10}", "settings: [10]",
    "settings: [{noise_sd: 0.5}]", "solver: {bandwidth: 0.2}",
    "methods: classical",
])
def test_bench_value_of_the_wrong_type_is_format_error(
        tmp_path, monkeypatch, capsys, entry):
    # A YAML boolean or float where the schema asks for an integer, a
    # boolean where it asks for a number, a noise level that is not
    # finite, or a path that is not a nonempty string, is exit 4 before
    # anything runs.
    monkeypatch.chdir(tmp_path)
    document = {"seed": "1", "replications": "1", "methods": "[classical]",
                "settings": "[{n: 10}]"}
    key, value = entry.split(": ", 1)
    document[key] = value
    config = _write_bench_config(tmp_path, "".join(
        f"{k}: {v}\n" for k, v in document.items()))
    assert _run("bench", "--config", str(config)) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(config) in captured.err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("text", [
    "", "- seed\n", "seed: 1\nreplications: 1\nmethods: [classical]\n",
    ("seed: 1\nreplications: 1\nmethods: [classical]\n"
     "settings: [{n: 10}]\nbandwidth: 0.2\n"),
])
def test_bench_config_top_level_is_checked(tmp_path, monkeypatch, capsys,
                                           text):
    # Empty, not a mapping, missing a required key, or an unknown key:
    # exit 4 before anything runs.
    monkeypatch.chdir(tmp_path)
    config = _write_bench_config(tmp_path, text)
    assert _run("bench", "--config", str(config)) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(config) in captured.err
    assert list(tmp_path.iterdir()) == [config]


def test_bench_null_solver_runs_the_defaults(tmp_path):
    config = _write_bench_config(tmp_path, (
        "seed: 1\nreplications: 1\nmethods: [classical]\n"
        "settings: [{n: 10}]\nsolver: null\n"))
    summary = tmp_path / "summary.json"
    assert _run("bench", "--config", str(config), "--out",
                str(tmp_path / "out.csv"),
                "--summary", str(summary)) == EXIT_OK
    assert json.loads(summary.read_text())["solver"] == asdict(SolverOptions())


def test_bench_config_that_is_not_utf8_is_format_error(tmp_path, capsys):
    config = tmp_path / "bench.yaml"
    config.write_bytes(b"seed: 1\nreplications: 1\n# caf\xff\n"
                       b"methods: [classical]\nsettings: [{n: 10}]\n")
    assert _run("bench", "--config", str(config)) == EXIT_FORMAT
    assert str(config) in capsys.readouterr().err


def test_bundled_benchmark_config_loads():
    import pathlib

    from passfpca.cli import _load_bench_config
    bundled = (pathlib.Path(__file__).resolve().parent.parent
               / "configs" / "robustness_benchmark.yaml")
    document = _load_bench_config(str(bundled))
    assert document["seed"] == 12345
    assert document["replications"] == 200
    assert document["methods"] == ["pass", "classical", "mspc"]
    assert len(document["settings"]) == 15


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_for_bad_enum(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        _run("simulate", "--n", "10", "--seed", "1", "--law", "cauchy",
             "--out", str(tmp_path / "x.csv"))
    assert excinfo.value.code == EXIT_USAGE


def test_io_error_for_missing_input(tmp_path, capsys):
    code = _run("fit", "--input", str(tmp_path / "nope.csv"),
                "--eigenfunctions", str(tmp_path / "ef.csv"))
    assert code == EXIT_IO
    assert "nope.csv" in capsys.readouterr().err


def test_format_error_reports_line_number(tmp_path, capsys):
    curves = _simulate(tmp_path)
    text = curves.read_text().splitlines()
    fields = text[3].split(",")
    fields[5] = "not-a-number"
    text[3] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(text) + "\n")
    code = _run("fit", "--input", str(bad),
                "--eigenfunctions", str(tmp_path / "ef.csv"))
    assert code == EXIT_FORMAT
    assert "bad.csv:4" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_format_error_for_non_finite_value(tmp_path, capsys, value):
    curves = _simulate(tmp_path)
    text = curves.read_text().splitlines()
    fields = text[6].split(",")
    fields[2] = value
    text[6] = ",".join(fields)
    bad = tmp_path / "nonfinite.csv"
    bad.write_text("\n".join(text) + "\n")
    code = _run("fit", "--input", str(bad),
                "--eigenfunctions", str(tmp_path / "ef.csv"))
    assert code == EXIT_FORMAT
    assert "nonfinite.csv:7" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["0.123456789", "nan", "NaN", "-nan"])
def test_format_error_for_wrong_grid(tmp_path, capsys, position):
    curves = _simulate(tmp_path)
    text = curves.read_text().splitlines()
    header = text[0].split(",")
    header[1] = position
    text[0] = ",".join(header)
    bad = tmp_path / "grid.csv"
    bad.write_text("\n".join(text) + "\n")
    assert _run("fit", "--input", str(bad),
                "--eigenfunctions", str(tmp_path / "ef.csv")) == EXIT_FORMAT
    assert "grid.csv:1:" in capsys.readouterr().err


def test_estimation_error_for_degenerate_sample(tmp_path, capsys):
    grid = make_grid(5)
    header = "curve_id," + ",".join(format(t, ".12g") for t in grid.points)
    row = ",".join(repr(float(v)) for v in np.ones(5))
    bad = tmp_path / "dupes.csv"
    bad.write_text(f"{header}\n1,{row}\n2,{row}\n")
    code = _run("fit", "--input", str(bad),
                "--eigenfunctions", str(tmp_path / "ef.csv"))
    assert code == EXIT_ESTIMATION
    assert capsys.readouterr().err != ""
