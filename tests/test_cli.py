"""End-to-end tests of the command-line interface: file formats,
determinism, exit codes."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passfpca import FunctionalSample, make_grid
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
    with open(tmp_path / "o2.csv", newline="") as handle:
        row = list(csv.reader(handle))[1]
    assert row[2] == row[3] == row[4] == ""
    assert row[5] == row[6] == "2"


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


def test_format_error_for_wrong_grid(tmp_path, capsys):
    curves = _simulate(tmp_path)
    text = curves.read_text().splitlines()
    header = text[0].split(",")
    header[1] = "0.123456789"
    text[0] = ",".join(header)
    bad = tmp_path / "grid.csv"
    bad.write_text("\n".join(text) + "\n")
    assert _run("fit", "--input", str(bad),
                "--eigenfunctions", str(tmp_path / "ef.csv")) == EXIT_FORMAT


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
