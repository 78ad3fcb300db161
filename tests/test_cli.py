import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tqft import cli, qpe
from tqft.calibration import cliff_depth, crossover_error_rate, error_budget
from tqft.circuits import gate_count, parse_plan, plan_truncated_qft
from tqft.cli import (
    MAX_ROWS,
    UsageError,
    main,
    parse_float_list,
    parse_int_list,
)
from tqft.qpe import grid_phases, mean_success_probability


def read_artifact(path):
    """Split a CSV artifact into (comment lines, row dicts)."""
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = "\n".join(line for line in lines if not line.startswith("#"))
    return meta, list(csv.DictReader(io.StringIO(body)))


def test_parse_int_list():
    assert parse_int_list("4,5,6") == [4, 5, 6]
    assert parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_list("7") == [7]
    assert parse_int_list("1,3..5") == [1, 3, 4, 5]
    assert parse_int_list("all") is None
    for bad in ("", "x", "5..2", "1..x", "1;2"):
        with pytest.raises(UsageError):
            parse_int_list(bad)


def test_parse_float_list():
    points = parse_float_list("1e-4..1e-2:log8")
    assert len(points) == 8
    assert points[0] == pytest.approx(1e-4) and points[-1] == pytest.approx(1e-2)
    ratios = np.diff(np.log(points))
    assert np.allclose(ratios, ratios[0])
    assert parse_float_list("0..1:lin3") == pytest.approx([0.0, 0.5, 1.0])
    assert parse_float_list("1e-3,2e-3") == pytest.approx([1e-3, 2e-3])
    for bad in ("a", "1..2:geo5", "1..-1:log4", "1..2:log"):
        with pytest.raises(UsageError):
            parse_float_list(bad)


_INT_TOKENS = st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 20)),
                       min_size=1, max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_INT_TOKENS)
def test_int_list_round_trips(tokens):
    # a token (lo, 0) is written as a single value, (lo, n) as the range lo..lo+n
    text = ",".join(str(lo) if n == 0 else f"{lo}..{lo + n}" for lo, n in tokens)
    assert parse_int_list(text) == [v for lo, n in tokens for v in range(lo, lo + n + 1)]


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scale=st.sampled_from(["lin", "log"]), points=st.integers(2, 2000),
       lo=_POSITIVE, hi=_POSITIVE, negate=st.booleans())
@example(scale="lin", points=3, lo=1e308, hi=1e308, negate=True)
@example(scale="log", points=2, lo=1.0, hi=1.7976931348622103e308, negate=False)
def test_float_range_round_trips(scale, points, lo, hi, negate):
    if negate and scale == "lin":
        lo = -lo
    values = parse_float_list(f"{lo!r}..{hi!r}:{scale}{points}")
    assert len(values) == points
    assert values[0] == lo and values[-1] == hi
    assert all(type(v) is float and math.isfinite(v) for v in values)


def test_gates_artifact(tmp_path):
    out = tmp_path / "gates.csv"
    assert main(["gates", "--m", "30", "--d", "11,13,14,30", "--out", str(out)]) == 0
    meta, rows = read_artifact(out)
    assert meta[0].startswith("# tqft ")
    assert meta[1].startswith("# config ")
    assert json.loads(meta[1][len("# config "):])["subcommand"] == "gates"
    assert [int(r["gates"]) for r in rows] == [245, 282, 299, 435]
    assert all(r["gates_full"] == "435" for r in rows)
    assert float(rows[-1]["reduction_pct"]) == 0.0


def test_requested_depths_keep_their_order(tmp_path):
    out = tmp_path / "gates.csv"
    assert main(["gates", "--m", "4,30", "--d", "5,2,9", "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert [(r["m"], r["d"]) for r in rows] == [("4", "2"), ("30", "5"), ("30", "2"), ("30", "9")]
    out = tmp_path / "tvd.csv"
    assert main(["tvd", "--m", "6", "--d", "5,2,6,4", "--phases", "20", "--grid", "32",
                 "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    sample = qpe.default_phase_sample(42, 20, 32)
    assert [(r["d"], r["max_tv"]) for r in rows] == [
        (str(d), format(qpe.max_tvd(6, d, sample)[0], ".17g")) for d in (5, 2, 6, 4)]


def test_tvd_zero_row_and_exit(tmp_path):
    out = tmp_path / "tvd.csv"
    code = main(["tvd", "--m", "4", "--d", "4", "--phases", "16", "--grid", "32",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_artifact(out)
    assert len(rows) == 1
    assert rows[0]["max_tv"] == "0"
    assert rows[0]["ratio"] == "0"


def test_tvd_table_protocol_row_count(tmp_path):
    out = tmp_path / "tvd.csv"
    assert main(["tvd", "--m", "4,5,6", "--d", "all", "--phases", "50",
                 "--grid", "64", "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 15  # 4 + 5 + 6 depth choices
    for row in rows:
        assert float(row["max_tv"]) <= float(row["bound_tight"]) + 1e-12


def test_usage_error_exit_codes(tmp_path, capsys):
    # argparse-level: missing required flag
    with pytest.raises(SystemExit) as info:
        main(["tvd"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["nosuchcommand"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["tfim", "--m", "8", "--d", "abc"])
    assert info.value.code == 1
    # post-parse validation
    assert main(["tvd", "--m", "99", "--d", "all"]) == 1
    assert main(["tvd", "--m", "4", "--d", "all", "--phases", "0", "--grid", "0"]) == 1
    assert main(["rmse", "--m", "8", "--d", "9"]) == 1
    err = capsys.readouterr().err
    assert "UsageError" in err


@pytest.mark.parametrize("argv", [
    ["rmse", "--m", "16", "--d", "11", "--eps", "nan"],
    ["rmse", "--m", "16", "--d", "11", "--eps", "1e-3,inf"],
    ["rmse", "--m", "16", "--d", "11", "--eps", "1e-3..1e-2:log0"],
    ["rmse", "--m", "16", "--d", "11", "--eps", "0..1:lin0"],
    ["rmse", "--m", "0"],
    ["crossover", "--m", "1"],
    ["gates", "--m", "4", "--d", "9"],
    ["tvd", "--m", "4,5", "--d", "6", "--phases", "8", "--grid", "0"],
    ["cliff", "--m", "4", "--d", "9", "--grid", "8"],
    ["tvd", "--m", "4", "--d", "0", "--phases", "8", "--grid", "0"],
    ["tvd", "--m", "4,13", "--phases", "8", "--grid", "0"],
    ["cliff", "--m", "4", "--d", "0", "--grid", "8"],
    ["cliff", "--m", "13", "--d", "1", "--grid", "4"],
    ["gates", "--m", "4", "--d", "0"],
    ["plan", "--m", "4", "--d", "5"],
    ["tfim", "--m", "25"],
    ["tfim", "--n", "17"],
    ["tfim", "--n", "4", "--m", "8", "--state", "99"],
    ["tfim", "--n", "4", "--m", "8", "--shots", "0"],
    ["tfim", "--n", "4", "--m", "8", "--d", "9"],
    ["crossover", "--m", "16", "--c", "0"],
    ["crossover", "--m", "16", "--d", "0"],
    ["rmse", "--m", "8", "--c", "-1"],
    ["platforms", "--m", "1"],
    ["tfim", "--n", "4", "--J", "0", "--h", "0", "--spectrum", "2"],
    ["cliff", "--m", "4", "--d", "1", "--phases", "0", "--grid", "4", "--shots", "0"],
    ["rmse", "--m", "8", "--d", "3", "--eps", "1e-3", "--c", "nan"],
    ["crossover", "--m", "16", "--d", "11", "--c", "nan"],
    ["tfim", "--n", "4", "--m", "8", "--eps", "nan"],
    ["tfim", "--n", "4", "--h", "inf", "--m", "6"],
    ["tfim", "--n", "4", "--J", "nan"],
], ids=" ".join)
def test_empty_or_nonfinite_sweep_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "UsageError"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rmse", "--m", "600", "--d", "1"],
    ["crossover", "--m", "2000", "--d", "1500"],
], ids=" ".join)
def test_large_register_rows_are_finite(argv, tmp_path):
    out = tmp_path / "artifact.csv"
    assert main(argv + ["--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert rows
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())


@pytest.mark.parametrize("argv", [
    ["gates", "--m", f"1..{MAX_ROWS + 1}", "--d", "1"],
    ["gates", "--m", f"1,2..{MAX_ROWS + 1}", "--d", "1"],
    ["gates", "--m", f"{MAX_ROWS + 1}", "--d", "all"],
    ["gates", "--m", f"{MAX_ROWS // 2},{MAX_ROWS // 2 + 1}", "--d", "all"],
    ["rmse", "--m", "16", "--d", "11", "--eps", f"1e-4..1e-2:log{MAX_ROWS + 1}"],
    ["rmse", "--m", "16", "--d", "11", "--eps", f"0..1:lin{MAX_ROWS + 1}"],
    ["rmse", "--m", "16", "--d", "all", "--eps", f"1e-4..1e-2:log{MAX_ROWS // 16 + 1}"],
    ["crossover", "--m", f"{MAX_ROWS + 2}", "--d", "all"],
    ["tfim", "--n", "16"],
    ["tfim", "--n", "16", "--spectrum", f"{MAX_ROWS + 1}"],
    ["plan", "--m", "1000", "--d", "1000"],
], ids=" ".join)
def test_oversize_sweep_names_the_cap(argv, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main(argv + ["--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.splitlines()[0])
    assert payload["error"] == "UsageError"
    assert f"cap of {MAX_ROWS}" in payload["message"]
    assert not out.exists()


def test_malformed_registry_is_a_usage_error(tmp_path, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_text("name,eps_2q\nfoo\n")
    out = tmp_path / "platforms.csv"
    assert main(["platforms", "--m", "30", "--file", str(registry), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.splitlines()[0])
    assert payload["error"] == "UsageError"
    assert "line 2" in payload["message"]
    assert not out.exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    assert main(["platforms", "--m", "30", "--file", str(tmp_path / "missing.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.splitlines()[0])
    assert payload["error"] in ("FileNotFoundError", "OSError")


def test_corrupted_distribution_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    exact = qpe.phase_distributions
    monkeypatch.setattr(qpe, "phase_distributions",
                        lambda phis, m, d: 0.5 * exact(phis, m, d))
    out = tmp_path / "trial.csv"
    assert main(["tfim", "--n", "4", "--m", "8", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "ArithmeticError"
    assert not out.exists()


_SIZES = st.integers(-2, 14)
_DEPTHS = st.one_of(st.just("all"),
                    st.lists(st.integers(-1, 14), min_size=1, max_size=3).map(
                        lambda ds: ",".join(map(str, ds))))
_NOISE = st.sampled_from(["0", "-1", "1e-3", "0.033", "2", "nan", "inf"])


@st.composite
def _argvs(draw):
    """A subcommand with drawn flag values, spelled --flag=value so that
    negative values reach the checks instead of argparse."""
    m, d, c = draw(_SIZES), draw(_DEPTHS), draw(_NOISE)
    command = draw(st.sampled_from(["gates", "plan", "rmse", "crossover", "platforms",
                                    "tvd", "cliff", "tfim"]))
    if command == "gates":
        flags = {"m": 3 * m, "d": d}
    elif command == "plan":
        flags = {"m": m, "d": draw(st.integers(-1, 14))}
    elif command in ("rmse", "crossover"):
        flags = {"m": m, "d": d, "c": c}
    elif command == "platforms":
        flags = {"m": m}
    elif command in ("tvd", "cliff"):
        flags = {"m": m, "d": d, "phases": draw(st.integers(-1, 3)),
                 "grid": draw(st.integers(-1, 3))}
    else:
        flags = {"n": draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 11, 12])), "c": c}
        if draw(st.booleans()):
            flags.update(m=m + 8, state=draw(st.integers(-1, 20)),
                         d=draw(st.sampled_from([None, -1, 0, 3, 22])),
                         shots=draw(st.sampled_from([None, 0, 5])))
        else:
            flags["spectrum"] = draw(st.integers(-1, 20))
    return [command] + [f"--{k}={v}" for k, v in flags.items() if v is not None]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_argvs())
def test_any_flag_value_exits_ok_or_usage_error(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "artifact.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert json.loads(err.getvalue().splitlines()[0])["error"] == "UsageError"
            assert not out.exists()


def test_bound_violation_exit_code(tmp_path, monkeypatch, capsys):
    # force the tight bound negative so every row trips the check
    monkeypatch.setattr(cli, "tvd_bound",
                        lambda m, d, form="tight": -1.0 if form == "tight" else 1.0)
    out = tmp_path / "tvd.csv"
    code = main(["tvd", "--m", "4", "--d", "2", "--phases", "8", "--grid", "0",
                 "--out", str(out)])
    assert code == 3
    assert "BoundViolation" in capsys.readouterr().err
    assert out.exists()  # artifact still written for inspection


def test_platforms_custom_registry(tmp_path):
    registry = tmp_path / "registry.csv"
    registry.write_text("name,eps_2q\nLab Rig,1e-3\n")
    out = tmp_path / "platforms.csv"
    assert main(["platforms", "--m", "20", "--file", str(registry),
                 "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 1
    assert rows[0]["name"] == "Lab Rig"
    assert int(rows[0]["depth"]) == 12
    assert rows[0]["clamped"] == "false"


def test_tfim_spectrum_rows(tmp_path):
    out = tmp_path / "tfim.csv"
    assert main(["tfim", "--n", "4", "--J", "1", "--h", "0.5", "--spectrum", "4",
                 "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 4
    energies = [float(r["energy"]) for r in rows]
    assert energies == pytest.approx([-3.4270, -3.3322, -1.8268, -1.7321], abs=1e-3)
    assert float(rows[0]["phi"]) == pytest.approx(0.25, abs=1e-12)


def test_tfim_experiment_row(tmp_path):
    out = tmp_path / "trial.csv"
    assert main(["tfim", "--n", "4", "--m", "8", "--d", "5", "--state", "3",
                 "--eps", "1e-3", "--out", str(out)]) == 0
    meta, rows = read_artifact(out)
    assert json.loads(meta[1][len("# config "):])["d"] == 5
    row = rows[0]
    assert (int(row["m"]), int(row["d"]), int(row["state"])) == (8, 5, 3)
    assert row["on_grid"] == "false"
    assert float(row["model_rmse"]) == pytest.approx(error_budget(8, 5, 1e-3).rmse)
    assert float(row["energy_rmse"]) == pytest.approx(
        4.0 * 3.4270340889080906 * float(row["phase_rmse"]), rel=1e-9)
    # an omitted --d means full depth
    assert main(["tfim", "--n", "4", "--m", "6", "--out", str(tmp_path / "full.csv")]) == 0
    _, rows = read_artifact(tmp_path / "full.csv")
    assert int(rows[0]["d"]) == 6


def test_plan_artifact_roundtrip(tmp_path):
    out = tmp_path / "plan.txt"
    assert main(["plan", "--m", "6", "--d", "4", "--out", str(out)]) == 0
    assert parse_plan(out.read_text()) == plan_truncated_qft(6, 4)


def test_rmse_rows_match_model(tmp_path):
    out = tmp_path / "rmse.csv"
    assert main(["rmse", "--m", "16", "--d", "11", "--eps", "1e-4..1e-2:log5",
                 "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 5
    for row in rows:
        eps = float(row["eps_2q"])
        assert float(row["rmse_truncated"]) == pytest.approx(
            error_budget(16, 11, eps).rmse, rel=1e-12)
        assert float(row["rmse_full"]) == pytest.approx(
            error_budget(16, None, eps).rmse, rel=1e-12)
        assert int(row["gates"]) == gate_count(16, 11)


def test_crossover_row(tmp_path):
    out = tmp_path / "crossover.csv"
    assert main(["crossover", "--m", "16", "--d", "11", "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    row = rows[0]
    assert float(row["crossover_eps"]) == pytest.approx(crossover_error_rate(16, 11),
                                                        rel=1e-12)
    assert int(row["gates_truncated"]) == 105
    assert int(row["gates_full"]) == 120
    assert float(row["tv_bound"]) == pytest.approx(math.pi * 5.0 / 2048.0)


@pytest.mark.parametrize("argv, code, named", [
    (["rmse", "--m", "4", "--d", "2", "--eps", "1e300..1.7976931348622103e308:log3"], 1,
     "error rate"),
    (["crossover", "--m", "16", "--d", "11", "--c", "1e-320"], 2, "crossover error rate"),
    (["rmse", "--m", "4", "--d", "2", "--eps", "0.5", "--c", "1e200"], 2, "noise term"),
])
def test_overflowing_model_writes_no_artifact(argv, code, named, tmp_path, capsys):
    out = tmp_path / "model.csv"
    assert main(argv + ["--out", str(out)]) == code
    assert named in json.loads(capsys.readouterr().err.splitlines()[0])["message"]
    assert not out.exists()


def test_cliff_rows(tmp_path):
    out = tmp_path / "cliff.csv"
    assert main(["cliff", "--m", "8", "--d", "1,5,8", "--grid", "32",
                 "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    phis = grid_phases(32)
    for row in rows:
        assert int(row["cliff_depth_marker"]) == cliff_depth(8)
        assert row["success_sampled"] == ""  # blank without --shots
        expected = mean_success_probability(phis, 8, int(row["d"]))
        assert float(row["success_exact"]) == pytest.approx(expected, rel=1e-12)


def test_cliff_sampled_mode(tmp_path):
    out = tmp_path / "cliff.csv"
    assert main(["cliff", "--m", "6", "--d", "2,6",
                 "--grid", "16", "--shots", "400", "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    for row in rows:
        sampled = float(row["success_sampled"])
        assert abs(sampled - float(row["success_exact"])) < 0.1
    # deterministic under a fixed seed
    again = tmp_path / "cliff2.csv"
    assert main(["cliff", "--m", "6", "--d", "2,6",
                 "--grid", "16", "--shots", "400", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_cliff_sampled_stream_is_pinned(tmp_path):
    out = tmp_path / "cliff.csv"
    assert main(["cliff", "--m", "5", "--d", "all", "--phases", "7", "--grid", "5",
                 "--shots", "50", "--seed", "3", "--out", str(out)]) == 0
    _, rows = read_artifact(out)
    assert [row["success_sampled"] for row in rows] == [
        "0.21833333333333332", "0.62333333333333329", "0.83833333333333337",
        "0.8783333333333333", "0.8666666666666667"]


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["tvd", "--m", "4,5", "--d", "all", "--phases", "40", "--grid", "32"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_format_mirrors_csv(tmp_path):
    csv_out, json_out = tmp_path / "g.csv", tmp_path / "g.json"
    argv = ["gates", "--m", "12", "--d", "3,7"]
    assert main(argv + ["--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    assert doc["tool"] == "tqft"
    assert doc["config"]["subcommand"] == "gates"
    assert doc["columns"] == ["m", "d", "gates", "gates_full", "reduction_pct"]
    _, csv_rows = read_artifact(csv_out)
    assert len(doc["rows"]) == len(csv_rows) == 2
    for json_row, csv_row in zip(doc["rows"], csv_rows):
        assert json_row["gates"] == int(csv_row["gates"])


def test_stdout_output(capsys):
    assert main(["gates", "--m", "5", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# tqft ")
    assert "5,3,7,10,30" in out


def test_output_dir_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "artifacts"))
    assert main(["gates", "--m", "5", "--d", "3", "--out", "g.csv"]) == 0
    assert (tmp_path / "artifacts" / "g.csv").exists()
    # absolute --out ignores the environment
    absolute = tmp_path / "direct.csv"
    assert main(["gates", "--m", "5", "--d", "3", "--out", str(absolute)]) == 0
    assert absolute.exists()


def _captured_run(argv):
    """(exit code, stdout, stderr without the runtime line) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("runtime:")]
    return code, out.getvalue(), lines


def test_one_parser_serves_every_run():
    argvs = [["gates", "--m", "5", "--bogus", "1"],
             ["gates", "--m", "5", "--d", "3"],
             ["tfim", "--n", "4", "--spectrum", "3"]]
    cli.build_parser.cache_clear()
    shared = [_captured_run(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, *_ in shared] == [1, 0, 0]
    assert "unrecognized arguments: --bogus 1" in shared[0][2][-1]
    for argv, result in zip(argvs, shared):
        cli.build_parser.cache_clear()
        assert _captured_run(argv) == result


def test_suite_writes_all_artifacts(tmp_path):
    out_dir = tmp_path / "suite"
    assert main(["suite", "--out-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(name for name, _ in cli.SUITE)
