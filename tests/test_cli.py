import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from firecast import pipeline
from firecast.cli import build_parser, main
from firecast.events import load_events_csv
from firecast.model import ModelParams


@pytest.fixture
def params_file(tmp_path):
    payload = {
        "mu": [0.35, 0.3],
        "alpha": [[0.25, 0.1], [0.1, 0.2]],
        "beta": 1.0,
        "gamma": [0.7, 0.7],
        "mask": [[True, True], [True, True]],
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    return path


def test_simulate_fit_predict_eval_chain(tmp_path, params_file, capsys):
    events = tmp_path / "events.csv"
    assert main([
        "simulate", "--params", str(params_file), "--horizon", "150",
        "--seed", "3", "--out", str(events),
    ]) == 0
    seq = load_events_csv(events, horizon=150.0, num_locations=2)
    assert len(seq) > 20

    fitted = tmp_path / "fitted.json"
    trace = tmp_path / "trace.csv"
    assert main([
        "fit", "--events", str(events), "--horizon", "150", "--locations", "2",
        "--grid-points", "2", "--pgd-steps", "40", "--beta-low", "0.5",
        "--beta-high", "1.5", "--out", str(fitted), "--trace", str(trace),
    ]) == 0
    assert fitted.exists()
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,objective" and len(lines) == 42

    detections = tmp_path / "det.csv"
    assert main([
        "predict", "--params", str(fitted), "--events", str(events),
        "--horizon", "150", "--locations", "2", "--out", str(detections),
    ]) == 0
    header = detections.read_text().splitlines()[0]
    assert header == "time,location,risk,threshold,prediction,truth"

    metrics = tmp_path / "metrics.csv"
    assert main(["eval", "--detections", str(detections), "--out", str(metrics)]) == 0
    assert metrics.read_text().splitlines()[0] == "location,precision,recall,f1"


def test_counterfactual(tmp_path, params_file, capsys):
    events = tmp_path / "events.csv"
    main(["simulate", "--params", str(params_file), "--horizon", "80", "--out", str(events)])
    capsys.readouterr()
    assert main([
        "counterfactual", "--params", str(params_file),
        "--events", str(events), "--horizon", "80", "--locations", "2",
        "--time", "40", "--location", "0", "--marks-a", "0.1,0.1",
        "--marks-b", "0.9,0.9",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == pytest.approx(out["lambda_b"] - out["lambda_a"])


def test_counterfactual_scores_marks_like_predict(tmp_path, params_file, capsys):
    # at a day end, condition A set to the predict stage's query marks gives its risk cell
    events = tmp_path / "events.csv"
    main(["simulate", "--params", str(params_file), "--horizon", "80", "--out", str(events)])
    seq = load_events_csv(events, horizon=80.0, num_locations=2)
    params = ModelParams.from_json(params_file)
    marks = ",".join(repr(float(v)) for v in pipeline.query_marks_by_location(seq)[1])
    lam = {}
    for mark_model in ("linear", "kde"):
        capsys.readouterr()
        assert main([
            "counterfactual", "--params", str(params_file), "--events", str(events),
            "--horizon", "80", "--locations", "2", "--time", "40", "--location", "1",
            "--marks-a", marks, "--marks-b", "0.9,0.9", "--mark-model", mark_model,
        ]) == 0
        lam[mark_model] = json.loads(capsys.readouterr().out)["lambda_a"]
        risk = pipeline.risk_series(params, seq, pipeline.MARK_MODELS[mark_model](seq))
        assert lam[mark_model] == risk[39, 1]
    assert lam["kde"] != pytest.approx(lam["linear"], rel=1e-3)


@pytest.mark.parametrize("command, missing", [
    ("eval", "--detections"),
    ("counterfactual", "--params --events --horizon --locations --time --location --marks-a --marks-b"),
])
def test_a_missing_flag_exits_with_argparse_usage(capsys, command, missing):
    with pytest.raises(SystemExit) as info:
        main([command])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: firecast {command} ")
    assert err.strip().endswith(f"firecast {command}: error: the following arguments are required: "
                                + ", ".join(missing.split()))


@pytest.mark.parametrize("time, location, message", [
    ("-1", "0", "query time -1.0 outside [0, 80.0]"),
    ("80.5", "0", "query time 80.5 outside [0, 80.0]"),
    ("40", "2", "location 2 outside [0, 2)"),
    ("40", "-1", "location -1 outside [0, 2)"),
])
def test_counterfactual_rejects_out_of_range_queries(tmp_path, params_file, capsys, time, location, message):
    events = tmp_path / "events.csv"
    main(["simulate", "--params", str(params_file), "--horizon", "80", "--out", str(events)])
    capsys.readouterr()
    assert main([
        "counterfactual", "--params", str(params_file),
        "--events", str(events), "--horizon", "80", "--locations", "2",
        f"--time={time}", f"--location={location}", "--marks-a", "0.1,0.1", "--marks-b", "0.9,0.9",
    ]) == 1
    assert capsys.readouterr().err.strip() == f"firecast counterfactual: [counterfactual] {message}"


@pytest.mark.parametrize("marks_a, message", [
    # NaN used to print {"delta": NaN, ...}, which is not JSON, and exit 0
    ("0.1,nan", "marks_a [0.1, nan] must lie in [0, 1], as an event's marks do"),
    ("2,2", "marks_a [2.0, 2.0] must lie in [0, 1], as an event's marks do"),
], ids=["nan", "above"])
def test_counterfactual_rejects_marks_no_event_carries(tmp_path, params_file, capsys, marks_a, message):
    events = tmp_path / "events.csv"
    main(["simulate", "--params", str(params_file), "--horizon", "80", "--out", str(events)])
    capsys.readouterr()
    assert main([
        "counterfactual", "--params", str(params_file), "--events", str(events), "--horizon", "80",
        "--locations", "2", "--time", "40", "--location", "0", "--marks-a", marks_a, "--marks-b", "0.9,0.9",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"firecast counterfactual: [counterfactual] {message}"


def test_conformal_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "labeled.csv"
    with open(path, "w") as fh:
        fh.write("time,location,m_0,m_1,magnitude\n")
        for i in range(80):
            m0, m1 = rng.uniform(), rng.uniform()
            fh.write(f"{i + 0.5},0,{m0},{m1},{1 + int(m0 > 0.5)}\n")
    assert main([
        "conformal", "--data", str(path), "--horizon", "100", "--locations", "1",
        "--train-fraction", "0.625", "--num-bootstrap", "4", "--batch-size", "5",
        "--alphas", "0.1,0.2", "--seed", "1",
        "--sets", str(tmp_path / "sets.jsonl"), "--summary", str(tmp_path / "summary.csv"),
    ]) == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "alpha,coverage,mean_size,method"
    assert len(summary) == 3
    first = json.loads((tmp_path / "sets.jsonl").read_text().splitlines()[0])
    assert set(first) == {"index", "alpha", "set"}


def test_gridify_command(tmp_path):
    grid = {"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0, "cell_size": 0.5}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("time,lat,lon,temp\n")
        fh.write("1.0,0.2,0.2,12.0\n")
        fh.write("2.0,0.8,0.9,14.0\n")
        fh.write("3.0,4.0,4.0,13.0\n")  # outside, dropped
    out = tmp_path / "events.csv"
    assert main(["gridify", "--raw", str(raw), "--grid", str(grid_path),
                 "--horizon", "5", "--out", str(out)]) == 0
    seq = load_events_csv(out, horizon=5.0, num_locations=4)
    assert len(seq) == 2


def test_gridify_rejects_an_unknown_grid_key(tmp_path, capsys):
    # "cellsize" used to be ignored, and the file gridded at the default 0.24: 25 cells instead of 4
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0, "cellsize": 0.5}))
    raw = tmp_path / "raw.csv"
    raw.write_text("time,lat,lon\n1.0,0.2,0.2\n2.0,0.8,0.9\n")
    out = tmp_path / "events.csv"
    assert main(["gridify", "--raw", str(raw), "--grid", str(grid_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == (
        "firecast gridify: [gridify] unknown grid keys ['cellsize']; "
        "expected some of ['lat_min', 'lon_min', 'lat_max', 'lon_max', 'cell_size', 'excluded']"
    )
    assert not out.exists()


@pytest.mark.parametrize("horizon", [[], ["--horizon", "5"]], ids=["no-horizon", "horizon"])
@pytest.mark.parametrize("time", ["nan", "inf"])
def test_gridify_names_a_non_finite_time(tmp_path, capsys, time, horizon):
    # without a horizon it used to fail on the last time: "cannot convert float NaN to integer"
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0, "cell_size": 0.5}))
    raw = tmp_path / "raw.csv"
    raw.write_text(f"time,lat,lon\n1.0,0.2,0.2\n{time},0.8,0.9\n2.0,0.2,0.8\n")
    out = tmp_path / "events.csv"
    assert main(["gridify", "--raw", str(raw), "--grid", str(grid_path), "--out", str(out), *horizon]) == 1
    assert capsys.readouterr().err.strip() == "firecast gridify: [gridify] column 'time' has a non-finite value"
    assert not out.exists()


def test_run_command(tmp_path):
    bundle = {
        "seed": 2,
        "simulate": {
            "params": {
                "mu": [0.4],
                "alpha": [[0.2]],
                "beta": 1.0,
                "gamma": [1.0],
                "mask": [[True]],
            },
            "horizon": 100.0,
        },
        "fit": {"grid_points": 1, "pgd_steps": 30, "beta_low": 1.0, "beta_high": 1.0},
        "predict": {"screening": False},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()


def test_failures_exit_nonzero(tmp_path, capsys):
    # a file that cannot be opened is named, tagged with the subcommand
    missing, missing_grid = tmp_path / "missing.csv", tmp_path / "missing.json"
    rc = main(["fit", "--events", str(missing), "--horizon", "10",
               "--locations", "1", "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"firecast fit: [fit] [Errno 2] No such file or directory: '{missing}'\n"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0}))
    for raw, grid_file, lost in ((missing, grid, missing), (grid, missing_grid, missing_grid)):
        assert main(["gridify", "--raw", str(raw), "--grid", str(grid_file), "--out", str(tmp_path / "e.csv")]) == 1
        assert capsys.readouterr().err == f"firecast gridify: [gridify] [Errno 2] No such file or directory: '{lost}'\n"


def test_fit_rejects_a_nan_time_at_load(tmp_path, capsys):
    # it used to load and fail the fit: "all grid points failed: ... non-finite gradient"
    events = tmp_path / "events.csv"
    events.write_text("time,location,m_0\r\n0.5,0,0.2\r\nnan,0,0.4\r\n1.5,0,0.6\r\n")
    assert main(["fit", "--events", str(events), "--horizon", "10", "--locations", "1",
                 "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err.strip() == "firecast fit: [fit] column 'time' has a non-finite value"
    assert not (tmp_path / "p.json").exists()


def test_an_empty_event_file_is_named(tmp_path, capsys):
    # each used to fail with an empty message: a bare StopIteration from the header read
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    message = f"{empty}: no header row"
    assert main(["fit", "--events", str(empty), "--horizon", "10", "--locations", "1",
                 "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast fit: [fit] {message}"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0}))
    assert main(["gridify", "--raw", str(empty), "--grid", str(grid), "--out", str(tmp_path / "e.csv")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast gridify: [gridify] {message}"
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps({"ingest": {"csv": str(empty)}}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast run: [data] {message}"


@pytest.mark.parametrize("row, got", [("1.0,0,0.5,99", 4), ("1.0,0", 2)], ids=["long", "short"])
def test_fit_names_a_row_of_the_wrong_length(tmp_path, capsys, row, got):
    # a long row used to load with its extra field dropped, a short one as "list index out of range"
    events = tmp_path / "events.csv"
    events.write_text(f"time,location,m_0\r\n0.5,0,0.2\r\n{row}\r\n")
    assert main(["fit", "--events", str(events), "--horizon", "10", "--locations", "1",
                 "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast fit: [fit] {events}:3: expected 3 fields, got {got}"
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("field, value", [("lat_max", float("nan")), ("cell_size", float("inf")),
                                          ("lon_min", float("-inf"))])
def test_a_non_finite_grid_is_named(tmp_path, capsys, field, value):
    # NaN used to fail as "cannot convert float NaN to integer", infinity as an OverflowError
    grid = {"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0, "cell_size": 0.5, field: value}
    raw = tmp_path / "raw.csv"
    raw.write_text("time,lat,lon\n1.0,0.2,0.2\n")
    message = f"{field} must be finite, got {value}"
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["gridify", "--raw", str(raw), "--grid", str(grid_path), "--out", str(tmp_path / "e.csv")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast gridify: [gridify] {message}"
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps({"ingest": {"csv": str(raw), "grid": grid}}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast run: [data] {message}"
    assert not (tmp_path / "out" / "events.csv").exists()


def test_fit_support_reproduces_a_masked_run(tmp_path):
    """``fit --support <run>/params.json`` re-fits a masked run's events.csv
    under the run's mask and reproduces its params.json byte for byte."""
    bundle = {
        "seed": 3,
        "simulate": {
            "params": {
                "mu": [0.3, 0.25, 0.3],
                "alpha": [[0.25, 0.1, 0.0], [0.1, 0.2, 0.1], [0.0, 0.1, 0.2]],
                "beta": 1.0,
                "gamma": [0.7071067811865475, 0.7071067811865475],
                "mask": [[True, True, False], [True, True, True], [False, True, True]],
            },
            "horizon": 100.0,
        },
        "fit": {"grid_points": 2, "pgd_steps": 20, "beta_low": 0.5, "beta_high": 1.5},
        "predict": {"screening": False},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 0
    fit = ["fit", "--events", str(run / "events.csv"), "--horizon", "100", "--locations", "3",
           "--grid-points", "2", "--pgd-steps", "20", "--beta-low", "0.5", "--beta-high", "1.5"]
    assert main([*fit, "--support", str(run / "params.json"), "--out", str(tmp_path / "masked.json")]) == 0
    assert (tmp_path / "masked.json").read_bytes() == (run / "params.json").read_bytes()
    assert main([*fit, "--out", str(tmp_path / "full.json")]) == 0
    assert (tmp_path / "full.json").read_bytes() != (run / "params.json").read_bytes()


def _diagonal_params(path, K):
    """A K-location params file with self-excitation only."""
    payload = {"mu": [0.2] * K, "alpha": np.diag([0.2] * K).tolist(), "beta": 1.0,
               "gamma": [0.7, 0.7], "mask": np.eye(K, dtype=bool).tolist()}
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("support_k, data_k", [(3, 5), (5, 3)])
def test_fit_support_of_another_location_count_fails(tmp_path, capsys, support_k, data_k):
    events = tmp_path / "events.csv"
    assert main(["simulate", "--params", str(_diagonal_params(tmp_path / "p3.json", 3)),
                 "--horizon", "50", "--out", str(events)]) == 0
    support = _diagonal_params(tmp_path / "support.json", support_k)
    capsys.readouterr()
    assert main(["fit", "--events", str(events), "--horizon", "50", "--locations", str(data_k),
                 "--support", str(support), "--grid-points", "1", "--pgd-steps", "5",
                 "--out", str(tmp_path / "fitted.json")]) == 1
    message = f"support has {support_k} locations but the events have {data_k}"
    assert capsys.readouterr().err.strip() == f"firecast fit: [fit] {message}"
    assert not (tmp_path / "fitted.json").exists()


def test_predict_with_params_of_another_location_count_fails(tmp_path, params_file, capsys):
    events = tmp_path / "events.csv"
    assert main(["simulate", "--params", str(params_file), "--horizon", "30", "--out", str(events)]) == 0
    capsys.readouterr()
    assert main(["predict", "--params", str(_diagonal_params(tmp_path / "p3.json", 3)), "--events", str(events),
                 "--horizon", "30", "--locations", "2", "--out", str(tmp_path / "det.csv")]) == 1
    message = "params have 3 locations but the events have 2"
    assert capsys.readouterr().err.strip() == f"firecast predict: [predict] {message}"
    assert not (tmp_path / "det.csv").exists()


def test_horizon_under_one_day_fails_in_predict(tmp_path, params_file, capsys):
    bundle = {"seed": 1, "simulate": {"params_file": str(params_file), "horizon": 0.9},
              "fit": {"grid_points": 1, "pgd_steps": 5}}
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    message = "horizon 0.9 is under one day: predict needs at least one whole day"
    assert capsys.readouterr().err.strip() == f"firecast run: [predict] {message}"
    # the data and fit artifacts stay
    assert sorted(p.name for p in out.iterdir()) == ["events.csv", "fit_trace.csv", "params.json"]
    assert main(["predict", "--params", str(out / "params.json"), "--events", str(out / "events.csv"),
                 "--horizon", "0.9", "--locations", "2", "--out", str(tmp_path / "det.csv")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast predict: [predict] {message}"


def test_cli_stages_match_run(tmp_path):
    """The fit/predict/eval/conformal subcommands on a run's events.csv
    reproduce that run's artifacts byte for byte."""
    seed = 7
    bundle = {
        "seed": seed,
        "simulate": {
            "params": {
                "mu": [0.35, 0.3],
                "alpha": [[0.25, 0.1], [0.1, 0.2]],
                "beta": 1.0,
                "gamma": [0.7071067811865475, 0.7071067811865475],
                "mask": [[True, True], [True, True]],
            },
            "horizon": 120.0,
            "magnitude_classes": 3,
        },
        "fit": {"grid_points": 2, "pgd_steps": 30, "beta_low": 0.5, "beta_high": 1.5},
        "predict": {"screening": True},
        "conformal": {"method": "eraps", "num_bootstrap": 10, "batch_size": 10,
                      "alphas": [0.1], "train_fraction": 0.6},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 0

    events = str(run / "events.csv")
    cli = tmp_path / "cli"
    cli.mkdir()
    common = ["--horizon", "120", "--locations", "2"]
    assert main(["fit", "--events", events, *common, "--grid-points", "2", "--pgd-steps", "30",
                 "--beta-low", "0.5", "--beta-high", "1.5", "--out", str(cli / "params.json"),
                 "--trace", str(cli / "fit_trace.csv")]) == 0
    assert main(["predict", "--params", str(cli / "params.json"), "--events", events, *common,
                 "--out", str(cli / "detections.csv")]) == 0
    assert main(["eval", "--detections", str(cli / "detections.csv"),
                 "--out", str(cli / "metrics.csv")]) == 0
    assert main(["conformal", "--data", events, *common, "--train-fraction", "0.6",
                 "--method", "eraps", "--num-bootstrap", "10", "--batch-size", "10",
                 "--alphas", "0.1", "--seed", str(seed),
                 "--sets", str(cli / "conformal_sets.jsonl"),
                 "--summary", str(cli / "conformal_summary.csv")]) == 0

    for name in ("params.json", "fit_trace.csv", "detections.csv", "metrics.csv",
                 "conformal_sets.jsonl", "conformal_summary.csv"):
        assert (cli / name).read_bytes() == (run / name).read_bytes(), f"{name} differs"


@pytest.fixture(scope="module")
def empty_sections_run(tmp_path_factory):
    """A run whose fit, predict and conformal sections are all ``{}``."""
    bundle = {
        "simulate": {
            "params": {
                "mu": [0.35, 0.3],
                "alpha": [[0.25, 0.1], [0.1, 0.2]],
                "beta": 1.0,
                "gamma": [0.7071067811865475, 0.7071067811865475],
                "mask": [[True, True], [True, True]],
            },
            "horizon": 120.0,
            "magnitude_classes": 3,
        },
        "fit": {},
        "predict": {},
        "conformal": {},
    }
    cfg = tmp_path_factory.mktemp("bundle") / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    run = tmp_path_factory.mktemp("run")
    assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 0
    return run


@pytest.mark.parametrize("command", ["fit", "predict", "conformal"])
def test_subcommand_defaults_match_an_empty_bundle_section(empty_sections_run, tmp_path, monkeypatch, command):
    """Each stage subcommand given only its required flags writes what a
    run's stage writes from an empty section: an unset flag takes the
    section's default."""
    run = empty_sections_run
    events = str(run / "events.csv")
    common = ["--horizon", "120", "--locations", "2"]
    argv, artifacts = {
        "fit": (["--events", events, *common, "--out", "params.json", "--trace", "fit_trace.csv"],
                ("params.json", "fit_trace.csv")),
        "predict": (["--params", str(run / "params.json"), "--events", events, *common, "--out", "detections.csv"],
                    ("detections.csv",)),
        "conformal": (["--data", events, *common],
                      ("conformal_sets.jsonl", "conformal_summary.csv")),
    }[command]
    monkeypatch.chdir(tmp_path)
    assert main([command, *argv]) == 0
    for name in artifacts:
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), f"{name} differs"


def _subcommand_actions(command):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]._actions


# the flags of the stage subcommands that are no key of the stage's bundle
# section: inputs, outputs, the simulate and conformal seeds (a run's is
# top-level), and predict's mark model (a run predicts with the fit's)
COMMAND_ONLY_FLAGS = {
    "simulate": {"seed", "out"},
    "fit": {"events", "horizon", "locations", "support", "out", "trace"},
    "predict": {"params", "events", "horizon", "locations", "mark_model", "out"},
    "conformal": {"data", "horizon", "locations", "seed", "sets", "summary"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_ONLY_FLAGS))
def test_every_stage_flag_is_a_bundle_key(command):
    # the CLI keeps only the flags named like a section key, so any other flag
    # must be command-only, or it would be parsed and silently dropped
    keys = pipeline.BUNDLE_KEYS[command][1]
    dests = []
    for action in _subcommand_actions(command):
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        dests.append(action.dest)
        if action.dest in COMMAND_ONLY_FLAGS[command]:
            assert action.dest not in keys, f"{flag} is listed as command-only but is a {command} key"
        else:
            assert action.dest in keys, f"{flag} is neither a {command} key nor command-only"
            assert action.default is argparse.SUPPRESS, f"{flag} has a default of its own"
    # and the other way: the subcommand spells every optional key of its section
    for key in pipeline.SECTION_DEFAULTS[command]:
        assert dests.count(key) == 1, f"{command} key {key!r} has {dests.count(key)} flags"


def test_fit_reproduces_an_alternating_kde_ingest_run(tmp_path):
    """``fit --method alternating --mark-model kde --pgd-steps 3 --max-outer 1
    --support <run>/params.json`` on a masked ingest run's events.csv writes
    the run's params.json and fit_trace.csv byte for byte."""
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(60):  # clusters: an incident and a few followers at the same place
        t0, lat, lon = rng.uniform(0.0, 28.0), *rng.uniform(0.01, 0.99, 2)
        rows += [(t0 + dt, lat, lon) for dt in [0.0, *rng.exponential(1.0, rng.poisson(1.5))] if t0 + dt < 30.0]
    incidents = tmp_path / "incidents.csv"
    with open(incidents, "w") as fh:
        fh.write("time,lat,lon,temperature,humidity\n")
        for row in sorted(rows):
            marks = ["" if rng.uniform() < 0.1 else repr(float(v)) for v in rng.normal(20.0, 5.0, 2)]
            fh.write(",".join([*map(repr, map(float, row)), *marks]) + "\n")
    grid = {"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0, "cell_size": 0.25}
    bundle = {
        "seed": 4,
        "ingest": {"csv": str(incidents), "grid": grid, "neighbor_radius": 0.3, "horizon": 30.0},
        "fit": {"method": "alternating", "mark_model": "kde", "pgd_steps": 3, "max_outer": 1},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 0
    assert main(["fit", "--events", str(run / "events.csv"), "--horizon", "30", "--locations", "16",
                 "--method", "alternating", "--mark-model", "kde", "--pgd-steps", "3", "--max-outer", "1",
                 "--support", str(run / "params.json"),
                 "--out", str(tmp_path / "params.json"), "--trace", str(tmp_path / "fit_trace.csv")]) == 0
    for name in ("params.json", "fit_trace.csv"):
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), f"{name} differs"


def _readme_commands():
    """Each ``firecast ...`` command of the README's "Command line" block, as
    an argument list without the program name."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("firecast ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    # a documented example may not name a flag that does not exist
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_no_screening_spells_the_predict_section():
    base = ["predict", "--params", "p.json", "--events", "e.csv", "--horizon", "1", "--locations", "1", "--out", "d"]
    assert "screening" not in vars(build_parser().parse_args(base))
    assert build_parser().parse_args([*base, "--no-screening"]).screening is False


@pytest.mark.parametrize("method, flags, foreign", [
    ("sraps", ["--num-bootstrap", "3", "--batch-size", "7"], ["batch_size", "num_bootstrap"]),
    ("sraps", ["--batch-size", "7"], ["batch_size"]),
    ("eraps", ["--split-fraction", "0.9"], ["split_fraction"]),
    (None, ["--split-fraction", "0.9"], ["split_fraction"]),  # eraps by default
])
def test_conformal_rejects_the_other_methods_flags(tmp_path, capsys, method, flags, foreign):
    chosen = ["--method", method] if method else []
    sets = tmp_path / "sets.jsonl"
    assert main(["conformal", "--data", str(tmp_path / "missing.csv"), "--horizon", "1", "--locations", "1",
                 *chosen, *flags, "--sets", str(sets)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"firecast conformal: [conformal] keys {foreign} do not apply to method '{method or 'eraps'}'"
    )
    assert not sets.exists()


@pytest.mark.parametrize("method, flags, foreign", [
    (None, ["--max-outer", "4"], ["max_outer"]),  # grid by default
    ("grid", ["--eps-beta", "0.05", "--beta-init", "2"], ["beta_init", "eps_beta"]),
    ("alternating", ["--grid-points", "3"], ["grid_points"]),
])
def test_fit_rejects_the_other_methods_flags(tmp_path, capsys, method, flags, foreign):
    # each used to run and be ignored by the method
    chosen = ["--method", method] if method else []
    out = tmp_path / "params.json"
    assert main(["fit", "--events", str(tmp_path / "missing.csv"), "--horizon", "1", "--locations", "1",
                 *chosen, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"firecast fit: [fit] keys {foreign} do not apply to method '{method or 'grid'}'"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:beta line search")
def test_fit_alternating_takes_beta_high_to_raise_beta_low(tmp_path):
    # beta_low must not exceed beta_high under either method, so the alternating fit takes beta_high
    events = tmp_path / "events.csv"
    events.write_text("time,location,m_0\r\n" + "".join(f"{i + 0.5},0,0.{i}\r\n" for i in range(10)))
    out = tmp_path / "params.json"
    assert main(["fit", "--events", str(events), "--horizon", "12", "--locations", "1", "--method", "alternating",
                 "--beta-low", "3", "--beta-high", "3", "--max-outer", "1", "--pgd-steps", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["beta"] >= 3


def test_simulate_matches_run_simulate_stage(tmp_path, params_file):
    """``firecast simulate`` draws the same events as a run's simulate stage,
    with the section's defaults and with every optional key set."""
    for name, keys, flags in (
        ("defaults", {}, []),
        ("keyed", {"magnitude_classes": 3, "mark_distribution": "uniform"},
         ["--magnitude-classes", "3", "--mark-distribution", "uniform"]),
    ):
        bundle = {
            "seed": 5,
            "simulate": {"params_file": str(params_file), "horizon": 150.0, **keys},
            "fit": {"grid_points": 1, "pgd_steps": 2, "beta_low": 1.0, "beta_high": 1.0},
            "predict": {"screening": False},
        }
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(bundle))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        events = tmp_path / f"{name}.csv"
        assert main(["simulate", "--params", str(params_file), "--horizon", "150", "--seed", "5", *flags,
                     "--out", str(events)]) == 0
        assert events.read_bytes() == (tmp_path / name / "events.csv").read_bytes()
    assert load_events_csv(events, horizon=150.0, num_locations=2).magnitudes is not None


@pytest.mark.parametrize("classes", ["1", "-2"])
def test_simulate_rejects_one_or_negative_magnitude_classes(tmp_path, params_file, capsys, classes):
    # both used to draw no labels without a word
    events = tmp_path / "events.csv"
    assert main(["simulate", "--params", str(params_file), "--horizon", "20", "--magnitude-classes", classes,
                 "--out", str(events)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"firecast simulate: [simulate] magnitude_classes must be 0 (no labels) or at least 2, got {classes}"
    )
    assert not events.exists()


def test_simulated_labels_feed_conformal(tmp_path, params_file, capsys):
    # a CLI-only chain: simulate with magnitude classes, then prediction sets
    events = tmp_path / "events.csv"
    assert main(["simulate", "--params", str(params_file), "--horizon", "150", "--seed", "2",
                 "--magnitude-classes", "3", "--out", str(events)]) == 0
    seq = load_events_csv(events, horizon=150.0, num_locations=2)
    assert set(np.unique(seq.magnitudes)) <= {1, 2, 3}
    sets, summary = tmp_path / "sets.jsonl", tmp_path / "summary.csv"
    assert main(["conformal", "--data", str(events), "--horizon", "150", "--locations", "2",
                 "--train-fraction", "0.5", "--num-bootstrap", "4", "--batch-size", "4",
                 "--sets", str(sets), "--summary", str(summary)]) == 0
    assert summary.read_text().splitlines()[0].startswith("alpha,coverage")
    assert len(sets.read_text().splitlines()) == len(seq) - len(seq) // 2


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_horizon(tmp_path, params_file, capsys, horizon):
    # both used to draw forever: no candidate time is ever past the horizon
    events = tmp_path / "events.csv"
    assert main(["simulate", "--params", str(params_file), "--horizon", horizon, "--out", str(events)]) == 1
    message = f"horizon must be positive and finite, got {float(horizon)}"
    assert capsys.readouterr().err.strip() == f"firecast simulate: [simulate] {message}"
    assert not events.exists()
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps({"simulate": {"params_file": str(params_file), "horizon": float(horizon)}}))
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast run: [data] {message}"
    assert not (tmp_path / "out" / "events.csv").exists()


@pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.0, float("nan")])
def test_a_train_fraction_outside_the_unit_interval_fails(tmp_path, params_file, capsys, fraction):
    # -0.5 and 0.0 used to train on 10 events, and NaN failed as "cannot convert float NaN to integer"
    message = f"[conformal] train_fraction must lie in (0, 1), got {fraction!r}"
    bundle = {
        "simulate": {"params_file": str(params_file), "horizon": 40.0, "magnitude_classes": 3},
        "fit": {"grid_points": 1, "pgd_steps": 2},
        "predict": {"screening": False},
        "conformal": {"train_fraction": fraction},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 1
    assert capsys.readouterr().err.strip() == f"firecast run: {message}"
    assert not (run / "conformal_sets.jsonl").exists()
    sets = tmp_path / "sets.jsonl"
    assert main(["conformal", "--data", str(run / "events.csv"), "--horizon", "40", "--locations", "2",
                 "--train-fraction", str(fraction), "--sets", str(sets)]) == 1
    assert capsys.readouterr().err.strip() == f"firecast conformal: {message}"
    assert not sets.exists()


@pytest.mark.parametrize("drop", [["lat_min"], ["lat_min", "lon_max"]])
def test_a_grid_without_a_box_key_fails_naming_it_in_run_and_gridify(tmp_path, capsys, drop):
    # both used to fail as "GridSpec.__init__() missing 1 required positional argument: 'lat_min'"
    raw = tmp_path / "raw.csv"
    raw.write_text("time,lat,lon\n1.0,0.2,0.2\n2.0,0.8,0.9\n")
    grid = {k: v for k, v in {"lat_min": 0, "lon_min": 0, "lat_max": 1, "lon_max": 1}.items() if k not in drop}
    message = f"missing grid keys {drop}"
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps({"ingest": {"csv": str(raw), "grid": grid, "horizon": 5.0}}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.strip() == f"firecast run: [data] {message}"
    assert not (tmp_path / "run").exists()
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    out = tmp_path / "events.csv"
    assert main(["gridify", "--raw", str(raw), "--grid", str(tmp_path / "grid.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == f"firecast gridify: [gridify] {message}"
    assert not out.exists()


def test_choices_are_the_pipeline_tables():
    def choices(command, flag):
        return next(a.choices for a in _subcommand_actions(command) if flag in a.option_strings)

    for command in ("fit", "predict", "counterfactual"):
        assert list(choices(command, "--mark-model")) == list(pipeline.MARK_MODELS)
    assert list(choices("fit", "--method")) == list(pipeline.FIT_METHODS)
    assert list(choices("conformal", "--method")) == list(pipeline.METHOD_KEYS["conformal"])
    assert list(choices("simulate", "--mark-distribution")) == list(pipeline.MARK_DISTRIBUTIONS)


def wrong_data_values(kind):
    """Values of the wrong kind for a data key: a bool and a string for a
    number, a number for a string, a list for a JSON object (the grid too) and
    a bare name for a list of names."""
    return {float: [True, "150"], str: [3], dict: [[1]], pipeline.GridSpec: [[1]], list: ["season"]}[kind]


# the gridify and simulate flags that can carry a value of a wrong kind: --horizon parses
# its text as a number, and the --grid file holds any JSON; the other data flags spell a
# string or a list of names whatever their text, and params and neighbor_radius have none
DATA_FLAGS = {("simulate", "horizon"): "--horizon", ("ingest", "horizon"): "--horizon", ("ingest", "grid"): "--grid"}


@pytest.mark.parametrize("section, key, value", [
    pytest.param(section, key, value, id=f"{section}.{key}={value!r}")
    for section, kinds in pipeline.DATA_KEYS.items()
    for key, kind in kinds.items()
    for value in wrong_data_values(kind)
])
def test_a_data_key_of_the_wrong_kind_is_refused_by_bundle_and_cli(tmp_path, capsys, params_file, section, key, value):
    # e.g. a simulate horizon of true ran as one day, "csv": 3 read file descriptor 3, and a
    # neighbor_radius of "0.5" ran as 0.5
    raw = tmp_path / "raw.csv"
    raw.write_text("time,lat,lon\n1.0,0.2,0.2\n2.0,0.8,0.9\n")
    grid = {"lat_min": 0.0, "lon_min": 0.0, "lat_max": 1.0, "lon_max": 1.0, "cell_size": 0.5}
    base = {"simulate": {"params_file": str(params_file), "horizon": 20.0},
            "ingest": {"csv": str(raw), "grid": grid, "horizon": 5.0}}[section]
    if key == "params":  # a section gives params or params_file, not both
        base = {"params": json.loads(params_file.read_text()), "horizon": 20.0}
    pipeline.read_section(section, base)
    message = f"{key} must be {pipeline.VALUE_KINDS[pipeline.DATA_KEYS[section][key]][1]}, got {value!r}"
    with pytest.raises(pipeline.PipelineError, match="^" + re.escape(f"[data] {message}") + "$"):
        pipeline.run_end_to_end({section: {**base, key: value}}, tmp_path / "run")
    assert not (tmp_path / "run").exists()
    flag = DATA_FLAGS.get((section, key))
    if flag is None:
        return
    out = tmp_path / "events.csv"
    text = json.dumps(value)
    (tmp_path / "grid.json").write_text(text if flag == "--grid" else json.dumps(grid))
    command = ["simulate", "--params", str(params_file), "--horizon", "20"] if section == "simulate" else \
        ["gridify", "--raw", str(raw), "--grid", str(tmp_path / "grid.json"), "--horizon", "5"]
    argv = [*command, *([flag, text] if flag == "--horizon" else []), "--out", str(out)]
    if flag == "--horizon":  # argparse refuses the text, naming the flag
        with pytest.raises(SystemExit):
            main(argv)
        assert f"argument --horizon: invalid float value: {text!r}" in capsys.readouterr().err
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.strip() == f"firecast gridify: [gridify] {message}"
    assert not out.exists()
