import json

import numpy as np
import pytest

from firecast import pipeline
from firecast.cli import build_parser, main
from firecast.estimation import FitConfig
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


def test_eval_counterfactual(tmp_path, params_file, capsys):
    events = tmp_path / "events.csv"
    main(["simulate", "--params", str(params_file), "--horizon", "80", "--out", str(events)])
    capsys.readouterr()
    assert main([
        "eval", "--counterfactual", "--params", str(params_file),
        "--events", str(events), "--horizon", "80", "--locations", "2",
        "--time", "40", "--location", "0", "--marks-a", "0.1,0.1",
        "--marks-b", "0.9,0.9",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == pytest.approx(out["lambda_b"] - out["lambda_a"])


def test_eval_counterfactual_scores_marks_like_predict(tmp_path, params_file, capsys):
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
            "eval", "--counterfactual", "--params", str(params_file), "--events", str(events),
            "--horizon", "80", "--locations", "2", "--time", "40", "--location", "1",
            "--marks-a", marks, "--marks-b", "0.9,0.9", "--mark-model", mark_model,
        ]) == 0
        lam[mark_model] = json.loads(capsys.readouterr().out)["lambda_a"]
        risk = pipeline.risk_series(params, seq, pipeline.build_mark_model(mark_model, seq))
        # not bit-equal for kde: gaussian_kde sums a batch of 2 and of 160 points differently
        assert lam[mark_model] == pytest.approx(risk[39, 1], rel=1e-12)
    assert lam["kde"] != pytest.approx(lam["linear"], rel=1e-3)


def test_eval_names_missing_flags(capsys):
    assert main(["eval"]) == 1
    assert capsys.readouterr().err.strip() == "firecast eval: [eval] missing --detections"
    assert main(["eval", "--counterfactual"]) == 1
    assert capsys.readouterr().err.strip() == (
        "firecast eval: [eval] missing --params --events --horizon --locations --time --location "
        "--marks-a --marks-b"
    )


@pytest.mark.parametrize("time, location, message", [
    ("-1", "0", "query time -1.0 outside [0, 80.0]"),
    ("80.5", "0", "query time 80.5 outside [0, 80.0]"),
    ("40", "2", "location 2 outside [0, 2)"),
    ("40", "-1", "location -1 outside [0, 2)"),
])
def test_eval_counterfactual_rejects_out_of_range_queries(tmp_path, params_file, capsys, time, location, message):
    events = tmp_path / "events.csv"
    main(["simulate", "--params", str(params_file), "--horizon", "80", "--out", str(events)])
    capsys.readouterr()
    assert main([
        "eval", "--counterfactual", "--params", str(params_file),
        "--events", str(events), "--horizon", "80", "--locations", "2",
        f"--time={time}", f"--location={location}", "--marks-a", "0.1,0.1", "--marks-b", "0.9,0.9",
    ]) == 1
    assert capsys.readouterr().err.strip() == f"firecast eval: [eval] {message}"


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
        "--train-size", "50", "--num-bootstrap", "4", "--batch-size", "5",
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
    rc = main(["fit", "--events", str(tmp_path / "missing.csv"), "--horizon", "10",
               "--locations", "1", "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert "firecast fit" in capsys.readouterr().err


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
    n = len(load_events_csv(events, horizon=120.0, num_locations=2))
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
    assert main(["conformal", "--data", events, *common, "--train-size", str(max(10, int(0.6 * n))),
                 "--method", "eraps", "--num-bootstrap", "10", "--batch-size", "10",
                 "--alphas", "0.1", "--seed", str(seed),
                 "--sets", str(cli / "conformal_sets.jsonl"),
                 "--summary", str(cli / "conformal_summary.csv")]) == 0

    for name in ("params.json", "fit_trace.csv", "detections.csv", "metrics.csv",
                 "conformal_sets.jsonl", "conformal_summary.csv"):
        assert (cli / name).read_bytes() == (run / name).read_bytes(), f"{name} differs"


def test_conformal_defaults_match_a_bundle_without_optional_keys(tmp_path, monkeypatch):
    """``firecast conformal`` given only its required flags writes what a run's
    conformal stage writes from an empty ``conformal`` section."""
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
        "fit": {"grid_points": 1, "pgd_steps": 2, "beta_low": 1.0, "beta_high": 1.0},
        "conformal": {},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 0
    n = len(load_events_csv(run / "events.csv", horizon=120.0, num_locations=2))
    cli = tmp_path / "cli"
    cli.mkdir()
    monkeypatch.chdir(cli)
    assert main(["conformal", "--data", str(run / "events.csv"), "--horizon", "120", "--locations", "2",
                 "--train-size", str(max(10, int(0.6 * n)))]) == 0
    for name in ("conformal_sets.jsonl", "conformal_summary.csv"):
        assert (cli / name).read_bytes() == (run / name).read_bytes(), f"{name} differs"


def test_predict_and_conformal_flag_defaults_are_the_stage_defaults():
    parser = build_parser()
    predict = parser.parse_args(
        ["predict", "--params", "p.json", "--events", "e.csv", "--horizon", "1", "--locations", "1", "--out", "d.csv"]
    )
    assert {name: getattr(predict, name) for name in ("delta", "a1", "a2")} == {
        name: pipeline.PREDICT_DEFAULTS[name] for name in ("delta", "a1", "a2")
    }
    assert predict.no_screening is not pipeline.PREDICT_DEFAULTS["screening"]
    conformal = parser.parse_args(
        ["conformal", "--data", "e.csv", "--horizon", "1", "--locations", "1", "--train-size", "10"]
    )
    names = ("method", "alphas", "lambda_reg", "k_reg", "num_bootstrap", "batch_size", "split_fraction")
    assert {name: getattr(conformal, name) for name in names} == {
        name: pipeline.CONFORMAL_DEFAULTS[name] for name in names
    }
    assert parser.parse_args(
        ["conformal", "--data", "e.csv", "--horizon", "1", "--locations", "1", "--train-size", "10",
         "--alphas", "0.05,0.1"]
    ).alphas == (0.05, 0.1)


def test_simulate_matches_run_simulate_stage(tmp_path, params_file):
    """``firecast simulate`` draws the same events as a run's simulate stage."""
    bundle = {
        "seed": 5,
        "simulate": {"params_file": str(params_file), "horizon": 150.0},
        "fit": {"grid_points": 1, "pgd_steps": 2, "beta_low": 1.0, "beta_high": 1.0},
        "predict": {"screening": False},
    }
    cfg = tmp_path / "bundle.json"
    cfg.write_text(json.dumps(bundle))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    events = tmp_path / "events.csv"
    assert main(["simulate", "--params", str(params_file), "--horizon", "150", "--seed", "5",
                 "--out", str(events)]) == 0
    assert events.read_bytes() == (tmp_path / "run" / "events.csv").read_bytes()


def test_fit_flag_defaults_are_fit_config_defaults():
    args = build_parser().parse_args(
        ["fit", "--events", "e.csv", "--horizon", "1", "--locations", "1", "--out", "p.json"]
    )
    defaults = FitConfig()
    for name in ("beta_low", "beta_high", "grid_points", "pgd_steps", "kappa", "l1_weight"):
        assert getattr(args, name) == getattr(defaults, name)
