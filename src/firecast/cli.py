"""Command-line interface: simulate, fit, predict, conformal, eval, gridify, run.

Each subcommand only parses its arguments and calls the same pipeline stage
functions as ``firecast run``: ``pipeline.build_mark_model``, ``fit_stage``,
``predict_stage`` and ``conformal_stage``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import conformal as conformal_mod
from . import estimation, pipeline, simulation
from .events import load_events_csv, save_events_csv
from .model import ModelParams


def cmd_simulate(args) -> int:
    params = ModelParams.from_json(args.params)
    seq = simulation.simulate(pipeline.simulation_config(params, {"horizon": args.horizon}, args.seed))
    save_events_csv(seq, args.out)
    print(f"wrote {len(seq)} events to {args.out}")
    return 0


def cmd_fit(args) -> int:
    seq = load_events_csv(args.events, horizon=args.horizon, num_locations=args.locations)
    mark_model = pipeline.build_mark_model(args.mark_model, seq)
    config = estimation.FitConfig(
        beta_low=args.beta_low,
        beta_high=args.beta_high,
        grid_points=args.grid_points,
        pgd_steps=args.pgd_steps,
        kappa=args.kappa,
        l1_weight=args.l1_weight,
    )
    feasible = estimation.FeasibleSet.of(ModelParams.from_json(args.support)) if args.support else None
    fit = pipeline.fit_stage(seq, mark_model, config, args.method, feasible)
    fit.params.to_json(args.out)
    if args.trace:
        pipeline.write_fit_trace_csv(args.trace, fit.trace)
    print(f"objective {fit.objective:.6f} at beta {fit.params.beta:.6g}; params -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    params = ModelParams.from_json(args.params)
    seq = load_events_csv(args.events, horizon=args.horizon, num_locations=args.locations)
    mark_model = pipeline.build_mark_model(args.mark_model, seq)
    trace = pipeline.predict_stage(
        params, seq, mark_model, args.delta, args.a1, args.a2, screening=not args.no_screening
    )
    pipeline.write_detections_csv(args.out, trace)
    print(f"wrote detection trace to {args.out}")
    return 0


def cmd_eval(args) -> int:
    needed = ("params", "events", "horizon", "locations", "time", "location", "marks_a", "marks_b")
    needed = needed if args.counterfactual else ("detections",)
    missing = ["--" + name.replace("_", "-") for name in needed if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing {' '.join(missing)}")
    if args.counterfactual:
        params = ModelParams.from_json(args.params)
        seq = load_events_csv(args.events, horizon=args.horizon, num_locations=args.locations)
        marks_a, marks_b = (np.array([float(v) for v in m.split(",")]) for m in (args.marks_a, args.marks_b))
        out = pipeline.counterfactual_delta(
            params, seq, pipeline.build_mark_model(args.mark_model, seq), args.time, args.location,
            marks_a, marks_b,
        )
        print(json.dumps(out, sort_keys=True))
        return 0
    trace = pipeline.read_detections_csv(args.detections)
    report = pipeline.f1_metrics(trace.prediction, trace.truth)
    pipeline.write_metrics_csv(args.out, report)
    print(f"mean F1 {report.f1.mean():.4f} over {len(report.f1)} locations -> {args.out}")
    return 0


def cmd_conformal(args) -> int:
    seq = load_events_csv(args.data, horizon=args.horizon, num_locations=args.locations)
    run = pipeline.conformal_stage(
        seq,
        n_train=args.train_size,
        method=args.method,
        alphas=args.alphas,
        score_params=conformal_mod.ScoreParams(lambda_reg=args.lambda_reg, k_reg=args.k_reg),
        num_bootstrap=args.num_bootstrap,
        batch_size=args.batch_size,
        split_fraction=args.split_fraction,
        seed=args.seed,
    )
    pipeline.write_conformal_sets_jsonl(args.sets, run)
    pipeline.write_conformal_summary_csv(args.summary, run)
    for a in run.alphas:
        print(f"alpha={a}: coverage {run.coverage[a]:.4f}, mean size {run.mean_size[a]:.3f}")
    return 0


def cmd_gridify(args) -> int:
    grid = pipeline.GridSpec.from_dict(json.loads(Path(args.grid).read_text()))
    categorical = tuple(args.categorical.split(",")) if args.categorical else ()
    result = pipeline.ingest(args.raw, grid, categorical, horizon=args.horizon)
    save_events_csv(result.sequence, args.out)
    for msg in result.messages:
        print(msg)
    print(f"wrote {len(result.sequence)} events over {grid.num_cells} cells to {args.out}")
    return 0


def cmd_run(args) -> int:
    bundle = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        bundle["seed"] = args.seed
    manifest = pipeline.run_end_to_end(bundle, args.out_dir)
    print(json.dumps(manifest, sort_keys=True, indent=2))
    return 0


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    predict, conformal = pipeline.PREDICT_DEFAULTS, pipeline.CONFORMAL_DEFAULTS
    parser = argparse.ArgumentParser(
        prog="firecast",
        description="Event-risk prediction with mutually exciting point processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic event sequence")
    p.add_argument("--params", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit model parameters by constrained MLE")
    p.add_argument("--events", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--mark-model", choices=("linear", "kde"), default="linear")
    p.add_argument("--support", help="params JSON whose interaction mask the fit keeps (default: all pairs)")
    p.add_argument("--method", choices=("grid", "alternating"), default="grid")
    p.add_argument("--beta-low", type=float, default=estimation.FitConfig.beta_low)
    p.add_argument("--beta-high", type=float, default=estimation.FitConfig.beta_high)
    p.add_argument("--grid-points", type=int, default=estimation.FitConfig.grid_points)
    p.add_argument("--pgd-steps", type=int, default=estimation.FitConfig.pgd_steps)
    p.add_argument("--kappa", type=float, default=estimation.FitConfig.kappa)
    p.add_argument("--l1-weight", type=float, default=estimation.FitConfig.l1_weight)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="binary predictions via dynamic thresholds")
    p.add_argument("--params", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--mark-model", choices=("linear", "kde"), default="linear")
    p.add_argument("--delta", type=float, default=predict["delta"])
    p.add_argument("--a1", type=float, default=predict["a1"])
    p.add_argument("--a2", type=float, default=predict["a2"])
    p.add_argument("--no-screening", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="precision/recall/F1 from a detection trace")
    p.add_argument("--detections")
    p.add_argument("--out", default="metrics.csv")
    p.add_argument("--counterfactual", action="store_true")
    p.add_argument("--params")
    p.add_argument("--events")
    p.add_argument("--horizon", type=float)
    p.add_argument("--locations", type=int)
    p.add_argument("--time", type=float)
    p.add_argument("--location", type=int)
    p.add_argument("--marks-a")
    p.add_argument("--marks-b")
    p.add_argument("--mark-model", choices=("linear", "kde"), default="linear")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("conformal", help="magnitude prediction sets")
    p.add_argument("--data", required=True, help="event CSV with a magnitude column")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--train-size", type=int, required=True)
    p.add_argument("--method", choices=("eraps", "sraps"), default=conformal["method"])
    p.add_argument("--num-bootstrap", type=int, default=conformal["num_bootstrap"])
    p.add_argument("--batch-size", type=int, default=conformal["batch_size"])
    p.add_argument("--split-fraction", type=float, default=conformal["split_fraction"])
    p.add_argument("--alphas", type=_floats, default=conformal["alphas"], help="comma-separated")
    p.add_argument("--lambda-reg", type=float, default=conformal["lambda_reg"])
    p.add_argument("--k-reg", type=int, default=conformal["k_reg"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sets", default="conformal_sets.jsonl")
    p.add_argument("--summary", default="conformal_summary.csv")
    p.set_defaults(func=cmd_conformal)

    p = sub.add_parser("gridify", help="map raw coordinates onto the grid")
    p.add_argument("--raw", required=True)
    p.add_argument("--grid", required=True, help="GridSpec JSON")
    p.add_argument("--horizon", type=float)
    p.add_argument("--categorical", help="comma-separated categorical mark columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gridify)

    p = sub.add_parser("run", help="end-to-end pipeline from a config bundle")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pipeline.PipelineError as exc:
        print(f"firecast {args.command}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface a stage-tagged one-liner, not a traceback
        print(f"firecast {args.command}: [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
