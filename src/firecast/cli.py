"""Command-line interface: simulate, fit, predict, conformal, eval, counterfactual, gridify, run.

Each subcommand only parses its arguments and calls the same pipeline stage
functions as ``firecast run``: ``pipeline.simulate_stage``, ``ingest_stage``
(``gridify``), ``fit_stage``, ``predict_stage`` and ``conformal_stage``.  The
stage flags of ``simulate``, ``fit``, ``predict`` and ``conformal`` are made
from ``pipeline.SECTION_DEFAULTS``, one for each optional key; ``gridify``'s
are named for ``ingest`` keys, the ``--grid`` file's JSON being the grid.
Each spells its stage's bundle section: a flag that is not given is absent
from it, so the stage applies the same default as to a bundle without the
key, and the section is checked like a bundle's, by ``pipeline.read_section``,
before any file is read.  So a chain of subcommands and a run bundle take and
refuse each setting the same way.  ``main`` runs each subcommand as a stage
named for it, so a failure prints one tagged line (``run`` keeps its stage's tag).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .events import load_events_csv, save_events_csv
from .model import FeasibleSet, ModelParams


def cmd_simulate(args) -> int:
    seq, _ = pipeline.simulate_stage(_section(args, "simulate"), args.seed)
    save_events_csv(seq, args.out)
    print(f"wrote {len(seq)} events to {args.out}")
    return 0


def _section(args, name: str) -> dict:
    """The ``name`` bundle section that the given flags spell, checked like a
    bundle's: the parsed flags whose names are keys of that section."""
    section = {k: v for k, v in vars(args).items() if k in pipeline.BUNDLE_KEYS[name][1]}
    pipeline.read_section(name, section)
    return section


def cmd_fit(args) -> int:
    section = _section(args, "fit")
    seq = load_events_csv(args.events, horizon=args.horizon, num_locations=args.locations)
    feasible = FeasibleSet.of(ModelParams.from_json(args.support)) if args.support else None
    fit, _ = pipeline.fit_stage(seq, section, feasible)
    fit.params.to_json(args.out)
    if args.trace:
        pipeline.write_fit_trace_csv(args.trace, fit.trace)
    print(f"objective {fit.objective:.6f} at beta {fit.params.beta:.6g}; params -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    section = _section(args, "predict")
    params = ModelParams.from_json(args.params)
    seq = load_events_csv(args.events, horizon=args.horizon, num_locations=args.locations)
    trace = pipeline.predict_stage(params, seq, pipeline.MARK_MODELS[args.mark_model](seq), section)
    pipeline.write_detections_csv(args.out, trace)
    print(f"wrote detection trace to {args.out}")
    return 0


def cmd_eval(args) -> int:
    trace = pipeline.read_detections_csv(args.detections)
    report = pipeline.f1_metrics(trace.prediction, trace.truth)
    pipeline.write_metrics_csv(args.out, report)
    print(f"mean F1 {report.f1.mean():.4f} over {len(report.f1)} locations -> {args.out}")
    return 0


def cmd_counterfactual(args) -> int:
    params = ModelParams.from_json(args.params)
    seq = load_events_csv(args.events, horizon=args.horizon, num_locations=args.locations)
    marks_a, marks_b = (np.array([float(v) for v in m.split(",")]) for m in (args.marks_a, args.marks_b))
    out = pipeline.counterfactual_delta(
        params, seq, pipeline.MARK_MODELS[args.mark_model](seq), args.time, args.location, marks_a, marks_b,
    )
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_conformal(args) -> int:
    section = _section(args, "conformal")
    seq = load_events_csv(args.data, horizon=args.horizon, num_locations=args.locations)
    run = pipeline.conformal_stage(seq, section, args.seed)
    pipeline.write_conformal_sets_jsonl(args.sets, run)
    pipeline.write_conformal_summary_csv(args.summary, run)
    for a in run.alphas:
        print(f"alpha={a}: coverage {run.coverage[a]:.4f}, mean size {run.mean_size[a]:.3f}")
    return 0


def cmd_gridify(args) -> int:
    section = _section(args, "ingest")
    section["grid"] = json.loads(Path(args.grid_file).read_text())
    notes = []
    seq, _ = pipeline.ingest_stage(section, notes)
    save_events_csv(seq, args.out)
    for msg in notes:
        print(msg)
    print(f"wrote {len(seq)} events over {seq.num_locations} cells to {args.out}")
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


def _section_flags(p, section: str) -> None:
    """One flag per optional key of ``section`` in ``pipeline.SECTION_DEFAULTS``:
    ``--no-KEY`` for a ``True`` default, else ``--KEY`` typed like the default
    (a tuple as comma-separated floats) and limited to the key's ``CHOICES``."""
    for key, default in pipeline.SECTION_DEFAULTS[section].items():
        flag = key.replace("_", "-")
        if default is True:
            p.add_argument(f"--no-{flag}", dest=key, action="store_false")
        else:
            kind = {tuple: _floats, str: None}.get(type(default), type(default))
            p.add_argument(f"--{flag}", type=kind, choices=pipeline.CHOICES.get((section, key), (None,))[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firecast",
        description="Event-risk prediction with mutually exciting point processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # in simulate, fit, predict and conformal, a flag without a default of its
    # own is absent unless given (SUPPRESS), so its stage applies the bundle default
    p = sub.add_parser("simulate", help="draw a synthetic event sequence", argument_default=argparse.SUPPRESS)
    p.add_argument("--params", dest="params_file", required=True, help="params JSON")
    p.add_argument("--horizon", type=float, required=True)
    _section_flags(p, "simulate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit model parameters by constrained MLE", argument_default=argparse.SUPPRESS)
    p.add_argument("--events", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--support", default=None,
                   help="params JSON whose interaction mask the fit keeps (default: all pairs)")
    _section_flags(p, "fit")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="binary predictions via dynamic thresholds",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--params", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--mark-model", choices=pipeline.MARK_MODELS, default=pipeline.SECTION_DEFAULTS["fit"]["mark_model"])
    _section_flags(p, "predict")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="precision/recall/F1 from a detection trace")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", default="metrics.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("counterfactual", help="the risk at one time and location under two mark vectors")
    p.add_argument("--params", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--location", type=int, required=True)
    p.add_argument("--marks-a", required=True)
    p.add_argument("--marks-b", required=True)
    p.add_argument("--mark-model", choices=pipeline.MARK_MODELS, default=pipeline.SECTION_DEFAULTS["fit"]["mark_model"])
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("conformal", help="magnitude prediction sets", argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True, help="event CSV with a magnitude column")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--locations", type=int, required=True)
    _section_flags(p, "conformal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sets", default="conformal_sets.jsonl")
    p.add_argument("--summary", default="conformal_summary.csv")
    p.set_defaults(func=cmd_conformal)

    p = sub.add_parser("gridify", help="map raw coordinates onto the grid", argument_default=argparse.SUPPRESS)
    p.add_argument("--raw", dest="csv", required=True)
    p.add_argument("--grid", dest="grid_file", required=True, help="GridSpec JSON")
    p.add_argument("--horizon", type=float)
    p.add_argument("--categorical", dest="categorical_columns", type=lambda text: text.split(","),
                   help="comma-separated categorical mark columns")
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
        with pipeline._stage(args.command, []):
            return args.func(args)
    except pipeline.PipelineError as exc:
        print(f"firecast {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
