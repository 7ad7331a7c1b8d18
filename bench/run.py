"""firecast benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload regional-run --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout of the repository; firecast is imported
from its ``src/``.  ``--trace 0`` prints the end-to-end metrics (wall_s,
setup_s, peak_rss_mb, fit_objective per event); ``--trace 1`` prints the per-layer
metrics of an outside-in traced run plus the tracing overhead.  The last
line of standard output is the JSON result; the lines before it are for
people (the environment record and a summary with failed_ratio).  Spans of
a traced run are written to ``.bench_out/<workload>.spans.csv``.

Each iteration runs the same seeded inputs.  Work happens in child
processes (``worker.py``): set-up is timed in three fresh processes and
reported as their median; the last of them also runs the measured loop, so
its peak RSS covers this workload only.  OpenBLAS gets one thread, the
process is otherwise single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regional-run", "state-ingest")
BLAS_THREADS = 1
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0  # the whole command, children included


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _worker(args, started: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    remaining = TIME_LIMIT_S - (time.perf_counter() - started)
    spawned_at = time.perf_counter()
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(blas_threads: int | None) -> dict:
    """Machine and library stack, so a later comparison can tell when they changed."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        # as reported by OpenBLAS in the worker; the requested count if it could not be asked
        "blas_threads": BLAS_THREADS if blas_threads is None else blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        if kind != "Instruction":
            env[f"cache_L{level}"] = size
    return env


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "firecast" / "__init__.py").is_file():
        print(f"error: no firecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            _worker(args, started, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        report = _worker(args, started, setup_only=False)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    for problem in report["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    walls = report["walls"]
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and bool(walls)
    print("environment: " + json.dumps(environment(report["blas_threads"]), sort_keys=True))
    if args.trace:
        layers = dict(report["layers"])
        if report["unstable"]:
            correct = False
            print("deterministic counters differ across traced iterations: " + ", ".join(report["unstable"]),
                  file=sys.stderr)
        traced = report["traced_walls"]
        if walls and traced:
            layers["trace.untraced_wall_s"] = statistics.median(walls)
            layers["trace.traced_wall_s"] = statistics.median(traced)
            layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        units = _per_layer_units()
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}
        summary = f"{args.workload} traced: {len(traced)} traced / {len(walls)} untraced iterations"
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "fit_objective": {"value": report["fit_objective"] or 0.0, "unit": "nats/event"},
        }
        tail = tail_percentile(walls)
        summary = (
            f"{args.workload}: wall_s median {metrics['wall_s']['value']:.4f} s over {len(walls)} iterations"
            + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ", too few for a tail percentile")
            + f"; setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)});"
            f" peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB;"
            f" fit_objective {metrics['fit_objective']['value']:.6f} nats/event"
        )
    print(summary + f"; failed_ratio {failed / max(attempted, 1):.4f} (1) = {failed}/{attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
