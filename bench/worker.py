"""One benchmark process: set a workload up, then run it in a closed loop.

Started by ``run.py``; prints one JSON object as its last line.  Imports
firecast from ``src/`` of the checkout it lives in, never from elsewhere.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at T [--setup-only]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so
``setup_s`` covers interpreter start, ``import firecast`` and building the
workload's inputs.  The first iteration warms caches and lazy imports: it is
checked like the others but its wall time is not kept.  Without tracing the
loop then runs untraced iterations; with tracing it alternates an untraced
and a traced iteration, so the tracing overhead is measured on the same
inputs in the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def import_firecast():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import firecast

    if Path(firecast.__file__).resolve().parent != (src / "firecast").resolve():
        raise ImportError(f"firecast imported from {firecast.__file__}, not from {src}")


def openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, asked of the library itself."""
    import ctypes

    import numpy

    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return int(get())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_firecast()
    import workloads
    from tracing import Tracer, reduce_iterations

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = workdir / "out"
    tracer = Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}  # traced -> wall times
    layers: list[dict] = []
    problems: list[str] = []
    objectives: list[float] = []
    first_digest = None
    attempted = failed = 0
    # the warm-up, then at least one timed iteration; a traced run needs two
    # traced iterations to compare their counters
    min_attempts = 5 if args.trace else 2
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or attempted < min_attempts:
        warmup = attempted == 0
        traced = bool(args.trace) and attempted % 2 == 0 and not warmup
        shutil.rmtree(out_dir, ignore_errors=True)
        attempted += 1
        try:
            if traced:
                tracer.iteration = attempted
                tracer.install()
                root = tracer.open_span("bench.iteration")
            start = time.perf_counter()
            try:
                result = workload.run(out_dir)
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.close_span(root)
                    tracer.uninstall()
            checked = workload.check(out_dir, result)
        except Exception:
            failed += 1
            problems.append(f"iteration {attempted} raised:\n{traceback.format_exc()}")
            continue
        first_digest = first_digest or checked.digest
        if checked.digest != first_digest:
            checked.problems.append("output digest differs from the first iteration's")
        if checked.problems:
            failed += 1
            problems += [f"iteration {attempted}: {p}" for p in checked.problems]
            continue
        objectives.append(checked.fit_objective)
        if warmup:
            continue
        walls[traced].append(wall)
        if traced:
            for key, value in checked.quality.items():
                tracer.record(key, value)
            layers.append(tracer.iteration_metrics(attempted))
    shutil.rmtree(out_dir, ignore_errors=True)

    report = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "walls": walls[False],
        "fit_objective": statistics.median(objectives) if objectives else None,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": openblas_threads(),
    }
    if args.trace:
        report["traced_walls"] = walls[True]
        report["layers"], report["unstable"] = reduce_iterations(layers) if layers else ({}, [])
        tracer.write(OUT / f"{args.workload}.spans.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
