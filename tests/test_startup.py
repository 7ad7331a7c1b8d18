"""Start-up cost: firecast needs numpy alone, so no run loads scipy.

Each case runs in a fresh interpreter, because this test process has
already imported scipy through other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import firecast

SRC = Path(firecast.__file__).resolve().parents[1]

# the criterion-10 bundle, with a shorter horizon
LINEAR_BUNDLE = {
    "seed": 11,
    "simulate": {
        "params": {
            "mu": [0.35, 0.3],
            "alpha": [[0.25, 0.1], [0.1, 0.2]],
            "beta": 1.0,
            "gamma": [0.7071067811865475, 0.7071067811865475],
            "mask": [[True, True], [True, True]],
        },
        "horizon": 60.0,
        "magnitude_classes": 3,
    },
    "fit": {"grid_points": 2, "pgd_steps": 20, "beta_low": 0.5, "beta_high": 1.5},
    "predict": {"screening": True},
    "conformal": {"num_bootstrap": 5, "batch_size": 5, "alphas": [0.1], "train_fraction": 0.6},
}

PROBE = """
import json, sys
import firecast, firecast.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import = scipy_modules()
manifest = firecast.run_end_to_end(json.loads(sys.argv[1]), sys.argv[2])
print(json.dumps({"at_import": at_import, "after_run": scipy_modules(), "stages": manifest["stages"]}))
"""


def run_probe(bundle: dict, out_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(bundle), str(out_dir)],
        env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ingest_bundle(tmp_path: Path, holes: bool, mark_model: str) -> dict:
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("time,location,temp,humidity\n")
        for i in range(60):
            # every seventh temperature is missing: each location keeps more
            # than six observed points around its holes
            temp = "" if holes and i % 7 == 3 else repr(20.0 + (i * 37 % 11))
            fh.write(f"{0.5 + i},{i % 2},{temp},{10.0 + (i * 13 % 17)!r}\n")
    return {
        "seed": 3,
        "ingest": {"csv": str(raw), "horizon": 61.0},
        "fit": {"grid_points": 2, "pgd_steps": 10, "beta_low": 0.5, "beta_high": 1.5, "mark_model": mark_model},
        "predict": {"screening": False},
    }


@pytest.mark.parametrize(
    "case", ["simulate-linear", "ingest-linear", "ingest-linear-holes", "ingest-kde", "ingest-kde-holes"]
)
def test_no_run_loads_scipy(tmp_path, case):
    if case == "simulate-linear":
        bundle, stages = LINEAR_BUNDLE, ["data", "fit", "predict", "eval", "conformal"]
    else:
        bundle = ingest_bundle(tmp_path, case.endswith("-holes"), case.split("-")[1])
        stages = ["data", "fit", "predict", "eval"]
    report = run_probe(bundle, tmp_path / "run")
    assert report["stages"] == stages
    assert report["at_import"] == []
    assert report["after_run"] == []
