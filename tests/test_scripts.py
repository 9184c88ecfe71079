"""Smoke tests: each script under scripts/ runs to completion in a subprocess."""

import subprocess
import sys
from pathlib import Path

from mcgraph import dataset as ds
from mcgraph import evaluate as ev

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300, check=True)


def test_planted_benchmark_prints_every_variant_and_baseline():
    out = run_script("run_planted_benchmark.py", "--runs", "1", "--epochs", "2").stdout
    for label in (*ev.VARIANT_LABELS.values(), "1 criterion", "user_knn",
                  "multi_user_knn", "mlr", "total wall clock"):
        assert label in out


def test_default_export_is_the_planted_benchmark_dataset(tmp_path):
    out = tmp_path / "planted.csv"
    printed = run_script("export_planted_dataset.py", "--out", str(out)).stdout
    assert printed.startswith(f"wrote {out}")
    assert ds.load_ratings(out) == ev.load_dataset(ev.ExperimentConfig())
