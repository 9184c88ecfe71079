"""Checks of the benchmark itself: `python3 -m pytest perfbench`.

The count test runs every workload twice with tracing, a few minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("planted-ablate", "scale-50k", "ingest-baselines-50k")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_fixed_seed(workload):
    counts = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if m["unit"].startswith("count")})
    assert {"autodiff.ops_per_epoch", "graph.neighbor_arrays_calls",
            "recommend.predict_calls", "contrastive.positives",
            "contrastive.negative_pool", "contrastive.fallback_pairs",
            "autodiff.op.mul.calls"} <= counts[0].keys()
    assert counts[0] == counts[1]


def test_generated_csv_depends_only_on_the_seed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import write_ratings_csv

    paths = [tmp_path / f"{name}.csv" for name in ("a", "b", "c")]
    counts = [write_ratings_csv(path, seed) for path, seed in zip(paths, (5, 5, 6))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert 45_000 < counts[0] < 55_000


def test_speed_probe_samples_during_its_block_and_restores_the_handler():
    import signal
    from time import perf_counter

    sys.path.insert(0, str(HERE))
    from speedprobe import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval_s=0.01) as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(probe.samples) >= 10
    assert 0 < probe.loop_s() < 0.01
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "planted-ablate", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
