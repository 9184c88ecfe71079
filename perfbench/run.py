"""mcgraph benchmark: one workload per invocation, result JSON on the last line.

    python3 perfbench/run.py --workload planted-ablate --seed 1 --seconds 45 --trace 0

It imports mcgraph from `src/` of the checkout it sits in and builds every
input from `--seed`. One operation repeats the workload's seeded work (see
workloads.py); operations run until the next one would end after
`--seconds`. The outputs of every operation are checked, and the command
exits 1 if any check fails, 2 if the checkout has no mcgraph sources.

An untraced operation runs under the speed probe (speedprobe.py), and its
cost is its wall time in reference loops timed during it: on a shared host
that cost holds steady while wall time drifts with the neighbours' load.

With `--trace 0` the result carries the end-to-end metrics. With `--trace 1`
untraced and traced operations alternate and the result carries the
per-layer metrics (tracing.py), including the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("planted-ablate", "scale-50k", "ingest-baselines-50k")

# end-to-end metric -> unit, in report order (README.md defines each)
END_TO_END = {"setup_s": "s", "op_cost_p50": "ref_loops",
              "test_mae": "rating", "test_rmse": "rating", "peak_rss_mb": "MB"}
# BLAS/OpenMP pool size, set before numpy loads. On a 2-vCPU VM an idle
# second vCPU can take about a second to respond and a 2-thread BLAS call
# waits for it, so one thread keeps runs steady.
BLAS_THREADS = "1"


def _calibrate() -> dict:
    """Fixed interpreter and BLAS loops: machine speed next to each run, not gated."""
    import numpy as np
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    python_s = perf_counter() - start
    a = np.random.default_rng(0).random((256, 256))
    a @ a  # the first call starts the BLAS thread pool
    start = perf_counter()
    for _ in range(50):
        a @ a
    return {"python_loop_s": python_s, "matmul_s": perf_counter() - start}


def _machine() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    sha = "unknown"  # the benchmark checkout is usually not a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS), "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _operation(workload, tracer=None):
    """Run one operation; returns (seconds, reference loop seconds, Checked),
    or None if it raised. Traced operations run without the speed probe."""
    from speedprobe import SpeedProbe
    probe = SpeedProbe() if tracer is None else contextlib.nullcontext()
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install(sys.modules["mcgraph"])
        try:
            with probe:
                start = perf_counter()
                outputs = workload.run()
                seconds = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.remove()
        loop_s = probe.loop_s() if tracer is None else math.nan
        return seconds, loop_s, workload.check(outputs)
    except Exception:  # a failed operation; the run still reports its result
        traceback.print_exc()
        return None


def _measure(workload, seconds: float, tracer=None) -> dict:
    """Operations until the next would end after `seconds`; alternates if traced.

    Each round of operations starts with `workload.setup_repeats` timed
    set-ups, so the set-up samples spread over the whole run instead of
    catching the machine at one moment.
    """
    run = {"setups": [], "untraced": [], "loops": [], "traced": [], "layer": [],
           "checks": [], "attempted": 0, "failed": 0}
    start = perf_counter()
    while True:
        for _ in range(workload.setup_repeats):
            setup_start = perf_counter()
            workload.setup()
            run["setups"].append(perf_counter() - setup_start)
        round_seconds = 0.0
        for t in (None, tracer) if tracer is not None else (None,):
            run["attempted"] += 1
            result = _operation(workload, t)
            if result is None:
                run["failed"] += 1
                return run
            op_seconds, loop_s, check = result
            round_seconds += op_seconds
            if t is None:
                run["untraced"].append(op_seconds)
                run["loops"].append(loop_s)
            else:
                run["traced"].append(op_seconds)
                run["layer"].append(t.layer_metrics())
            if run["checks"] and check.fingerprint != run["checks"][0].fingerprint:
                check.failures.append("outputs differ from the first operation's")
            for failure in check.failures:
                print(f"check failed: {failure}", file=sys.stderr)
            run["failed"] += bool(check.failures)
            run["checks"].append(check)
        if perf_counter() - start + round_seconds > seconds:
            return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / "mcgraph" / "__init__.py").is_file():
        print(f"perfbench: no mcgraph sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from tracing import Tracer, metric_units

    machine = _machine()
    machine["calibration_before"] = _calibrate()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        run = _measure(workload, args.seconds, Tracer() if args.trace else None)
        print(f"{args.workload} seed {args.seed}: {workload.describe()}")
    machine["calibration_after"] = _calibrate()
    print("machine: " + json.dumps(machine, sort_keys=True))

    times = run["untraced"]
    checks = run["checks"]
    if args.trace:
        units = metric_units()
        metrics = {name: statistics.median(m[name] for m in run["layer"])
                   if run["layer"] else math.nan for name in units}
        metrics["trace.overhead"] = (statistics.median(run["traced"])
                                     / statistics.median(times) - 1.0
                                     if run["traced"] else math.nan)
    else:
        units = END_TO_END
        first = checks[0] if checks else None
        metrics = {
            "setup_s": statistics.median(run["setups"]),
            "op_cost_p50": statistics.median(t / loop for t, loop in zip(times, run["loops"]))
            if times else math.nan,
            "test_mae": first.mae if first else math.nan,
            "test_rmse": first.rmse if first else math.nan,
            "peak_rss_mb": _peak_rss_mb(),
        }
    attempted, failed = run["attempted"], run["failed"]
    print(f"operations: {len(times)} untraced, {len(run['traced'])} traced, "
          f"{failed} failed (failed_share {failed / attempted:.3f})")
    print("operation seconds: " + " ".join(f"{t:.3f}" for t in times)
          + (" | traced: " + " ".join(f"{t:.3f}" for t in run["traced"])
             if run["traced"] else ""))
    if times:
        print("reference loop ms: " + " ".join(f"{loop * 1e3:.4f}" for loop in run["loops"])
              + f"; wall op_s_p50 {statistics.median(times):.4f} s, not gated")
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>14.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name])
                                 else None, "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
