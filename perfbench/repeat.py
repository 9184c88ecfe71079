"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 30 [--workloads a,b] [--trace 1] [--out FILE]

Seeds are the outer loop and workloads the inner one, so machine drift
reaches every workload alike. For each workload and metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median, and with --out writes them, every run's values and the
machine line of every run as JSON. Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("planted-ablate", "scale-50k", "ingest-baselines-50k")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), None)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"exit": proc.returncode, "machine": machine}
    return {"exit": 0, "machine": machine, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append({"seed": seed, **result})
            status = "ok" if result["exit"] == 0 else f"exit {result['exit']}"
            print(f"{workload} seed {seed}: {status}", flush=True)

    summary = {}
    for workload, results in runs.items():
        good = [r for r in results if r["exit"] == 0]
        metrics = {}
        for name in (good[0]["metrics"] if good else {}):
            values = [r["metrics"][name]["value"] for r in good
                      if r["metrics"][name]["value"] is not None]
            metrics[name] = {"unit": good[0]["metrics"][name]["unit"],
                             **(summarize(values) if len(values) >= 2 else {}),
                             "values": values}
        summary[workload] = {"runs": len(results), "failed_runs": len(results) - len(good),
                             "metrics": metrics,
                             "machine": [r["machine"] for r in results]}
        print(f"\n{workload}: {len(good)}/{len(results)} runs ok")
        for name, m in metrics.items():
            if "median" in m:
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"  {name:<46} median {m['median']:<12.6g} "
                      f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(s["failed_runs"] == 0 for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
