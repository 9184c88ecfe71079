"""Benchmark the full model, its ablations, and the baselines on planted data.

Prints the per-variant MAE/RMSE statistics that the directional acceptance
checks rely on: ablation ordering, the criteria-count trend, loss shrinkage,
and the comparison against the nearest-neighbour baselines. Ends with the
published-results table (`evaluate.comparison_table`) next to the variants.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcgraph import evaluate as ev


def describe(tag, report):
    print(f"{tag:<28} mae {report.mae_mean:.4f} +/- {report.mae_std:.4f}   "
          f"rmse {report.rmse_mean:.4f} +/- {report.rmse_std:.4f}   "
          f"failed {report.failed_runs}")


def main():
    defaults = ev.ExperimentConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=defaults.n_runs)
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=defaults.seed_base)
    args = parser.parse_args()

    cfg = ev.ExperimentConfig(n_runs=args.runs, epochs=args.epochs,
                              seed_base=args.seed)
    t0 = time.perf_counter()

    # one runner call: the variants share one prepared split, and --jobs
    # spreads every run of every config over one pool
    configs = [replace(cfg, variant=v) for v in ev.VARIANTS]
    configs.append(replace(cfg, criteria_count=1))
    tags = [*ev.VARIANT_LABELS.values(), "1 criterion"]
    results, reports = [], []
    for runs, tuned, tag in zip(ev.run_configs(configs, args.jobs), configs, tags):
        results.append(runs)
        reports.append(ev.aggregate_runs(tuned, runs))
        describe(tag, reports[-1])

    full_runs = results[0]
    shrunk = sum(r.final_loss < 0.6 * r.first_loss for r in full_runs
                 if not r.failed)
    slowest = max(r.wall_clock for r in full_runs)
    print(f"loss shrink (<0.6x first): {shrunk}/{len(full_runs)} runs, "
          f"slowest run {slowest:.2f}s")

    full_report, report_c1 = reports[0], reports[-1]
    pooled = np.sqrt((full_report.mae_std ** 2 + report_c1.mae_std ** 2) / 2)
    gap = report_c1.mae_mean - full_report.mae_mean
    print(f"criteria trend: gap {gap:.4f} vs 0.5*pooled_std {0.5 * pooled:.4f}")

    for name in ("user_knn", "multi_user_knn", "mlr"):
        describe(name, ev.baseline_report(cfg, name))

    print()
    print(ev.comparison_table(reports[:-1]), end="")
    print(f"total wall clock {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
