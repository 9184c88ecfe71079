"""Command-line front end wiring config files and flags to the pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort (a
NaN or infinity in a result about to be written counts as one). A closed
stdout ends the command quietly with 0. Diagnostics go to stderr; results go
to files or stdout. Every artifact embeds the effective config (file values
overridden by flags) and the seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluate as ev
from . import recommend as rec
from .contrastive import train as train_embeddings
from .contrastive import write_loss_trace
from .graph import build_views

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SWEEP_KINDS = ("sensitivity", "dims", "ts", "criteria")


def _write_json(payload: dict, path: Path) -> None:
    # a NaN or infinity raises here, before the file is opened
    path.write_text(ev.json_text(payload) + "\n", encoding="utf-8")


def _number_list(text: str, flag: str, kind: type = float) -> list:
    """Comma-separated numbers of `kind`; a list with no number in it, or a
    non-finite entry, fails naming the flag."""
    noun = "integers" if kind is int else "numbers"
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} lists no {noun}, got {text!r}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{flag} entries must be finite, got {text!r}")
    return values


def effective_config(args: argparse.Namespace) -> ev.ExperimentConfig:
    """Defaults, then the config file, then flags; env seed is the weakest."""
    file_values: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ValueError(f"config file not found: {path}")
        file_values = ev.config_values(path.read_text(encoding="utf-8"))
    # one merge, so a flag replaces a file value before either is checked
    values: dict[str, object] = dict(file_values)
    if args.data:
        values["dataset_path"] = args.data
    if args.runs is not None:
        values["n_runs"] = args.runs
    if getattr(args, "variant", None):
        values["variant"] = args.variant
    if args.ts is not None:
        values["ts_percent"] = args.ts
    if args.criteria is not None:
        values["criteria_count"] = args.criteria
    cfg = ev.apply_config_values(ev.ExperimentConfig(), values)
    if args.seed is not None:
        cfg = replace(cfg, seed_base=args.seed)
    elif "seed_base" not in file_values:
        env_seed = os.environ.get("MCGRAPH_SEED")
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ValueError(
                    f"MCGRAPH_SEED must be an integer, got {env_seed!r}") from None
            cfg = replace(cfg, seed_base=seed)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: ev.ExperimentConfig) -> None:
    print("effective config:", file=sys.stderr)
    for line in ev.format_config(cfg).splitlines():
        print(f"  {line}", file=sys.stderr)


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    if not cfg.dataset_path:
        raise ValueError("ingest needs --data (or dataset_path in the config)")
    data = ds.load_ratings(cfg.dataset_path)
    if args.scale:
        lo_text, _, hi_text = args.scale.partition(":")
        try:
            source = (float(lo_text), float(hi_text))
        except ValueError:
            raise ValueError(f"--scale expects LO:HI, got {args.scale!r}") from None
        data = ds.normalize_scale(data, source)
    out = _out_dir(args)
    ds.save_ratings(data, out / "ratings.csv")
    _write_json({"config": ev.config_as_dict(cfg), "source": cfg.dataset_path,
                 "scale": args.scale, "records": len(data),
                 "stats": ds.compute_stats(data).as_dict()},
                out / "ingest.json")
    print(f"wrote {out / 'ratings.csv'} ({len(data)} records)")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    stats = ds.compute_stats(ev.load_dataset(cfg))
    payload = stats.as_dict()
    payload["config"] = ev.config_as_dict(cfg)
    print(ev.json_text(payload))
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _echo_config(cfg)
    train_data, _ = ev.prepared_data(cfg)
    views = build_views(train_data)
    params, trace = train_embeddings(views, cfg, cfg.seed_base)
    out = _out_dir(args)
    np.savez(out / "checkpoint.npz", **params)
    write_loss_trace(trace, out / "loss_trace.csv")
    _write_json({"config": ev.config_as_dict(cfg), "seed": cfg.seed_base,
                 "epochs": len(trace), "first_loss": trace[0].l_total,
                 "final_loss": trace[-1].l_total},
                out / "train.json")
    print(f"trained {cfg.variant} seed {cfg.seed_base}: "
          f"loss {trace[0].l_total:.4f} -> {trace[-1].l_total:.4f}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _echo_config(cfg)
    train_data, test_data = ev.prepared_data(cfg)
    predictions = ev.fit(cfg, train_data, cfg.seed_base).predict(test_data)
    mae = ev.mae(predictions, test_data.overall)
    out = _out_dir(args)
    rec.write_predictions(test_data, predictions, out / "predictions.csv")
    _write_json({"config": ev.config_as_dict(cfg), "seed": cfg.seed_base,
                 "mae": mae, "rmse": ev.rmse(predictions, test_data.overall)},
                out / "predict.json")
    print(f"predicted {len(test_data)} pairs: mae {mae:.4f}")
    return EXIT_OK


def _report_line(report: ev.MetricReport) -> str:
    return (f"{report.label}: mae {report.mae_mean:.4f} +/- {report.mae_std:.4f}  "
            f"rmse {report.rmse_mean:.4f} +/- {report.rmse_std:.4f}  "
            f"({len(report.mae_runs)} runs, {report.failed_runs} failed)")


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _echo_config(cfg)
    report = ev.run_experiment(cfg, jobs=args.jobs)
    out = _out_dir(args)
    ev.write_report_json(report, out / f"report_{cfg.variant}.json")
    ev.write_report_csv([report], out / f"runs_{cfg.variant}.csv")
    print(_report_line(report))
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _echo_config(cfg)
    reports = []
    for variant in ev.VARIANTS:
        reports.append(ev.run_ablation(cfg, variant, jobs=args.jobs))
        print(_report_line(reports[-1]))
    out = _out_dir(args)
    for report in reports:
        ev.write_report_json(report, out / f"report_{report.variant}.json")
    ev.write_report_csv(reports, out / "runs_ablation.csv")
    ordered = reports[0].mae_mean < reports[1].mae_mean < reports[2].mae_mean
    print(f"ablation ordering D-MGAC < D-MGAC* < D-MGAC*-: "
          f"{'holds' if ordered else 'violated'}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _echo_config(cfg)
    # each kind creates --out only after its runs succeed
    if args.kind == "sensitivity":
        alphas, betas, lambdas = (
            default if text is None else _number_list(text, flag)
            for text, flag, default in (
                (args.alphas, "--alphas", ev.SENSITIVITY_WEIGHTS),
                (args.betas, "--betas", ev.SENSITIVITY_WEIGHTS),
                (args.lambdas, "--lambdas", ev.SENSITIVITY_LAMBDAS)))
        points = ev.sweep_sensitivity(cfg, alphas, betas, lambdas,
                                      jobs=args.jobs)
        out = _out_dir(args)
        ev.write_sensitivity_csv(points, out / "sensitivity.csv")
        _write_json({"config": ev.config_as_dict(cfg),
                     "points": [{"alpha": p.alpha, "beta": p.beta,
                                 "lambda": p.l2_weight,
                                 "report": p.report.as_dict()}
                                for p in points]},
                    out / "sensitivity.json")
        print(f"swept {len(points)} sensitivity points")
    elif args.kind == "dims":
        if not args.dims:
            raise ValueError("sweep dims needs --dims, e.g. --dims 24,48,96")
        dims = _number_list(args.dims, "--dims", int)
        reports = ev.sweep_embedding_dim(cfg, dims, jobs=args.jobs)
        out = _out_dir(args)
        _write_json({"config": ev.config_as_dict(cfg),
                     "dims": dims,
                     "reports": [r.as_dict() for r in reports]},
                    out / "dims.json")
        for dim, report in zip(dims, reports):
            print(f"dim {dim}: mae {report.mae_mean:.4f}")
    elif args.kind == "ts":
        reports = []
        for ts in ds.TS_PERCENTS:
            reports.append(ev.run_experiment(replace(cfg, ts_percent=ts),
                                             jobs=args.jobs))
            print(f"ts {ts}: mae {reports[-1].mae_mean:.4f}")
        out = _out_dir(args)
        ev.write_report_csv(reports, out / "runs_ts.csv")
        _write_json({"config": ev.config_as_dict(cfg),
                     "reports": [r.as_dict() for r in reports]},
                    out / "ts.json")
    else:
        if not args.counts:
            raise ValueError("sweep criteria needs --counts, e.g. --counts 1,2,3")
        counts = _number_list(args.counts, "--counts", int)
        reports = ev.sweep_criteria_count(cfg, counts, jobs=args.jobs)
        out = _out_dir(args)
        _write_json({"config": ev.config_as_dict(cfg),
                     "counts": counts,
                     "reports": [r.as_dict() for r in reports]},
                    out / "criteria.json")
        for count, report in zip(counts, reports):
            print(f"criteria {count}: mae {report.mae_mean:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgraph",
        description="Multi-criteria graph recommender: data, training, "
                    "evaluation and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, variant: bool = True) -> None:
        p.add_argument("--data", help="ratings CSV; omitted = planted synthetic")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="base seed (beats MCGRAPH_SEED)")
        p.add_argument("--runs", type=int, help="number of seeded runs")
        if variant:
            p.add_argument("--variant", choices=ev.VARIANTS)
        p.add_argument("--ts", type=int, choices=ds.TS_PERCENTS,
                       help="training segment percentage")
        p.add_argument("--criteria", type=int, help="keep first K criteria")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--out", default=".", help="artifact directory")

    p = sub.add_parser("ingest", help="validate a CSV and write canonical form")
    common(p)
    p.add_argument("--scale", help="source rating range LO:HI mapped onto 1..5")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("stats", help="dataset statistics as JSON on stdout")
    common(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("train", help="one seeded embedding training run")
    common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="train once and score the test split")
    common(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="multi-run experiment with reports")
    common(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("ablate", help="evaluate all three model variants")
    common(p, variant=False)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("sweep", help="hyperparameter and protocol sweeps")
    p.add_argument("kind", choices=SWEEP_KINDS)
    common(p)
    p.add_argument("--dims", help="fused widths for `dims`, e.g. 24,48,96")
    p.add_argument("--counts", help="criteria counts for `criteria`, e.g. 1,2,3")
    p.add_argument("--alphas", help="LCL weights for `sensitivity`")
    p.add_argument("--betas", help="HGCL weights for `sensitivity`")
    p.add_argument("--lambdas", help="decay weights for `sensitivity`")
    p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader went away (`mcgraph stats | head -3`): end quietly, with
        # stdout on os.devnull so the interpreter's exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ds.DatasetError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:  # before ValueError: a non-finite output is both
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
