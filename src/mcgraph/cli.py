"""Command-line front end wiring config files and flags to the pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort (a
NaN or infinity in a result about to be written counts as one). A closed
stdout ends the command quietly with 0. Diagnostics go to stderr; results go
to files or stdout. Every artifact embeds the effective config (file values
overridden by flags) and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluate as ev
from . import recommend as rec
from .contrastive import write_loss_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# every flag: the config key it sets, if any, and its argparse keywords
FLAGS: dict[str, tuple[str | None, dict]] = {
    "--data": ("dataset_path", dict(help="ratings CSV; omitted = planted synthetic")),
    "--config": (None, dict(help="flat key = value config file")),
    "--seed": ("seed_base", dict(type=int, help="base seed (beats MCGRAPH_SEED)")),
    "--runs": ("n_runs", dict(type=int, help="number of seeded runs")),
    "--variant": ("variant", dict(choices=ev.VARIANTS)),
    "--ts": ("ts_percent", dict(type=int, choices=ds.TS_PERCENTS,
                                help="training segment percentage")),
    "--criteria": ("criteria_count", dict(type=int, help="keep first K criteria")),
    "--jobs": (None, dict(type=int, default=1, help="parallel workers")),
    "--out": (None, dict(default=".", help="artifact directory")),
    "--scale": (None, dict(help="source rating range LO:HI mapped onto 1..5")),
    "--alphas": (None, dict(help="LCL weights, e.g. 0.1,0.5")),
    "--betas": (None, dict(help="HGCL weights, e.g. 0.1,0.5")),
    "--lambdas": (None, dict(help="decay weights, e.g. 0.2,0.4")),
    "--dims": (None, dict(required=True, help="fused widths, e.g. 24,48,96")),
    "--counts": (None, dict(required=True, help="criteria counts, e.g. 1,2,3")),
}
# flag sets that several commands read; `build_parser` gives each command
# only the flags it reads
TRAIN_FLAGS = ("--data", "--config", "--seed", "--variant", "--ts", "--criteria", "--out")
RUN_FLAGS = (*TRAIN_FLAGS, "--runs", "--jobs")
SWEEP_FLAGS = ("--data", "--config", "--seed", "--variant", "--runs", "--jobs", "--out")


def _write_json(payload: dict, path: Path) -> None:
    # a NaN or infinity raises here, before the file is opened
    path.write_text(ev.json_text(payload) + "\n", encoding="utf-8")


def _number_list(text: str, flag: str, kind: type = float) -> list:
    """Comma-separated numbers of `kind`; a list with no number in it, a
    non-finite number or an integer below 1 (the integer lists hold counts
    and widths) fails naming the flag."""
    noun = "integers" if kind is int else "numbers"
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} lists no {noun}, got {text!r}")
    need = "at least 1" if kind is int else "finite"
    if not (min(values) >= 1 if kind is int else np.all(np.isfinite(values))):
        raise ValueError(f"{flag} entries must be {need}, got {text!r}")
    return values


def effective_config(args: argparse.Namespace) -> ev.ExperimentConfig:
    """Defaults, then the config file, then flags; env seed is the weakest."""
    file_values: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        try:
            if not path.is_file():
                raise ValueError(f"config file not found: {path}")
            text = path.read_text(encoding="utf-8")
        except OSError as exc:  # a name too long, a permission denied, ...
            raise ValueError(f"cannot read config file {path}: {exc}") from None
        file_values = ev.config_values(text)
    # one merge, so a flag replaces a file value before either is checked;
    # an empty --data, like an absent one, keeps the file's dataset_path
    values: dict[str, object] = dict(file_values)
    for flag, (key, _) in FLAGS.items():
        value = getattr(args, flag[2:], None)
        if key and value not in (None, ""):
            values[key] = value
    env_seed = os.environ.get("MCGRAPH_SEED")
    if env_seed is not None and "seed_base" not in values:
        try:
            values["seed_base"] = int(env_seed)
        except ValueError:
            raise ValueError(f"MCGRAPH_SEED must be an integer, got {env_seed!r}") from None
    return ev.apply_config_values(ev.ExperimentConfig(), values)


def _out_path(args: argparse.Namespace) -> Path:
    """`--out`, checked but not created: a name the OS rejects, or a file at
    it or at its nearest existing parent, is a usage error."""
    out = Path(args.out)
    try:
        existing = next(p for p in (out, *out.parents) if p.exists())
    except OSError as exc:  # a name too long, a permission denied, ...
        raise ValueError(f"--out {out}: {exc.strerror}") from None
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} exists and is not a directory")
    return out


def _echo_config(cfg: ev.ExperimentConfig) -> None:
    print("effective config:", file=sys.stderr)
    for line in ev.format_config(cfg).splitlines():
        print(f"  {line}", file=sys.stderr)


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    out = _out_path(args)
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
    out.mkdir(parents=True, exist_ok=True)
    ds.save_ratings(data, out / "ratings.csv")
    _write_json({"config": ev.config_as_dict(cfg), "source": cfg.dataset_path,
                 "scale": args.scale, "records": len(data),
                 "stats": asdict(ds.compute_stats(data))},
                out / "ingest.json")
    print(f"wrote {out / 'ratings.csv'} ({len(data)} records)")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    payload = asdict(ds.compute_stats(ev.load_dataset(cfg)))
    payload["config"] = ev.config_as_dict(cfg)
    print(ev.json_text(payload))
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    out = _out_path(args)
    _echo_config(cfg)
    train_data, _ = ev.prepared_data(cfg)
    model = ev.fit(cfg, train_data, cfg.seed_base)
    trace = model.trace
    out.mkdir(parents=True, exist_ok=True)
    ev.save_model(model, out / "checkpoint.npz")
    write_loss_trace(trace, out / "loss_trace.csv")
    _write_json({"config": ev.config_as_dict(cfg), "seed": cfg.seed_base,
                 "epochs": len(trace), "first_loss": trace[0].l_total,
                 "final_loss": trace[-1].l_total,
                 "train_digest": ds.content_digest(train_data)},
                out / "train.json")
    print(f"trained {cfg.variant} seed {cfg.seed_base}: "
          f"loss {trace[0].l_total:.4f} -> {trace[-1].l_total:.4f}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _echo_config(cfg)
    run, current = Path(args.out), ev.config_as_dict(cfg)
    sidecar = run / "train.json"
    try:
        trained = json.loads(sidecar.read_text(encoding="utf-8"))
        key = next((k for k in current if trained["config"].get(k) != current[k]), None)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ds.DatasetError(f"cannot read {sidecar}: {exc}") from None
    if key is not None:
        raise ValueError(f"{key} is {current[key]!r} here but "
                         f"{trained['config'].get(key)!r} in {sidecar}; "
                         f"predict takes train's config and seed")
    train_data, test_data = ev.prepared_data(cfg)
    if "train_digest" not in trained:
        raise ds.DatasetError(f"{sidecar} records no train_digest; run train again")
    if trained["train_digest"] != ds.content_digest(train_data):
        raise ds.DatasetError(
            f"the train split of {cfg.dataset_path or 'the planted dataset'} differs "
            f"from the one whose train_digest {sidecar} records: the ratings "
            f"changed after train")
    model = ev.load_model(cfg, train_data, run / "checkpoint.npz")
    predictions = model.predict(test_data)
    mae = ev.mae(predictions, test_data.overall)
    rec.write_predictions(test_data, predictions, run / "predictions.csv")
    _write_json({"config": current, "seed": cfg.seed_base,
                 "mae": mae, "rmse": ev.rmse(predictions, test_data.overall)},
                run / "predict.json")
    print(f"predicted {len(test_data)} pairs: mae {mae:.4f}")
    return EXIT_OK


def _reports(configs: list[ev.ExperimentConfig], jobs: int,
             tags: list[str]) -> list[ev.MetricReport]:
    """One report per config from one `run_configs` call, printing a progress
    line `tag: ...` as each config's runs end."""
    reports = []
    for runs, cfg, tag in zip(ev.run_configs(configs, jobs), configs, tags):
        reports.append(ev.aggregate_runs(cfg, runs))
        r = reports[-1]
        print(f"{tag}: mae {r.mae_mean:.4f} +/- {r.mae_std:.4f}  "
              f"rmse {r.rmse_mean:.4f} +/- {r.rmse_std:.4f}  "
              f"({len(r.mae_runs)} runs, {r.failed_runs} failed)")
    return reports


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    out = _out_path(args)
    _echo_config(cfg)
    [report] = _reports([cfg], args.jobs, [ev.VARIANT_LABELS[cfg.variant]])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(report.as_dict(), out / f"report_{cfg.variant}.json")
    ev.write_report_csv([report], out / f"runs_{cfg.variant}.csv")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    out = _out_path(args)
    _echo_config(cfg)
    configs = [replace(cfg, variant=variant) for variant in ev.VARIANTS]
    reports = _reports(configs, args.jobs, list(ev.VARIANT_LABELS.values()))
    out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        _write_json(report.as_dict(), out / f"report_{report.variant}.json")
    ev.write_report_csv(reports, out / "runs_ablation.csv")
    ordered = reports[0].mae_mean < reports[1].mae_mean < reports[2].mae_mean
    print(f"ablation ordering D-MGAC < D-MGAC* < D-MGAC*-: "
          f"{'holds' if ordered else 'violated'}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    out = _out_path(args)
    _echo_config(cfg)
    # each kind is its list of configs, all built and checked before any run
    payload = {"config": ev.config_as_dict(cfg)}
    if args.kind == "sensitivity":
        alphas, betas, lambdas = (
            default if text is None else _number_list(text, flag)
            for text, flag, default in (
                (args.alphas, "--alphas", ev.SENSITIVITY_WEIGHTS),
                (args.betas, "--betas", ev.SENSITIVITY_WEIGHTS),
                (args.lambdas, "--lambdas", ev.SENSITIVITY_LAMBDAS)))
        configs = ev.sensitivity_configs(cfg, alphas, betas, lambdas)
        tags = [f"alpha {c.loss.alpha} beta {c.loss.beta} lambda {c.loss.l2_weight}"
                for c in configs]
    elif args.kind == "dims":
        payload["dims"] = _number_list(args.dims, "--dims", int)
        configs = ev.width_configs(cfg, payload["dims"])
        tags = [f"dim {dim}" for dim in payload["dims"]]
    elif args.kind == "ts":
        configs = [replace(cfg, ts_percent=ts) for ts in ds.TS_PERCENTS]
        tags = [f"ts {ts}" for ts in ds.TS_PERCENTS]
    else:
        payload["counts"] = _number_list(args.counts, "--counts", int)
        configs = [replace(cfg, criteria_count=count) for count in payload["counts"]]
        tags = [f"criteria {count}" for count in payload["counts"]]
    reports = _reports(configs, args.jobs, tags)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "sensitivity":
        ev.write_sensitivity_csv(reports, out / "sensitivity.csv")
        payload["points"] = [{"alpha": r.config["alpha"], "beta": r.config["beta"],
                              "lambda": r.config["l2_weight"], "report": r.as_dict()}
                             for r in reports]
    else:
        payload["reports"] = [r.as_dict() for r in reports]
    if args.kind == "ts":
        ev.write_report_csv(reports, out / "runs_ts.csv")
    _write_json(payload, out / f"{args.kind}.json")
    return EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports a flag the command does not take with
    the command's own usage, where argparse would leave it to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgraph",
        description="Multi-criteria graph recommender: data, training, "
                    "evaluation and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    def command(group, name: str, text: str, flags: tuple[str, ...], handler) -> None:
        p = group.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag][1])
        p.set_defaults(handler=handler)

    command(sub, "ingest", "validate a CSV and write canonical form",
            ("--data", "--config", "--out", "--scale"), cmd_ingest)
    command(sub, "stats", "dataset statistics as JSON on stdout",
            ("--data", "--config", "--criteria"), cmd_stats)
    command(sub, "train", "fit one seeded model and save it to --out",
            TRAIN_FLAGS, cmd_train)
    command(sub, "predict", "score the test split with the model in --out",
            TRAIN_FLAGS, cmd_predict)
    command(sub, "evaluate", "multi-run experiment with reports", RUN_FLAGS, cmd_evaluate)
    command(sub, "ablate", "evaluate all three model variants",
            tuple(f for f in RUN_FLAGS if f != "--variant"), cmd_ablate)
    sweep = sub.add_parser("sweep", help="hyperparameter and protocol sweeps") \
        .add_subparsers(dest="kind", required=True)
    command(sweep, "sensitivity", "alpha/beta/lambda grid",
            (*SWEEP_FLAGS, "--ts", "--criteria", "--alphas", "--betas", "--lambdas"),
            cmd_sweep)
    command(sweep, "dims", "fused embedding widths",
            (*SWEEP_FLAGS, "--ts", "--criteria", "--dims"), cmd_sweep)
    command(sweep, "ts", "40/60/80/100%% training segments",
            (*SWEEP_FLAGS, "--criteria"), cmd_sweep)
    command(sweep, "criteria", "criteria counts", (*SWEEP_FLAGS, "--ts", "--counts"),
            cmd_sweep)
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
