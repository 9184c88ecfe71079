"""Experiment harness: metrics, multi-run aggregation, ablations, and sweeps."""

from __future__ import annotations

import json
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import attention as att
from . import recommend as rec
from .contrastive import LossConfig, LossReport, NonFiniteLossError, train
from .dataset import (TS_PERCENTS, DatasetError, RatingDataset, from_columns,
                      header_criteria, load_ratings, pair_codes, split_train_test,
                      subsample_train, subset)
from .graph import Views, build_views
from .recommend import PredictorConfig

VARIANT_LABELS = {
    "full": "D-MGAC",
    "no_global_attention": "D-MGAC*",
    "no_global_attention_no_cl": "D-MGAC*-",
}
VARIANTS = tuple(VARIANT_LABELS)


# ---------------------------------------------------------------------------
# metrics

def _paired(predictions, actuals) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    a = np.asarray(actuals, dtype=np.float64)
    if p.shape != a.shape:
        raise ValueError("predictions and actuals differ in length")
    if p.size == 0:
        raise ValueError("empty prediction set")
    return p, a


def mae(predictions, actuals) -> float:
    """Mean absolute prediction error."""
    p, a = _paired(predictions, actuals)
    return float(np.abs(p - a).mean())


def rmse(predictions, actuals) -> float:
    """Root mean squared prediction error."""
    p, a = _paired(predictions, actuals)
    return float(np.sqrt(((p - a) ** 2).mean()))


# ---------------------------------------------------------------------------
# experiment configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; round-trips through flat key = value text."""

    dataset_path: str = ""  # empty path selects the synthetic planted dataset
    seed_base: int = 0
    n_runs: int = 30
    ts_percent: int = 100
    variant: str = "full"
    criteria_count: int = 0  # 0 keeps every criterion
    test_fraction: float = 0.2
    split_seed: int = 7
    learning_rate: float = 0.002
    epochs: int = 100
    refresh_period: int = 10
    clip_norm: float = 5.0
    # desk-scale protocol: gentler weight decay, a stricter positive
    # threshold, and a much narrower encoder than the library defaults,
    # which target full-size datasets; the narrow bottleneck is what makes
    # representation quality matter to the linear head
    loss: LossConfig = LossConfig(l2_weight=0.01, pos_threshold=0.7)
    encoder: att.EncoderConfig = att.EncoderConfig(feature_dim=8, head_dim=4)
    predictor: PredictorConfig = PredictorConfig()

    def __post_init__(self):
        for name in ("seed_base", "split_seed", "criteria_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("n_runs", "epochs", "refresh_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("learning_rate", "clip_norm"):
            if not getattr(self, name) > 0:  # written so that NaN fails
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.ts_percent not in TS_PERCENTS:
            raise ValueError(f"ts_percent must be one of {TS_PERCENTS}, got {self.ts_percent}")

    @property
    def use_global_attention(self) -> bool:
        return self.variant == "full"

    @property
    def use_contrastive(self) -> bool:
        return self.variant != "no_global_attention_no_cl"

    def train_config(self) -> ExperimentConfig:
        """The config itself: `contrastive.train` reads it directly. Kept
        for callers that still ask for a training config, as the benchmark's
        scale workload does."""
        return self


def _config_keys() -> tuple[tuple[str, str, str, type], ...]:
    """(key, owning section, attribute, value type) for every flat config key,
    in field order. Section "" means top level; a field whose default is a
    dataclass is a section whose fields are keys of their own, prefixed
    `svr_` for the predictor. Each type is that of the default value."""
    keys = []
    for top in fields(ExperimentConfig):
        if not is_dataclass(top.default):
            keys.append((top.name, "", top.name, type(top.default)))
            continue
        prefix = "svr_" if top.name == "predictor" else ""
        keys.extend((prefix + f.name, top.name, f.name,
                     type(getattr(top.default, f.name)))
                    for f in fields(top.default))
    return tuple(keys)


_CONFIG_KEYS = _config_keys()
# keys of earlier versions whose setting no longer exists, and why
_REMOVED_KEYS = {
    key: "the rating head is fitted by Newton steps, which take no "
         "learning rate or batch size"
    for key in ("svr_learning_rate", "svr_batch_size")}


def config_as_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for key, section, attr, _ in _CONFIG_KEYS:
        holder = cfg if not section else getattr(cfg, section)
        out[key] = getattr(holder, attr)
    return out


def format_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key, value in config_as_dict(cfg).items():
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def apply_config_values(cfg: ExperimentConfig,
                        values: Mapping[str, object]) -> ExperimentConfig:
    """Override fields by flat key; unknown and removed keys and non-finite
    float values are rejected."""
    by_key = {key: (section, attr, kind) for key, section, attr, kind in _CONFIG_KEYS}
    sections: dict[str, dict] = {section: {} for _, section, _, _ in _CONFIG_KEYS}
    for key, value in values.items():
        if key in _REMOVED_KEYS:
            raise ValueError(f"config key {key!r} was removed: {_REMOVED_KEYS[key]}")
        if key not in by_key:
            raise ValueError(f"unknown config key {key!r}")
        section, attr, kind = by_key[key]
        value = kind(value)
        if kind is float and not np.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite, got {value}")
        sections[section][attr] = value
    top = sections.pop("")
    for section, attrs in sections.items():
        if attrs:
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **attrs)})
    return replace(cfg, **top) if top else cfg


def config_values(text: str) -> dict[str, str]:
    """Flat `key = value` lines as a key -> value text dict; blank lines and
    # comments allowed."""
    values = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {number}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# ---------------------------------------------------------------------------
# synthetic planted data

def make_planted_dataset(num_users: int = 50, num_items: int = 30,
                         num_criteria: int = 3, seed: int = 0) -> RatingDataset:
    """Cluster-structured ratings whose signal lives in the rating pattern.

    Users and items alternate between two clusters. A user rates items of the
    own cluster with probability in_density and others with out_density, so
    cluster membership is recoverable from connectivity alone. Ratings are
    additive: 3 + user-cluster shift + item-cluster shift + noise, with a
    small per-criterion offset. Users skip individual criteria occasionally
    (a zero criterion value means unrated there), and a fraction of noise
    users rate uniformly at random with heavy skipping, which makes their
    edge patterns disagree across the per-criterion views. The overall rating
    is the mean of the rated criteria.
    """
    in_density, out_density = 0.6, 0.05
    user_shift, item_shift, rating_noise = 0.5, 0.8, 0.35
    criterion_jitter, criterion_dropout = 0.15, 0.15
    noise_user_fraction, noise_dropout = 0.1, 0.5
    rng = np.random.default_rng(seed)
    user_group = np.arange(num_users) % 2
    item_group = np.arange(num_items) % 2
    user_levels = user_shift * (2.0 * user_group - 1.0)
    item_levels = item_shift * (2.0 * item_group - 1.0)
    n_noise = int(round(noise_user_fraction * num_users))
    noise_users = set(rng.choice(num_users, size=n_noise, replace=False).tolist())
    offsets = rng.uniform(-criterion_jitter, criterion_jitter, size=num_criteria)

    user_ids, item_ids, overall, criteria = [], [], [], []
    for u in range(num_users):
        for v in range(num_items):
            if u in noise_users:
                edge_prob = (in_density + out_density) / 2.0
            elif user_group[u] == item_group[v]:
                edge_prob = in_density
            else:
                edge_prob = out_density
            if rng.uniform() >= edge_prob:
                continue
            dropout = noise_dropout if u in noise_users else criterion_dropout
            present = rng.uniform(size=num_criteria) >= dropout
            present[rng.integers(num_criteria)] = True
            if u in noise_users:
                values = rng.uniform(1.0, 5.0, size=num_criteria)
            else:
                raw = (3.0 + user_levels[u] + item_levels[v] + offsets
                       + rng.normal(0.0, rating_noise, size=num_criteria))
                values = np.clip(raw, 1.0, 5.0)
            crit = np.where(present, values, 0.0)
            rated = crit[crit > 0]
            user_ids.append(f"u{u:03d}")
            item_ids.append(f"i{v:03d}")
            overall.append(float(rated.mean()))
            criteria.append(crit)
    return from_columns(user_ids, item_ids, overall, criteria)


def _criteria_in_range(count: int, available: int) -> int:
    """`count`, which must lie in 1..`available`."""
    if not 1 <= count <= available:
        raise ValueError(f"criteria count {count} outside 1..{available}")
    return count


def restrict_criteria(dataset: RatingDataset, count: int) -> RatingDataset:
    """Keep the first `count` criteria; overall targets are unchanged."""
    _criteria_in_range(count, dataset.num_criteria)
    if count == dataset.num_criteria:
        return dataset
    return RatingDataset(dataset.user_ids, dataset.item_ids, dataset.users,
                         dataset.items, dataset.overall, dataset.criteria[:, :count])


def restrict_users(dataset: RatingDataset, max_users: int,
                   seed: int = 0) -> RatingDataset:
    """Random user subsample for desk-scale runs on large dumps."""
    if max_users < 1:
        raise ValueError("max_users must be positive")
    if dataset.num_users <= max_users:
        return dataset
    rng = np.random.default_rng(seed)
    keep_ids = rng.choice(dataset.num_users, size=max_users, replace=False)
    return subset(dataset, np.flatnonzero(np.isin(dataset.users, keep_ids)))


# ---------------------------------------------------------------------------
# single runs

@dataclass(frozen=True)
class RunResult:
    run_index: int
    seed: int
    mae: float
    rmse: float
    wall_clock: float
    first_loss: float
    final_loss: float
    failed: bool = False


def load_dataset(cfg: ExperimentConfig) -> RatingDataset:
    """The ratings file at `dataset_path`, or the planted dataset if it is
    empty, cut to the first `criteria_count` criteria when that is set."""
    if cfg.dataset_path:
        data = load_ratings(cfg.dataset_path)
    else:
        data = make_planted_dataset(seed=cfg.split_seed)
    if cfg.criteria_count:
        data = restrict_criteria(data, cfg.criteria_count)
    return data


def prepared_data(cfg: ExperimentConfig) -> tuple[RatingDataset, RatingDataset]:
    """The fixed train/test pair every run of an experiment shares."""
    data = load_dataset(cfg)
    train_data, test_data = split_train_test(data, cfg.test_fraction,
                                             cfg.split_seed)
    train_data = subsample_train(train_data, cfg.ts_percent, cfg.split_seed)
    return train_data, test_data


def data_key(cfg: ExperimentConfig) -> tuple:
    """What `prepared_data` reads: configs equal on it share one pair."""
    return (cfg.dataset_path, cfg.criteria_count, cfg.test_fraction,
            cfg.split_seed, cfg.ts_percent)


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Trained encoder, fused train embeddings and the rating head on top."""

    params: dict[str, np.ndarray]
    trace: list[LossReport]
    train_data: RatingDataset
    fused: rec.FusedEmbedding
    predictor: rec.RatingPredictor

    def predict(self, test_data: RatingDataset) -> np.ndarray:
        """Score test pairs through the train index in one batch.

        A pair whose user or item is missing from the train index gets the
        train global mean.
        """
        users, items = pair_codes(self.train_data, test_data)
        seen = (users >= 0) & (items >= 0)
        out = np.full(len(test_data), float(np.mean(self.train_data.overall)))
        out[seen] = rec.predict_many(self.predictor, self.fused,
                                     users[seen], items[seen])
        return out


def fit(cfg: ExperimentConfig, train_data: RatingDataset, seed: int) -> FittedModel:
    """Train the encoder on the train views, then fit the head on its embeddings.

    Raises NonFiniteLossError when training diverges.
    """
    views = build_views(train_data)
    return _with_head(cfg, train_data, views, *train(views, cfg, seed))


def _with_head(cfg: ExperimentConfig, train_data: RatingDataset, views: Views,
               params: dict, trace: list, predictor=None) -> FittedModel:
    """Encode the train views on `views.block`, the graph `train` trained on,
    and fuse them; fit the head unless `predictor` is given."""
    stack = att.encode_stack(views.block, params, cfg.encoder, cfg.use_global_attention)[0]
    fused = rec.fuse(np.split(stack, len(views)), train_data.num_users)
    predictor = predictor or rec.train_predictor(fused, train_data, cfg.predictor)
    return FittedModel(params, trace, train_data, fused, predictor)


def save_model(model: FittedModel, path: str | Path) -> None:
    """One npz: the encoder parameters by name, each head field as `head/<field>`."""
    np.savez(path, **model.params, **{f"head/{k}": v for k, v in vars(model.predictor).items()})


def load_model(cfg: ExperimentConfig, train_data: RatingDataset,
               path: str | Path) -> FittedModel:
    """The model `save_model` wrote after `fit(cfg, train_data, seed)`, with an
    empty trace. A missing or non-npz file, or a member that is missing or not
    a float64 array of its shape, raises DatasetError naming the file."""
    views = build_views(train_data)
    width = 2 * len(views) * cfg.encoder.embed_dim
    encoder = {key: value.shape for key, value in att.init_params(
        views[0].num_nodes, len(views), cfg.encoder, seed=0).items()}
    head = {"weights": (width,), "bias": (), "feature_mean": (width,), "feature_scale": (width,)}
    try:  # opened here, so a bad zip leaves no file handle open
        with open(path, "rb") as handle, np.lib.npyio.NpzFile(handle) as stored:
            members = {key: stored[key] for key in stored.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DatasetError(f"cannot read checkpoint {path}: {exc}") from None
    for key, shape in [*encoder.items(), *((f"head/{k}", v) for k, v in head.items())]:
        if key not in members or members[key].shape != shape or members[key].dtype != float:
            raise DatasetError(f"checkpoint {path} has no float64 {key!r} of shape {shape}")
    # [()] reads the 0-d bias as a float and leaves the vectors as they are
    predictor = rec.RatingPredictor(**{name: members[f"head/{name}"][()] for name in head})
    return _with_head(cfg, train_data, views, {key: members[key] for key in encoder}, [],
                      predictor)


def run_single(cfg: ExperimentConfig, run_index: int) -> RunResult:
    """One seeded pipeline: train embeddings, fit the head, score the test set."""
    return _run_prepared(cfg, prepared_data(cfg), run_index)


def _run_prepared(cfg: ExperimentConfig,
                  data: tuple[RatingDataset, RatingDataset],
                  run_index: int) -> RunResult:
    """`run_single` on an already prepared train/test pair."""
    seed = cfg.seed_base + run_index
    start = time.perf_counter()
    train_data, test_data = data
    try:
        model = fit(cfg, train_data, seed)
    except NonFiniteLossError:
        nan = float("nan")
        return RunResult(run_index, seed, nan, nan,
                         time.perf_counter() - start, nan, nan, failed=True)
    predictions = model.predict(test_data)
    trace = model.trace
    return RunResult(run_index, seed, mae(predictions, test_data.overall),
                     rmse(predictions, test_data.overall),
                     time.perf_counter() - start,
                     trace[0].l_total if trace else float("nan"),
                     trace[-1].l_total if trace else float("nan"))


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class MetricReport:
    variant: str
    ts_percent: int
    run_indices: tuple[int, ...]
    mae_runs: tuple[float, ...]
    rmse_runs: tuple[float, ...]
    failed_runs: int
    config: dict

    @property
    def label(self) -> str:
        return VARIANT_LABELS.get(self.variant, self.variant)

    @property
    def mae_mean(self) -> float:
        return float(np.mean(self.mae_runs))

    @property
    def mae_std(self) -> float:
        return float(np.std(self.mae_runs))

    @property
    def rmse_mean(self) -> float:
        return float(np.mean(self.rmse_runs))

    @property
    def rmse_std(self) -> float:
        return float(np.std(self.rmse_runs))

    def as_dict(self) -> dict:
        return {**asdict(self),
                **{name: getattr(self, name) for name in
                   ("label", "mae_mean", "mae_std", "rmse_mean", "rmse_std")}}


def aggregate_runs(cfg: ExperimentConfig, results: Sequence[RunResult]) -> MetricReport:
    """Failed runs are excluded from the statistics but counted."""
    kept = [r for r in results if not r.failed]
    if not kept:
        raise RuntimeError(f"all {len(results)} runs aborted on non-finite loss")
    return MetricReport(variant=cfg.variant, ts_percent=cfg.ts_percent,
                        run_indices=tuple(r.run_index for r in kept),
                        mae_runs=tuple(r.mae for r in kept),
                        rmse_runs=tuple(r.rmse for r in kept),
                        failed_runs=len(results) - len(kept),
                        config=config_as_dict(cfg))


def run_configs(configs: Sequence[ExperimentConfig],
                jobs: int = 1) -> Iterator[list[RunResult]]:
    """Every run of every config, serially or over one pool of `jobs` workers.

    Each distinct train/test pair (`data_key`) is prepared once, before the
    first run. Yields each config's results in run-index order, in config
    order, as soon as its runs and those of the configs before it have ended.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    firsts = {data_key(cfg): cfg for cfg in configs}  # one config per pair
    pairs = {key: prepared_data(cfg) for key, cfg in firsts.items()}
    tasks = [[(cfg, pairs[data_key(cfg)], i) for i in range(cfg.n_runs)]
             for cfg in configs]
    if jobs == 1:
        for runs in tasks:
            yield [_run_prepared(*task) for task in runs]
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:  # an error, here or in the consumer, cancels the runs not yet started
        futures = [[pool.submit(_run_prepared, *task) for task in runs]
                   for runs in tasks]
        for runs in futures:
            yield [future.result() for future in runs]
    finally:
        pool.shutdown(cancel_futures=True)


# one-config forms of `run_configs`, kept for the acceptance tests that import them

def experiment_runs(cfg: ExperimentConfig) -> list[RunResult]:
    [results] = run_configs([cfg])
    return results


def run_experiment(cfg: ExperimentConfig) -> MetricReport:
    return aggregate_runs(cfg, experiment_runs(cfg))


def run_ablation(cfg: ExperimentConfig, variant: str) -> MetricReport:
    return run_experiment(replace(cfg, variant=variant))


def baseline_report(cfg: ExperimentConfig, name: str) -> MetricReport:
    """Deterministic one-shot evaluation of a non-embedding baseline."""
    predictors = {
        "user_knn": rec.baseline_user_knn,
        "multi_user_knn": rec.baseline_multi_user_knn,
        "mlr": rec.baseline_mlr,
    }
    if name not in predictors:
        raise ValueError(f"unknown baseline {name!r}; choose from {sorted(predictors)}")
    train_data, test_data = prepared_data(cfg)
    predictions = predictors[name](train_data, test_data)
    return MetricReport(variant=name, ts_percent=cfg.ts_percent,
                        run_indices=(0,),
                        mae_runs=(mae(predictions, test_data.overall),),
                        rmse_runs=(rmse(predictions, test_data.overall),),
                        failed_runs=0, config=config_as_dict(cfg))


# ---------------------------------------------------------------------------
# sweeps

SENSITIVITY_WEIGHTS = (0.1, 0.5)
SENSITIVITY_LAMBDAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def sensitivity_configs(cfg: ExperimentConfig, alphas: Sequence[float],
                        betas: Sequence[float], lambdas: Sequence[float]
                        ) -> list[ExperimentConfig]:
    """One config per (alpha, beta, lambda) in grid order, each checked as it
    is built."""
    return [replace(cfg, loss=replace(cfg.loss, alpha=alpha, beta=beta, l2_weight=lam))
            for alpha in alphas for beta in betas for lam in lambdas]


def width_configs(cfg: ExperimentConfig, dims: Sequence[int]) -> list[ExperimentConfig]:
    """One config per fused width; the per-view width is dim / criteria count.
    A ratings file's criteria are counted from its header alone, so the runs
    parse the file once."""
    if cfg.dataset_path:
        available = header_criteria(cfg.dataset_path)
        num_criteria = _criteria_in_range(cfg.criteria_count or available, available)
    else:
        num_criteria = load_dataset(cfg).num_criteria
    heads = cfg.encoder.num_heads
    for dim in dims:
        if dim % num_criteria or (dim // num_criteria) % heads:
            raise ValueError(f"fused dimension {dim} does not divide into "
                             f"{num_criteria} views of {heads} heads")
    return [replace(cfg, encoder=replace(cfg.encoder, head_dim=dim // num_criteria // heads))
            for dim in dims]


# ---------------------------------------------------------------------------
# report files

class NonFiniteOutputError(RuntimeError, ValueError):
    """A NaN or infinity in a result about to be written: a numeric abort."""


def json_text(payload: dict) -> str:
    """`payload` as sorted, indented JSON; a NaN or infinity raises
    NonFiniteOutputError before anything is written."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"cannot write a non-finite result: {exc}") from None


def write_report_csv(reports: Sequence[MetricReport], path: str | Path) -> None:
    lines = ["variant,ts,run,mae,rmse"]
    for report in reports:
        for run, m, r in zip(report.run_indices, report.mae_runs,
                             report.rmse_runs):
            lines.append(f"{report.variant},{report.ts_percent},{run},{m!r},{r!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sensitivity_csv(reports: Sequence[MetricReport], path: str | Path) -> None:
    lines = ["alpha,beta,lambda,mae_mean,mae_std"]
    for r in reports:
        point = (r.config["alpha"], r.config["beta"], r.config["l2_weight"])
        lines.append(",".join(map(repr, (*point, r.mae_mean, r.mae_std))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# comparison table

# Best published figures for each method on the two public four-criteria
# benchmarks (MAE, RMSE on Yahoo!Movies; MAE, RMSE on BeerAdvocate). These are
# fixed reference constants for methods this package does not implement.
PUBLISHED_RESULTS = (
    ("BMF", 0.6289, 0.8646, 0.4394, 0.5858),
    ("MSVD", 0.6332, 0.8738, 0.4473, 0.5960),
    ("UserKNN", 0.9260, 1.2329, 0.6559, 0.8444),
    ("MLR", 0.6326, 0.8664, 0.4442, 0.5929),
    ("SVR", 0.6248, 0.8671, 0.4470, 0.5993),
    ("CIC", 0.6200, 0.8782, 0.4429, 0.5914),
    ("DMCF", 0.7012, 0.9139, 0.4698, 0.6240),
    ("DNN-MF", 0.6178, 0.8606, 0.4483, 0.6077),
    ("MCAE-FADNN", 0.6277, 0.8793, 0.4698, 0.6240),
    ("MultiUserKNN", 0.9319, 1.2396, 0.6572, 0.8441),
    ("CFM-user", 0.6184, 0.8802, 0.4403, 0.5904),
    ("CFM-item", 0.6127, 0.8433, 0.4408, 0.5904),
    ("D-MGAC", 0.6105, 0.7219, 0.4156, 0.5197),
)


def comparison_table(local_reports: Sequence[MetricReport] = ()) -> str:
    """Reference results next to any locally measured reports."""
    header = f"{'Algorithm':<14} {'Y!Movies MAE':>12} {'Y!Movies RMSE':>13} " \
             f"{'BeerAdv MAE':>12} {'BeerAdv RMSE':>13}"
    rule = "-" * len(header)
    lines = [header, rule]
    for name, ym, yr, bm, br in PUBLISHED_RESULTS:
        lines.append(f"{name:<14} {ym:>12.4f} {yr:>13.4f} {bm:>12.4f} {br:>13.4f}")
    if local_reports:
        lines.append(rule)
        lines.append(f"{'This machine':<14} {'MAE mean':>12} {'MAE std':>13} "
                     f"{'RMSE mean':>12} {'RMSE std':>13}")
        for report in local_reports:
            lines.append(f"{report.label:<14} {report.mae_mean:>12.4f} "
                         f"{report.mae_std:>13.4f} {report.rmse_mean:>12.4f} "
                         f"{report.rmse_std:>13.4f}")
    return "\n".join(lines) + "\n"
