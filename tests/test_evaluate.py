"""Experiment harness: metrics, configs, planted data, runs, sweeps, reports."""

import gc
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgraph import attention as att
from mcgraph import cli
from mcgraph import contrastive as cl
from mcgraph import dataset as ds
from mcgraph import evaluate as ev
from mcgraph import graph
from mcgraph import recommend as rec
from mcgraph.contrastive import LossConfig
from mcgraph.graph import build_views


def parse(text, base=ev.ExperimentConfig()):
    """`base` overridden by the flat `key = value` lines of `text`."""
    return ev.apply_config_values(base, ev.config_values(text))


class TestMetrics:
    def test_mae_hand_case(self):
        assert ev.mae([1.0, 4.0, 3.0], [2.0, 2.0, 3.0]) == 1.0

    def test_rmse_hand_case(self):
        assert_allclose(ev.rmse([1.0, 4.0, 3.0], [2.0, 2.0, 3.0]),
                        math.sqrt(5.0 / 3.0), rtol=0, atol=1e-15)

    def test_perfect_predictions_are_zero(self):
        assert ev.mae([3.0, 4.0], [3.0, 4.0]) == 0.0
        assert ev.rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ev.mae([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.rmse([], [])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=50),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mae_never_exceeds_rmse(self, actuals, seed):
        rng = np.random.default_rng(seed)
        preds = rng.uniform(-10, 10, size=len(actuals))
        assert ev.mae(preds, actuals) <= ev.rmse(preds, actuals) + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(42)
        preds = rng.uniform(1, 5, size=40)
        actuals = rng.uniform(1, 5, size=40)
        perm = rng.permutation(40)
        assert_allclose(ev.mae(preds[perm], actuals[perm]),
                        ev.mae(preds, actuals), rtol=0, atol=1e-15)
        assert_allclose(ev.rmse(preds[perm], actuals[perm]),
                        ev.rmse(preds, actuals), rtol=0, atol=1e-15)


class TestConfigRoundTrip:
    def test_format_then_parse_is_identity(self):
        cfg = ev.ExperimentConfig(variant="no_global_attention", n_runs=7,
                                  learning_rate=0.017)
        assert parse(ev.format_config(cfg)) == cfg

    def test_round_trip_preserves_float_bits(self):
        cfg = ev.ExperimentConfig(test_fraction=0.1 + 0.2)  # not representable as 0.3
        back = parse(ev.format_config(cfg))
        assert back.test_fraction == cfg.test_fraction

    def test_nested_sections_round_trip(self):
        cfg = ev.ExperimentConfig(
            loss=LossConfig(alpha=0.25, l2_weight=0.001, num_negatives=3),
            encoder=att.EncoderConfig(num_heads=4, feature_dim=16, head_dim=4))
        assert parse(ev.format_config(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        text = "# protocol notes\n\nn_runs = 3\n  # indented comment\nepochs = 5\n"
        cfg = parse(text)
        assert (cfg.n_runs, cfg.epochs) == (3, 5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse("momentum = 0.9\n")

    def test_missing_equals_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse("n_runs = 3\nepochs 5\n")

    def test_overrides_apply_on_base(self):
        base = ev.ExperimentConfig(n_runs=9)
        cfg = parse("variant = no_global_attention_no_cl\n", base)
        assert cfg.n_runs == 9
        assert cfg.variant == "no_global_attention_no_cl"

    def test_apply_values_coerces_types(self):
        cfg = ev.apply_config_values(ev.ExperimentConfig(),
                                     {"epochs": "12", "alpha": "0.75"})
        assert cfg.epochs == 12
        assert cfg.loss.alpha == 0.75

    def test_config_as_dict_covers_every_key(self):
        keys = [key for key, _, _, _ in ev._CONFIG_KEYS]
        assert list(ev.config_as_dict(ev.ExperimentConfig())) == keys

    @pytest.mark.parametrize("key, value", [
        ("clip_norm", "nan"), ("svr_regularization", "inf"),
        ("test_fraction", "-inf")])
    def test_non_finite_float_rejected_naming_key(self, key, value):
        with pytest.raises(ValueError, match=f"{key}.*must be finite"):
            ev.apply_config_values(ev.ExperimentConfig(), {key: value})

    def test_readme_lists_every_config_key(self):
        # the README section from "Config keys" to the next heading
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("\nConfig keys", 1)[1].split("\n#", 1)[0]
        listed = set(re.findall(r"`([a-z_0-9]+)`", section))
        keys = {key for key, _, _, _ in ev._CONFIG_KEYS} | set(ev._REMOVED_KEYS)
        assert listed == keys


class TestExperimentConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("learning_rate", 0.0), ("learning_rate", -0.1),
        ("learning_rate", float("nan")), ("epochs", 0), ("refresh_period", 0),
        ("clip_norm", 0.0), ("clip_norm", -1.0), ("clip_norm", float("nan")),
        ("n_runs", 0), ("variant", "bogus"), ("test_fraction", 0.0),
        ("test_fraction", 1.0), ("test_fraction", 1.5),
        ("test_fraction", float("nan")), ("ts_percent", 33),
        ("ts_percent", 0), ("criteria_count", -1)])
    def test_bad_value_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            ev.ExperimentConfig(**{name: value})

    def test_train_config_is_the_config_itself(self):
        cfg = ev.ExperimentConfig()
        assert cfg.train_config() is cfg


class TestPlantedDataset:
    def test_shapes_and_scale(self):
        data = ev.make_planted_dataset(seed=0)
        assert data.num_users == 50
        assert data.num_items == 30
        assert data.num_criteria == 3
        for r in data.records:
            assert 1.0 <= r.overall <= 5.0
            assert any(c > 0 for c in r.criteria)

    def test_same_seed_reproduces(self):
        a = ev.make_planted_dataset(seed=3)
        b = ev.make_planted_dataset(seed=3)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        a = ev.make_planted_dataset(seed=0)
        b = ev.make_planted_dataset(seed=1)
        assert a.records != b.records

    def test_overall_is_mean_of_rated_criteria(self):
        data = ev.make_planted_dataset(seed=5)
        for r in data.records:
            rated = [c for c in r.criteria if c > 0]
            assert_allclose(r.overall, np.mean(rated), rtol=0, atol=1e-12)

    def test_in_cluster_edges_dominate(self):
        # noise users rate either cluster alike; at seed 2 the count is
        # 412 in-cluster against 60 cross-cluster ratings
        data = ev.make_planted_dataset(seed=2)
        same = cross = 0
        for r in data.records:
            u = int(r.user_id[1:])
            v = int(r.item_id[1:])
            if u % 2 == v % 2:
                same += 1
            else:
                cross += 1
        assert same > 4 * cross


@pytest.mark.parametrize("seed, digest", [
    (0, "138e4178c298d61c536b97dd7536c8076b3dd5bf868db24f357ff643d71374bf"),
    # the acceptance data: ExperimentConfig().split_seed
    (7, "391875b57837e02c41c71ba2c8737f47ad35583fa4079725adfa827c6360f05c"),
])
def test_planted_data_is_pinned(seed, digest):
    # every rating of the planted generator, so a changed constant shows
    assert ds.content_digest(ev.make_planted_dataset(seed=seed)) == digest


class TestRestrict:
    def test_restrict_criteria_truncates(self):
        data = ev.make_planted_dataset(seed=0)
        cut = ev.restrict_criteria(data, 2)
        assert cut.num_criteria == 2
        assert cut.records[0].criteria == data.records[0].criteria[:2]

    def test_restrict_criteria_keeps_overall(self):
        data = ev.make_planted_dataset(seed=0)
        cut = ev.restrict_criteria(data, 1)
        for before, after in zip(data.records, cut.records):
            assert after.overall == before.overall

    def test_restrict_criteria_full_count_is_same_object(self):
        data = ev.make_planted_dataset(seed=0)
        assert ev.restrict_criteria(data, 3) is data

    def test_restrict_criteria_bad_count(self):
        data = ev.make_planted_dataset(seed=0)
        with pytest.raises(ValueError, match="criteria count"):
            ev.restrict_criteria(data, 0)
        with pytest.raises(ValueError, match="criteria count"):
            ev.restrict_criteria(data, 4)

    def test_restrict_users_subsamples(self):
        data = ev.make_planted_dataset(seed=0)
        small = ev.restrict_users(data, 10, seed=1)
        assert small.num_users == 10

    def test_restrict_users_noop_when_small(self):
        data = ev.make_planted_dataset(seed=0)
        assert ev.restrict_users(data, 500) is data

    def test_restrict_users_bad_count(self):
        data = ev.make_planted_dataset(seed=0)
        with pytest.raises(ValueError, match="positive"):
            ev.restrict_users(data, 0)


def fast_config(**overrides):
    """Planted-data config small enough for unit tests."""
    defaults = dict(n_runs=2, epochs=3,
                    encoder=att.EncoderConfig(num_heads=2, feature_dim=8,
                                              head_dim=4))
    defaults.update(overrides)
    return ev.ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_report_statistics_recompute(self):
        report = ev.run_experiment(fast_config(n_runs=3))
        assert_allclose(report.mae_mean, np.mean(report.mae_runs),
                        rtol=0, atol=1e-12)
        assert_allclose(report.mae_std, np.std(report.mae_runs),
                        rtol=0, atol=1e-12)
        assert_allclose(report.rmse_mean, np.mean(report.rmse_runs),
                        rtol=0, atol=1e-12)
        assert all(m <= r + 1e-12 for m, r in zip(report.mae_runs,
                                                  report.rmse_runs))

    def test_single_run_has_zero_std(self):
        report = ev.run_experiment(fast_config(n_runs=1))
        assert report.mae_std == 0.0
        assert report.rmse_std == 0.0

    def test_runs_are_seeded_from_base(self):
        results = ev.experiment_runs(fast_config(seed_base=5, n_runs=3))
        assert [r.seed for r in results] == [5, 6, 7]
        assert [r.run_index for r in results] == [0, 1, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_data_is_prepared_once_per_experiment(self, monkeypatch, jobs):
        cfg = fast_config(seed_base=3, n_runs=3)
        expected = [replace(ev.run_single(cfg, i), wall_clock=0.0) for i in range(3)]
        real, parent, callers = ev.prepared_data, os.getpid(), []

        def counting(config):
            callers.append(os.getpid())  # a forked worker appends to its own copy
            if os.getpid() != parent:
                raise AssertionError("a worker prepared the data again")
            return real(config)
        monkeypatch.setattr(ev, "prepared_data", counting)
        [results] = ev.run_configs([cfg], jobs)
        assert callers == [parent]
        assert [replace(r, wall_clock=0.0) for r in results] == expected

    def test_deterministic_across_calls(self):
        a = ev.run_experiment(fast_config())
        b = ev.run_experiment(fast_config())
        assert a.mae_runs == b.mae_runs
        assert a.rmse_runs == b.rmse_runs

    def test_loss_trace_recorded(self):
        results = ev.experiment_runs(fast_config(n_runs=1))
        assert math.isfinite(results[0].first_loss)
        assert math.isfinite(results[0].final_loss)

    def test_csv_dataset_path_runs(self, tmp_path):
        data = ev.restrict_users(ev.make_planted_dataset(seed=0), 15, seed=0)
        path = tmp_path / "ratings.csv"
        ds.save_ratings(data, path)
        report = ev.run_experiment(fast_config(dataset_path=str(path), n_runs=1))
        assert math.isfinite(report.mae_mean)

    def test_failed_runs_excluded_but_counted(self, monkeypatch):
        cfg = fast_config(n_runs=3)
        real = ev._run_prepared

        def flaky(config, data, run_index):
            result = real(config, data, run_index)
            if run_index == 1:
                nan = float("nan")
                return ev.RunResult(run_index, result.seed, nan, nan,
                                    0.0, nan, nan, failed=True)
            return result

        monkeypatch.setattr(ev, "_run_prepared", flaky)
        report = ev.run_experiment(cfg)
        assert report.failed_runs == 1
        assert report.run_indices == (0, 2)
        assert all(math.isfinite(m) for m in report.mae_runs)

    def test_all_failed_raises(self, monkeypatch):
        def broken(config, data, run_index):
            nan = float("nan")
            return ev.RunResult(run_index, run_index, nan, nan, 0.0,
                                nan, nan, failed=True)

        monkeypatch.setattr(ev, "_run_prepared", broken)
        with pytest.raises(RuntimeError, match="aborted"):
            ev.run_experiment(fast_config())

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="n_runs"):
            ev.experiment_runs(fast_config(n_runs=0))

    def test_parallel_matches_serial(self):
        cfg = fast_config()
        [serial], [parallel] = (ev.run_configs([cfg], jobs) for jobs in (1, 2))
        assert ([replace(r, wall_clock=0.0) for r in serial]
                == [replace(r, wall_clock=0.0) for r in parallel])

    def test_ts_percent_subsets_training(self):
        full = ev.prepared_data(fast_config())[0]
        half = ev.prepared_data(fast_config(ts_percent=60))[0]
        assert len(half) == (60 * len(full)) // 100


class TestFit:
    def test_predict_matches_per_record_oracle(self):
        cfg = fast_config()
        train_data, test_data = ev.prepared_data(cfg)
        model = ev.fit(cfg, train_data, seed=0)
        predicted = model.predict(test_data)
        fused = model.fused
        for pos, r in enumerate(test_data.records):
            features = np.concatenate([
                fused.matrix[train_data.user_index[r.user_id]],
                fused.matrix[fused.num_users + train_data.item_index[r.item_id]]])
            raw = float(model.predictor.raw(features[None, :])[0])
            expected = min(max(raw, rec.RATING_MIN), rec.RATING_MAX)
            assert abs(predicted[pos] - expected) <= 1e-12

    def test_unseen_pairs_get_train_mean(self):
        cfg = fast_config(ts_percent=40)
        train_data, test_data = ev.prepared_data(cfg)
        unseen = [pos for pos, r in enumerate(test_data.records)
                  if r.user_id not in train_data.user_index
                  or r.item_id not in train_data.item_index]
        assert unseen  # the 40% segment drops every rating of some test ids
        predicted = ev.fit(cfg, train_data, seed=0).predict(test_data)
        mean = np.mean([r.overall for r in train_data.records])
        assert np.all(predicted[unseen] == mean)


    @pytest.mark.parametrize("variant", ev.VARIANTS)
    def test_saved_model_predicts_as_fitted(self, tmp_path, variant):
        cfg = fast_config(variant=variant)
        train_data, test_data = ev.prepared_data(cfg)
        model = ev.fit(cfg, train_data, seed=2)
        ev.save_model(model, tmp_path / "model.npz")
        loaded = ev.load_model(cfg, train_data, tmp_path / "model.npz")
        assert np.array_equal(loaded.predict(test_data), model.predict(test_data))

    @pytest.mark.parametrize("variant", ev.VARIANTS)
    def test_one_block_graph_per_fit_and_per_load(self, tmp_path, monkeypatch, variant):
        real, built = graph.block_graph, []

        def counting(views):
            built.append(views)
            return real(views)
        # under every name a module looked it up by
        for name, module in list(sys.modules.items()):
            if name == "mcgraph" or name.startswith("mcgraph."):
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, counting)
        cfg = fast_config(variant=variant)
        train_data, _ = ev.prepared_data(cfg)
        model = ev.fit(cfg, train_data, seed=1)
        assert len(built) == 1
        ev.save_model(model, tmp_path / "model.npz")
        ev.load_model(cfg, train_data, tmp_path / "model.npz")
        assert len(built) == 2

    def test_train_and_head_encode_on_the_views_block(self, monkeypatch):
        made, graphs = [], []
        build, encode = ev.build_views, att.encode_stack

        def building(data):
            made.append(build(data))
            return made[-1]

        def encoding(blocks, *args):
            graphs.append(blocks)
            return encode(blocks, *args)
        monkeypatch.setattr(ev, "build_views", building)
        monkeypatch.setattr(att, "encode_stack", encoding)
        cfg = fast_config()
        ev.fit(cfg, ev.prepared_data(cfg)[0], seed=0)
        assert len(made) == 1 and len(graphs) == cfg.epochs + 1
        assert all(blocks is made[0].block for blocks in graphs)

    def test_a_fit_leaves_no_reference_cycle(self):
        cfg = fast_config()
        train_data, _ = ev.prepared_data(cfg)
        gc.collect()
        gc.disable()  # so that no collection runs before the check
        try:
            views = build_views(train_data)
            params, trace = cl.train(views, cfg, seed=0)
            model = ev._with_head(cfg, train_data, views, params, trace)
            embeddings = [att.encode_view(v, params, cfg.encoder) for v in views]
            del views, params, trace, model, embeddings
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_benchmark_scale_calls_match_fit(self):
        # perfbench's scale workload drives the pipeline through these calls
        # itself; its own tests are not part of the tier-1 suite
        cfg = fast_config()
        seed = cfg.seed_base
        train_data, test_data = ev.prepared_data(cfg)
        views = build_views(train_data)
        train_cfg = cfg.train_config()
        params, _ = cl.train(views, train_cfg, seed, epochs=3)
        matrices = [att.encode_view(v, params, cfg.encoder,
                                    train_cfg.use_global_attention).matrix
                    for v in views]
        fused = rec.fuse(matrices, train_data.num_users)
        predictor = rec.train_predictor(fused, train_data, cfg.predictor, seed=seed)
        users, items = ds.pair_codes(train_data, test_data)
        assert np.all(users >= 0) and np.all(items >= 0)
        predictions = rec.predict_many(predictor, fused, users, items)
        expected = ev.fit(cfg, train_data, seed).predict(test_data)
        assert np.array_equal(predictions, expected)


class TestAblation:
    def test_variant_stamped_into_report(self):
        report = ev.run_ablation(fast_config(), "no_global_attention")
        assert report.variant == "no_global_attention"
        assert report.label == "D-MGAC*"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            ev.run_ablation(fast_config(), "no_dropout")

    def test_labels_cover_all_variants(self):
        assert [ev.VARIANT_LABELS[v] for v in ev.VARIANTS] == [
            "D-MGAC", "D-MGAC*", "D-MGAC*-"]


class TestBaselineReport:
    def test_known_baselines_finite(self):
        cfg = fast_config()
        for name in ("user_knn", "multi_user_knn", "mlr"):
            report = ev.baseline_report(cfg, name)
            assert math.isfinite(report.mae_mean)
            assert report.variant == name
            assert report.failed_runs == 0

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            ev.baseline_report(fast_config(), "item_knn")

    def test_deterministic(self):
        a = ev.baseline_report(fast_config(), "user_knn")
        b = ev.baseline_report(fast_config(), "user_knn")
        assert a.mae_runs == b.mae_runs


def refuse_runs(*args):
    raise AssertionError("a run started")


# the settings `prepared_data` reads
PAIR_KEYS = ("dataset_path", "criteria_count", "test_fraction", "split_seed", "ts_percent")


class TestPairKey:
    OTHER = {int: lambda v: v + 1, float: lambda v: v / 2,
             str: lambda v: "no_global_attention"}  # variant is the one str

    @pytest.mark.parametrize("key", [key for key, _, _, _ in ev._CONFIG_KEYS
                                     if key not in PAIR_KEYS])
    def test_other_keys_share_the_pair(self, key):
        base = fast_config()
        value = ev.config_as_dict(base)[key]
        changed = ev.apply_config_values(base, {key: self.OTHER[type(value)](value)})
        assert changed != base
        assert ev.data_key(changed) == ev.data_key(base)
        assert ev.prepared_data(changed) == ev.prepared_data(base)

    @pytest.mark.parametrize("key, value", [
        ("dataset_path", "ratings.csv"), ("criteria_count", 2),
        ("test_fraction", 0.3), ("split_seed", 8), ("ts_percent", 60)])
    def test_each_pair_key_names_its_own_pair(self, key, value):
        base = fast_config()
        assert ev.data_key(ev.apply_config_values(base, {key: value})) != ev.data_key(base)


@pytest.fixture
def shutdowns(monkeypatch):
    """The `cancel_futures` flag of every pool shutdown `run_configs` makes."""
    flags = []

    class Recording(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            flags.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)
    monkeypatch.setattr(ev, "ProcessPoolExecutor", Recording)
    return flags


class TestRunConfigs:
    def test_pairs_prepared_once_each_before_the_first_run(self, monkeypatch):
        configs = [fast_config(n_runs=1, variant=v, ts_percent=ts)
                   for ts in (60, 100) for v in ev.VARIANTS]
        events, real_prepare, real_run = [], ev.prepared_data, ev._run_prepared

        def preparing(cfg):
            events.append(("prepare", ev.data_key(cfg)))
            return real_prepare(cfg)

        def running(cfg, data, run_index):
            events.append(("run", cfg.variant))
            return real_run(cfg, data, run_index)
        monkeypatch.setattr(ev, "prepared_data", preparing)
        monkeypatch.setattr(ev, "_run_prepared", running)
        results = list(ev.run_configs(configs))
        assert [kind for kind, _ in events] == ["prepare"] * 2 + ["run"] * 6
        assert [key for _, key in events[:2]] == [ev.data_key(configs[0]),
                                                  ev.data_key(configs[3])]
        expected = [[replace(ev.run_single(cfg, 0), wall_clock=0.0)] for cfg in configs]
        assert [[replace(r, wall_clock=0.0) for r in runs] for runs in results] == expected

    def test_yields_each_config_in_order(self):
        configs = [fast_config(n_runs=n, seed_base=5 * n) for n in (1, 3, 2)]
        for runs, cfg in zip(ev.run_configs(configs, jobs=2), configs):
            assert [r.seed for r in runs] == [cfg.seed_base + i for i in range(cfg.n_runs)]

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            next(ev.run_configs([fast_config()], jobs=0))

    def test_stopped_consumer_cancels_the_pool(self, shutdowns):
        runner = ev.run_configs([fast_config(n_runs=1, variant=v) for v in ev.VARIANTS],
                                jobs=2)
        next(runner)
        runner.close()
        assert shutdowns == [True]

    def test_failed_run_cancels_the_pool_and_raises(self, tmp_path, shutdowns):
        data = ev.make_planted_dataset(seed=0)
        unrated = data.criteria.copy()
        unrated[:, 2] = 0.0  # nobody rates criterion 3, so its view has no anchor
        path = tmp_path / "unrated.csv"
        ds.save_ratings(ds.RatingDataset(data.user_ids, data.item_ids, data.users,
                                         data.items, data.overall, unrated), path)
        with pytest.raises(ds.DatasetError, match="view 3"):
            list(ev.run_configs([fast_config(dataset_path=str(path))], jobs=2))
        assert shutdowns == [True]


class TestSweeps:
    def test_sensitivity_grid_cardinality(self):
        configs = ev.sensitivity_configs(fast_config(n_runs=1), alphas=(0.1, 0.5),
                                         betas=(0.5,), lambdas=(0.2, 0.4))
        assert [(c.loss.alpha, c.loss.beta, c.loss.l2_weight) for c in configs] == [
            (0.1, 0.5, 0.2), (0.1, 0.5, 0.4), (0.5, 0.5, 0.2), (0.5, 0.5, 0.4)]

    def test_sensitivity_defaults_span_32_points(self):
        assert len(ev.sensitivity_configs(fast_config(), ev.SENSITIVITY_WEIGHTS,
                                          ev.SENSITIVITY_WEIGHTS,
                                          ev.SENSITIVITY_LAMBDAS)) == 32

    def test_sensitivity_point_config_reflects_overrides(self):
        base = fast_config(n_runs=1)
        configs = ev.sensitivity_configs(base, alphas=(0.1,), betas=(0.5,),
                                         lambdas=(0.3,))
        [runs] = ev.run_configs(configs)
        cfg = ev.aggregate_runs(configs[0], runs).config
        assert (cfg["alpha"], cfg["beta"], cfg["l2_weight"]) == (0.1, 0.5, 0.3)
        assert cfg == {**ev.config_as_dict(base), "alpha": 0.1, "beta": 0.5,
                       "l2_weight": 0.3}

    def test_sensitivity_bad_weight_fails_as_its_config_is_built(self):
        with pytest.raises(ValueError, match="alpha"):
            ev.sensitivity_configs(fast_config(), (0.1, -1.0), (0.5,), (0.2,))

    def test_embedding_dim_sets_per_view_width(self):
        configs = ev.width_configs(fast_config(n_runs=1), dims=(12, 24))
        assert [c.encoder.head_dim for c in configs] == [2, 4]  # 12 / 3 views / 2 heads
        reports = [ev.aggregate_runs(c, runs)
                   for c, runs in zip(configs, ev.run_configs(configs))]
        assert [r.config["head_dim"] for r in reports] == [2, 4]

    def test_embedding_dim_must_divide(self):
        with pytest.raises(ValueError, match="does not divide"):
            ev.width_configs(fast_config(n_runs=1), dims=(10,))

    def test_criteria_counts_same_seeds(self):
        base = fast_config(n_runs=2)
        full, swept, one = ev.run_configs([base] + [replace(base, criteria_count=c)
                                                    for c in (3, 1)])
        assert [r.seed for r in swept] == [r.seed for r in one] == [0, 1]
        assert [r.mae for r in swept] == [r.mae for r in full]

    def test_criteria_count_validated_upfront(self, monkeypatch):
        monkeypatch.setattr(ev, "_run_prepared", refuse_runs)
        configs = [fast_config(n_runs=1, criteria_count=c) for c in (1, 9)]
        with pytest.raises(ValueError, match="criteria count 9 outside 1..3"):
            list(ev.run_configs(configs))


class TestReportFiles:
    def test_json_report_round_trips(self, tmp_path):
        report = ev.run_experiment(fast_config(n_runs=1))
        path = tmp_path / "report.json"
        cli._write_json(report.as_dict(), path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["variant"] == report.variant
        assert loaded["mae_runs"] == list(report.mae_runs)
        assert "wall_clock_runs" not in loaded

    def test_nan_in_report_raises_before_writing(self, tmp_path):
        report = ev.MetricReport("full", 100, (0,), (float("nan"),), (0.5,), 0, {})
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="JSON"):
            cli._write_json(report.as_dict(), path)
        assert not path.exists()

    def test_json_report_keys(self, tmp_path):
        report = ev.MetricReport("full", 100, (0, 1), (0.5, 0.7), (0.6, 0.9), 1, {"epochs": 3})
        path = tmp_path / "report.json"
        cli._write_json(report.as_dict(), path)
        assert set(json.loads(path.read_text(encoding="utf-8"))) == {
            "variant", "label", "ts_percent", "run_indices", "mae_runs", "rmse_runs",
            "mae_mean", "mae_std", "rmse_mean", "rmse_std", "failed_runs", "config"}

    def test_json_report_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli._write_json(ev.run_experiment(fast_config()).as_dict(), a)
        cli._write_json(ev.run_experiment(fast_config()).as_dict(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_report_layout(self, tmp_path):
        report = ev.run_experiment(fast_config())
        path = tmp_path / "runs.csv"
        ev.write_report_csv([report], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "variant,ts,run,mae,rmse"
        assert len(lines) == 1 + len(report.mae_runs)
        first = lines[1].split(",")
        assert first[0] == report.variant
        assert float(first[3]) == report.mae_runs[0]

    def test_csv_floats_survive_round_trip(self, tmp_path):
        report = ev.run_experiment(fast_config(n_runs=1))
        path = tmp_path / "runs.csv"
        ev.write_report_csv([report], path)
        value = path.read_text(encoding="utf-8").splitlines()[1].split(",")[3]
        assert float(value) == report.mae_runs[0]

    def test_sensitivity_csv_layout(self, tmp_path):
        configs = ev.sensitivity_configs(fast_config(n_runs=1), alphas=(0.1,),
                                         betas=(0.5,), lambdas=(0.2,))
        reports = [ev.aggregate_runs(c, runs)
                   for c, runs in zip(configs, ev.run_configs(configs))]
        path = tmp_path / "sens.csv"
        ev.write_sensitivity_csv(reports, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha,beta,lambda,mae_mean,mae_std"
        assert lines[1].startswith("0.1,0.5,0.2,")

    def test_timing_kept_in_memory_only(self):
        cfg = fast_config(n_runs=1)
        runs = ev.experiment_runs(cfg)
        assert len(runs) == 1 and runs[0].wall_clock > 0
        report = ev.aggregate_runs(cfg, runs)
        assert not any("wall" in key for key in report.as_dict())


class TestComparisonTable:
    def test_reference_rows_present(self):
        table = ev.comparison_table()
        assert "D-MGAC" in table
        assert "0.6105" in table
        assert "UserKNN" in table

    def test_local_reports_appended(self):
        report = ev.run_experiment(fast_config(n_runs=1))
        table = ev.comparison_table([report])
        assert "This machine" in table
        assert report.label in table

    def test_thirteen_reference_methods(self):
        assert len(ev.PUBLISHED_RESULTS) == 13
