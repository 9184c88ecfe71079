"""Command-line surface: exit codes, precedence, artifacts, determinism."""

import argparse
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgraph import cli
from mcgraph import dataset as ds
from mcgraph import evaluate as ev
from mcgraph.contrastive import NonFiniteLossError

FAST_CFG = "n_runs = 2\nepochs = 3\n"

# the flags each command and each sweep kind takes: those it reads
_TRAIN = {"--data", "--config", "--seed", "--variant", "--ts", "--criteria", "--out"}
_SWEEP = {"--data", "--config", "--seed", "--variant", "--runs", "--jobs", "--out"}
COMMAND_FLAGS = {
    "ingest": {"--data", "--config", "--out", "--scale"},
    "stats": {"--data", "--config", "--criteria"},
    "train": _TRAIN,
    "predict": _TRAIN,
    "evaluate": _TRAIN | {"--runs", "--jobs"},
    "ablate": _TRAIN - {"--variant"} | {"--runs", "--jobs"},
    "sweep sensitivity": _SWEEP | {"--ts", "--criteria", "--alphas", "--betas", "--lambdas"},
    "sweep dims": _SWEEP | {"--ts", "--criteria", "--dims"},
    "sweep ts": _SWEEP | {"--criteria"},
    "sweep criteria": _SWEEP | {"--ts", "--counts"},
}


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG, encoding="utf-8")
    return str(path)


@pytest.fixture
def no_reads(monkeypatch):
    """Every way a command reads its ratings raises."""
    def refuse(*args):
        raise AssertionError("the command read its data")
    monkeypatch.setattr(ev, "prepared_data", refuse)
    monkeypatch.setattr(ev, "load_dataset", refuse)
    monkeypatch.setattr(ds, "load_ratings", refuse)


@pytest.fixture
def ratings_csv(tmp_path):
    data = ev.restrict_users(ev.make_planted_dataset(seed=0), 12, seed=0)
    path = tmp_path / "ratings.csv"
    ds.save_ratings(data, path)
    return str(path)


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_no_command_is_usage(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["sweep", *COMMAND_FLAGS],
                             ids=lambda command: command.replace(" ", "_"))
    def test_command_help_exits_zero(self, capsys, command):
        assert cli.main([*command.split(), "--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: mcgraph {command}")

    def test_missing_data_file_is_data_error(self, capsys):
        assert cli.main(["stats", "--data", "/no/such/file.csv"]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_directory_as_data_is_data_error(self, tmp_path, capsys):
        assert cli.main(["stats", "--data", str(tmp_path)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert f"data error: cannot read {tmp_path} as UTF-8 text" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_non_utf8_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("user_id,item_id,overall,c1\nu1,caf\xe9,4,4\n"
                        .encode("latin-1"))
        assert cli.main(["stats", "--data", str(bad)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: cannot read {bad} as UTF-8 text" in err
        assert "codec can't decode" in err

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,overall,c1\nu1,i1,not_a_number,3\n",
                       encoding="utf-8")
        assert cli.main(["stats", "--data", str(bad)]) == cli.EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("rows, named", [
        ("u1,i1,4,4\nu1,i2,nan,3\nu2,i1,5,inf\n", "line 3:"),
        ("u1,i1,4,4\n\nu2,i1,5,-1\n", "line 4:"),
        ('"u\n1",i1,4,4\nu2,i1,5,-1\n', "line 4:"),
        ('u1,i1,4,4\n"u2,i1,5,4\n' + "".join(f"u{k},i1,4,4\n" for k in range(15_000)),
         "line 3: unreadable row: field larger than field limit"),
    ], ids=["nan_then_inf", "negative_after_blank_line",
            "negative_after_two_line_id", "runaway_quote"])
    def test_invalid_rating_is_data_error_naming_line(self, tmp_path, capsys,
                                                       rows, named):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,overall,c1\n" + rows, encoding="utf-8")
        assert cli.main(["stats", "--data", str(bad)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert f"data error: {named}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unopenable_data_path_is_data_error(self, tmp_path, capsys):
        long_name = tmp_path / ("x" * 300 + ".csv")
        assert cli.main(["stats", "--data", str(long_name)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert f"data error: cannot read {long_name}: " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unrated_criterion_is_data_error(self, tmp_path, ratings_csv,
                                             fast_cfg, capsys):
        rows = [line.split(",") for line in
                Path(ratings_csv).read_text(encoding="utf-8").splitlines()]
        c3 = rows[0].index("c3")
        for row in rows[1:]:
            row[c3] = "0"  # nobody rated c3, so view 3 has no edge
        unrated = tmp_path / "unrated.csv"
        unrated.write_text("\n".join(",".join(r) for r in rows) + "\n",
                           encoding="utf-8")
        common = ["--data", str(unrated), "--config", fast_cfg]
        run = tmp_path / "run"
        assert cli.main(["train", *common, "--out", str(run)]) == cli.EXIT_DATA
        assert "data error: view 3: every node is isolated" in capsys.readouterr().err
        # the failed train left no model, so predict has nothing to score
        assert cli.main(["predict", *common, "--out", str(run)]) == cli.EXIT_DATA
        assert f"data error: cannot read {run / 'train.json'}" in capsys.readouterr().err
        assert not run.exists()
        assert cli.main(["stats", "--data", str(unrated)]) == cli.EXIT_OK
        assert cli.main(["train", *common, "--variant",
                         "no_global_attention_no_cl", "--out",
                         str(tmp_path / "no_cl")]) == cli.EXIT_OK
        capsys.readouterr()

    def test_empty_train_split_is_data_error(self, tmp_path, fast_cfg,
                                             monkeypatch, capsys):
        data = ev.make_planted_dataset(seed=0)
        none = np.zeros(0, dtype=np.intp)
        empty = ds.RatingDataset(data.user_ids, data.item_ids, none, none,
                                 np.zeros(0), np.zeros((0, data.num_criteria)))
        monkeypatch.setattr(ev, "prepared_data", lambda cfg: (empty, empty))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--out", str(out)]) \
            == cli.EXIT_DATA
        assert "data error: cannot build graph views from an empty dataset" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [{"mae": float("nan")},
                                         {"runs": [1.0, float("inf")]}])
    def test_non_finite_json_raises_before_writing(self, tmp_path, payload):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="JSON"):
            cli._write_json(payload, path)
        assert not path.exists()

    def test_non_finite_stats_print_nothing(self, monkeypatch, capsys):
        stats = ds.DatasetStats(1.0, 1.0, 0.5, 3, float("nan"))
        monkeypatch.setattr(ds, "compute_stats", lambda data: stats)
        assert cli.main(["stats"]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric abort: cannot write a non-finite")

    def test_non_finite_artifact_is_numeric_abort(self, tmp_path, ratings_csv,
                                                  monkeypatch, capsys):
        stats = ds.DatasetStats(1.0, float("nan"), 0.5, 3, 1.0)
        monkeypatch.setattr(ds, "compute_stats", lambda data: stats)
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", ratings_csv, "--out", str(out)]) \
            == cli.EXIT_NUMERIC
        assert "numeric abort: cannot write a non-finite result" \
            in capsys.readouterr().err
        assert not (out / "ingest.json").exists()

    def test_closed_stdout_ends_quietly(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            assert cli.main(["stats"]) == cli.EXIT_OK
            # the descriptor now writes to os.devnull, so a later flush cannot fail
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_stats_into_a_closed_pipe_exits_zero_without_traceback(self):
        paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.Popen([sys.executable, "-m", "mcgraph", "stats"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        proc.stdout.close()  # as `| head -3` does once it has its lines
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_OK
        assert err == b""

    @pytest.mark.parametrize("line, field", [
        ("clip_norm = -1", "clip_norm"),
        ("refresh_period = 0", "refresh_period"),
        ("epochs = 0", "epochs"),
        ("learning_rate = 0", "learning_rate"),
        ("num_heads = 0", "num_heads"),
        ("head_dim = 0", "head_dim"),
        ("alpha = -1.0", "alpha"),
        ("beta = -1.0", "beta"),
        ("l2_weight = -0.5", "l2_weight"),
        ("clip_norm = nan", "clip_norm"),
        ("svr_regularization = inf", "svr_regularization"),
        ("pos_threshold = 2", "pos_threshold"),
        ("neg_threshold = -1.5", "neg_threshold"),
    ])
    def test_invalid_training_value_is_usage_naming_field(self, tmp_path, capsys,
                                                          line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out",
                         str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("usage error:") and field in last
        assert not out.exists()

    @pytest.mark.parametrize("line, field", [
        ("svr_epochs = -3", "epochs"),
        ("svr_epsilon = -0.5", "epsilon"),
        ("svr_regularization = -1", "regularization"),
    ])
    def test_invalid_predictor_value_is_usage_naming_field(self, tmp_path, capsys,
                                                           line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["predict", "--config", str(cfg), "--out",
                         str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"usage error: predictor {field} must be")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["svr_batch_size", "svr_learning_rate"])
    def test_removed_predictor_key_is_usage_naming_removal(self, tmp_path,
                                                           capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(FAST_CFG + f"{key} = 32\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["predict", "--config", str(cfg), "--out",
                         str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"usage error: config key {key!r} was removed")
        assert not out.exists()

    @pytest.mark.parametrize("flags, env, line, key", [
        (["--seed", "-1"], None, "", "seed_base"),
        ([], "-2", "", "seed_base"),
        ([], None, "split_seed = -1\n", "split_seed"),
    ], ids=["seed_flag", "env_seed", "config_split_seed"])
    def test_negative_seed_is_usage_naming_key(self, tmp_path, monkeypatch,
                                               capsys, flags, env, line, key):
        if env is not None:
            monkeypatch.setenv("MCGRAPH_SEED", env)
        cfg = tmp_path / "seeds.cfg"
        cfg.write_text(FAST_CFG + line, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), *flags, "--out",
                         str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("usage error:") and key in last
        assert not out.exists()

    def test_unknown_config_key_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n", encoding="utf-8")
        assert cli.main(["evaluate", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_file_is_usage(self, capsys):
        assert cli.main(["evaluate", "--config", "/no/such.cfg"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_unopenable_config_path_is_usage(self, tmp_path, capsys):
        long_name = tmp_path / ("x" * 300 + ".cfg")
        assert cli.main(["evaluate", "--config", str(long_name)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert f"usage error: cannot read config file {long_name}: " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_bad_variant_flag_is_usage(self, capsys):
        assert cli.main(["evaluate", "--variant", "no_dropout"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_bad_ts_flag_is_usage(self, capsys):
        assert cli.main(["evaluate", "--ts", "55"]) == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_is_usage(self, capsys, jobs):
        assert cli.main(["evaluate", "--jobs", jobs]) == cli.EXIT_USAGE
        assert "jobs must be at least 1" in capsys.readouterr().err

    def test_numeric_abort_from_all_failed_runs(self, tmp_path, fast_cfg,
                                                monkeypatch, capsys):
        def broken(cfg, data, run_index):
            nan = float("nan")
            return ev.RunResult(run_index, run_index, nan, nan, 0.0, nan, nan,
                                failed=True)

        monkeypatch.setattr(ev, "_run_prepared", broken)
        code = cli.main(["evaluate", "--config", fast_cfg,
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        assert "numeric abort" in capsys.readouterr().err

    def test_numeric_abort_from_diverged_training(self, tmp_path, fast_cfg,
                                                  monkeypatch, capsys):
        def diverge(views, cfg, seed, epochs=None):
            raise NonFiniteLossError(1, None)

        monkeypatch.setattr(ev, "train", diverge)
        code = cli.main(["train", "--config", fast_cfg,
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        capsys.readouterr()


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        code = cli.main(["evaluate", "--config", fast_cfg, "--runs", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads((out / "report_full.json").read_text())
        assert len(report["mae_runs"]) == 1
        capsys.readouterr()

    def test_flag_replaces_a_bad_file_value_before_it_is_checked(
            self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + "n_runs = 0\nvariant = bogus\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["evaluate", "--config", str(cfg), "--runs", "1",
                         "--variant", "full", "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "report_full.json").read_text())
        assert len(report["mae_runs"]) == 1
        capsys.readouterr()

    def test_env_seed_is_default(self, tmp_path, fast_cfg, monkeypatch, capsys):
        monkeypatch.setenv("MCGRAPH_SEED", "9")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        assert json.loads((out / "train.json").read_text())["seed"] == 9
        capsys.readouterr()

    def test_seed_flag_beats_env(self, tmp_path, fast_cfg, monkeypatch, capsys):
        monkeypatch.setenv("MCGRAPH_SEED", "9")
        out = tmp_path / "out"
        cli.main(["train", "--config", fast_cfg, "--seed", "4",
                  "--out", str(out)])
        assert json.loads((out / "train.json").read_text())["seed"] == 4
        capsys.readouterr()

    def test_config_file_seed_beats_env(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(FAST_CFG + "seed_base = 2\n", encoding="utf-8")
        monkeypatch.setenv("MCGRAPH_SEED", "9")
        out = tmp_path / "out"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        assert json.loads((out / "train.json").read_text())["seed"] == 2
        capsys.readouterr()

    def test_bad_env_seed_is_usage(self, fast_cfg, monkeypatch, capsys):
        monkeypatch.setenv("MCGRAPH_SEED", "lucky")
        assert cli.main(["train", "--config", fast_cfg]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_artifacts_embed_effective_config(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        cli.main(["evaluate", "--config", fast_cfg, "--runs", "1",
                  "--variant", "no_global_attention", "--out", str(out)])
        report = json.loads((out / "report_no_global_attention.json").read_text())
        assert report["config"]["n_runs"] == 1
        assert report["config"]["variant"] == "no_global_attention"
        assert report["config"]["epochs"] == 3
        capsys.readouterr()


class TestStats:
    def test_planted_stats_on_stdout(self, capsys):
        assert cli.main(["stats"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["sparsity"] < 1
        assert payload["num_criteria"] == 3
        assert payload["config"]["dataset_path"] == ""

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbfuser_id,item_id,overall,c1\n"
                        b"u1,i1,4,4\nu2,i1,3,2\n")
        assert cli.main(["stats", "--data", str(bom)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["avg_reviews_per_item"] == 2.0

    def test_csv_stats(self, ratings_csv, capsys):
        assert cli.main(["stats", "--data", ratings_csv]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_reviews_per_user"] > 0

    def test_criteria_flag_restricts_the_stats(self, capsys):
        assert cli.main(["stats", "--criteria", "1"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_criteria"] == 1
        assert payload["config"]["criteria_count"] == 1

    def test_out_of_range_criteria_count_is_usage(self, capsys):
        assert cli.main(["stats", "--criteria", "4"]) == cli.EXIT_USAGE
        assert "criteria count 4 outside 1..3" in capsys.readouterr().err


class TestIngest:
    def test_writes_canonical_csv_and_sidecar(self, tmp_path, ratings_csv, capsys):
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", ratings_csv,
                         "--out", str(out)]) == cli.EXIT_OK
        reloaded = ds.load_ratings(out / "ratings.csv")
        assert reloaded.records == ds.load_ratings(ratings_csv).records
        sidecar = json.loads((out / "ingest.json").read_text())
        assert sidecar["records"] == len(reloaded)
        assert sidecar["config"]["dataset_path"] == ratings_csv
        capsys.readouterr()

    def test_scale_maps_onto_one_to_five(self, tmp_path, capsys):
        raw = tmp_path / "wide.csv"
        raw.write_text("user_id,item_id,overall,c1\n"
                       "u1,i1,13,13\nu1,i2,1,1\nu2,i1,7,7\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", str(raw), "--scale", "1:13",
                         "--out", str(out)]) == cli.EXIT_OK
        data = ds.load_ratings(out / "ratings.csv")
        values = [r.overall for r in data.records]
        assert min(values) == 1.0
        assert max(values) == 5.0
        capsys.readouterr()

    @pytest.mark.parametrize("scale, row, expected", [
        ("1:5", "u1,i1,5,5,0", (5.0, 0.0)),
        ("0:10", "u1,i1,10,10,0", (5.0, 0.0)),
    ], ids=["one_to_five", "zero_to_ten"])
    def test_scale_keeps_unrated_criterion_at_zero(self, tmp_path, capsys,
                                                   scale, row, expected):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"user_id,item_id,overall,c1,c2\n{row}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["ingest", "--data", str(raw), "--scale", scale,
                         "--out", str(out)]) == cli.EXIT_OK
        assert ds.load_ratings(out / "ratings.csv").records[0].criteria == expected
        capsys.readouterr()

    def test_bad_scale_is_usage(self, ratings_csv, capsys):
        assert cli.main(["ingest", "--data", ratings_csv,
                         "--scale", "wide"]) == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("scale", ["-inf:5", "0:inf"],
                             ids=["infinite_lo", "infinite_hi"])
    def test_non_finite_scale_is_usage_before_any_file(self, ratings_csv,
                                                       tmp_path, capsys, scale):
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["ingest", "--data", ratings_csv, f"--scale={scale}",
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_out_of_range_rating_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "wide.csv"
        raw.write_text("user_id,item_id,overall,c1\nu1,i1,13,13\n",
                       encoding="utf-8")
        assert cli.main(["ingest", "--data", str(raw),
                         "--scale", "1:5"]) == cli.EXIT_DATA
        capsys.readouterr()

    def test_ingest_without_data_is_usage(self, capsys):
        assert cli.main(["ingest"]) == cli.EXIT_USAGE
        capsys.readouterr()


class TestTrain:
    def test_checkpoint_loss_trace_and_sidecar(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--seed", "7",
                         "--out", str(out)]) == cli.EXIT_OK
        with np.load(out / "checkpoint.npz") as stored:
            assert "x" in stored.files
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert len(trace) == 4  # header + 3 epochs
        sidecar = json.loads((out / "train.json").read_text())
        assert sidecar["seed"] == 7
        assert sidecar["epochs"] == 3
        capsys.readouterr()

    def test_checkpoint_members_keep_their_names_and_shapes(
            self, tmp_path, fast_cfg, capsys):
        # the planted data's 80 nodes under the default encoder widths
        per_layer = (("h1/w", (4, 8)), ("h1/a", (8,)), ("h2/w", (4, 8)),
                     ("h2/a", (8,)), ("wg", (8,)))
        # the rating head over 2 x 3 views x 8 fused units per node
        head = (("weights", (48,)), ("bias", ()), ("feature_mean", (48,)),
                ("feature_scale", (48,)))
        expected = [("x", (80, 8))] + [
            (f"view{v}/l{layer}/{name}", shape)
            for v in (1, 2, 3) for layer in (1, 2) for name, shape in per_layer
        ] + [(f"head/{name}", shape) for name, shape in head]
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--seed", "7",
                         "--out", str(out)]) == cli.EXIT_OK
        with np.load(out / "checkpoint.npz") as stored:
            assert [(k, stored[k].shape) for k in stored.files] == expected
        capsys.readouterr()

    def test_repeat_run_byte_identical(self, tmp_path, fast_cfg, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", fast_cfg, "--seed", "7", "--out", str(a)])
        cli.main(["train", "--config", fast_cfg, "--seed", "7", "--out", str(b)])
        for name in ("checkpoint.npz", "loss_trace.csv", "train.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()


def train_then(args, out):
    """`mcgraph train` then `mcgraph predict`, both with `args` into `out`;
    returns predict's exit code."""
    assert cli.main(["train", *args, "--out", str(out)]) == cli.EXIT_OK
    return cli.main(["predict", *args, "--out", str(out)])


def truncate(path):
    path.write_bytes(path.read_bytes()[:500])


def overwrite_with_text(path):
    path.write_text("not a model\n", encoding="utf-8")


def drop_member(path):
    with np.load(path) as stored:
        members = {key: stored[key] for key in stored.files}
    del members["view2/l1/h1/a"]
    np.savez(path, **members)


class TestPredict:
    def test_predictions_and_metrics(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert train_then(["--config", fast_cfg, "--seed", "0"], out) == cli.EXIT_OK
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "user_id,item_id,actual,predicted"
        assert len(lines) > 1
        sidecar = json.loads((out / "predict.json").read_text())
        assert sidecar["mae"] <= sidecar["rmse"]
        capsys.readouterr()

    def test_repeat_run_byte_identical(self, tmp_path, fast_cfg, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert train_then(["--config", fast_cfg], a) == cli.EXIT_OK
        assert train_then(["--config", fast_cfg], b) == cli.EXIT_OK
        for name in ("predictions.csv", "predict.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_mae_matches_run_single(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert train_then(["--config", fast_cfg, "--seed", "3"], out) == cli.EXIT_OK
        sidecar = json.loads((out / "predict.json").read_text())
        cfg = ev.apply_config_values(ev.ExperimentConfig(), sidecar["config"])
        assert sidecar["mae"] == ev.run_single(cfg, 0).mae
        capsys.readouterr()

    def test_trains_nothing(self, tmp_path, fast_cfg, monkeypatch, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--out", str(out)]) == cli.EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("predict trained")

        monkeypatch.setattr(ev, "train", refuse)
        assert cli.main(["predict", "--config", fast_cfg, "--out", str(out)]) \
            == cli.EXIT_OK
        assert (out / "predictions.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("damage, named", [
        (None, "train.json"),
        (truncate, "checkpoint.npz"),
        (overwrite_with_text, "checkpoint.npz"),
        (drop_member, "'view2/l1/h1/a'"),
    ], ids=["no_train_run", "truncated", "not_a_zip", "member_removed"])
    def test_unreadable_model_is_data_error_writing_nothing(
            self, tmp_path, fast_cfg, capsys, damage, named):
        out = tmp_path / "out"
        if damage is None:
            out.mkdir()
        else:
            assert cli.main(["train", "--config", fast_cfg, "--out", str(out)]) \
                == cli.EXIT_OK
            damage(out / "checkpoint.npz")
        before = sorted(out.iterdir())
        assert cli.main(["predict", "--config", fast_cfg, "--out", str(out)]) \
            == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("data error:") and named in err
        assert "Traceback" not in err
        assert sorted(out.iterdir()) == before

    def test_train_json_records_the_train_split_digest(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--out", str(out)]) == cli.EXIT_OK
        sidecar = json.loads((out / "train.json").read_text())
        cfg = ev.apply_config_values(ev.ExperimentConfig(), sidecar["config"])
        assert sidecar["train_digest"] == ds.content_digest(ev.prepared_data(cfg)[0])
        capsys.readouterr()

    def test_changed_ratings_are_data_error_writing_nothing(
            self, tmp_path, ratings_csv, fast_cfg, capsys):
        out = tmp_path / "out"
        common = ["--config", fast_cfg, "--data", ratings_csv, "--out", str(out)]
        assert cli.main(["train", *common]) == cli.EXIT_OK
        path = Path(ratings_csv)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        raised = [row.split(",") for row in rows]
        for row in raised:  # every rating up by 1, capped at 5; 0 stays unrated
            row[2:] = [repr(min(float(v) + 1.0, 5.0)) if float(v) > 0 else v
                       for v in row[2:]]
        path.write_text("\n".join([header, *map(",".join, raised)]) + "\n",
                        encoding="utf-8")
        before = sorted(out.iterdir())
        assert cli.main(["predict", *common]) == cli.EXIT_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("data error:") and str(out / "train.json") in last
        assert not (out / "predictions.csv").exists()
        assert sorted(out.iterdir()) == before

    def test_train_json_without_digest_is_data_error(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--out", str(out)]) == cli.EXIT_OK
        sidecar = json.loads((out / "train.json").read_text())
        del sidecar["train_digest"]
        (out / "train.json").write_text(json.dumps(sidecar), encoding="utf-8")
        assert cli.main(["predict", "--config", fast_cfg, "--out", str(out)]) \
            == cli.EXIT_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("data error:") and "train.json" in last
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--seed", "4"], "seed_base"),
        (["--variant", "no_global_attention"], "variant"),
    ], ids=["seed", "variant"])
    def test_other_config_is_usage_naming_key(self, tmp_path, fast_cfg, capsys,
                                              flags, key):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", fast_cfg, "--out", str(out)]) == cli.EXIT_OK
        before = sorted(out.iterdir())
        assert cli.main(["predict", "--config", fast_cfg, *flags,
                         "--out", str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"usage error: {key} ")
        assert sorted(out.iterdir()) == before


class TestEvaluate:
    def test_report_and_runs_files(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert cli.main(["evaluate", "--config", fast_cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "report_full.json").read_text())
        assert len(report["mae_runs"]) == 2
        runs = (out / "runs_full.csv").read_text().splitlines()
        assert runs[0] == "variant,ts,run,mae,rmse"
        assert len(runs) == 3
        assert "D-MGAC" in capsys.readouterr().out

    def test_repeat_run_byte_identical(self, tmp_path, fast_cfg, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["evaluate", "--config", fast_cfg, "--out", str(a)])
        cli.main(["evaluate", "--config", fast_cfg, "--out", str(b)])
        for name in ("report_full.json", "runs_full.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_parallel_jobs_byte_identical(self, tmp_path, fast_cfg, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["evaluate", "--config", fast_cfg, "--out", str(a)])
        cli.main(["evaluate", "--config", fast_cfg, "--jobs", "2",
                  "--out", str(b)])
        assert (a / "report_full.json").read_bytes() == \
            (b / "report_full.json").read_bytes()
        capsys.readouterr()

    def test_config_echo_goes_to_stderr(self, tmp_path, fast_cfg, capsys):
        cli.main(["evaluate", "--config", fast_cfg, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert "effective config" in captured.err
        assert "effective config" not in captured.out


class TestAblate:
    def test_three_reports_and_ordering_line(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", fast_cfg, "--runs", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        for variant in ev.VARIANTS:
            assert (out / f"report_{variant}.json").exists()
        runs = (out / "runs_ablation.csv").read_text().splitlines()
        assert len(runs) == 4  # header + one run per variant
        assert "ablation ordering" in capsys.readouterr().out


class TestSweep:
    def test_sensitivity_artifacts(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "sensitivity", "--config", fast_cfg,
                         "--runs", "1", "--alphas", "0.1", "--betas", "0.5",
                         "--lambdas", "0.2,0.4", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,lambda,mae_mean,mae_std"
        assert len(lines) == 3
        sidecar = json.loads((out / "sensitivity.json").read_text())
        assert len(sidecar["points"]) == 2
        assert sidecar["points"][0]["report"]["config"]["alpha"] == 0.1
        capsys.readouterr()

    def test_dims_requires_flag(self, tmp_path, ratings_csv, fast_cfg, no_reads,
                                capsys):
        out = tmp_path / "out"
        assert cli.main(["sweep", "dims", "--config", fast_cfg, "--data", ratings_csv,
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "the following arguments are required: --dims")
        assert not out.exists()

    def test_criteria_requires_flag(self, tmp_path, ratings_csv, fast_cfg, no_reads,
                                    capsys):
        out = tmp_path / "out"
        assert cli.main(["sweep", "criteria", "--config", fast_cfg, "--data", ratings_csv,
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "the following arguments are required: --counts")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--alphas", "--betas", "--lambdas"])
    @pytest.mark.parametrize("value", ["inf", "0.1,nan", "-inf"])
    def test_non_finite_sensitivity_entry_is_usage_before_any_run(
            self, tmp_path, fast_cfg, monkeypatch, capsys, flag, value):
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(ev, "run_configs", no_run)
        out = tmp_path / "out"
        assert cli.main(["sweep", "sensitivity", "--config", fast_cfg,
                         f"{flag}={value}", "--out", str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("usage error:") and flag in last
        assert not out.exists()

    def test_negative_sensitivity_weight_is_usage_before_any_run(
            self, tmp_path, fast_cfg, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(ev, "run_configs", no_run)
        out = tmp_path / "out"
        assert cli.main(["sweep", "sensitivity", "--config", fast_cfg,
                         "--alphas", "0.1,-1", "--betas", "0.5",
                         "--lambdas", "0.2", "--out", str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("usage error:") and "alpha" in last
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag, value", [
        *[(kind, flag, value) for kind, flag in [
            ("dims", "--dims"), ("criteria", "--counts"),
            ("sensitivity", "--alphas"), ("sensitivity", "--betas"),
            ("sensitivity", "--lambdas")] for value in (",", " , ")],
        ("sensitivity", "--alphas", ""),
        # a count or a width below 1 is no number these lists can hold
        *[(kind, flag, value)
          for kind, flag in [("dims", "--dims"), ("criteria", "--counts")]
          for value in ("0", "-12")]])
    def test_number_list_without_numbers_is_usage(self, tmp_path, fast_cfg,
                                                  capsys, kind, flag, value):
        out = tmp_path / "out"
        assert cli.main(["sweep", kind, "--config", fast_cfg, f"{flag}={value}",
                         "--out", str(out)]) == cli.EXIT_USAGE
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("usage error:") and flag in last
        assert not out.exists()

    def test_dims_artifacts(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "dims", "--config", fast_cfg, "--runs", "1",
                         "--dims", "24,48", "--out", str(out)])
        assert code == cli.EXIT_OK
        sidecar = json.loads((out / "dims.json").read_text())
        assert sidecar["dims"] == [24, 48]
        assert len(sidecar["reports"]) == 2
        capsys.readouterr()

    def test_dims_parses_the_ratings_file_once(self, tmp_path, ratings_csv, fast_cfg,
                                               monkeypatch, capsys):
        real, calls = ds.load_ratings, []

        def counting(path):
            calls.append(path)
            return real(path)
        monkeypatch.setattr(ds, "load_ratings", counting)
        monkeypatch.setattr(ev, "load_ratings", counting)
        assert cli.main(["sweep", "dims", "--dims", "12,24", "--data", ratings_csv,
                         "--config", fast_cfg, "--runs", "1",
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert calls == [ratings_csv]
        capsys.readouterr()

    @pytest.mark.parametrize("flags, error", [
        (["--dims", "10"], "fused dimension 10 does not divide into 3 views of 2 heads"),
        (["--dims", "12", "--criteria", "4"], "criteria count 4 outside 1..3"),
    ], ids=["indivisible_dim", "criteria_beyond_the_header"])
    def test_bad_width_fails_before_the_file_is_parsed(
            self, tmp_path, ratings_csv, fast_cfg, no_reads, capsys, flags, error):
        out = tmp_path / "out"
        assert cli.main(["sweep", "dims", *flags, "--data", ratings_csv,
                         "--config", fast_cfg, "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == f"usage error: {error}"
        assert not out.exists()

    def test_indivisible_dim_is_usage(self, fast_cfg, capsys):
        assert cli.main(["sweep", "dims", "--config", fast_cfg,
                         "--dims", "10"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_criteria_artifacts(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "criteria", "--config", fast_cfg,
                         "--runs", "1", "--counts", "1,3", "--out", str(out)])
        assert code == cli.EXIT_OK
        sidecar = json.loads((out / "criteria.json").read_text())
        assert sidecar["counts"] == [1, 3]
        configs = [r["config"]["criteria_count"] for r in sidecar["reports"]]
        assert configs == [1, 3]
        capsys.readouterr()

    def test_ts_sweep_covers_all_segments(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "ts", "--config", fast_cfg, "--runs", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        sidecar = json.loads((out / "ts.json").read_text())
        assert [r["ts_percent"] for r in sidecar["reports"]] == [40, 60, 80, 100]
        runs = (out / "runs_ts.csv").read_text().splitlines()
        assert len(runs) == 5
        capsys.readouterr()


RUN_COMMANDS = {
    "ablate": ["ablate"],
    "sweep_ts": ["sweep", "ts"],
    "sweep_sensitivity": ["sweep", "sensitivity", "--alphas", "0.1",
                          "--betas", "0.5", "--lambdas", "0.2"],
    "sweep_dims": ["sweep", "dims", "--dims", "24"],
    "sweep_criteria": ["sweep", "criteria", "--counts", "1"],
}
BAD_SETTINGS = {
    "learning_rate": ("learning_rate = -1\n", []),
    "epochs": ("epochs = 0\n", []),
    "variant": ("variant = bogus\n", []),
    "n_runs": ("n_runs = 0\n", []),
    "jobs": ("", ["--jobs", "0"]),
    "test_fraction": ("test_fraction = 1.5\n", []),
}


@pytest.mark.parametrize("command", list(RUN_COMMANDS))
@pytest.mark.parametrize("key", list(BAD_SETTINGS))
def test_bad_setting_fails_before_out_is_created(tmp_path, capsys, command, key):
    line, flags = BAD_SETTINGS[key]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CFG + line, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([*RUN_COMMANDS[command], "--config", str(cfg), *flags,
                     "--out", str(out)]) == cli.EXIT_USAGE
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("usage error:") and key in last
    assert not out.exists()


WRITING_COMMANDS = {"ingest": ["ingest"], "train": ["train"], "evaluate": ["evaluate"],
                    **RUN_COMMANDS}


@pytest.mark.parametrize("command", list(WRITING_COMMANDS))
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
def test_out_at_or_below_a_file_is_usage_before_any_read(
        tmp_path, ratings_csv, fast_cfg, no_reads, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    out = taken / "sub" if below else taken
    assert cli.main([*WRITING_COMMANDS[command], "--config", fast_cfg, "--data",
                     ratings_csv, "--out", str(out)]) == cli.EXIT_USAGE
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"usage error: --out {out}: {taken} exists and is not a directory"
    assert taken.read_text(encoding="utf-8") == "kept\n"


# every multi-run command, and the number of distinct train/test pairs it needs
RUNNER_COMMANDS = {
    "evaluate": (["evaluate"], 1),
    "ablate": (["ablate"], 1),
    "sweep_sensitivity": (["sweep", "sensitivity", "--alphas", "0.1,0.5",
                           "--betas", "0.5", "--lambdas", "0.2"], 1),
    "sweep_dims": (["sweep", "dims", "--dims", "12,24"], 1),
    "sweep_ts": (["sweep", "ts"], 4),
    "sweep_criteria": (["sweep", "criteria", "--counts", "1,3"], 2),
}


@pytest.mark.parametrize("command", list(RUNNER_COMMANDS))
def test_each_train_test_pair_is_prepared_once(tmp_path, fast_cfg, monkeypatch,
                                               capsys, command):
    args, pairs = RUNNER_COMMANDS[command]
    real, keys = ev.prepared_data, []

    def counting(cfg):
        keys.append(ev.data_key(cfg))
        return real(cfg)
    monkeypatch.setattr(ev, "prepared_data", counting)
    assert cli.main([*args, "--config", fast_cfg, "--runs", "1",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(keys) == len(set(keys)) == pairs
    capsys.readouterr()


@pytest.mark.parametrize("command", list(RUNNER_COMMANDS))
def test_jobs_spread_every_run_over_one_pool(tmp_path, fast_cfg, monkeypatch,
                                             capsys, command):
    pools = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(ev, "ProcessPoolExecutor", Counting)
    assert cli.main([*RUNNER_COMMANDS[command][0], "--config", fast_cfg, "--runs", "1",
                     "--jobs", "2", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert pools == [2]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["stats", "ingest"])
@pytest.mark.parametrize("line, key", [
    ("test_fraction = 1.5\n", "test_fraction"),
    ("ts_percent = 33\n", "ts_percent"),
    ("criteria_count = -1\n", "criteria_count"),
], ids=["test_fraction", "ts_percent", "criteria_count"])
def test_bad_data_setting_fails_in_stats_and_ingest(tmp_path, ratings_csv, capsys,
                                                     command, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line, encoding="utf-8")
    out = tmp_path / "out"
    out_flag = ["--out", str(out)] if command == "ingest" else []  # stats writes no file
    assert cli.main([command, "--config", str(cfg), "--data", ratings_csv,
                     *out_flag]) == cli.EXIT_USAGE
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("usage error:") and key in last
    assert not out.exists()


def parser_commands(parser, prefix=""):
    """(name, parser) for each command that runs, a sweep kind as `sweep KIND`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_commands(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_each_command_takes_exactly_the_flags_it_reads():
    taken = {name: {flag for action in p._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")}
             for name, p in parser_commands(cli.build_parser())}
    assert taken == COMMAND_FLAGS
    assert sum(map(len, taken.values())) == 77


# (command, flag) for each flag that a command or sweep kind does not read
NOT_READ = [(command, flag) for command, flags in {
    "ingest": ["--seed", "--runs", "--variant", "--ts", "--criteria", "--jobs"],
    "stats": ["--seed", "--runs", "--variant", "--ts", "--jobs", "--out"],
    "train": ["--runs", "--jobs"],
    "predict": ["--runs", "--jobs"],
    "sweep sensitivity": ["--dims", "--counts"],
    "sweep dims": ["--alphas", "--betas", "--lambdas", "--counts"],
    "sweep ts": ["--ts", "--dims", "--counts", "--alphas", "--betas", "--lambdas"],
    "sweep criteria": ["--criteria", "--dims", "--alphas", "--betas", "--lambdas"],
}.items() for flag in flags]
FLAG_VALUES = {"--seed": "1", "--runs": "1", "--variant": "full", "--ts": "40",
               "--criteria": "1", "--jobs": "1", "--dims": "24", "--counts": "1",
               "--alphas": "0.1", "--betas": "0.1", "--lambdas": "0.2"}
REQUIRED_LISTS = {"sweep dims": ["--dims", "24"], "sweep criteria": ["--counts", "1"]}


@pytest.mark.parametrize("command, flag", NOT_READ,
                         ids=[f"{c.replace(' ', '_')}{f}" for c, f in NOT_READ])
def test_flag_a_command_does_not_read_is_usage_before_any_read(
        tmp_path, ratings_csv, fast_cfg, no_reads, capsys, command, flag):
    out = tmp_path / "out"
    value = str(out) if flag == "--out" else FLAG_VALUES[flag]
    out_flag = [] if command == "stats" else ["--out", str(out)]
    assert cli.main([*command.split(), *REQUIRED_LISTS.get(command, []),
                     "--config", fast_cfg, "--data", ratings_csv, flag, value,
                     *out_flag]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    # the command's own usage, which lists the flags it does take
    assert err.startswith(f"usage: mcgraph {command} ")
    assert f"mcgraph {command}: error: unrecognized arguments: {flag} " in err
    assert not out.exists()


VALID_ROWS = [["u1", "i1", "4", "4", "3"], ["u1", "i2", "2", "1", "2"],
              ["u2", "i1", "5", "5", "4"], ["u2", "i2", "3", "3", "3"],
              ["u3", "i1", "1", "2", "1"], ["u3", "i2", "4", "5", "4"]]
HEADER = ["user_id", "item_id", "overall", "c1", "c2"]
WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)


@st.composite
def malformed_csv(draw):
    """A valid ratings CSV with one defect: a bad header, a ragged row, a
    non-numeric, NaN/infinite or negative rating."""
    header, rows = list(HEADER), [list(r) for r in VALID_ROWS]
    kind = draw(st.sampled_from(["header", "ragged", "text", "non_finite",
                                 "negative"]))
    row = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(2, len(HEADER) - 1))
    if kind == "header":
        header = draw(st.lists(WORD, min_size=1, max_size=6).filter(
            lambda names: names != HEADER))
    elif kind == "ragged":
        if draw(st.booleans()):
            rows[row].append(draw(WORD))
        else:
            del rows[row][draw(st.integers(0, len(HEADER) - 1))]
    elif kind == "text":
        rows[row][column] = draw(WORD)
    elif kind == "non_finite":
        rows[row][column] = draw(st.sampled_from(
            ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]))
    else:
        rows[row][column] = repr(-draw(st.floats(min_value=1e-9, max_value=10.0)))
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


@given(malformed_csv())
@settings(max_examples=40, deadline=None)
def test_malformed_csv_evaluate_exits_2_without_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, out = Path(tmp) / "ratings.csv", Path(tmp) / "out"
        csv_path.write_text(text, encoding="utf-8")
        code = cli.main(["evaluate", "--data", str(csv_path), "--runs", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert not out.exists()
