import dataclasses
import hashlib
import multiprocessing
import os
import shutil
from unittest import mock

import numpy as np
import pytest

from churnfusion import audio_features, cli, metrics, pipeline, synth
from churnfusion.audio_features import AudioClip
from churnfusion.errors import ChurnFusionError, InvalidConfig, MissingModality
from churnfusion.synth import SynthConfig, generate_cohort

SMALL_CONFIG = """
# small settings for fast end-to-end runs
seed = 3
seeds = 0,1
test_fraction = 0.3
rfe_k = 4
ser_corpus_per_class = 4
synth.n_customers = 60
synth.labeled_fl_fraction = 0.3
synth.coupling = 0.9
coreg.max_iterations = 2
churn_train.epochs = 25
ser_train.epochs = 25
"""


def _float_keys() -> list[str]:
    """Every config key whose default value is a float."""
    cfg, keys = pipeline.RunConfig(), []
    for top in dataclasses.fields(cfg):
        value = getattr(cfg, top.name)
        if isinstance(value, float):
            keys.append(top.name)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                if isinstance(getattr(value, f.name), float):
                    keys.append(f"{top.name}.{f.name}")
    return keys


class TestParseConfig:
    def test_round_trip_of_every_kind(self):
        cfg = pipeline.parse_config_text(SMALL_CONFIG)
        assert cfg.seed == 3
        assert cfg.seeds == (0, 1)
        assert cfg.test_fraction == 0.3
        assert cfg.rfe_k == 4
        assert cfg.synth.n_customers == 60
        assert cfg.synth.coupling == 0.9
        assert cfg.coreg.max_iterations == 2
        assert cfg.churn_train.epochs == 25

    def test_comments_and_blanks_ignored(self):
        cfg = pipeline.parse_config_text("\n# only a comment\n\n")
        assert cfg == pipeline.RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            pipeline.parse_config_text("no_such_key = 1")
        with pytest.raises(InvalidConfig):
            pipeline.parse_config_text("synth.no_such_key = 1")
        with pytest.raises(InvalidConfig):
            pipeline.parse_config_text("not a key value line")

    def test_with_seed_rederives_nested_seeds(self):
        cfg = pipeline.with_seed(pipeline.RunConfig(), 10)
        assert cfg.seed == 10
        assert cfg.synth.seed == 10
        assert cfg.smogn.seed == 11
        assert cfg.coreg.seed == 12
        assert cfg.churn_train.seed == 13
        assert cfg.ser_train.seed == 14

    def test_nested_seed_rejected(self):
        # nested seeds are re-derived from the top-level seed, so setting one does nothing
        for key in ("coreg.seed", "synth.seed", "churn_train.seed", "ser_train.seed"):
            with pytest.raises(InvalidConfig, match="top-level 'seed'"):
                pipeline.parse_config_text(f"{key} = 99")

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfig):
            pipeline.parse_config_text("test_fraction = 1.5")
        with pytest.raises(InvalidConfig):
            pipeline.parse_config_text("seeds = ")
        # accepted before, then train churn failed with numpy's "high <= 0"
        with pytest.raises(InvalidConfig, match="smote k"):
            pipeline.parse_config_text("smote.k = 0")
        # a Minkowski exponent below 1 used to divide by zero in train fl
        for key in ("coreg.p1", "coreg.p2"):
            with pytest.raises(ValueError, match="Minkowski p"):
                pipeline.parse_config_text(f"{key} = 0")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", _float_keys())
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises((ValueError, ChurnFusionError)):
            pipeline.parse_config_text(f"{key} = {value}")


class TestSplitTable:
    def test_deterministic_partition(self):
        cohort = generate_cohort(SynthConfig(n_customers=30, seed=0))
        a_train, a_test, a_mask = pipeline.split_table(cohort.table, 0.3, seed=5)
        b_train, b_test, b_mask = pipeline.split_table(cohort.table, 0.3, seed=5)
        assert a_train.ids == b_train.ids
        assert a_test.ids == b_test.ids
        assert np.array_equal(a_mask, b_mask)
        assert len(a_test) == round(0.3 * 30)
        assert sorted(a_train.ids + a_test.ids) == sorted(cohort.table.ids)

    @pytest.mark.parametrize("n,fraction", [(30, 0.3), (47, 0.25), (2, 0.5), (200, 0.7)])
    def test_sides_partition_ids_in_table_order(self, n, fraction):
        table = generate_cohort(SynthConfig(n_customers=n, seed=4)).table
        train, test, is_test = pipeline.split_table(table, fraction, seed=9)
        assert is_test.dtype == bool
        assert test.ids == table.take(is_test).ids
        assert train.ids == table.take(~is_test).ids
        position = {cid: i for i, cid in enumerate(table.ids)}
        assert set(train.ids).isdisjoint(test.ids)
        assert set(train.ids) | set(test.ids) == set(table.ids)
        assert len(test) == max(1, round(fraction * n))
        for side in (train, test):
            rows = [position[cid] for cid in side.ids]
            assert rows == sorted(rows)
            assert np.array_equal(side.features, table.features[rows])
            assert np.array_equal(side.churn_outcome, table.churn_outcome[rows])
            assert np.array_equal(side.fl_label, table.fl_label[rows], equal_nan=True)
            assert side.audio_ref == tuple(table.audio_ref[i] for i in rows)

    def test_unknown_churn_outcome_blocks_churn_training(self, small_cfg):
        table = generate_cohort(SynthConfig(n_customers=40, seed=0)).table
        churn = table.churn_outcome.copy()
        churn[5] = -1
        with pytest.raises(MissingModality):
            pipeline.train_churn_baseline(dataclasses.replace(table, churn_outcome=churn), small_cfg)

    def test_different_seed_differs(self):
        cohort = generate_cohort(SynthConfig(n_customers=30, seed=0))
        _, a, _ = pipeline.split_table(cohort.table, 0.3, seed=1)
        _, b, _ = pipeline.split_table(cohort.table, 0.3, seed=2)
        assert a.ids != b.ids

    def test_at_least_one_test_row(self):
        cohort = generate_cohort(SynthConfig(n_customers=3, seed=0))
        _, test, _ = pipeline.split_table(cohort.table, 0.01, seed=0)
        assert len(test) == 1


@pytest.fixture(scope="module")
def small_cfg():
    return pipeline.with_seed(pipeline.parse_config_text(SMALL_CONFIG), 3)


class TestRunExperiment:
    def test_all_strategies_report(self, small_cfg):
        result = pipeline.run_experiment(small_cfg)
        assert set(result.reports) == set(pipeline.STRATEGIES)
        for rep in result.reports.values():
            assert 0.0 <= rep.map <= 1.0
            assert 0.0 <= rep.macro_f1 <= 1.0

    def test_assignments_cover_test_split(self, small_cfg):
        result = pipeline.run_experiment(small_cfg, strategies=("none", "late"))
        cohort = generate_cohort(small_cfg.synth)
        _, test_tbl, _ = pipeline.split_table(
            cohort.table, small_cfg.test_fraction, small_cfg.seed
        )
        for strategy in ("none", "late"):
            assert result.assignments[strategy].ids == test_tbl.ids

    def test_evaluate_scores_against_test_side_truth(self, small_cfg):
        cohort = generate_cohort(small_cfg.synth)
        split = pipeline.Split(cohort, small_cfg, pipeline.train_model)
        assigns = pipeline.assign("none", split)
        # reference: look every scored customer up by id
        tier = dict(zip(cohort.table.ids, cohort.risk_tier.tolist()))
        outcome = dict(zip(cohort.table.ids, cohort.table.churn_outcome.tolist()))
        expected = metrics.evaluate_assignments(
            assigns, [tier[cid] for cid in assigns.ids], [outcome[cid] for cid in assigns.ids]
        )
        assert pipeline.evaluate(assigns, split) == expected

    def test_none_strategy_makes_no_clip(self, small_cfg, monkeypatch):
        made = mock.Mock(wraps=synth.synth_audio)
        monkeypatch.setattr(synth, "synth_audio", made)
        pipeline.run_experiment(small_cfg, ("none",))
        assert made.call_count == 0

    def test_compare_over_seeds_shapes(self, small_cfg):
        rows = pipeline.compare_over_seeds(small_cfg, strategies=("none",))
        assert set(rows) == {"none"}
        mean, std = rows["none"]["map"]
        assert 0.0 <= mean <= 1.0 and std >= 0.0
        table = pipeline.format_comparison(rows)
        assert table.splitlines()[0] == "metric,none"


def run_cli(args, workspace, config_path):
    return cli.main(list(args) + ["--out", str(workspace), "--config", str(config_path)])


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.txt"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    ws = root / "ws"
    assert run_cli(["gen"], ws, config) == 0
    for modality in ("fl", "ser", "churn"):
        assert run_cli(["train", modality], ws, config) == 0
    return ws, config


def copy_trained(ws, dest):
    """A copy of a workspace's cohort and models, without its reports."""
    for part in ("data", "models"):
        shutil.copytree(ws / part, dest / part)
    return dest


def file_hashes(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestCli:
    def test_gen_writes_cohort(self, cli_workspace):
        ws, _ = cli_workspace
        assert (ws / "data" / "table.csv").exists()
        assert (ws / "data" / "manifest.csv").exists()
        assert (ws / "data" / "ground_truth.csv").exists()
        assert list((ws / "data" / "audio").glob("*.wav"))

    def test_train_writes_models(self, cli_workspace):
        ws, _ = cli_workspace
        for name in ("fl.bin", "ser.bin", "churn.bin"):
            assert (ws / "models" / name).stat().st_size > 0

    def test_evaluate_each_strategy(self, cli_workspace, capsys):
        ws, config = cli_workspace
        for strategy in pipeline.STRATEGIES:
            assert run_cli(["evaluate", strategy], ws, config) == 0
            out = capsys.readouterr().out
            assert "map=" in out and "risk_low=" in out
            assert (ws / "reports" / f"report_{strategy}.txt").exists()
            assert (ws / "reports" / f"assignments_{strategy}.csv").exists()
        assert (ws / "models" / "churn_hybrid.bin").exists()

    def test_report_prints_stored_reports(self, cli_workspace, capsys):
        ws, config = cli_workspace
        assert run_cli(["report"], ws, config) == 0
        out = capsys.readouterr().out
        assert "# report_none.txt" in out

    def test_compare_writes_a_table_that_report_prints(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        ws = tmp_path / "ws"
        run = mock.Mock(wraps=pipeline.run_experiment)
        monkeypatch.setattr(pipeline, "run_experiment", run)
        assert run_cli(["compare"], ws, config) == 0
        # the seed list is the config file's `seeds = 0,1`
        assert [call.args[0].seed for call in run.call_args_list] == [0, 1]
        table = (ws / "reports" / "compare.csv").read_text(encoding="utf-8")
        assert capsys.readouterr().out == table
        rows = [line.split(",") for line in table.splitlines()]
        assert rows[0] == ["metric", "none", "late", "hybrid"]
        assert [row[0] for row in rows[1:]] == list(pipeline.COMPARED)
        assert {len(row) for row in rows} == {4}
        assert all(" +/- " in cell for row in rows[1:3] for cell in row[1:])
        assert run_cli(["report"], ws, config) == 0
        assert capsys.readouterr().out == "# compare.csv\n" + table

    def test_full_rerun_byte_identical(self, cli_workspace, tmp_path, capsys):
        ws, config = cli_workspace
        # the reference is evaluated here, so no other test's reports are compared
        ws1 = copy_trained(ws, tmp_path / "ws1")
        ws2 = tmp_path / "ws2"
        assert run_cli(["gen"], ws2, config) == 0
        for modality in ("fl", "ser", "churn"):
            assert run_cli(["train", modality], ws2, config) == 0
        for strategy in pipeline.STRATEGIES:
            assert run_cli(["evaluate", strategy], ws1, config) == 0
            assert run_cli(["evaluate", strategy], ws2, config) == 0
        capsys.readouterr()
        assert file_hashes(ws2) == file_hashes(ws1)

    @pytest.mark.parametrize("name", ["fl", "ser", "churn"])
    @pytest.mark.parametrize("size", [5, 40])
    def test_truncated_model_fails_naming_it(self, cli_workspace, tmp_path, capsys, name, size):
        ws, config = cli_workspace
        cut = copy_trained(ws, tmp_path / "cut")
        blob = cut / "models" / f"{name}.bin"
        blob.write_bytes(blob.read_bytes()[:size])
        assert run_cli(["evaluate", "late"], cut, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blob) in err

    @pytest.mark.parametrize("name", ["fl", "ser", "churn"])
    def test_model_with_trailing_bytes_fails_naming_it(self, cli_workspace, tmp_path, capsys, name):
        ws, config = cli_workspace
        padded = copy_trained(ws, tmp_path / "padded")
        blob = padded / "models" / f"{name}.bin"
        blob.write_bytes(blob.read_bytes() + b"junk1234")
        assert run_cli(["evaluate", "late"], padded, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blob) in err and "8 bytes past the end" in err

    def test_train_ser_without_manifest_fails(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        ws = tmp_path / "empty_ws"
        assert run_cli(["train", "ser"], ws, config) == 1
        assert "error:" in capsys.readouterr().err

    def test_evaluate_without_models_fails(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        ws = tmp_path / "ws3"
        assert run_cli(["gen"], ws, config) == 0
        assert run_cli(["evaluate", "none"], ws, config) == 1
        assert "run 'train churn'" in capsys.readouterr().err

    def test_unwritable_output_fails(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go", encoding="utf-8")
        assert cli.main(["gen", "--out", str(blocker / "ws"), "--config", str(config)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_churn_threshold_from_config_shifts_banding(self, cli_workspace, tmp_path, capsys):
        ws, _ = cli_workspace
        config = tmp_path / "strict.txt"
        config.write_text(SMALL_CONFIG + "translation.churn_threshold = 0.99\n", encoding="utf-8")
        assert run_cli(["evaluate", "none"], copy_trained(ws, tmp_path / "ws"), config) == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split("=", 1) for line in out.strip().split("\n") if "=" in line
        )
        # nearly nothing clears a 0.99 churn threshold
        assert int(fields["risk_high"]) == 0

    def test_bad_config_file_fails(self, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text("nonsense = 1", encoding="utf-8")
        assert cli.main(["gen", "--out", str(tmp_path / "ws"), "--config", str(config)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_nested_seed_in_config_fails(self, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text("coreg.seed = 99\n", encoding="utf-8")
        assert cli.main(["gen", "--out", str(tmp_path / "ws"), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "coreg.seed" in err and "'seed'" in err

    def test_bad_boolean_in_config_fails(self, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text("features.standardize = yes", encoding="utf-8")
        assert cli.main(["gen", "--out", str(tmp_path / "ws"), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "features.standardize" in err and "true" in err


class TestCliAudioOnLookup:
    @pytest.fixture
    def fresh(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        ws = tmp_path / "ws"
        assert run_cli(["gen"], ws, config) == 0
        return ws, config

    def test_tabular_commands_decode_no_wav(self, fresh, small_cfg, monkeypatch, capsys):
        ws, config = fresh
        decoded = mock.Mock(wraps=synth.wav_bytes_to_clip)
        monkeypatch.setattr(synth, "wav_bytes_to_clip", decoded)
        for args in (["train", "fl"], ["train", "churn"], ["evaluate", "none"]):
            assert run_cli(args, ws, config) == 0
        assert decoded.call_count == 0
        assert run_cli(["train", "ser"], ws, config) == 0
        assert run_cli(["evaluate", "late"], ws, config) == 0
        capsys.readouterr()
        # late fusion reads each test-side clip once
        n_test = round(small_cfg.test_fraction * small_cfg.synth.n_customers)
        assert decoded.call_count == n_test

    def test_corrupt_wav_fails_only_commands_that_read_it(self, fresh, small_cfg, capsys):
        ws, config = fresh
        table = generate_cohort(small_cfg.synth).table
        _, test, _ = pipeline.split_table(table, small_cfg.test_fraction, small_cfg.seed)
        bad = ws / "data" / "audio" / f"{test.ids[0]}.wav"
        bad.write_bytes(b"RIFF")  # a WAV cut off after four bytes
        for args in (["train", "fl"], ["train", "churn"], ["evaluate", "none"], ["train", "ser"]):
            assert run_cli(args, ws, config) == 0
        capsys.readouterr()
        assert run_cli(["evaluate", "late"], ws, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad WAV ")
        assert str(bad) in err
        assert not (ws / "reports" / "report_late.txt").exists()

    def test_short_clip_fails_evaluate_and_leaves_no_process(
        self, fresh, small_cfg, monkeypatch, capsys
    ):
        ws, config = fresh
        # two usable CPUs and no other thread: two helpers make and map the
        # 18 test clips, and the short clip is in the first chunk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(audio_features, "_threads", lambda: 1)
        table = generate_cohort(small_cfg.synth).table
        _, test, _ = pipeline.split_table(table, small_cfg.test_fraction, small_cfg.seed)
        short = AudioClip(0.5 * np.sin(np.arange(512) / 9.0), 16000)
        (ws / "data" / "audio" / f"{test.ids[0]}.wav").write_bytes(synth.clip_to_wav_bytes(short))
        for args in (["train", "fl"], ["train", "churn"], ["train", "ser"]):
            assert run_cli(args, ws, config) == 0
        capsys.readouterr()
        assert run_cli(["evaluate", "late"], ws, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: clip of 512 samples")
        assert multiprocessing.active_children() == []
        assert not (ws / "reports" / "report_late.txt").exists()
