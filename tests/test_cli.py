"""Command-line interface: exit codes, artifacts, and reproducibility."""

import json
import logging

import numpy as np
import pytest

from kvgate.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    indexer_tensors,
    load_weights,
    save_weights,
)
import kvgate.harness as harness
from kvgate.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, main
from kvgate.config import parse_config
from kvgate.harness import SWEEP_RATIOS, init_indexer
from kvgate.metrics import read_records

BASE = {
    "version": 1,
    "seed": 5,
    "teacher": {"n_layers": 2, "d_model": 16, "n_heads": 4,
                "n_kv_heads": 2, "d_ffn": 32, "vocab_size": 12},
    "plan": {"ratio": 0.5, "sink_count": 2, "local_window": 4},
    "data": {"kind": "tokens", "length": 30, "n_train": 3, "n_eval": 2},
    "train": {"h_index": 2, "d_index": 3, "indexer_steps": 8,
              "mem_steps": 10},
    "decode": {"steps": 10, "interval": 4, "budgets": [10, 64]},
}


def write_config(directory, name="config.json", **overrides):
    raw = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    path = directory / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def only_stderr_record(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


@pytest.fixture(scope="module")
def stage_one(tmp_path_factory):
    """A finished train-indexer run shared by the downstream commands."""
    root = tmp_path_factory.mktemp("stage1")
    config = write_config(root)
    out = root / "out"
    assert run("train-indexer", "--config", config, "--out", out) == EXIT_OK
    return {"root": root, "config": config, "out": out,
            "checkpoint": out / "indexer.kvgt"}


class TestTrainIndexer:
    def test_writes_checkpoint_and_curve(self, stage_one):
        out = stage_one["out"]
        assert (out / "indexer.kvgt").exists()
        assert (out / "run.log").exists()
        curve = read_records(out / "train_indexer_loss.jsonl")
        assert len(curve) == BASE["train"]["indexer_steps"]
        assert all(rec["kind"] == "indexer_loss" for rec in curve)
        assert [rec["step"] for rec in curve] == list(range(len(curve)))
        assert all(np.isfinite(rec["loss"]) for rec in curve)

    def test_rerun_is_byte_identical(self, stage_one, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run("train-indexer", "--config", stage_one["config"],
                       "--out", out) == EXIT_OK
        for name in ("indexer.kvgt", "train_indexer_loss.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path):
        config = write_config(tmp_path, train={"indexer_steps": 0})
        out = tmp_path / "out"
        assert run("train-indexer", "--config", config, "--out", out) == EXIT_OK
        cfg = parse_config(json.loads(config.read_text(encoding="utf-8")))
        want = indexer_tensors(init_indexer(cfg))
        got = load_weights(out / "indexer.kvgt")
        assert set(got) == set(want)
        for name in want:
            assert np.array_equal(got[name], want[name])
        assert read_records(out / "train_indexer_loss.jsonl") == []

    def test_seed_override_matches_explicit_seed(self, stage_one, tmp_path):
        override_out = tmp_path / "override"
        assert run("train-indexer", "--config", stage_one["config"],
                   "--seed", 9, "--out", override_out) == EXIT_OK
        explicit = write_config(tmp_path, name="seeded.json", seed=9)
        explicit_out = tmp_path / "explicit"
        assert run("train-indexer", "--config", explicit,
                   "--out", explicit_out) == EXIT_OK
        assert (override_out / "indexer.kvgt").read_bytes() == \
            (explicit_out / "indexer.kvgt").read_bytes()

        base = read_records(stage_one["out"] / "train_indexer_loss.jsonl")
        moved = read_records(override_out / "train_indexer_loss.jsonl")
        assert moved[0]["config"] != base[0]["config"]
        assert moved[0]["seed"] == 9


@pytest.fixture(scope="module")
def stage_two(stage_one, tmp_path_factory):
    out = tmp_path_factory.mktemp("stage2")
    code = run("train-memory", "--config", stage_one["config"],
               "--checkpoint", stage_one["checkpoint"], "--out", out)
    assert code == EXIT_OK
    return out


class TestTrainMemory:
    def test_checkpoint_holds_both_weight_families(self, stage_two):
        tensors = load_weights(stage_two / "memory.kvgt")
        assert any(name.startswith("idx.") for name in tensors)
        assert any(name.startswith("mem.") for name in tensors)

    def test_loss_curve_and_eval_record(self, stage_two):
        curve = read_records(stage_two / "train_memory_loss.jsonl")
        assert len(curve) == BASE["train"]["mem_steps"]
        (evaluated,) = read_records(stage_two / "train_memory_eval.jsonl")
        assert evaluated["kind"] == "memory_eval"
        assert evaluated["improved"] == (
            evaluated["loss_trained"] < evaluated["loss_init"])
        assert np.isfinite(evaluated["loss_trained"])

    def test_joint_training_moves_indexer_tensors(self, stage_one, stage_two):
        before = load_weights(stage_one["checkpoint"])
        after = load_weights(stage_two / "memory.kvgt")
        moved = any(not np.array_equal(before[name], after[name])
                    for name in before)
        assert moved

    def test_freeze_keeps_indexer_tensors(self, stage_one, tmp_path):
        out = tmp_path / "frozen"
        assert run("train-memory", "--config", stage_one["config"],
                   "--checkpoint", stage_one["checkpoint"],
                   "--freeze-indexer", "--out", out) == EXIT_OK
        before = load_weights(stage_one["checkpoint"])
        after = load_weights(out / "memory.kvgt")
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_missing_checkpoint_file(self, stage_one, tmp_path, capsys):
        code = run("train-memory", "--config", stage_one["config"],
                   "--checkpoint", tmp_path / "nope.kvgt",
                   "--out", tmp_path / "out")
        assert code == EXIT_IO
        assert stderr_record(capsys)["command"] == "train-memory"

    def test_checkpoint_without_indexer_weights(self, stage_one, tmp_path,
                                                capsys):
        bogus = tmp_path / "other.kvgt"
        save_weights(bogus, {"other.w": np.zeros(3)})
        code = run("train-memory", "--config", stage_one["config"],
                   "--checkpoint", bogus, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "indexer" in stderr_record(capsys)["message"]


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    config = write_config(root, policy={"name": "knorm"})
    out = root / "out"
    assert run("sweep", "--config", config, "--out", out) == EXIT_OK
    return {"config": config, "out": out,
            "records": read_records(out / "sweep.jsonl")}


class TestSweep:
    def test_covers_policy_by_ratio_grid(self, sweep_out):
        points = {(rec["policy"], rec["ratio"])
                  for rec in sweep_out["records"]}
        assert points == {(p, r) for p in ("knorm", "random")
                          for r in SWEEP_RATIOS}

    def test_no_eviction_row_is_lossless(self, sweep_out):
        for rec in sweep_out["records"]:
            if rec["ratio"] == 0.0:
                assert rec["recon_attn"] == 0.0
                assert rec["recall"] == 1.0
                assert rec["kept_fraction"] == 1.0

    def test_accounting_identity(self, sweep_out):
        for rec in sweep_out["records"]:
            total = (rec["kv_bytes"] + rec["indexer_bytes"]
                     + rec["memory_bytes"])
            assert rec["total_bytes"] == total

    def test_threads_do_not_change_bytes(self, sweep_out, tmp_path):
        out = tmp_path / "threaded"
        assert run("sweep", "--config", sweep_out["config"],
                   "--threads", 2, "--out", out) == EXIT_OK
        assert (out / "sweep.jsonl").read_bytes() == \
            (sweep_out["out"] / "sweep.jsonl").read_bytes()

    def test_indexer_policy_requires_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = run("sweep", "--config", config, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "checkpoint" in stderr_record(capsys)["message"]

    def test_indexer_policy_with_checkpoint(self, stage_one, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--config", stage_one["config"],
                   "--checkpoint", stage_one["checkpoint"],
                   "--out", out) == EXIT_OK
        records = read_records(out / "sweep.jsonl")
        policies = {rec["policy"] for rec in records}
        assert policies == {"indexer", "knorm", "random"}
        assert len(records) == 3 * len(SWEEP_RATIOS)

    def test_zero_threads_rejected(self, sweep_out, tmp_path, capsys):
        code = run("sweep", "--config", sweep_out["config"],
                   "--threads", 0, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "threads" in stderr_record(capsys)["message"]


@pytest.fixture(scope="module")
def decode_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("decode")
    config = write_config(root, policy={"name": "knorm"})
    out = root / "out"
    assert run("decode-sim", "--config", config, "--out", out) == EXIT_OK
    return read_records(out / "decode.jsonl")


class TestDecodeSim:
    def test_kept_sizes_stay_within_bound(self, decode_out):
        steps = [rec for rec in decode_out if rec["kind"] == "decode"]
        assert len(steps) == 2 * BASE["decode"]["steps"]
        assert all(rec["within"] for rec in steps)
        assert all(rec["kept"] <= rec["bound"] for rec in steps)

    def test_covering_budget_matches_reference(self, decode_out):
        summaries = {rec["budget"]: rec for rec in decode_out
                     if rec["kind"] == "decode_summary"}
        assert summaries[64]["covers_total"]
        assert summaries[64]["matches_reference"]
        assert summaries[64]["evicted_total"] == 0
        assert summaries[10]["bound_ok"]
        assert summaries[10]["evicted_total"] > 0

    def test_indexer_policy_requires_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = run("decode-sim", "--config", config, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "checkpoint" in stderr_record(capsys)["message"]

    def test_non_finite_teacher_weight_exits_divergence(self, tmp_path, capsys,
                                                        monkeypatch):
        class Poisoned(harness.TeacherModel):
            def __init__(self, config):
                super().__init__(config)
                self.layers[-1].w_out[0, 0] = np.inf

        monkeypatch.setattr(harness, "TeacherModel", Poisoned)
        config = write_config(tmp_path, policy={"name": "knorm"})
        out = tmp_path / "out"
        assert run("decode-sim", "--config", config, "--out", out) == EXIT_DIVERGENCE
        record = only_stderr_record(capsys)
        assert record["error"] == "DivergenceError"
        assert record["command"] == "decode-sim"
        assert "non-finite" in record["message"]
        assert not (out / "decode.jsonl").exists()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_early_layer_exits_divergence(self, tmp_path, capsys,
                                                     monkeypatch):
        # The first layer's inf reaches the next layer's attention logits
        # inside the prompt's forward pass, before any output row is checked.
        class Poisoned(harness.TeacherModel):
            def __init__(self, config):
                super().__init__(config)
                self.layers[0].w_out[0, 0] = np.inf

        monkeypatch.setattr(harness, "TeacherModel", Poisoned)
        config = write_config(tmp_path, policy={"name": "knorm"})
        out = tmp_path / "out"
        assert run("decode-sim", "--config", config, "--out", out) == EXIT_DIVERGENCE
        record = only_stderr_record(capsys)
        assert record["error"] == "DivergenceError"
        assert record["command"] == "decode-sim"
        assert "non-finite" in record["message"]
        assert not (out / "decode.jsonl").exists()

    def test_indexer_scored_decode(self, stage_one, tmp_path):
        out = tmp_path / "out"
        assert run("decode-sim", "--config", stage_one["config"],
                   "--checkpoint", stage_one["checkpoint"],
                   "--out", out) == EXIT_OK
        records = read_records(out / "decode.jsonl")
        assert all(rec["within"] for rec in records
                   if rec["kind"] == "decode")


class TestReport:
    def test_tables_from_sweep_records(self, sweep_out, tmp_path, capsys):
        out = tmp_path / "report"
        code = run("report", sweep_out["out"] / "sweep.jsonl", "--out", out)
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        body = csvs[0].read_text(encoding="utf-8").splitlines()
        assert body[0].startswith("ratio,")
        assert len(body) == 1 + len(SWEEP_RATIOS)
        assert (out / "summary.json").exists()

    def test_rerun_is_byte_identical(self, sweep_out, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run("report", sweep_out["out"] / "sweep.jsonl",
                       "--out", out) == EXIT_OK
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_empty_metrics_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = run("report", empty, "--out", tmp_path / "report")
        assert code == EXIT_CONFIG
        assert "records" in stderr_record(capsys)["message"]

    def test_schema_mismatch_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 999, "kind": "sweep"}\n', encoding="utf-8")
        code = run("report", bad, "--out", tmp_path / "report")
        assert code == EXIT_CONFIG
        assert stderr_record(capsys)["error"] == "ValueError"


class TestErrorPaths:
    def test_invalid_json_config(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{not json", encoding="utf-8")
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = stderr_record(capsys)
        assert record["command"] == "train-indexer"
        assert record["error"] == "ConfigError"

    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_config(tmp_path, optimizer="adam")
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "optimizer" in stderr_record(capsys)["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("train-indexer", "--config", tmp_path / "absent.json",
                   "--out", tmp_path / "out")
        assert code == EXIT_IO
        assert stderr_record(capsys)["error"] == "FileNotFoundError"

    def test_non_boolean_flag_in_config(self, tmp_path, capsys):
        config = write_config(tmp_path, train={"head_sum": "false"})
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "head_sum" in record["message"]

    def test_checkpoint_manifest_without_tensors(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.kvgt"
        body = json.dumps({"version": FORMAT_VERSION}).encode("utf-8")
        bogus.write_bytes(MAGIC + np.uint32(len(body)).tobytes() + body)
        code = run("sweep", "--config", write_config(tmp_path),
                   "--checkpoint", bogus, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["command"] == "sweep"
        assert record["error"] == "ValueError"

    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestSelftestAndLogging:
    def test_selftest_passes(self, capsys):
        assert run("selftest") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("ok - ") for line in lines[:-1])
        total = lines[-1].split("/")[0]
        assert lines[-1].endswith("checks passed")
        assert int(total) == len(lines) - 1

    def test_sidecar_log_collects_progress_lines(self, tmp_path):
        logger = logging.getLogger("kvgate")
        previous = logger.level
        logger.setLevel(logging.INFO)
        try:
            config = write_config(tmp_path, train={"indexer_steps": 0})
            out = tmp_path / "out"
            assert run("train-indexer", "--config", config,
                       "--out", out) == EXIT_OK
            text = (out / "run.log").read_text(encoding="utf-8")
            assert "training indexer" in text
        finally:
            logger.setLevel(previous)

    def test_metrics_lines_carry_no_timestamps(self, stage_one):
        curve_path = stage_one["out"] / "train_indexer_loss.jsonl"
        for line in curve_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert "time" not in record and "timestamp" not in record
