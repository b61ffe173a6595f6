"""Command-line interface: exit codes, artifacts, and reproducibility."""

import argparse
import ast
import importlib.util
import io
import json
import logging
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvgate.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    indexer_tensors,
    load_checkpoint,
    load_weights,
    save_weights,
)
import kvgate.harness as harness
from kvgate.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    build_parser,
    main,
)
from kvgate.config import load_config, parse_config
from kvgate.harness import (
    SWEEP_RATIOS,
    init_indexer,
    init_memory,
    memory_eval_losses,
    train_memory_run,
)
from kvgate.metrics import read_records
from kvgate.teacher import TeacherModel

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
# Every command that reads a config.
STAGE_COMMANDS = ("train-indexer", "train-memory", "sweep", "decode-sim")


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


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

    def test_seed_beyond_64_bits_is_config_error(self, stage_one, tmp_path,
                                                 capsys):
        # 2**64 + 5 would run exactly as seed 5 while its records said
        # otherwise.
        out = tmp_path / "aliased"
        code = run("train-indexer", "--config", stage_one["config"],
                   "--seed", 2**64 + 5, "--out", out)
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "2**64" in record["message"]
        assert not (out / "indexer.kvgt").exists()

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

    def test_eval_record_is_the_stage_eval(self, stage_one, stage_two):
        # The stage's own eval is the memory eval of the initial and the
        # trained memories that the command used to run, and the record
        # carries its two numbers.
        cfg = load_config(stage_one["config"])
        params, _ = load_checkpoint(stage_one["checkpoint"], cfg)
        result = train_memory_run(cfg, params)
        assert "teacher" not in result
        assert result["eval"] == memory_eval_losses(
            cfg, TeacherModel(cfg.teacher), result["params"],
            (init_memory(cfg), result["memories"]))
        (evaluated,) = read_records(stage_two / "train_memory_eval.jsonl")
        assert [evaluated["loss_init"], evaluated["loss_trained"]] == \
            result["eval"]

    def test_joint_training_moves_indexer_tensors(self, stage_one, stage_two):
        before = load_weights(stage_one["checkpoint"])
        after = load_weights(stage_two / "memory.kvgt")
        moved = any(not np.array_equal(before[name], after[name])
                    for name in before)
        assert moved

    def test_missing_checkpoint_file(self, stage_one, tmp_path, capsys):
        code = run("train-memory", "--config", stage_one["config"],
                   "--checkpoint", tmp_path / "nope.kvgt",
                   "--out", tmp_path / "out")
        assert code == EXIT_IO
        assert stderr_record(capsys)["command"] == "train-memory"

    def test_checkpoint_without_indexer_weights(self, stage_one, stage_two,
                                                tmp_path, capsys):
        bogus = tmp_path / "memories.kvgt"
        save_weights(bogus, {name: tensor for name, tensor
                             in load_weights(stage_two / "memory.kvgt").items()
                             if name.startswith("mem.")})
        code = run("train-memory", "--config", stage_one["config"],
                   "--checkpoint", bogus, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "indexer" in stderr_record(capsys)["message"]

    def test_indexer_policy_without_checkpoint(self, stage_one, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        code = run("train-memory", "--config", stage_one["config"],
                   "--out", out)
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert record["command"] == "train-memory"
        assert "checkpoint" in record["message"]
        assert not (out / "memory.kvgt").exists()

    def test_other_policy_needs_no_checkpoint(self, tmp_path):
        # With no indexer to carry, the file holds the memories alone, and
        # sweep reads them.
        config = write_config(tmp_path, policy={"name": "knorm"})
        out = tmp_path / "out"
        assert run("train-memory", "--config", config, "--out", out) == EXIT_OK
        tensors = load_weights(out / "memory.kvgt")
        assert tensors and all(name.startswith("mem.") for name in tensors)
        swept = tmp_path / "swept"
        assert run("sweep", "--config", config, "--checkpoint",
                   out / "memory.kvgt", "--out", swept) == EXIT_OK
        records = read_records(swept / "sweep.jsonl")
        assert all(rec["memory_bytes"] > 0 for rec in records)


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
        assert not (tmp_path / "out").exists()


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

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        # pytest's own warning capture would hide a leak, so the poisoned
        # run goes through a plain interpreter. The weight is finite, so the
        # overflow warning comes from the next layer's rmsnorm square.
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import kvgate.harness as harness",
            "from kvgate.cli import main",
            "class Poisoned(harness.TeacherModel):",
            "    def __init__(self, config):",
            "        super().__init__(config)",
            "        self.layers[0].w_out[0, 0] = 1e200",
            "harness.TeacherModel = Poisoned",
            "sys.exit(main(sys.argv[1:]))",
        ])
        config = write_config(tmp_path, policy={"name": "knorm"})
        out = tmp_path / "out"
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
        done = subprocess.run(
            [sys.executable, "-c", script, "decode-sim", "--config",
             str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_DIVERGENCE
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "DivergenceError"
        assert "RuntimeWarning" in (out / "run.log").read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("lines, message, per_line", [
        (['[1,2]'], "JSON object", True),
        (['{"schema":1}'], "string kind", True),
        (['{"schema":1,"kind":3}'], "string kind", True),
        (['{"schema":1,"kind":"sweep","ratio":NaN}'], "finite", True),
        (['{"schema":1,"kind":"sweep","ratio":"0.5","recall":1.0}',
          '{"schema":1,"kind":"sweep","ratio":0.25,"recall":0.5}'],
         "ratio values must be numbers", False),
        (['{"schema":1,"kind":"a/b","ratio":0.5,"recall":1.0}'], "named",
         False),
    ])
    def test_malformed_line_is_one_error_record(self, tmp_path, capsys,
                                                lines, message, per_line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("report", bad, "--out", tmp_path / "report")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert message in record["message"]
        assert (f"{bad}:1:" in record["message"]) == per_line

    @settings(max_examples=150, deadline=None)
    @given(line=st.text(st.characters(blacklist_categories=("Cs",)))
           | st.fixed_dictionaries(
               {"schema": st.sampled_from([1, 1, 2, "1"]),
                "kind": st.text(max_size=8) | st.integers()},
               optional={key: JSON_VALUES for key in
                         ("ratio", "step", "budget", "policy", "recall")}
           ).map(json.dumps))
    def test_any_metrics_line_exits_zero_or_one_record(self, line):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.jsonl"
            path.write_text(line + "\n", encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run("report", path, "--out", Path(tmp) / "report")
        assert code in (EXIT_OK, EXIT_CONFIG)
        lines = err.getvalue().splitlines()
        if code == EXIT_OK:
            assert lines == []
        else:
            assert len(lines) == 1
            json.loads(lines[0])


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

    def test_out_of_memory_is_one_io_record(self, tmp_path, capsys):
        # 10**15 tokens ask for 7.1 PiB, past any 64-bit user address
        # space, so the allocation fails at once whatever the overcommit.
        config = write_config(tmp_path, data={"length": 10**15},
                              train={"indexer_steps": 1})
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_IO
        assert only_stderr_record(capsys)["error"] == "MemoryError"

    @pytest.mark.parametrize("section,value,key", [
        ("agg", {"mode": "none"}, "agg"),
        ("policy", {"head_pool": "mean"}, "head_pool"),
        ("train", {"head_sum": False}, "head_sum"),
        ("train", {"stop_write_grad": False}, "stop_write_grad"),
        ("train", {"lam": 0.95}, "lam"),
        ("data", {"kind": "gauss"}, "data.kind"),
        ("plan", {"budget": 48}, "budget"),
        ("policy", {"window": 8}, "window"),
        ("policy", {"seed": 0}, "seed"),
        ("train", {"param_seed": 42}, "param_seed"),
        ("data", {"eval_start": 20}, "eval_start"),
        ("reuse", {"group_size": 1}, "reuse"),
        ("train", {"eta": 1.0}, "eta"),
        ("out", "runs", "out"),
        ("teacher", {"seed": 0}, "seed"),
        ("train", {"d_mem": None}, "d_mem"),
        ("train", {"mem_lr": 0.05}, "mem_lr"),
        ("train", {"indexer_peak": 1e-3}, "indexer_peak"),
    ])
    def test_retired_config_key(self, tmp_path, capsys, section, value, key):
        # One JSON line on stderr, so no traceback either, from every
        # stage, before its output directory is made.
        config = write_config(tmp_path, **{section: value})
        for command in STAGE_COMMANDS:
            code = run(command, "--config", config, "--out", tmp_path / "out")
            assert code == EXIT_CONFIG
            record = only_stderr_record(capsys)
            assert record["error"] == "ConfigError"
            assert record["command"] == command
            assert key in record["message"]
            assert not (tmp_path / "out").exists()

    def test_boolean_version_in_config(self, tmp_path, capsys):
        config = write_config(tmp_path, version=True)
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "version" in record["message"]

    def test_infinite_number_in_config(self, tmp_path, capsys):
        # json.dumps writes float("inf") as JSON's Infinity, which
        # json.loads accepts.
        config = write_config(tmp_path, plan={"ratio": float("inf")})
        assert "Infinity" in config.read_text(encoding="utf-8")
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "ratio must be finite" in record["message"]

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

    @pytest.mark.parametrize("teacher, tensor", [
        ({"d_model": 32}, "'idx.0.u_q' has shape [16, 6]"),
        ({"n_layers": 1}, "'idx.1.g' does not belong to a 1-layer teacher"),
    ])
    def test_checkpoint_from_another_teacher(self, stage_one, tmp_path,
                                             capsys, teacher, tensor):
        config = write_config(tmp_path, teacher=teacher)
        code = run("sweep", "--config", config, "--checkpoint",
                   stage_one["checkpoint"], "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert tensor in record["message"]

    @pytest.mark.parametrize("command", ["train-memory", "sweep",
                                         "decode-sim"])
    def test_indexer_checkpoint_of_other_widths(self, tmp_path, capsys,
                                                command):
        # A checkpoint trained at h_index 4 / d_index 8 used to load under
        # a config at the default widths: the records carried that config's
        # hash and an indexer_bytes computed from width 8.
        wide = tmp_path / "wide"
        assert run("train-indexer", "--config",
                   write_config(tmp_path, name="wide.json",
                                train={"h_index": 4, "d_index": 8}),
                   "--out", wide) == EXIT_OK
        config = write_config(tmp_path, train={"h_index": None,
                                               "d_index": None})
        out = tmp_path / "out"
        capsys.readouterr()
        code = run(command, "--config", config, "--checkpoint",
                   wide / "indexer.kvgt", "--out", out)
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert record["command"] == command
        assert "(4, 8)" in record["message"]
        assert "(1, 1)" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-memory", "sweep",
                                         "decode-sim"])
    @pytest.mark.parametrize("fields", [("g", "u_q"), ("u_k", "u_q")],
                             ids=["heads", "width"])
    def test_zero_width_indexer_checkpoint(self, stage_one, tmp_path, capsys,
                                           command, fields):
        # Zero-width g and u_q divided by zero in the gate scale.
        tensors = load_weights(stage_one["checkpoint"])
        for name in list(tensors):
            if name.split(".")[-1] in fields:
                tensors[name] = np.zeros((tensors[name].shape[0], 0))
        bogus = tmp_path / "zero.kvgt"
        save_weights(bogus, tensors)
        code = run(command, "--config", stage_one["config"],
                   "--checkpoint", bogus, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert "H_index and d_index must be at least 1" in record["message"]

    @pytest.mark.parametrize("name", ["memory.0.w_phi", "other.w"])
    def test_checkpoint_with_a_foreign_tensor(self, stage_two, tmp_path,
                                              capsys, name):
        # A tensor outside the idx.* and mem.* families used to be ignored,
        # so this file loaded as no weights and the knorm sweep exited 0
        # with memory_bytes 0.
        w_phi = load_weights(stage_two / "memory.kvgt")["mem.0.w_phi"]
        bogus = tmp_path / "foreign.kvgt"
        save_weights(bogus, {name: w_phi})
        out = tmp_path / "out"
        code = run("sweep", "--config",
                   write_config(tmp_path, policy={"name": "knorm"}),
                   "--checkpoint", bogus, "--out", out)
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert record["command"] == "sweep"
        assert repr(name) in record["message"]
        assert not out.exists()

    def test_zero_width_memory_checkpoint(self, stage_two, tmp_path, capsys):
        tensors = load_weights(stage_two / "memory.kvgt")
        for name in list(tensors):
            if name.endswith(".w_phi"):
                tensors[name] = np.zeros((tensors[name].shape[0], 0))
        bogus = tmp_path / "zero.kvgt"
        save_weights(bogus, tensors)
        code = run("sweep", "--config", write_config(tmp_path),
                   "--checkpoint", bogus, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert "d_mem must be at least 1" in record["message"]

    def test_overflowing_memory_readout_exits_divergence(self, stage_two,
                                                         tmp_path, capsys):
        # Finite weights whose readout overflows: the fused loss used to
        # reach the records as a float JSON cannot hold.
        tensors = load_weights(stage_two / "memory.kvgt")
        for name in list(tensors):
            if name.endswith(".w_phi"):
                tensors[name] = np.full_like(tensors[name], 1e200)
        huge = tmp_path / "huge.kvgt"
        save_weights(huge, tensors)
        out = tmp_path / "out"
        code = run("sweep", "--config", write_config(tmp_path),
                   "--checkpoint", huge, "--out", out, "--threads", 2)
        assert code == EXIT_DIVERGENCE
        record = only_stderr_record(capsys)
        assert record["error"] == "DivergenceError"
        assert "memory loss non-finite" in record["message"]
        assert not (out / "sweep.jsonl").exists()

    @pytest.mark.parametrize("command, out_file", [("sweep", "sweep.jsonl"),
                                                   ("decode-sim", "decode.jsonl")])
    def test_overflowing_indexer_features_exit_divergence(
            self, stage_one, tmp_path, capsys, command, out_file):
        # Finite weights whose key features overflow in rmsnorm's square
        # used to give every key the same score, and the run exited 0.
        tensors = load_weights(stage_one["checkpoint"])
        for name in list(tensors):
            if name.endswith(".u_k"):
                tensors[name] = np.full_like(tensors[name], 1e200)
        huge = tmp_path / "huge.kvgt"
        save_weights(huge, tensors)
        out = tmp_path / "out"
        code = run(command, "--config", stage_one["config"],
                   "--checkpoint", huge, "--out", out)
        assert code == EXIT_DIVERGENCE
        record = only_stderr_record(capsys)
        assert record["error"] == "DivergenceError"
        assert "non-finite" in record["message"]
        assert not (out / out_file).exists()

    @pytest.mark.parametrize("site", ["config", "metrics", "manifest"])
    def test_deeply_nested_json_is_one_error_record(self, tmp_path, site):
        # 1,000 nested arrays (2 KB) exceed the interpreter's recursion
        # limit in json.loads; that used to end in a RecursionError
        # traceback and exit 1. A plain interpreter shows the real exit.
        deep = "[" * 1000 + "]" * 1000
        config = write_config(tmp_path)
        if site == "config":
            config.write_text('{"version": 1, "seed": ' + deep + "}",
                              encoding="utf-8")
            argv = ["train-indexer", "--config", config]
            error, where = "ConfigError", "nested too deeply"
        elif site == "metrics":
            path = tmp_path / "m.jsonl"
            path.write_text('{"schema": 1, "kind": "sweep", "ratio": '
                            + deep + "}\n", encoding="utf-8")
            argv = ["report", path]
            error, where = "ValueError", f"{path}:1:"
        else:
            body = ('{"version": 1, "tensors": ' + deep + "}").encode("utf-8")
            path = tmp_path / "deep.kvgt"
            path.write_bytes(MAGIC + np.uint32(len(body)).tobytes() + body)
            argv = ["decode-sim", "--config", config, "--checkpoint", path]
            error, where = "ValueError", "nested too deeply"
        src = str(Path(harness.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "kvgate.cli", *map(str, argv),
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1, lines
        record = json.loads(lines[0])
        assert record["error"] == error
        assert where in record["message"]

    def test_eval_start_among_the_sinks(self, tmp_path, capsys):
        # A prefix of sinks alone used to train to a zero loss and exit 0.
        # eval_start is two thirds of the length: 2, against 2 sinks.
        config = write_config(tmp_path, data={"length": 3})
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "data.eval_start" in record["message"]
        assert "plan.sink_count" in record["message"]

    def test_budget_below_sinks_and_window(self, tmp_path, capsys):
        # Sinks 2 plus window 4 need a budget of at least 6; only
        # decode-sim used to refuse 5, so the other stages ran.
        config = write_config(tmp_path, decode={"budgets": [5]})
        code = run("train-indexer", "--config", config,
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        record = only_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "decode.budgets" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_out_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["sweep", "--config", "c.json"]).out == "runs"
        assert parser.parse_args(["report", "m.jsonl"]).out == "report"

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

    def test_non_level_log_name_falls_back_to_warning(self):
        # basicConfig is a no-op under pytest, whose handlers are already
        # installed, so the level is set in a plain interpreter.
        # ``BASIC_FORMAT`` is a logging attribute, but a format string.
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "KVGATE_LOG": "basic_format"}
        done = subprocess.run(
            [sys.executable, "-m", "kvgate.cli", "selftest"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK
        assert done.stderr == ""
        assert done.stdout.strip().endswith("checks passed")

    def test_metrics_lines_carry_no_timestamps(self, stage_one):
        curve_path = stage_one["out"] / "train_indexer_loss.jsonl"
        for line in curve_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert "time" not in record and "timestamp" not in record


ROOT = Path(__file__).resolve().parents[1]

# Flags no program passes, each as (command, flag) with the reason it stays.
UNPASSED_BY_ANY_PROGRAM = {}


def parser_flags():
    """(command, flag) for every option of every subcommand, -h aside."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                yield command, action.option_strings[0]


def passed_flags(argv):
    """(command, flag) for the options one command line passes."""
    return {(argv[0], token) for token in argv[1:]
            if token.startswith("--")}


def program_command_lines() -> dict:
    """Every CLI command line a program runs, by program: the benchmark's
    workloads at both sizes (``tools/same_bytes.py`` builds its argv the
    same way), demo 07's ``cli(...)`` calls and the README's ``kvgate``
    lines."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it is being built.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    bench = [work.argv(stage, "config.json", Path("out"), 0)
             for size in workloads.SIZES for name in workloads.NAMES
             for work in [workloads.workload(name, size)]
             for stage in work.setup + work.stages]
    # The demo runs its pipeline when imported, so its calls are read
    # from the source instead.
    demo = ast.parse((ROOT / "demos" / "07_cli_pipeline.py").read_text())
    demo_lines = [[arg.value for arg in node.args
                   if isinstance(arg, ast.Constant)]
                  for node in ast.walk(demo)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "cli"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme_lines = [shlex.split(line)[1:] for line in re.findall(
        r"^kvgate .*$", readme.replace("\\\n", " "), re.M)]
    return {"perfbench": bench, "demo 07": demo_lines,
            "README": readme_lines}


class TestEveryFlagHasAProgram:
    def test_each_flag_is_passed_by_a_program_or_allowlisted(self):
        by_program = program_command_lines()
        assert all(by_program.values()), by_program
        passed = {flag for lines in by_program.values() for argv in lines
                  for flag in passed_flags(argv)}
        unpassed = set(parser_flags()) - passed
        assert unpassed == set(UNPASSED_BY_ANY_PROGRAM)


class TestDependencies:
    def test_package_imports_numpy_and_the_standard_library_only(self):
        allowed = set(sys.stdlib_module_names) | {"numpy"}
        foreign = []
        for path in sorted((ROOT / "src" / "kvgate").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                foreign += [f"{path.name}: {root}" for root in roots
                            if root not in allowed]
        assert foreign == []
