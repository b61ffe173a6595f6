"""The benchmark's workloads: a kvgate config plus the CLI stages to run.

Every workload uses the README teacher (4 layers, d_model 64, 8 query and
2 kv heads). ``setup`` stages make the checkpoint a workload needs and are
timed as set-up; ``stages`` are the timed, checked operations. The config
seed is fixed; the benchmark seed reaches kvgate only as the CLI ``--seed``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

TEACHER = {"n_layers": 4, "d_model": 64, "n_heads": 8, "n_kv_heads": 2,
           "d_ffn": 128, "vocab_size": 64}
PLAN = {"ratio": 0.5, "sink_count": 4, "local_window": 8}
SWEEP_THREADS = 2

# Checkpoint each stage reads, when it reads one.
CHECKPOINT_OF = {"train-memory": "indexer.kvgt", "sweep": "memory.kvgt"}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    setup: tuple
    stages: tuple
    decode_checkpoint: str = "memory.kvgt"

    def argv(self, stage: str, config_path, out, seed: int) -> list:
        argv = [stage, "--config", str(config_path), "--out", str(out),
                "--seed", str(seed)]
        checkpoint = (self.decode_checkpoint if stage == "decode-sim"
                      else CHECKPOINT_OF.get(stage))
        if checkpoint:
            argv += ["--checkpoint", str(out / checkpoint)]
        if stage == "sweep":
            argv += ["--threads", str(SWEEP_THREADS)]
        return argv


def _config(policy: str, data: dict, train: dict, decode=None) -> dict:
    config = {"version": 1, "seed": 0, "teacher": dict(TEACHER),
              "plan": dict(PLAN), "policy": {"name": policy}, "data": data,
              "train": train}
    if decode is not None:
        config["decode"] = decode
    return config


# Full size. The README pipeline (64/32 sequences, 600/300 steps) takes
# ~47 s per pass on a 2-core box, too long to repeat within one run, so
# `pipeline` keeps its shapes and scales the counts down; `sweep-planted`
# and `decode-long` are sized so that several passes fit in one run.
_FULL = {
    "pipeline": _config(
        "indexer",
        {"kind": "tokens", "length": 128, "n_train": 8, "n_eval": 4},
        {"indexer_steps": 50, "mem_steps": 150},
        {"steps": 64, "interval": 32, "budgets": [48, 64, 96]}),
    "sweep-planted": _config(
        "snapkv",
        {"kind": "planted", "length": 256, "n_train": 1, "n_eval": 8},
        {"indexer_steps": 0, "mem_steps": 0}),
    "decode-long": _config(
        "indexer",
        {"kind": "tokens", "length": 256, "n_train": 1, "n_eval": 1},
        {"indexer_steps": 0, "mem_steps": 0},
        {"steps": 1024, "interval": 64, "budgets": [64, 256]}),
}

# Minimum size for the smoke test: the same stages on tiny inputs. Each
# decode config has one budget that covers the whole sequence, so the
# matches-reference check is exercised.
_SMOKE = {
    "pipeline": _config(
        "indexer",
        {"kind": "tokens", "length": 32, "n_train": 2, "n_eval": 2},
        {"indexer_steps": 3, "mem_steps": 3},
        {"steps": 8, "interval": 4, "budgets": [16, 48]}),
    "sweep-planted": _config(
        "snapkv",
        {"kind": "planted", "length": 48, "n_train": 1, "n_eval": 2},
        {"indexer_steps": 0, "mem_steps": 0}),
    "decode-long": _config(
        "indexer",
        {"kind": "tokens", "length": 32, "n_train": 1, "n_eval": 1},
        {"indexer_steps": 0, "mem_steps": 0},
        {"steps": 32, "interval": 8, "budgets": [16, 64]}),
}

# Why each workload exists is recorded in BENCHMARK.json and README.md.
_SHAPE = {
    "pipeline": dict(
        setup=(),
        stages=("train-indexer", "train-memory", "sweep", "decode-sim")),
    "sweep-planted": dict(
        setup=("train-indexer", "train-memory"),
        stages=("sweep",)),
    "decode-long": dict(
        setup=("train-indexer",),
        stages=("decode-sim",),
        decode_checkpoint="indexer.kvgt"),
}

SIZES = {"full": _FULL, "smoke": _SMOKE}
NAMES = tuple(_SHAPE)


def workload(name: str, size: str = "full") -> Workload:
    return Workload(name=name, config=copy.deepcopy(SIZES[size][name]),
                    **_SHAPE[name])
