"""Experiment configuration: strict JSON in, validated dataclass out.

Every key is checked against the schema and unknown keys are errors, so a
typo in a sweep definition fails loudly instead of silently running the
defaults. The config hash covers the fully-defaulted canonical form,
which makes it stable under spelling out a default explicitly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .cache import CompressionPlan
from .episodes import MEM_LR
from .indexer import WSD_PEAK
from .numerics import SEED_LIMIT
from .policies import POLICY_NAMES
from .synth import TAIL_WIDTH
from .teacher import TeacherConfig

CONFIG_VERSION = 1
DATA_KINDS = ("tokens", "planted")
# Knobs that are no longer settable, at the values every config had for
# them. The hash covers the canonical form with these merged in, so each
# config keeps the hash its records carried before the knobs were retired.
# A value the stages still run is read from the name they run it by, so
# changing that constant moves the hash with the bytes.
_RETIRED = {
    "out": "runs",  # the output directory is --out alone
    "teacher": {"seed": TeacherConfig.seed},
    "plan": {"budget": None},
    "policy": {"head_pool": "mean", "window": 8, "seed": 0},
    "reuse": {"group_size": 1},
    "agg": {"mode": "none", "gamma": 0.5, "prob": "softmax"},
    "train": {"head_sum": False, "stop_write_grad": False, "lam": 0.95,
              "param_seed": 42, "eta": 1.0, "d_mem": None,
              "indexer_peak": WSD_PEAK, "mem_lr": MEM_LR},
}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


_SCHEMA = {
    "version": None,
    "seed": 0,
    "teacher": {
        "n_layers": 4, "d_model": 64, "n_heads": 8, "n_kv_heads": 2,
        "d_ffn": 128, "vocab_size": 64,
    },
    "plan": {
        "ratio": 0.5, "sink_count": 4, "local_window": 8,
    },
    "policy": {
        "name": "indexer",
    },
    "data": {
        "kind": "tokens", "length": 128, "n_train": 64, "n_eval": 32,
    },
    "train": {
        "h_index": None, "d_index": None,
        "indexer_steps": 600, "mem_steps": 300,
    },
    "decode": {
        "steps": 256, "interval": 128, "budgets": (48, 64, 96),
    },
}


def _merge(section: str, defaults: dict, given: dict) -> dict:
    # JSON's Infinity and NaN parse as floats, and an integer past the float
    # range reads as one. No key takes them, a retired one included, so they
    # are refused by path before the keys are.
    for key, value in given.items():
        _require(not isinstance(value, (int, float))
                 or abs(value) <= sys.float_info.max,
                 f"{section}.{key} must be finite" if section
                 else f"{key} must be finite")
    unknown = set(given) - set(defaults)
    if unknown:
        where = section or "top level"
        raise ConfigError(f"unknown config keys at {where}: {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            sub = given.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            out[key] = _merge(key, default, sub)
        else:
            out[key] = given.get(key, default)
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _as_int(tree: dict, section: str, key: str, minimum=None, optional=False):
    value = tree[section][key]
    if value is None and optional:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{section}.{key} must be an integer")
    if minimum is not None:
        _require(value >= minimum, f"{section}.{key} must be >= {minimum}")
    return value


def _as_number(tree: dict, section: str, key: str) -> float:
    value = tree[section][key]
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{section}.{key} must be a number")
    return float(value)  # finite, as _merge checked


@dataclass
class ExperimentConfig:
    """Validated experiment description plus its canonical form."""

    seed: int
    teacher: TeacherConfig
    plan: CompressionPlan
    policy_name: str
    data_kind: str
    data_length: int
    n_train: int
    n_eval: int
    eval_start: int
    h_index: int | None
    d_index: int | None
    indexer_steps: int
    mem_steps: int
    decode_steps: int
    decode_budgets: tuple
    canonical: dict

    @cached_property
    def config_hash(self) -> str:
        """Digest of the canonical form, computed once per config."""
        hashed = dict(self.canonical)
        for key, value in _RETIRED.items():
            hashed[key] = ({**hashed.get(key, {}), **value}
                           if isinstance(value, dict) else value)
        blob = json.dumps(hashed, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    tree = _merge("", _SCHEMA, raw)
    # ``True == 1``, so the type check keeps ``"version": true`` out.
    _require(type(tree["version"]) is int and tree["version"] == CONFIG_VERSION,
             f"config version must be {CONFIG_VERSION}")
    _require(isinstance(tree["seed"], int) and not isinstance(tree["seed"], bool)
             and 0 <= tree["seed"] < SEED_LIMIT,
             "seed must be an integer in [0, 2**64)")

    try:
        teacher = TeacherConfig(
            n_layers=_as_int(tree, "teacher", "n_layers", 1),
            d_model=_as_int(tree, "teacher", "d_model", 1),
            n_heads=_as_int(tree, "teacher", "n_heads", 1),
            n_kv_heads=_as_int(tree, "teacher", "n_kv_heads", 1),
            d_ffn=_as_int(tree, "teacher", "d_ffn", 1),
            vocab_size=_as_int(tree, "teacher", "vocab_size", 1))
        plan = CompressionPlan(
            ratio=_as_number(tree, "plan", "ratio"),
            sink_count=_as_int(tree, "plan", "sink_count", 0),
            local_window=_as_int(tree, "plan", "local_window", 0),
            decode_interval=_as_int(tree, "decode", "interval", 1))
    except ValueError as bad:
        raise ConfigError(str(bad)) from None

    _require(tree["policy"]["name"] in POLICY_NAMES,
             f"policy.name must be one of {POLICY_NAMES}")
    _require(tree["data"]["kind"] in DATA_KINDS,
             f"data.kind must be one of {DATA_KINDS}")

    length = _as_int(tree, "data", "length", 2)
    eval_start = (2 * length) // 3
    _require(eval_start > plan.sink_count,
             "data.eval_start, two thirds of data.length, must exceed "
             "plan.sink_count, so the prefix has a key that is not a sink")
    if tree["data"]["kind"] == "planted":
        # Needles are drawn from [sink_count, eval_start - local_window)
        # and must precede the planted query tail.
        slots_end = eval_start - plan.local_window
        _require(plan.sink_count < slots_end <= length - TAIL_WIDTH,
                 "planted data needs candidate slots between the sinks and "
                 "the local window, all before the "
                 f"{TAIL_WIDTH}-row query tail")

    budgets = tree["decode"]["budgets"]
    _require(isinstance(budgets, (list, tuple)) and len(budgets) > 0
             and all(type(b) is int and b >= 1 for b in budgets),
             "decode.budgets must be a non-empty list of positive integers")
    # A compaction keeps the sinks and the local window whatever the budget.
    _require(min(budgets) >= plan.sink_count + plan.local_window,
             "decode.budgets must each cover plan.sink_count plus "
             "plan.local_window")

    # Written into the hashed form, as when it was a settable key.
    tree["data"]["eval_start"] = eval_start
    tree["decode"]["budgets"] = list(budgets)
    return ExperimentConfig(
        seed=tree["seed"],
        teacher=teacher,
        plan=plan,
        policy_name=tree["policy"]["name"],
        data_kind=tree["data"]["kind"],
        data_length=length,
        n_train=_as_int(tree, "data", "n_train", 1),
        n_eval=_as_int(tree, "data", "n_eval", 1),
        eval_start=eval_start,
        h_index=_as_int(tree, "train", "h_index", 1, optional=True),
        d_index=_as_int(tree, "train", "d_index", 1, optional=True),
        indexer_steps=_as_int(tree, "train", "indexer_steps", 0),
        mem_steps=_as_int(tree, "train", "mem_steps", 0),
        decode_steps=_as_int(tree, "decode", "steps", 1),
        decode_budgets=tuple(budgets),
        canonical=tree,
    )


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse a config file; ``seed``, when given, replaces the file's seed."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ConfigError(f"config is not valid JSON: {bad}") from None
    except RecursionError:
        raise ConfigError("config JSON is nested too deeply") from None
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return parse_config(raw)
