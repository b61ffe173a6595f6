"""Output checks for each CLI stage, plus the committed-reference comparison.

Every check returns a list of problems; an empty list means the stage's
outputs are correct. The checks read the files a stage wrote and never
call back into the code under test, except ``load_weights`` to parse a
checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import product
from pathlib import Path

# kvgate's fixed sweep grid: three policies by these ratios.
SWEEP_RATIOS = (0.0, 0.10, 0.25, 0.50, 0.75, 0.90)
BASELINES = ("knorm", "random")

OUTPUTS = {
    "train-indexer": ("indexer.kvgt", "train_indexer_loss.jsonl"),
    "train-memory": ("memory.kvgt", "train_memory_loss.jsonl",
                     "train_memory_eval.jsonl"),
    "sweep": ("sweep.jsonl",),
    "decode-sim": ("decode.jsonl",),
}

# Numeric fields of a reference record must agree within REL_TOL of the
# larger magnitude (or ABS_TOL near zero); strings, bools and nulls must be
# equal. Reference files sample at most SAMPLE records per output file.
REL_TOL = 1e-6
ABS_TOL = 1e-12
SAMPLE = 32


def read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def digest(out: Path, stage: str) -> str:
    """One hash over every file the stage wrote (``run.log`` excluded)."""
    h = hashlib.sha256()
    for name in OUTPUTS[stage]:
        h.update(name.encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return math.isfinite(value)


def _records(out: Path, name: str, config_hash: str, seed: int,
             problems: list) -> list:
    records = read_jsonl(out / name)
    for r in records:
        if r.get("config") != config_hash or r.get("seed") != seed:
            problems.append(f"{name}: record for config {r.get('config')} "
                            f"seed {r.get('seed')}, expected {config_hash} {seed}")
            break
    for r in records:
        bad = [k for k, v in r.items() if not _finite(v)]
        if bad:
            problems.append(f"{name}: non-finite {bad}")
            break
    return records


def _weights(path: Path, prefixes, problems: list) -> None:
    from kvgate.checkpoint import load_weights

    import numpy as np

    tensors = load_weights(path)
    for prefix in prefixes:
        if not any(k.startswith(prefix) for k in tensors):
            problems.append(f"{path.name}: no {prefix}* tensors")
    if not all(np.all(np.isfinite(t)) for t in tensors.values()):
        problems.append(f"{path.name}: non-finite tensor")


def _curve(records: list, kind: str, steps: int, name: str, problems: list):
    if [r.get("step") for r in records] != list(range(steps)):
        problems.append(f"{name}: expected steps 0..{steps - 1}")
    if any(r.get("kind") != kind for r in records):
        problems.append(f"{name}: records are not all {kind!r}")


def check_stage(stage: str, out: Path, config: dict, config_hash: str,
                seed: int) -> list:
    problems = []
    for name in OUTPUTS[stage]:
        if not (out / name).is_file():
            return [f"{stage}: missing {name}"]

    def records(name):
        return _records(out, name, config_hash, seed, problems)

    if stage == "train-indexer":
        _weights(out / "indexer.kvgt", ("idx.",), problems)
        _curve(records("train_indexer_loss.jsonl"), "indexer_loss",
               config["train"]["indexer_steps"], "train_indexer_loss.jsonl",
               problems)
    elif stage == "train-memory":
        _weights(out / "memory.kvgt", ("idx.", "mem."), problems)
        _curve(records("train_memory_loss.jsonl"), "memory_loss",
               config["train"]["mem_steps"], "train_memory_loss.jsonl",
               problems)
        evals = records("train_memory_eval.jsonl")
        if len(evals) != 1 or evals[0].get("improved") != (
                evals[0].get("loss_trained", 0) < evals[0].get("loss_init", 0)):
            problems.append("train_memory_eval.jsonl: bad eval record")
    elif stage == "sweep":
        _check_sweep(records("sweep.jsonl"), config, problems)
    elif stage == "decode-sim":
        _check_decode(records("decode.jsonl"), config, problems)
    return problems


def _check_sweep(records: list, config: dict, problems: list) -> None:
    policies = [config["policy"]["name"]] + [
        b for b in BASELINES if b != config["policy"]["name"]]
    grid = {(r.get("policy"), r.get("ratio")) for r in records}
    if len(records) != 18 or grid != set(product(policies, SWEEP_RATIOS)):
        problems.append(f"sweep.jsonl: {len(records)} records, expected the "
                        f"18-point {policies} x ratio grid")
    for r in records:
        if r.get("ratio") == 0.0 and r.get("recon_attn") != 0.0:
            problems.append(f"sweep.jsonl: {r.get('policy')} recon_attn "
                            f"{r.get('recon_attn')} at ratio 0")
        if r.get("n_sequences") != config["data"]["n_eval"]:
            problems.append("sweep.jsonl: wrong n_sequences")
        parts = sum(r.get(k, 0) for k in ("kv_bytes", "indexer_bytes",
                                          "memory_bytes"))
        if r.get("total_bytes") != parts:
            problems.append("sweep.jsonl: total_bytes is not the sum")


def _check_decode(records: list, config: dict, problems: list) -> None:
    decode = config["decode"]
    steps = [r for r in records if r.get("kind") == "decode"]
    summaries = [r for r in records if r.get("kind") == "decode_summary"]
    if (len(steps) != decode["steps"] * len(decode["budgets"])
            or [s.get("budget") for s in summaries] != decode["budgets"]):
        problems.append("decode.jsonl: wrong record counts")
    if not all(r.get("within") is True for r in steps):
        problems.append("decode.jsonl: a step exceeds budget + interval")
    for s in summaries:
        if s.get("bound_ok") is not True:
            problems.append(f"decode.jsonl: budget {s.get('budget')} bound_ok false")
        if s.get("covers_total") and s.get("matches_reference") is not True:
            problems.append(f"decode.jsonl: budget {s.get('budget')} covers the "
                            "sequence but does not match the reference")


# -- committed reference values ---------------------------------------------

def _sample(records: list) -> list:
    if len(records) <= SAMPLE:
        return records
    stride = math.ceil(len(records) / SAMPLE)
    return records[::stride] + ([records[-1]] if (len(records) - 1) % stride
                                else [])


def summarize(out: Path, stages) -> dict:
    """Reference-comparable summary of every stage's outputs."""
    import numpy as np
    from kvgate.checkpoint import load_weights

    summary = {}
    for stage in stages:
        for name in OUTPUTS[stage]:
            if name.endswith(".kvgt"):
                summary[name] = {k: [float(np.sum(v)), float(np.sum(np.abs(v)))]
                                 for k, v in sorted(load_weights(out / name).items())}
            else:
                records = read_jsonl(out / name)
                summary[name] = {"count": len(records),
                                 "sample": _sample(records)}
    return summary


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None \
            or isinstance(a, str) or isinstance(b, str):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return False


def compare_reference(summary: dict, reference: dict) -> list:
    problems = []
    for name in sorted(set(summary) | set(reference)):
        if not _close(summary.get(name), reference.get(name)):
            problems.append(f"{name}: differs from the committed reference")
    return problems
