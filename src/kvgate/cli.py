"""Command-line entry point for training, sweeps, and reports.

Exit codes: 0 success, 2 config/validation error, 3 numerical divergence,
4 I/O error. Failures emit one machine-readable JSON record on stderr.
All command outputs are deterministic in (config, seed); the only place a
timestamp ever appears is the run.log sidecar.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .checkpoint import (
    indexer_tensors,
    load_weights,
    memory_tensors,
    save_weights,
    unpack_indexer,
    unpack_memory,
)
from .config import ConfigError, load_config
from .episodes import episode_loss
from .harness import (
    build_episode_sets,
    decode_run,
    eval_sequences,
    init_memory,
    selftest,
    sweep_run,
    train_indexer_run,
    train_memory_run,
)
from .metrics import make_record, read_records, write_records, write_report
from .numerics import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

log = logging.getLogger("kvgate")


def _load_config(args):
    return load_config(args.config, seed=args.seed)


def _out_dir(args, cfg) -> Path:
    out = Path(args.out) if args.out else Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _attach_sidecar(out: Path) -> None:
    """Route log lines (the only place timestamps appear) to out/run.log."""
    logger = logging.getLogger("kvgate")
    for old in [h for h in logger.handlers
                if isinstance(h, logging.FileHandler)]:
        logger.removeHandler(old)
        old.close()
    handler = logging.FileHandler(out / "run.log")
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)


def _load_checkpoint(path, n_layers: int):
    """(indexer params or None, memories or None) from a weights file."""
    tensors = load_weights(path)
    params = None
    memories = None
    if any(name.startswith("idx.") for name in tensors):
        params = unpack_indexer(tensors, n_layers)
    if any(name.startswith("mem.") for name in tensors):
        memories = unpack_memory(tensors, n_layers)
    return params, memories


def cmd_train_indexer(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    _attach_sidecar(out)
    log.info("training indexer for %d steps on %d sequences",
             cfg.indexer_steps, cfg.n_train)
    result = train_indexer_run(cfg)
    save_weights(out / "indexer.kvgt", indexer_tensors(result["params"]))
    write_records(out / "train_indexer_loss.jsonl",
                  [make_record("indexer_loss", cfg.config_hash, cfg.seed, row)
                   for row in result["curve"]])
    log.info("wrote %s", out / "indexer.kvgt")
    return EXIT_OK


def cmd_train_memory(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    _attach_sidecar(out)
    stage_one, _ = _load_checkpoint(args.checkpoint, cfg.teacher.n_layers)
    if stage_one is None:
        raise ConfigError("checkpoint carries no indexer tensors")
    result = train_memory_run(cfg, stage_one,
                              freeze_indexer=args.freeze_indexer)
    tensors = {**indexer_tensors(result["params"]),
               **memory_tensors(result["memories"])}
    save_weights(out / "memory.kvgt", tensors)
    write_records(out / "train_memory_loss.jsonl",
                  [make_record("memory_loss", cfg.config_hash, cfg.seed, row)
                   for row in result["curve"]])

    teacher = result["teacher"]
    eval_eps = build_episode_sets(cfg, teacher, eval_sequences(cfg, teacher),
                                  params_by_layer=result["params"])
    fresh = init_memory(cfg)

    def split_loss(memories):
        per = [episode_loss(memories[li], ep, lam=cfg.lam, eta=cfg.eta)
               for li, eps in enumerate(eval_eps) for ep in eps]
        return float(sum(per) / len(per))

    loss_init = split_loss(fresh)
    loss_trained = split_loss(result["memories"])
    write_records(out / "train_memory_eval.jsonl", [
        make_record("memory_eval", cfg.config_hash, cfg.seed, {
            "split": "eval",
            "loss_init": loss_init,
            "loss_trained": loss_trained,
            "improved": loss_trained < loss_init,
        })])
    log.info("wrote %s (eval loss %.6g -> %.6g)", out / "memory.kvgt",
             loss_init, loss_trained)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    _attach_sidecar(out)
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    params = memories = None
    if args.checkpoint:
        params, memories = _load_checkpoint(args.checkpoint,
                                            cfg.teacher.n_layers)
    records = sweep_run(cfg, params_by_layer=params, memories=memories,
                        threads=args.threads)
    write_records(out / "sweep.jsonl", records)
    log.info("wrote %d sweep records to %s", len(records), out / "sweep.jsonl")
    return EXIT_OK


def cmd_decode_sim(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    _attach_sidecar(out)
    params = None
    if args.checkpoint:
        params, _ = _load_checkpoint(args.checkpoint, cfg.teacher.n_layers)
    records = decode_run(cfg, params_by_layer=params)
    write_records(out / "decode.jsonl", records)
    log.info("wrote %d decode records to %s", len(records), out / "decode.jsonl")
    return EXIT_OK


def cmd_report(args) -> int:
    records = []
    for path in args.metrics:
        records.extend(read_records(path))
    out = Path(args.out) if args.out else Path("report")
    written = write_report(out, records)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = selftest()
    failed = 0
    for name, ok in results:
        print(("ok - " if ok else "FAIL - ") + name)
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvgate",
        description="KV-cache eviction with a learned indexer and a "
                    "latent compensation memory, at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config=True, checkpoint=False,
            freeze=False, threads=False):
        cmd = sub.add_parser(name, help=help_text)
        if config:
            cmd.add_argument("--config", required=True,
                             help="experiment config JSON")
            cmd.add_argument("--out", default=None,
                             help="output directory (default: config out)")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the config seed")
        if checkpoint:
            cmd.add_argument("--checkpoint", default=None,
                             required=(name == "train-memory"),
                             help="weights file from an earlier stage")
        if freeze:
            cmd.add_argument("--freeze-indexer", action="store_true",
                             help="keep indexer tensors exactly as loaded")
        if threads:
            cmd.add_argument("--threads", type=int, default=1,
                             help="worker threads across sweep points")
        cmd.set_defaults(func=func)
        return cmd

    add("train-indexer", cmd_train_indexer,
        "distill teacher importance into the indexer (stage one)")
    add("train-memory", cmd_train_memory,
        "fit the compensation memories (stage two)", checkpoint=True,
        freeze=True)
    add("sweep", cmd_sweep, "evaluate policies over the eviction-ratio grid",
        checkpoint=True, threads=True)
    add("decode-sim", cmd_decode_sim,
        "simulate periodic compression during decoding", checkpoint=True)

    report = sub.add_parser("report", help="turn metrics files into CSV curves")
    report.add_argument("metrics", nargs="+", help="metrics JSONL files")
    report.add_argument("--out", default=None,
                        help="report directory (default: ./report)")
    report.set_defaults(func=cmd_report)

    selftest_cmd = sub.add_parser("selftest", help="run the invariant suite")
    selftest_cmd.set_defaults(func=cmd_selftest)
    return parser


def _error_record(command: str, err: Exception) -> str:
    return json.dumps({"error": type(err).__name__, "command": command,
                       "message": str(err)}, sort_keys=True)


def main(argv=None) -> int:
    level = os.environ.get("KVGATE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(_error_record(args.command, err), file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ConfigError, ValueError) as err:
        print(_error_record(args.command, err), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(_error_record(args.command, err), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
