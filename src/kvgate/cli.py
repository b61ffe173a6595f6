"""Command-line entry point for training, sweeps, and reports.

Exit codes: 0 success, 2 config/validation error, 3 numerical divergence,
4 I/O error or out of memory. Failures emit one machine-readable JSON
record on stderr. All command outputs are deterministic in (config, seed);
the only place a timestamp ever appears is the run.log sidecar.
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
    load_checkpoint,
    memory_tensors,
    save_weights,
)
from .config import ConfigError, load_config
from .harness import (
    decode_run,
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


def _stage(args):
    """A stage command's prologue: ``(config, output directory, indexer
    params, memories)``. The weights come from ``--checkpoint`` through
    :func:`~kvgate.checkpoint.load_checkpoint` when one is given, each
    ``None`` otherwise, and a bad file is refused before the directory is
    made; log lines and warnings go to the directory's run.log, the one
    timestamped file."""
    cfg = load_config(args.config, seed=args.seed)
    params, memories = (load_checkpoint(args.checkpoint, cfg.teacher)
                        if getattr(args, "checkpoint", None) else (None, None))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = logging.FileHandler(out / "run.log")
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(levelname)s %(name)s: %(message)s"))
    for logger in map(logging.getLogger, ("kvgate", "py.warnings")):
        for old in [h for h in logger.handlers
                    if isinstance(h, logging.FileHandler)]:
            logger.removeHandler(old)
            old.close()
        logger.addHandler(handler)
    return cfg, out, params, memories


def cmd_train_indexer(args) -> int:
    cfg, out, _, _ = _stage(args)
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
    cfg, out, params, _ = _stage(args)
    result = train_memory_run(cfg, params)
    tensors = {**indexer_tensors(result["params"] or ()),
               **memory_tensors(result["memories"])}
    save_weights(out / "memory.kvgt", tensors)
    write_records(out / "train_memory_loss.jsonl",
                  [make_record("memory_loss", cfg.config_hash, cfg.seed, row)
                   for row in result["curve"]])
    loss_init, loss_trained = result["eval"]
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
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    cfg, out, params, memories = _stage(args)
    records = sweep_run(cfg, params_by_layer=params, memories=memories,
                        threads=args.threads)
    write_records(out / "sweep.jsonl", records)
    log.info("wrote %d sweep records to %s", len(records), out / "sweep.jsonl")
    return EXIT_OK


def cmd_decode_sim(args) -> int:
    cfg, out, params, _ = _stage(args)
    records = decode_run(cfg, params_by_layer=params)
    write_records(out / "decode.jsonl", records)
    log.info("wrote %d decode records to %s", len(records), out / "decode.jsonl")
    return EXIT_OK


def cmd_report(args) -> int:
    records = []
    for path in args.metrics:
        records.extend(read_records(path))
    written = write_report(Path(args.out), records)
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

    def add(name, func, help_text, checkpoint=False, threads=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="experiment config JSON")
        cmd.add_argument("--out", default="runs",
                         help="output directory (default: runs)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        if checkpoint:
            cmd.add_argument("--checkpoint", default=None,
                             help="weights file from an earlier stage; the "
                                  "indexer policy needs one")
        if threads:
            cmd.add_argument("--threads", type=int, default=1,
                             help="worker threads of the pool that runs the "
                                  "sweep points of each eval sequence")
        cmd.set_defaults(func=func)
        return cmd

    add("train-indexer", cmd_train_indexer,
        "distill teacher importance into the indexer (stage one)")
    add("train-memory", cmd_train_memory,
        "fit the compensation memories (stage two)", checkpoint=True)
    add("sweep", cmd_sweep, "evaluate policies over the eviction-ratio grid",
        checkpoint=True, threads=True)
    add("decode-sim", cmd_decode_sim,
        "simulate periodic compression during decoding", checkpoint=True)

    report = sub.add_parser("report", help="turn metrics files into CSV curves")
    report.add_argument("metrics", nargs="+", help="metrics JSONL files")
    report.add_argument("--out", default="report",
                        help="report directory (default: report)")
    report.set_defaults(func=cmd_report)

    selftest_cmd = sub.add_parser("selftest", help="run the invariant suite")
    selftest_cmd.set_defaults(func=cmd_selftest)
    return parser


def _error_record(command: str, err: Exception) -> str:
    return json.dumps({"error": type(err).__name__, "command": command,
                       "message": str(err)}, sort_keys=True)


def main(argv=None) -> int:
    # Only a level name gives an int: ``basic_format`` names logging's
    # format string, which basicConfig would reject with a traceback.
    level = getattr(logging, os.environ.get("KVGATE_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # Warnings go to run.log (see _stage), never to stderr.
    logging.getLogger("py.warnings").propagate = False
    logging.captureWarnings(True)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(_error_record(args.command, err), file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValueError as err:
        print(_error_record(args.command, err), file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError) as err:
        print(_error_record(args.command, err), file=sys.stderr)
        return EXIT_IO
    finally:
        logging.captureWarnings(False)


if __name__ == "__main__":
    sys.exit(main())
