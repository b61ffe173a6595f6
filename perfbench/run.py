#!/usr/bin/env python3
"""kvgate benchmark: run one workload through the real CLI and report metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a kvgate checkout; kvgate is imported from ``src/``.
The load is closed-loop with one client: a round runs the workload's timed
CLI stages back to back, in this process, and rounds repeat until the next
one would overrun ``--seconds``. Every stage call is one operation and is
followed by a check of its outputs. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced, and it carries the per-layer metrics and the tracing
overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import TRACED, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SETUP_ROUNDS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STAGE_FN = {"train-indexer": "cmd_train_indexer",
            "train-memory": "cmd_train_memory",
            "sweep": "cmd_sweep", "decode-sim": "cmd_decode_sim"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Traced callables that call other traced callables report inclusive time
# too; the memory read/write path is unreached today and reports calls only.
_WITH_CHILDREN = {
    "teacher.TeacherModel.forward", "teacher.TeacherModel.forward_step",
    "indexer.distill_gradients", "indexer.pooled_vectors",
    "indexer.train_indexer", "episodes.train_memory",
    "episodes.prefill_episodes", "cache.budget_compress",
    "cache.DecodeSchedule.step", "crosslayer.scores_with_reuse",
    "harness.train_indexer_run", "harness.train_memory_run",
    "harness.sweep_run", "harness.decode_run", "harness.build_episode_sets",
    "harness.batches_by_layer"}
_CALLS_ONLY = {"memory.mem_write", "memory.mem_read", "memory.fuse"}
_DERIVED = {
    "teacher.decode_step_p50_ms": ("ms", "lower"),
    "teacher.decode_step_p99_ms": ("ms", "lower"),
    "indexer.IndexerKeyCache.append.bytes_copied": ("bytes", "lower"),
    "cache.KvCache.append.bytes_copied": ("bytes", "lower"),
    "cache.DecodeSchedule.step.compressions_per_step": ("ratio", "lower"),
    "crosslayer.scores_with_reuse.computed_per_layer": ("ratio", "lower"),
    "checkpoint.save_weights.bytes": ("bytes", "lower"),
    "metrics.write_records.bytes": ("bytes", "lower"),
    "harness.sweep_run.thread_busy_ratio": ("ratio", "higher"),
    **{f"cli.{fn}.wall_s": ("s", "lower") for fn in STAGE_FN.values()},
    "cli.cmd_sweep.evals_per_s": ("1/s", "higher"),
    "cli.cmd_decode_sim.tokens_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_spec() -> dict:
    """name -> (unit, better) for every per-layer metric, in report order."""
    spec = {}
    for module, attrs in TRACED.items():
        if module == "cli":
            continue
        for attr in attrs:
            name = f"{module}.{attr}"
            spec[f"{name}.calls"] = ("count", "lower")
            if name in _CALLS_ONLY:
                continue
            spec[f"{name}.self_s"] = ("s", "lower")
            if name in _WITH_CHILDREN:
                spec[f"{name}.incl_s"] = ("s", "lower")
    spec.update(_DERIVED)
    return spec


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def environment(wl, config_hash: str, seed: int, size: str) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
        else:
            commit = ref
    return {"nproc": os.cpu_count(),
            **{var: os.environ.get(var) for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "workload": wl.name, "size": size, "config_hash": config_hash,
            "seed": seed}


class Runner:
    """Runs one workload's stages through ``kvgate.cli.main`` and checks them."""

    def __init__(self, wl, seed: int, run_dir: Path, reference):
        from kvgate.cli import main
        from kvgate.config import parse_config

        self.wl = wl
        self.seed = seed
        self.main = main
        self.out = run_dir / "out"
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(wl.config, indent=1))
        self.config_hash = parse_config({**wl.config, "seed": seed}).config_hash
        self.reference = reference
        self.recorder = Recorder()
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def invoke(self, stage: str) -> list:
        """Run one CLI stage; returns a crash or non-zero exit as a problem."""
        try:
            code = self.main(self.wl.argv(stage, self.config_path, self.out,
                                          self.seed))
        except Exception as err:  # a crash is a failed operation, not a stop
            return [f"{stage} raised {type(err).__name__}: {err}"]
        if code != 0:
            return [f"{stage} exited {code}"]
        return []

    def checked(self, stage: str) -> list:
        problems = checks.check_stage(stage, self.out, self.wl.config,
                                      self.config_hash, self.seed)
        if problems:
            return problems
        digest = checks.digest(self.out, stage)
        if stage not in self.digests:
            self.digests[stage] = digest
            if self.reference is not None:
                summary = checks.summarize(self.out, [stage])
                return checks.compare_reference(
                    summary, {k: self.reference.get(k) for k in summary})
        elif digest != self.digests[stage]:
            return [f"{stage}: outputs differ from the first round's bytes"]
        return []

    def setup_round(self) -> float:
        """Fresh-interpreter import plus the checkpoint-making stages."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run([sys.executable, "-c", "import kvgate.cli"], env=env,
                       check=True)
        shutil.rmtree(self.out, ignore_errors=True)
        for stage in self.wl.setup:
            problems = self.invoke(stage) or checks.check_stage(
                stage, self.out, self.wl.config, self.config_hash, self.seed)
            if problems:
                fail(f"set-up stage {stage} failed: {problems}", 1)
        return time.perf_counter() - start

    def round(self, traced: bool) -> dict:
        """One pass over the timed stages; returns stage -> seconds."""
        times = {}
        for stage in self.wl.stages:
            self.recorder.op += 1
            if traced:
                self.recorder.install()
            start = time.perf_counter()
            problems = self.invoke(stage)
            times[stage] = time.perf_counter() - start
            if traced:
                self.recorder.uninstall()
            problems = problems or self.checked(stage)
            self.attempted += 1
            self.failed += bool(problems)
            self.problems.extend(problems)
        return times


def measure(runner: Runner, seconds: float, trace: bool) -> tuple:
    """Closed loop of rounds; trace mode alternates untraced and traced."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(runner.round(use_trace))
        walls = [sum(r.values()) for r in plain + traced]
        done = len(plain) + len(traced) >= (2 if trace else 1)
        if done and time.perf_counter() - start + statistics.median(walls) > seconds:
            return plain, traced


def medians(rounds: list) -> dict:
    """Median time of each stage, and of a whole round, over the rounds."""
    out = {stage: statistics.median(r[stage] for r in rounds)
           for stage in rounds[0]}
    out["wall"] = statistics.median(sum(r.values()) for r in rounds)
    return out


def throughputs(wl, times: dict) -> dict:
    """Stage throughputs: sweep evaluations and decoded tokens per second."""
    cfg = wl.config
    out = {}
    if "sweep" in times:
        evals = len(checks.SWEEP_RATIOS) * 3 * cfg["data"]["n_eval"]
        out["sweep_evals_per_s"] = evals / times["sweep"]
    if "decode-sim" in times:
        decode = cfg["decode"]
        tokens = decode["steps"] * (len(decode["budgets"]) + 1)
        out["decode_tokens_per_s"] = tokens / times["decode-sim"]
    return out


def per_layer(runner: Runner, plain: list, traced: list) -> dict:
    stats = runner.recorder.stats()
    counters = runner.recorder.counters
    n = len(traced)
    values = {}
    for name in per_layer_spec():
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "incl_s"):
            values[name] = stats.get(base, {}).get(stat, 0) / n
    steps = stats.get("teacher.TeacherModel.forward_step", {}).get("durations")
    if steps and len(steps) >= 100:
        values["teacher.decode_step_p50_ms"] = 1e3 * statistics.median(steps)
        values["teacher.decode_step_p99_ms"] = \
            1e3 * statistics.quantiles(steps, n=100)[98]
    for key in ("indexer.IndexerKeyCache.append.bytes_copied",
                "cache.KvCache.append.bytes_copied",
                "checkpoint.save_weights.bytes", "metrics.write_records.bytes"):
        values[key] = counters.get(key, 0) / n
    step_calls = stats.get("cache.DecodeSchedule.step", {}).get("calls")
    if step_calls:
        values["cache.DecodeSchedule.step.compressions_per_step"] = \
            counters["cache.DecodeSchedule.step.compressions"] / step_calls
    layers = counters.get("crosslayer.scores_with_reuse.layers")
    if layers:
        values["crosslayer.scores_with_reuse.computed_per_layer"] = \
            counters["crosslayer.scores_with_reuse.computed"] / layers
    sweep = stats.get("harness.sweep_run", {}).get("incl_s")
    if sweep and counters.get("pool.pools"):
        threads = counters["pool.threads"] / counters["pool.pools"]
        values["harness.sweep_run.thread_busy_ratio"] = \
            counters["pool.busy_cpu_s"] / (threads * sweep)
    times = medians(plain)
    for stage in runner.wl.stages:
        values[f"cli.{STAGE_FN[stage]}.wall_s"] = times[stage]
    rates = throughputs(runner.wl, times)
    for rate, name in (("sweep_evals_per_s", "cli.cmd_sweep.evals_per_s"),
                       ("decode_tokens_per_s", "cli.cmd_decode_sim.tokens_per_s")):
        if rate in rates:
            values[name] = rates[rate]
    values["trace.overhead_s"] = medians(traced)["wall"] - times["wall"]
    return values


def report(names_units: dict, values: dict) -> dict:
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in names_units.items()}


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["KVGATE_LOG"] = "WARNING"
    if not (SRC / "kvgate" / "cli.py").is_file():
        fail(f"no kvgate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kvgate.cli

    if not Path(kvgate.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"kvgate imported from {kvgate.cli.__file__}, not {SRC}")

    wl = workloads.workload(args.workload, args.size)
    run_dir = WORK / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ref_path = HERE / "reference" / f"{wl.name}.json"
    check_ref = (args.size == "full" and args.seed == DEFAULT_SEED
                 and not args.write_reference)
    reference = json.loads(ref_path.read_text()) if check_ref else None
    runner = Runner(wl, args.seed, run_dir, reference)

    setup_s = statistics.median(runner.setup_round()
                                for _ in range(SETUP_ROUNDS))
    plain, traced = measure(runner, args.seconds, bool(args.trace))
    if args.write_reference:
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(
            checks.summarize(runner.out, wl.stages), indent=1,
            sort_keys=True) + "\n")

    times = medians(plain)
    print(f"perfbench {wl.name} size={args.size} seed={args.seed} "
          f"trace={args.trace}: {len(plain)} untraced + {len(traced)} traced "
          f"rounds, {runner.attempted} ops, {runner.failed} failed")
    for stage in wl.stages:
        spread = sorted(r[stage] for r in plain)
        print(f"  {stage.replace('-', '_')}_s = {times[stage]:.4f} s (median "
              f"of {len(spread)}; min {spread[0]:.4f}, max {spread[-1]:.4f})")
    for name, value in throughputs(wl, times).items():
        print(f"  {name} = {value:.2f} 1/s")
    for problem in runner.problems[:20]:
        print(f"  FAILED: {problem}")

    if args.trace:
        runner.recorder.write(run_dir / "spans.jsonl")
        spec = per_layer_spec()
        metrics = report({n: u for n, (u, _) in spec.items()},
                         per_layer(runner, plain, traced))
    else:
        values = {"wall_s": times["wall"], "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = report(END_TO_END, values)
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.4f} {metric['unit']}")
    print(json.dumps({"env": environment(wl, runner.config_hash, args.seed,
                                         args.size)}))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at minimum size, untraced and traced; checks the output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        print("FAIL - BENCHMARK.json names other workloads")
        bad += 1
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(DEFAULT_SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke"],
                capture_output=True, text=True, timeout=170)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                problems.append(f"no result (exit {proc.returncode}): "
                                f"{proc.stderr.strip()[-300:]}")
            if result is not None:
                units = {k: m.get("unit") for k, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append("metric names or units differ from "
                                    "BENCHMARK.json")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{result['failed']} failed ops")
                if proc.returncode != 0:
                    problems.append(f"exit {proc.returncode}")
            print(f"{'ok' if not problems else 'FAIL'} - {name} trace={trace}"
                  + "".join(f"\n    {p}" for p in problems))
            bad += bool(problems)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimum size and check "
                             "the emitted metrics")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs as the committed "
                             "reference (full size, default seed)")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_reference and (args.size != "full"
                                 or args.seed != DEFAULT_SEED):
        parser.error("--write-reference needs the full size and default seed")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
