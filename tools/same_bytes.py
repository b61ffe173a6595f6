"""Check that the working tree writes the same bytes as a base revision.

    python3 tools/same_bytes.py --base <rev>

Exports ``<rev>`` with ``git archive`` into a temporary directory, then runs
``train-indexer``, ``train-memory``, ``sweep --threads 2`` and ``decode-sim``
through ``kvgate.cli`` from each tree's ``src/`` on the same configs, and
compares every file the stages wrote (``run.log``, which carries
timestamps, excepted). The configs are:

- ``readme``: the example config in ``README.md``;
- ``pipeline``, ``sweep-planted``, ``decode-long``: the benchmark's
  workloads (``perfbench/workloads.py``), each with its own stages.
  ``decode-long``'s 256-row prompt is the only indexer scoring input
  above 128 query rows, so it is the case that shows a change in how
  the scorer groups its query rows (one block, or 128-row blocks) keeps
  the bytes;
- ``pipeline-<policy>``: the ``pipeline`` config under each other policy;
- ``pipeline-wide``: the ``pipeline`` config with a wider indexer
  (``train.h_index`` 4, ``train.d_index`` 8), so the distillation
  backward is also compared beyond the default widths (2 and 1).
- ``pipeline-late``: the ``pipeline`` config at ``decode.budgets``
  ``[48, 170]``. The 128-row prompt fits budget 170, the decode boundary
  at step 32 compacts nothing and the one at step 64 compacts, so a
  compaction is scored by one interval's queries after a boundary that
  evicted nothing.

Prints ``same`` or ``DIFFERS`` per file and exits 1 on any difference or
failed stage. Run it from the root of a kvgate checkout.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("train-indexer", "train-memory", "sweep", "decode-sim")
OTHER_POLICIES = ("snapkv", "tova", "knorm", "random")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Runs a case's stages in one interpreter, stopping at the first failure.
STAGE_RUNNER = """
import json, sys
from kvgate.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it is being built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def cases() -> dict:
    """Every config this tool knows, by name, as a ``Workload``."""
    wl = load_workloads()
    out = {"readme": wl.Workload("readme", readme_config(), (), STAGES)}
    for name in wl.NAMES:
        out[name] = wl.workload(name)
    pipeline = wl.workload("pipeline")
    for policy in OTHER_POLICIES:
        config = copy.deepcopy(pipeline.config)
        config["policy"]["name"] = policy
        out[f"pipeline-{policy}"] = wl.Workload(
            f"pipeline-{policy}", config, pipeline.setup, pipeline.stages)
    wide = copy.deepcopy(pipeline.config)
    wide["train"].update(h_index=4, d_index=8)
    out["pipeline-wide"] = wl.Workload("pipeline-wide", wide, pipeline.setup,
                                       pipeline.stages)
    late = copy.deepcopy(pipeline.config)
    late["decode"]["budgets"] = [48, 170]
    out["pipeline-late"] = wl.Workload("pipeline-late", late, pipeline.setup,
                                       pipeline.stages)
    return out


def run_case(tree: Path, case, config_path: Path, out: Path) -> str | None:
    """Run a case's stages from ``tree``'s sources at the config's own
    seed; the error, if any."""
    seed = case.config["seed"]
    argvs = [[str(a) for a in case.argv(stage, config_path, out, seed)]
             for stage in (*case.setup, *case.stages)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "KVGATE_LOG": "WARNING", **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, "-c", STAGE_RUNNER, json.dumps(argvs)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        return (proc.stderr.strip().splitlines() or ["failed"])[-1]
    return None


def compare_dirs(base: Path, head: Path) -> list:
    """(file name, verdict) for every output file either directory holds."""
    names = sorted({p.name for d in (base, head) for p in d.iterdir()
                    if p.is_file()} - {"run.log"})
    rows = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            rows.append((name, "DIFFERS (missing in "
                         f"{'base' if b.is_file() else 'head'})"))
        else:
            rows.append((name, "same" if a.read_bytes() == b.read_bytes()
                         else "DIFFERS"))
    return rows


def compare(base_tree: Path, head_tree: Path, selected: dict,
            work: Path) -> bool:
    """Run every selected case under both trees and print the verdicts;
    True when every file is the same and every stage succeeded."""
    ok = True
    for name, case in selected.items():
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(case.config, indent=1))
        outs, failed = {}, False
        for side, tree in (("base", base_tree), ("head", head_tree)):
            outs[side] = work / side / name
            error = run_case(tree, case, config_path, outs[side])
            if error:
                print(f"{name}: {side} failed: {error}")
                failed = True
        if failed:
            ok = False
            continue
        for file_name, verdict in compare_dirs(outs["base"], outs["head"]):
            print(f"{name}/{file_name}: {verdict}")
            ok = ok and verdict == "same"
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        work = Path(tmp)
        base_tree = work / "base_tree"
        base_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive,
                       check=True)
        ok = compare(base_tree, ROOT, cases(), work)
    print("all files same" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
