"""tools/same_bytes.py: the byte comparison of two source trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_bytes", ROOT / "tools" / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_compared_with_itself_writes_the_same_bytes(tmp_path, capsys):
    tool = load_tool()
    tiny = tool.load_workloads().workload("pipeline", "smoke")
    assert tool.compare(ROOT, ROOT, {"tiny": tiny}, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    # every file of the four stages, run.log excepted
    assert sorted(lines) == sorted(
        f"tiny/{name}: same" for name in (
            "indexer.kvgt", "train_indexer_loss.jsonl", "memory.kvgt",
            "train_memory_loss.jsonl", "train_memory_eval.jsonl",
            "sweep.jsonl", "decode.jsonl"))


def test_changed_and_missing_files_differ(tmp_path):
    tool = load_tool()
    base, head = tmp_path / "base", tmp_path / "head"
    for d in (base, head):
        d.mkdir()
        (d / "same.jsonl").write_text("{}\n")
    (base / "run.log").write_text("12:00\n")
    (head / "run.log").write_text("12:01\n")
    (base / "changed.kvgt").write_bytes(b"\x00\x01")
    (head / "changed.kvgt").write_bytes(b"\x00\x02")
    (base / "gone.jsonl").write_text("{}\n")
    assert tool.compare_dirs(base, head) == [
        ("changed.kvgt", "DIFFERS"),
        ("gone.jsonl", "DIFFERS (missing in head)"),
        ("same.jsonl", "same"),
    ]


def test_tree_with_a_changed_scale_differs(tmp_path, capsys):
    # Each side must import its own tree's sources: a copy whose logit
    # scale moves by one part in 1e7 has to write other bytes.
    tool = load_tool()
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    teacher = tree / "src" / "kvgate" / "teacher.py"
    source = teacher.read_text()
    exact = "return 1.0 / np.sqrt(float(q.shape[0] * q.shape[-1]))"
    assert source.count(exact) == 1
    teacher.write_text(source.replace(exact, exact.replace("1.0", "1.0000001")))
    tiny = tool.load_workloads().workload("pipeline", "smoke")
    work = tmp_path / "work"
    work.mkdir()
    assert not tool.compare(tree, ROOT, {"tiny": tiny}, work)
    lines = capsys.readouterr().out.splitlines()
    assert "tiny/indexer.kvgt: DIFFERS" in lines


def test_cases_include_a_wide_indexer():
    cases = load_tool().cases()
    wide, pipeline = cases["pipeline-wide"], cases["pipeline"]
    assert wide.config["train"]["h_index"] == 4
    assert wide.config["train"]["d_index"] == 8
    assert "h_index" not in pipeline.config["train"]
    assert wide.stages == pipeline.stages and wide.setup == pipeline.setup


def test_cases_include_a_late_decode_compaction():
    # The prompt fits one budget, so its first decode boundary compacts
    # nothing and a later one compacts: no other case reaches that path.
    cases = load_tool().cases()
    late, pipeline = cases["pipeline-late"], cases["pipeline"]
    prompt = late.config["data"]["length"]
    interval = late.config["decode"]["interval"]
    steps = late.config["decode"]["steps"]
    budget = max(late.config["decode"]["budgets"])
    assert late.config["decode"]["budgets"] == [48, 170]
    assert prompt <= budget and prompt + interval <= budget
    assert prompt + steps > budget and steps % interval == 0
    assert late.config["decode"]["budgets"] != pipeline.config["decode"]["budgets"]
    assert late.stages == pipeline.stages and late.setup == pipeline.setup
