"""The names the benchmark's tracer patches must exist in kvgate.

``perfbench/tracer.py`` looks each traced callable up by name when a traced
run starts; a rename or deletion here would otherwise surface only when the
benchmark itself runs. Its names are also the only excuse a kvgate
function or class has for no other line of kvgate naming it.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "kvgate"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED
ENTRIES = [(mod, attr) for mod, attrs in TRACED.items() for attr in attrs]


@pytest.mark.parametrize("mod_name,attr", ENTRIES,
                         ids=[f"{m}.{a}" for m, a in ENTRIES])
def test_traced_name_resolves(mod_name, attr):
    module = importlib.import_module(f"kvgate.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_harness_exposes_thread_pool():
    harness = importlib.import_module("kvgate.harness")
    assert "ThreadPoolExecutor" in vars(harness)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_submits_its_points_through_the_harness_pool(monkeypatch,
                                                           threads):
    # The tracer swaps harness.ThreadPoolExecutor for a pool that times its
    # tasks; harness.sweep_run.thread_busy_ratio reads those times, so the
    # sweep's work must be submitted through that name, from one pool, at
    # every thread count: one task per (eval sequence, layer).
    harness = importlib.import_module("kvgate.harness")
    config = importlib.import_module("kvgate.config")
    counts = {"pools": 0, "submits": 0}

    class CountingPool(harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts["pools"] += 1

        def submit(self, fn, /, *args, **kwargs):
            counts["submits"] += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
    cfg = config.parse_config({
        "version": 1, "seed": 3, "policy": {"name": "knorm"},
        "teacher": {"n_layers": 2, "d_model": 16, "n_heads": 4,
                    "n_kv_heads": 2, "d_ffn": 32, "vocab_size": 12},
        "plan": {"ratio": 0.5, "sink_count": 2, "local_window": 4},
        "data": {"kind": "tokens", "length": 30, "n_train": 1, "n_eval": 2}})
    harness.sweep_run(cfg, threads=threads)
    assert counts == {"pools": 1,
                      "submits": cfg.teacher.n_layers * cfg.n_eval}


def test_decode_step_attention_goes_through_traced_names(monkeypatch):
    # The tracer counts teacher.attend_rows and cache.KvCache.append, once
    # per simulation, layer and step; a decode step that reached the kernel
    # or the buffers around them would drop out of teacher.attend_rows.calls
    # (12,288 per decode-long round: 3 simulations, 4 layers, 1,024 steps).
    teacher = importlib.import_module("kvgate.teacher")
    cache_mod = importlib.import_module("kvgate.cache")
    calls = {"attend_rows": 0, "append": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(teacher, "attend_rows",
                        counted("attend_rows", teacher.attend_rows))
    monkeypatch.setattr(cache_mod.KvCache, "append",
                        counted("append", cache_mod.KvCache.append))
    cfg = teacher.TeacherConfig(n_layers=3, d_model=16, n_heads=4,
                                n_kv_heads=2, d_ffn=32, vocab_size=16)
    model = teacher.TeacherModel(cfg)
    n_sim = 3
    caches = [cache_mod.KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head)
              for _ in range(n_sim)]
    for position in range(2):
        model.forward_step(model.embed([position] * n_sim), caches, position)
    assert calls == {"attend_rows": 2 * n_sim * cfg.n_layers,
                     "append": 2 * n_sim * cfg.n_layers}


def unnamed_elsewhere(src: Path) -> list:
    """``module.name`` of every module-level function and class of the
    package at ``src`` that no line outside its own definition names."""
    files = {path.stem: path.read_text(encoding="utf-8").splitlines()
             for path in sorted(src.glob("*.py"))}
    unnamed = []
    for mod, lines in files.items():
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for other, text in files.items()
                       for number, line in enumerate(text, 1)
                       if other != mod or number not in own):
                unnamed.append(f"{mod}.{node.name}")
    return unnamed


class TestEveryNameHasACaller:
    """Every module-level function and class of kvgate is named by another
    line of kvgate or pinned in ``TRACED``, so a retirement cannot leave a
    helper that nothing calls."""

    def test_each_name_is_named_elsewhere_or_traced(self):
        traced = {f"{mod}.{attr.split('.')[0]}" for mod, attr in ENTRIES}
        assert [name for name in unnamed_elsewhere(SRC)
                if name not in traced] == []

    def test_a_helper_nothing_names_is_found(self, tmp_path):
        # Its own docstring and body do not count as a caller.
        for path in SRC.glob("*.py"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        with open(tmp_path / "memory.py", "a", encoding="utf-8") as f:
            f.write('\n\ndef orphan_helper():\n'
                    '    """orphan_helper calls nothing."""\n'
                    '    return orphan_helper\n')
        assert "memory.orphan_helper" in unnamed_elsewhere(tmp_path)
        assert "memory.orphan_helper" not in unnamed_elsewhere(SRC)
