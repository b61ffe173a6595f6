"""The names the benchmark's tracer patches must exist in kvgate.

``perfbench/tracer.py`` looks each traced callable up by name when a traced
run starts; a rename or deletion here would otherwise surface only when the
benchmark itself runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
