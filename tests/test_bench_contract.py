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
