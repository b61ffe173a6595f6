"""In-memory span recorder that times calls into kvgate's public functions.

The recorder lives entirely in the benchmark: it swaps each traced function
for a timing wrapper in every ``kvgate`` module namespace that holds it
(``from .x import y`` copies the name, so patching only the defining module
would miss those callers) and swaps methods on their classes. Spans are kept
per thread in memory and aggregated or written out only when the run ends.

A span's self time is its duration minus the union of the intervals its
children cover. Work submitted to ``harness``'s thread pool is recorded as a
``pool.task`` span whose parent is the span that submitted it, so the
sweep's parallel section counts as child time of ``harness.sweep_run``
rather than as its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute path) of every traced callable; "Class.method" patches
# the method on its class.
TRACED = {
    "teacher": ("TeacherModel.forward", "TeacherModel.forward_step",
                "attend_rows", "attention_full", "pooled_teacher_importance"),
    "indexer": ("distill_gradients", "teacher_block", "pooled_vectors",
                "train_indexer", "indexer_importance", "key_features",
                "IndexerKeyCache.append", "IndexerKeyCache.rows_for"),
    "episodes": ("episode_loss_and_grads", "train_memory", "prefill_episodes",
                 "episode_loss", "plain_mse"),
    "memory": ("tokens_from_evicted", "mem_write", "mem_read", "fuse"),
    "cache": ("KvCache.append", "KvCache.compact", "budget_compress",
              "DecodeSchedule.step"),
    "policies": ("score_snapkv", "score_knorm", "score_random", "select"),
    "crosslayer": ("scores_with_reuse",),
    "numerics": ("kl_divergence",),
    "synth": ("planted_sequence", "retention_recall"),
    "checkpoint": ("save_weights", "load_weights"),
    "metrics": ("write_records",),
    "config": ("parse_config",),
    "harness": ("train_indexer_run", "train_memory_run", "sweep_run",
                "decode_run", "build_episode_sets", "batches_by_layer"),
    "cli": ("cmd_train_indexer", "cmd_train_memory", "cmd_sweep",
            "cmd_decode_sim"),
}

POOL_TASK = "pool.task"


class Recorder:
    """Thread-safe span and counter store for one benchmark process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._buffers = []          # one span list per thread that traced
        self._patches = []          # (owner, attribute, original)
        self.counters = defaultdict(float)
        self.op = 0                 # id shared by the spans of one stage call

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.thread = threading.get_ident()
            with self._lock:
                self._buffers.append((local.thread, local.spans))
        return local

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def _span(self, name, parent, fn, args, kwargs):
        local = self._state()
        if parent is None:
            parent = local.stack[-1] if local.stack else 0
        sid = next(self._ids)
        local.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.stack.pop()
            local.spans.append((sid, parent, name, start, end, self.op))

    def wrap(self, name: str, fn, after=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = recorder._span(name, None, fn, args, kwargs)
            if after is not None:
                after(recorder, args, result)
            return result
        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks are spans parented to the submitter."""
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                recorder.add("pool.threads", self._max_workers)
                recorder.add("pool.pools", 1)

            def submit(self, fn, /, *args, **kwargs):
                local = recorder._state()
                parent = local.stack[-1] if local.stack else 0

                def task():
                    cpu = time.thread_time()
                    try:
                        return recorder._span(POOL_TASK, parent, fn, args, kwargs)
                    finally:
                        recorder.add("pool.busy_cpu_s", time.thread_time() - cpu)
                return super().submit(task)
        return TracedPool

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every traced callable; undone by :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        targets = {name: importlib.import_module(f"kvgate.{name}")
                   for name in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("kvgate.")]
        for mod_name, attrs in TRACED.items():
            module = targets[mod_name]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, self.wrap(name, original,
                                                   _AFTER.get(name)))
                    continue
                original = getattr(module, attr)
                inner = (_BEFORE[name](self, original) if name in _BEFORE
                         else original)
                traced = self.wrap(name, inner, _AFTER.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, traced)
        self._set(targets["harness"], "ThreadPoolExecutor", self.pool_class())

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------

    def spans(self) -> list:
        """Every span as (id, parent, name, start, end, op, thread)."""
        out = []
        with self._lock:
            for thread, spans in self._buffers:
                out.extend(s + (thread,) for s in spans)
        out.sort(key=lambda s: s[0])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for sid, parent, name, start, end, op, thread in self.spans():
                sink.write(json.dumps({"id": sid, "parent": parent,
                                      "name": name, "start": start,
                                      "end": end, "op": op,
                                      "thread": thread}) + "\n")

    def stats(self) -> dict:
        """name -> {"calls", "incl_s", "self_s", "durations"} over all spans."""
        spans = self.spans()
        children = defaultdict(list)
        for sid, parent, _, start, end, _, _ in spans:
            if parent:
                children[parent].append((start, end))
        out = {}
        for sid, _, name, start, end, _, _ in spans:
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            duration = end - start
            entry["calls"] += 1
            entry["incl_s"] += duration
            entry["self_s"] += duration - _covered(children.get(sid, ()),
                                                   start, end)
            entry["durations"].append(duration)
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# -- counters computed around particular calls ------------------------------

def _count_reuse(recorder, fn):
    """Count how many layers ``scores_with_reuse`` really computes."""
    def scores_with_reuse(n_layers, group_size, compute):
        def counted(layer):
            recorder.add("crosslayer.scores_with_reuse.computed", 1)
            return compute(layer)
        recorder.add("crosslayer.scores_with_reuse.layers", n_layers)
        return fn(n_layers, group_size, counted)
    return scores_with_reuse


def _kv_append_bytes(recorder, args, _):
    # np.concatenate rebuilds keys, values (float64) and positions (int64)
    # of the layer at their new length; computed from the array shapes.
    cache, layer, positions = args[0], args[1], args[4]
    if len(positions):
        row = 2 * cache.n_kv_heads * cache.d_head + 1
        recorder.add("cache.KvCache.append.bytes_copied",
                     cache.length(layer) * row * 8)


def _feature_append_bytes(recorder, args, _):
    # Feature rows (float64) and positions (int64) are both rebuilt.
    cache, positions = args[0], args[2]
    if len(positions):
        recorder.add("indexer.IndexerKeyCache.append.bytes_copied",
                     len(cache) * (cache.d_index + 1) * 8)


def _file_bytes(name):
    def after(recorder, args, _):
        recorder.add(name, os.path.getsize(args[0]))
    return after


def _compressions(recorder, _, compressed):
    recorder.add("cache.DecodeSchedule.step.compressions", int(bool(compressed)))


_BEFORE = {"crosslayer.scores_with_reuse": _count_reuse}
_AFTER = {
    "cache.KvCache.append": _kv_append_bytes,
    "indexer.IndexerKeyCache.append": _feature_append_bytes,
    "checkpoint.save_weights": _file_bytes("checkpoint.save_weights.bytes"),
    "metrics.write_records": _file_bytes("metrics.write_records.bytes"),
    "cache.DecodeSchedule.step": _compressions,
}
