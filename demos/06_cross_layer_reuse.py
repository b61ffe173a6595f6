"""Sharing importance scores across a layer group.

Layers tend to agree on which tokens matter, so a group of layers can be
scored once: the group's first layer computes its scores and the others
reuse them. The demo shows the reuse plan, the computations it saves,
and how many rows each layer would have kept on its own scores that it
also keeps on its leader's.
"""

import numpy as np

from kvgate.cache import CompressionPlan
from kvgate.crosslayer import index_reuse_plan, scores_with_reuse
from kvgate.numerics import Rng
from kvgate.policies import aggregate_heads, score_knorm, select
from kvgate.teacher import TeacherConfig, TeacherModel

cfg = TeacherConfig(n_layers=4, d_model=32, n_heads=4, n_kv_heads=2,
                    d_ffn=64, vocab_size=16, seed=0)
teacher = TeacherModel(cfg)
plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=4)
length = 48
positions = np.arange(length)

tokens = Rng(21).integers(0, cfg.vocab_size, length)
trace = teacher.forward(x0=teacher.embed(tokens))
per_layer = [aggregate_heads(score_knorm(lt.k)) for lt in trace.layers]
calls = {"n": 0}


def compute(layer):
    calls["n"] += 1
    return per_layer[layer]


group = 2
shared = scores_with_reuse(cfg.n_layers, group, compute)
print(f"reuse plan for groups of {group}: {index_reuse_plan(cfg.n_layers, group)}")
print(f"score computations for {cfg.n_layers} layers: {calls['n']} "
      f"(layers in a group share one array: {shared[1] is shared[0]})")
assert calls["n"] == 2

print("\nrows kept on the layer's own scores that reuse also keeps:")
for layer in range(cfg.n_layers):
    own = select(plan, per_layer[layer], positions)
    reused = select(plan, shared[layer], positions)
    common = np.intersect1d(own, reused).size
    print(f"  layer {layer}: {common} of {own.size}")
