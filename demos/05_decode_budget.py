"""Periodic compression keeps a decoding cache within a hard budget.

During decoding the cache grows by one row per layer per step. A schedule
compresses any layer above the budget every ``decode_interval`` steps, so
the cache length never exceeds budget + interval. The demo decodes 120
steps with a budget of 24 rows and checks the bound at every step.
"""

import numpy as np

from kvgate.cache import CompressionPlan, DecodeSchedule, KvCache, \
    budget_compress
from kvgate.numerics import Rng, rmsnorm
from kvgate.policies import aggregate_heads, score_knorm
from kvgate.teacher import TeacherConfig, TeacherModel

cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                    d_ffn=64, vocab_size=16, seed=0)
teacher = TeacherModel(cfg)
plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=4,
                       budget=24, decode_interval=8)
prefill, steps = 40, 120

tokens = Rng(3).integers(0, cfg.vocab_size, prefill)
trace = teacher.forward(x0=teacher.embed(tokens))
cache = KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head,
                sink_count=plan.sink_count)


def knorm_scores(layer):
    return aggregate_heads(score_knorm(cache.keys(layer)))


for li, lt in enumerate(trace.layers):
    cache.append(li, lt.k, lt.v, np.arange(prefill))

# The schedule assumes the budget already holds when decoding starts, so
# compress the prefill overhang first.
for li in range(cfg.n_layers):
    budget_compress(cache, li, plan, knorm_scores(li))
print(f"prefill: {prefill} rows compressed to {cache.length(0)} "
      f"(budget {plan.budget})")

schedule = DecodeSchedule(cache, plan)
x_row = rmsnorm(trace.output[-1])
peak, compressions = 0, 0
for t in range(steps):
    step = teacher.forward_step(x_row[None, :], [cache], prefill + t)
    if schedule.step(knorm_scores):
        compressions += 1
    peak = max(peak, *(cache.length(li) for li in range(cfg.n_layers)))
    x_row = rmsnorm(step.output[0])

bound = plan.budget + plan.decode_interval
print(f"decoded {steps} steps, compressing every {plan.decode_interval}: "
      f"{compressions} compressions")
print(f"peak cache length {peak} <= bound {bound} "
      f"(budget + interval)")
assert peak <= bound
print("the cache never outgrew its budget by more than one interval.")
