"""A frozen random transformer as a reproducible attention workload.

The teacher is never trained: its weights come from a seeded generator, so
every run sees the same model. This script traces a short sequence, shows
the grouped-query head layout, and checks that decoding one position at a
time from a KV cache reproduces the full-sequence forward pass exactly.
"""

import numpy as np

from kvgate.cache import KvCache
from kvgate.numerics import Rng
from kvgate.teacher import TeacherConfig, TeacherModel, kv_head_of

cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                    d_ffn=64, vocab_size=16, seed=0)
teacher = TeacherModel(cfg)

print(f"teacher: {cfg.n_layers} layers, d_model={cfg.d_model}, "
      f"{cfg.n_heads} query heads sharing {cfg.n_kv_heads} KV heads")
print("head -> kv head:",
      {h: kv_head_of(h, cfg.n_heads, cfg.n_kv_heads)
       for h in range(cfg.n_heads)})

tokens = Rng(1).integers(0, cfg.vocab_size, 24)
trace = teacher.forward(x0=teacher.embed(tokens))
print(f"\nfull forward over {tokens.size} tokens:")
print(f"  per-layer keys   {trace.layers[0].k.shape}  (kv_heads, len, d_head)")
print(f"  final residual   {trace.output.shape}")

# Replay the tail incrementally: prefill a cache with the first rows, then
# feed the remaining embedded inputs one at a time.
split = 20
cache = KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head, sink_count=2)
for li, lt in enumerate(trace.layers):
    cache.append(li, lt.k[:, :split, :], lt.v[:, :split, :],
                 np.arange(split))

x0 = teacher.embed(tokens)
worst = 0.0
for pos in range(split, tokens.size):
    step = teacher.forward_step(x0[pos][None, :], [cache], pos)
    worst = max(worst, float(np.max(np.abs(step.output[0] - trace.output[pos]))))
print(f"\nincremental decode of the last {tokens.size - split} positions:")
print(f"  max |step output - full forward| = {worst:.3e}")
assert worst < 1e-10
print("  cached decode matches the quadratic recompute.")
