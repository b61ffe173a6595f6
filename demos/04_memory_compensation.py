"""A slow-weights memory that absorbs evicted KV pairs.

Eviction loses information that later queries may want. Each layer gets a
small linear-attention style memory: evicted key/value rows are written
into a d_mem x d_model fast matrix, and a gated readout is added back to
the attention output. Trained on replayed eviction episodes, the fused
output gets closer to the uncompressed teacher than attention alone.
"""

import numpy as np

from kvgate.cache import CompressionPlan
from kvgate.episodes import episode_loss, plain_mse, prefill_episodes, \
    train_memory
from kvgate.memory import MemorySlowWeights
from kvgate.numerics import Rng
from kvgate.policies import aggregate_heads, score_knorm, select
from kvgate.teacher import TeacherConfig, TeacherModel

cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                    d_ffn=64, vocab_size=16, seed=0)
teacher = TeacherModel(cfg)
plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=4)
length, eval_start = 48, 32
layer = 0

episodes = []
for i in range(8):
    tokens = Rng(200).split(i).integers(0, cfg.vocab_size, length)
    x0 = teacher.embed(tokens)
    trace = teacher.forward(x0=x0)
    keeps = [select(plan, aggregate_heads(score_knorm(lt.k[:, :eval_start, :])),
                    np.arange(eval_start))
             for lt in trace.layers]
    episodes.append(prefill_episodes(trace, eval_start, keeps)[layer])

slow = MemorySlowWeights.init(cfg.d_model, Rng(7), d_mem=8)
print(f"memory: d_mem={slow.d_mem}, footprint "
      f"{slow.d_mem * (cfg.d_model + 1) * 8} bytes per layer")

plain = float(np.mean([plain_mse(ep) for ep in episodes]))
cold = float(np.mean([episode_loss(slow, ep) for ep in episodes]))
curve = train_memory(slow, episodes, steps=200)
fused = float(np.mean([episode_loss(slow, ep) for ep in episodes]))

print(f"\nreconstruction MSE against the uncompressed teacher "
      f"({len(episodes)} episodes, half the candidates evicted):")
print(f"  attention only        {plain:.5f}")
print(f"  fused, untrained      {cold:.5f}")
print(f"  fused, {len(curve):>3} steps      {fused:.5f}  "
      f"({1 - fused / plain:.0%} lower)")
assert fused < plain
print("\nthe trained memory recovers part of what eviction discarded.")
