"""Distilling teacher attention into a cheap token indexer.

The indexer scores every cached key with a handful of small heads and a
ReLU instead of running full attention. It is trained by KL-matching the
teacher's pooled attention distribution. Scoring and the training step run
one forward, so we also check that the scored loss equals the training
step's loss bit for bit: the indexer scores keys exactly as it was trained.
"""

import numpy as np

from kvgate.harness import batches_by_layer
from kvgate.indexer import (IndexerParams, distill_gradients, distill_loss,
                            train_indexer)
from kvgate.numerics import Rng
from kvgate.synth import planted_sequence
from kvgate.teacher import TeacherConfig, TeacherModel

cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                    d_ffn=64, vocab_size=16, seed=0)
teacher = TeacherModel(cfg)
layer = 0

traces = []
for i in range(6):
    rng = Rng(100).split(i)
    needles = rng.split(99).integers(4, 30, 2)
    seq = planted_sequence(teacher, 48, needles, rng)
    traces.append(teacher.forward(x0=seq.x0))
batches = batches_by_layer(teacher, traces, sink_count=4)[layer]

params = IndexerParams.init(cfg, Rng(42), h_index=2, d_index=4)
print(f"indexer: {params.h_index} heads x {params.d_index} dims "
      f"(teacher uses {cfg.n_heads} x {cfg.d_head})")

before = float(np.mean([distill_loss(params, b) for b in batches]))
curve = train_indexer(params, batches, steps=400, peak=1e-3)
after = float(np.mean([distill_loss(params, b) for b in batches]))

print(f"\ndistillation KL over {len(batches)} sequences:")
print(f"  before training  {before:.4f}")
print(f"  after {len(curve):>3} steps  {after:.4f}")
assert after < before

scored = distill_loss(params, batches[0])
trained, _ = distill_gradients(params, batches[0])
print("\nscored loss vs the training step's loss:")
print(f"  {scored!r}\n  {trained!r}")
assert scored == trained
print("  bit-identical: the scorer is the training forward.")
