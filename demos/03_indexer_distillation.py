"""Distilling teacher attention into a cheap token indexer.

The indexer scores every cached key with a handful of small heads and a
ReLU instead of running full attention. It is trained by KL-matching the
teacher's pooled attention distribution. Because scoring streams over key
blocks, we also check that blocked evaluation is bit-identical to the
dense one, so block size can never change a result.
"""

import numpy as np

from kvgate.harness import batches_by_layer
from kvgate.indexer import IndexerParams, streaming_distill_loss, train_indexer
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

before = float(np.mean([streaming_distill_loss(params, b) for b in batches]))
curve = train_indexer(params, batches, steps=400, peak=1e-3)
after = float(np.mean([streaming_distill_loss(params, b) for b in batches]))

print(f"\ndistillation KL over {len(batches)} sequences:")
print(f"  before training  {before:.4f}")
print(f"  after {len(curve):>3} steps  {after:.4f}")
assert after < before

dense = streaming_distill_loss(params, batches[0], q_blk=48, k_blk=48)
blocked = streaming_distill_loss(params, batches[0], q_blk=3, k_blk=8)
print(f"\nstreaming evaluation, dense vs (3, 8) blocks:")
print(f"  {dense!r}\n  {blocked!r}")
assert dense == blocked
print("  bit-identical: block size cannot change any result.")
