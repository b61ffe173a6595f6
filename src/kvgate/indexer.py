"""Learned importance indexer: gated low-rank similarity distilled from attention.

The indexer predicts which cached rows the attention actually needs, without
touching keys or values: queries are down-projected per head, keys share one
tiny feature stream (MQA style), both are RMS-normalized, and a per-head gate
computed from the hidden state mixes the ReLU similarities into one score.
Importance of a key is the max score any query in the aggregation set gives
it. Training distills the pooled importance distribution from the frozen
attention logits with a KL loss. The teacher target depends only on the
batch, so each :class:`DistillBatch` computes it once; the gradient step
itself is dense (L x L, test scale), while :func:`importance_from_features`
streams score blocks so scoring never materializes the full matrix.

All gradients here are hand-derived; at max ties the lowest-index query
carries the subgradient and ReLU contributes zero slope at its kink, which
keeps finite-difference checks exact in 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (
    NORM_EPS,
    DivergenceError,
    Rng,
    kl_divergence,
    rmsnorm,
    with_capacity,
)
from .teacher import TeacherConfig, TeacherModel, flatten_heads, kv_head_of


def default_h_index(n_heads: int) -> int:
    return max(1, n_heads // 4)


def default_d_index(d_head: int) -> int:
    return max(1, d_head // 8)


@dataclass
class IndexerParams:
    """Slow weights of one layer's indexer.

    Shapes (inputs x outputs): u_q (H * d_head, H_index * d_index),
    u_k (d_model, d_index), g (d_model, H_index).
    """

    u_q: np.ndarray
    u_k: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.u_k.ndim != 2 or self.u_q.ndim != 2 or self.g.ndim != 2:
            raise ValueError("indexer weights must be matrices")
        if self.u_q.shape[1] != self.h_index * self.d_index:
            raise ValueError("u_q output width must equal H_index * d_index")
        if self.g.shape[0] != self.u_k.shape[0]:
            raise ValueError("g and u_k must consume the same hidden width")
        for w in (self.u_q, self.u_k, self.g):
            if not np.all(np.isfinite(w)):
                raise ValueError("indexer weights must be finite")

    @property
    def h_index(self) -> int:
        return self.g.shape[1]

    @property
    def d_index(self) -> int:
        return self.u_k.shape[1]

    @property
    def gate_scale(self) -> float:
        return 1.0 / math.sqrt(float(self.h_index * self.d_index))

    def copy(self) -> "IndexerParams":
        return IndexerParams(self.u_q.copy(), self.u_k.copy(), self.g.copy())

    @classmethod
    def init(cls, config: TeacherConfig, rng: Rng, h_index: int | None = None,
             d_index: int | None = None) -> "IndexerParams":
        """Random init scaled by 1/sqrt(fan_in), one fresh draw per matrix."""
        h_index = default_h_index(config.n_heads) if h_index is None else h_index
        d_index = default_d_index(config.d_head) if d_index is None else d_index
        if h_index < 1 or d_index < 1:
            raise ValueError("H_index and d_index must be at least 1")
        q_in = config.n_heads * config.d_head
        u_q = rng.split(0).normal((q_in, h_index * d_index)) / math.sqrt(q_in)
        u_k = rng.split(1).normal((config.d_model, d_index)) / math.sqrt(config.d_model)
        g = rng.split(2).normal((config.d_model, h_index)) / math.sqrt(config.d_model)
        return cls(u_q=u_q, u_k=u_k, g=g)


def query_features(params: IndexerParams, q_pre: np.ndarray) -> np.ndarray:
    """Per-head normalized query features: (L, H_index, d_index).

    ``q_pre`` is (n_heads, L, d_head) un-rotated query state; heads are
    flattened head-major before the down-projection.
    """
    flat = flatten_heads(q_pre)
    raw = flat @ params.u_q
    raw = raw.reshape(raw.shape[0], params.h_index, params.d_index)
    return rmsnorm(raw)


def key_features(params: IndexerParams, x: np.ndarray) -> np.ndarray:
    """Shared normalized key features: (L, d_index)."""
    return rmsnorm(np.asarray(x, dtype=np.float64) @ params.u_k)


def head_gates(params: IndexerParams, x: np.ndarray) -> np.ndarray:
    """Per-head score gates: (L, H_index), scaled by 1/sqrt(H_index*d_index)."""
    return (np.asarray(x, dtype=np.float64) @ params.g) * params.gate_scale


class IndexerKeyCache:
    """Store of normalized key features, one row per cached token.

    Decode appends one row per step and :meth:`retain` drops the rows the
    KV cache evicted, so features stay aligned with the cached positions.
    The footprint is d_index floats per token. Rows live in the leading part
    of capacity-doubling buffers, the growth rule of
    :func:`kvgate.numerics.with_capacity`, like :class:`kvgate.cache.KvCache`.
    """

    def __init__(self, d_index: int):
        self.d_index = d_index
        self._rows = np.empty((0, d_index))
        self._positions = np.empty(0, dtype=np.int64)
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def positions(self) -> np.ndarray:
        """Cached positions, ascending: a view valid until the next
        :meth:`append` or :meth:`retain`; copy it to keep it longer."""
        return self._positions[:self._length]

    def nbytes(self) -> int:
        """Bytes of the live feature rows, excluding spare capacity."""
        return int(self._rows[:self._length].nbytes)

    def append(self, rows: np.ndarray, positions) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        pos = np.asarray(positions, dtype=np.int64)
        if rows.shape != (pos.size, self.d_index):
            raise ValueError(f"expected rows of width {self.d_index}")
        if pos.size == 0:
            return
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        n = self._length
        if n and pos[0] <= self._positions[n - 1]:
            raise ValueError("positions must extend past the cached range")
        end = n + pos.size
        self._rows = with_capacity(self._rows, n, end)
        self._positions = with_capacity(self._positions, n, end)
        self._rows[n:end] = rows
        self._positions[n:end] = pos
        self._length = end

    def rows_for(self, positions) -> np.ndarray:
        """Gather cached feature rows by original position (a copy)."""
        want = np.asarray(positions, dtype=np.int64)
        if want.size == 0:
            return np.zeros((0, self.d_index))
        cached = self.positions
        idx = np.searchsorted(cached, want)
        missing = idx >= cached.size
        idx = np.where(missing, 0, idx)
        missing |= cached[idx] != want
        if missing.any():
            raise ValueError("missing cached keys")
        return self._rows[idx]

    def retain(self, positions) -> None:
        """Keep only the rows at ``positions``, e.g. after a KV compaction.

        ``positions`` must be strictly increasing; the kept rows are gathered
        into the front of the buffers.
        """
        keep = np.array(positions, dtype=np.int64)
        if np.any(np.diff(keep) <= 0):
            raise ValueError("positions must be strictly increasing")
        rows = self.rows_for(keep)
        self._rows[:keep.size] = rows
        self._positions[:keep.size] = keep
        self._length = keep.size


def _score_from_features(q_feat: np.ndarray, gates: np.ndarray,
                         k_feat: np.ndarray, q_ids: np.ndarray,
                         k_ids: np.ndarray) -> np.ndarray:
    """Gated ReLU similarity block from precomputed per-row features.

    einsum with a fixed contraction order keeps the result bit-identical no
    matter how the rows were blocked, which the streamed/dense equivalence
    tests rely on.
    """
    z = np.maximum(np.einsum("shd,td->sth", q_feat, k_feat), 0.0)
    block = np.einsum("sth,sh->st", z, gates)
    invalid = k_ids[None, :] > q_ids[:, None]
    return np.where(invalid, -np.inf, block)


def dense_scores(params: IndexerParams, x: np.ndarray,
                 q_pre: np.ndarray) -> np.ndarray:
    """Full L x L score matrix; test-scale reference for the blocked paths."""
    n = np.asarray(x).shape[0]
    ids = np.arange(n)
    return _score_from_features(query_features(params, q_pre),
                                head_gates(params, x),
                                key_features(params, x), ids, ids)


def importance_from_features(q_feat: np.ndarray, gates: np.ndarray,
                             k_feat: np.ndarray, q_ids: np.ndarray,
                             k_ids: np.ndarray, q_blk: int = 128,
                             k_blk: int = 4096) -> np.ndarray:
    """Per-key max score over the query rows, streamed in blocks.

    ``q_feat``/``gates`` hold one row per query at positions ``q_ids``;
    ``k_feat`` one row per key at positions ``k_ids``. Only score blocks
    are ever materialized and, since block maxima commute with the global
    max, the result is bit-identical for every block size. Keys outside
    every query's causal support come back -inf.
    """
    if q_blk < 1 or k_blk < 1:
        raise ValueError("block sizes must be at least 1")
    imp = np.full(k_ids.size, -np.inf)
    for qb in range(0, q_ids.size, q_blk):
        qs = slice(qb, qb + q_blk)
        for kb in range(0, k_ids.size, k_blk):
            ks = slice(kb, kb + k_blk)
            block = _score_from_features(q_feat[qs], gates[qs], k_feat[ks],
                                         q_ids[qs], k_ids[ks])
            imp[ks] = np.maximum(imp[ks], block.max(axis=0))
    return imp


def indexer_importance(params: IndexerParams, x: np.ndarray, q_pre: np.ndarray,
                       q_set=None, q_blk: int = 128, k_blk: int = 4096) -> np.ndarray:
    """Importance of every row of one sequence over the query subset ``q_set``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    q_set = np.arange(n) if q_set is None else np.asarray(q_set, dtype=np.int64)
    if q_set.size == 0:
        raise ValueError("empty query set")
    return importance_from_features(query_features(params, q_pre)[q_set],
                                    head_gates(params, x)[q_set],
                                    key_features(params, x), q_set,
                                    np.arange(n), q_blk, k_blk)


@dataclass
class DistillBatch:
    """One sequence's worth of distillation inputs for a single layer.

    ``q_pre`` feeds the indexer (queries before rotation, as the scorer sees
    them); ``q_rot``/``k_rot`` are the states the attention actually used,
    from which the teacher logits are rebuilt. Every query row is in the
    aggregation set. :attr:`teacher_imp` is computed on first read and
    cached, so the arrays must not change after it has been read.
    """

    x: np.ndarray        # (L, d_model) layer-input hidden states
    q_pre: np.ndarray    # (n_heads, L, d_head)
    q_rot: np.ndarray    # (n_heads, L, d_head)
    k_rot: np.ndarray    # (n_kv_heads, L, d_head)
    scale_dim: int
    sink_count: int = 4

    def __post_init__(self):
        if self.x.shape[0] != self.q_pre.shape[1]:
            raise ValueError("hidden states and queries must align")
        if self.sink_count < 0 or self.sink_count >= self.x.shape[0]:
            raise ValueError("sink count must leave at least one scored key")

    @property
    def length(self) -> int:
        return self.x.shape[0]

    @cached_property
    def teacher_imp(self) -> np.ndarray:
        """Distillation target: per-key max teacher logit over all queries, (L,)."""
        ids = np.arange(self.length)
        return teacher_block(self, ids, ids).max(axis=0)


def distill_batch(teacher: TeacherModel, x0: np.ndarray, layer: int,
                  sink_count: int = 4) -> DistillBatch:
    """Build a layer's distillation inputs by tracing the frozen teacher."""
    trace = teacher.forward(x0=x0)
    lt = trace.layers[layer]
    return DistillBatch(x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q, k_rot=lt.k,
                        scale_dim=teacher.config.d_model,
                        sink_count=sink_count)


def teacher_block(batch: DistillBatch, q_ids: np.ndarray,
                  k_ids: np.ndarray) -> np.ndarray:
    """Teacher logits max-pooled over every query head, causally masked."""
    n_heads = batch.q_rot.shape[0]
    n_kv = batch.k_rot.shape[0]
    scale = 1.0 / math.sqrt(float(batch.scale_dim))
    out = np.full((q_ids.size, k_ids.size), -np.inf)
    for h in range(n_heads):
        g = kv_head_of(h, n_heads, n_kv)
        logits = np.einsum("qd,kd->qk", batch.q_rot[h][q_ids],
                           batch.k_rot[g][k_ids]) * scale
        out = np.maximum(out, logits)
    invalid = k_ids[None, :] > q_ids[:, None]
    return np.where(invalid, -np.inf, out)


def pooled_vectors(params: IndexerParams, batch: DistillBatch,
                   q_blk: int = 128, k_blk: int = 4096):
    """(teacher_imp, student_imp) over all keys, both (L,).

    The teacher side is the batch's cached target; the student side is
    streamed by :func:`importance_from_features`, so it is bit-identical
    for every (q_blk, k_blk).
    """
    ids = np.arange(batch.length)
    student_imp = importance_from_features(
        query_features(params, batch.q_pre), head_gates(params, batch.x),
        key_features(params, batch.x), ids, ids, q_blk, k_blk)
    return batch.teacher_imp, student_imp


def streaming_distill_loss(params: IndexerParams, batch: DistillBatch,
                           q_blk: int = 128, k_blk: int = 4096) -> float:
    """KL between pooled teacher and student importance, sinks excluded."""
    teacher_imp, student_imp = pooled_vectors(params, batch, q_blk, k_blk)
    keep = np.arange(batch.sink_count, batch.length)
    return kl_divergence(teacher_imp[keep], student_imp[keep])


def _rmsnorm_backward(raw: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient through y = x / sqrt(mean(x^2) + eps) along the last axis."""
    n = raw.shape[-1]
    ms = np.mean(raw * raw, axis=-1, keepdims=True) + NORM_EPS
    inv = 1.0 / np.sqrt(ms)
    dot = np.sum(raw * d_out, axis=-1, keepdims=True)
    return inv * d_out - (inv ** 3 / n) * raw * dot


def distill_gradients(params: IndexerParams, batch: DistillBatch):
    """Loss and analytic gradients of the streaming KL w.r.t. u_q, u_k, g.

    The computation is dense (test scale); the loss value matches the
    streamed one exactly because block maxima equal global maxima.
    """
    n = batch.length
    ids = np.arange(n)

    flat_q = flatten_heads(batch.q_pre)            # (L, H*dh)
    raw_q = (flat_q @ params.u_q).reshape(n, params.h_index, params.d_index)
    q_feat = rmsnorm(raw_q)
    raw_k = batch.x @ params.u_k
    k_feat = rmsnorm(raw_k)
    gates = head_gates(params, batch.x)

    dots = np.einsum("shd,td->sth", q_feat, k_feat)
    z = np.maximum(dots, 0.0)
    scores = np.einsum("sth,sh->st", z, gates)
    invalid = ids[None, :] > ids[:, None]
    scores = np.where(invalid, -np.inf, scores)

    student_imp = scores.max(axis=0)
    arg_rows = np.argmax(scores, axis=0)           # lowest index wins ties

    keep = np.arange(batch.sink_count, n)
    t_valid = batch.teacher_imp[keep]
    s_valid = student_imp[keep]
    loss = kl_divergence(t_valid, s_valid)

    # dKL/d(student logits) = softmax(student) - softmax(teacher), on the
    # shared finite support; -inf entries get no gradient.
    finite = np.isfinite(s_valid)
    p = np.zeros_like(t_valid)
    q = np.zeros_like(s_valid)
    tf = t_valid[finite]
    sf = s_valid[finite]
    p[finite] = np.exp(tf - tf.max()) / np.exp(tf - tf.max()).sum()
    q[finite] = np.exp(sf - sf.max()) / np.exp(sf - sf.max()).sum()
    d_imp = np.zeros(n)
    d_imp[keep] = q - p

    # Route each key's gradient through its argmax query.
    d_scores = np.zeros((n, n))
    cols = np.flatnonzero(np.isfinite(student_imp) & (d_imp != 0.0))
    d_scores[arg_rows[cols], cols] = d_imp[cols]

    d_gates = np.einsum("st,sth->sh", d_scores, z)
    d_z = np.einsum("st,sh->sth", d_scores, gates)
    d_dots = d_z * (dots > 0.0)
    d_qfeat = np.einsum("sth,td->shd", d_dots, k_feat)
    d_kfeat = np.einsum("sth,shd->td", d_dots, q_feat)

    d_raw_q = _rmsnorm_backward(raw_q, d_qfeat)
    d_raw_k = _rmsnorm_backward(raw_k, d_kfeat)

    grad_u_q = flat_q.T @ d_raw_q.reshape(n, -1)
    grad_u_k = batch.x.T @ d_raw_k
    grad_g = (batch.x.T @ d_gates) * params.gate_scale
    return loss, {"u_q": grad_u_q, "u_k": grad_u_k, "g": grad_g}


@dataclass(frozen=True)
class WsdSchedule:
    """Warmup-stable-decay learning rate: linear up, flat, linear down."""

    warmup_steps: int = 100
    stable_steps: int = 2000
    decay_steps: int = 2000
    peak: float = 1e-3
    final: float = 7.5e-6

    def __post_init__(self):
        if min(self.warmup_steps, self.stable_steps, self.decay_steps) < 0:
            raise ValueError("step counts must be nonnegative")
        if self.peak <= 0 or self.final <= 0:
            raise ValueError("learning rates must be positive")

    @property
    def total_steps(self) -> int:
        return self.warmup_steps + self.stable_steps + self.decay_steps

    def lr(self, step: int) -> float:
        """Learning rate for 0-based ``step``; hits peak at the end of
        warmup and exactly ``final`` on the last step."""
        if not 0 <= step < self.total_steps:
            raise ValueError("step outside the schedule")
        if step < self.warmup_steps:
            return self.peak * (step + 1) / self.warmup_steps
        if step < self.warmup_steps + self.stable_steps:
            return self.peak
        j = step - self.warmup_steps - self.stable_steps
        return self.peak + (self.final - self.peak) * (j + 1) / self.decay_steps

    def scaled(self, total: int) -> "WsdSchedule":
        """Same shape squeezed into ``total`` steps (desk-scale runs)."""
        if total < 1:
            raise ValueError("need at least one step")
        frac = total / self.total_steps
        warm = min(max(1, round(self.warmup_steps * frac)), total) if total >= 3 else 0
        decay = min(max(1, round(self.decay_steps * frac)), total - warm) if total >= 3 else 0
        return WsdSchedule(warm, total - warm - decay, decay, self.peak, self.final)


def clip_gradients(grads: dict, max_norm: float = 1.0) -> dict:
    """Scale the whole gradient set down to a global norm bound."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def train_indexer(params: IndexerParams, batches: list, schedule: WsdSchedule,
                  steps: int | None = None, clip: float = 1.0) -> list:
    """SGD distillation over a cycled batch list; returns per-step losses.

    The loop mutates ``params`` in place and is deterministic: batch order
    is round-robin, gradients are exact, and the only schedule is WSD.
    Raises :class:`DivergenceError` when the loss stops being finite.
    """
    if not batches:
        raise ValueError("need at least one batch")
    total = schedule.total_steps if steps is None else steps
    if total > schedule.total_steps:
        raise ValueError("more steps than the schedule covers")
    losses = []
    for step in range(total):
        batch = batches[step % len(batches)]
        for w in (params.u_q, params.u_k, params.g):
            if not np.all(np.isfinite(w)):
                raise DivergenceError(f"indexer weights non-finite at step {step}")
        loss, grads = distill_gradients(params, batch)
        if not np.isfinite(loss):
            raise DivergenceError(f"distillation loss diverged at step {step}")
        grads = clip_gradients(grads, clip)
        lr = schedule.lr(step)
        params.u_q -= lr * grads["u_q"]
        params.u_k -= lr * grads["u_k"]
        params.g -= lr * grads["g"]
        losses.append(float(loss))
    return losses
