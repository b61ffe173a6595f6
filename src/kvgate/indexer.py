"""Learned importance indexer: gated low-rank similarity distilled from attention.

The indexer predicts which cached rows the attention actually needs, without
touching keys or values: queries are down-projected per head, keys share one
tiny feature stream (MQA style), both are RMS-normalized, and a per-head gate
computed from the hidden state mixes the ReLU similarities into one score.
Importance of a key is the max score any query in the aggregation set gives
it. Training distills the pooled importance distribution from the frozen
attention logits with a KL loss. Each :class:`DistillBatch` builds its
teacher target at construction and keeps no rotated q/k. The gradient step
and scoring share one forward, :func:`index_scores`, which builds the
whole (queries x keys) score matrix; the gradient step's backward runs
only on the query rows that are some key's argmax.

All gradients here are hand-derived; at max ties the lowest-index query
carries the subgradient and ReLU contributes zero slope at its kink, which
keeps finite-difference checks exact in 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .numerics import (
    NORM_EPS,
    DivergenceError,
    Rng,
    kl_divergence,
    masked_softmax_rows,
    rmsnorm,
)
from .teacher import TeacherConfig, flatten_heads, teacher_block


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
        if self.h_index < 1 or self.d_index < 1:
            raise ValueError("H_index and d_index must be at least 1")
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

    A decode simulation appends the prompt's rows, then each interval's at
    the interval's end, and :meth:`retain` drops the rows the KV cache
    evicted, so every row a compaction scores has its features. The
    footprint is d_index floats per token. Appends come once per interval,
    not once per step, so each one rebuilds the arrays.
    """

    def __init__(self, d_index: int):
        self.d_index = d_index
        self._rows = np.empty((0, d_index))
        self.positions = np.empty(0, dtype=np.int64)   # ascending

    def __len__(self) -> int:
        return self.positions.size

    def append(self, rows: np.ndarray, positions) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        pos = np.asarray(positions, dtype=np.int64)
        if rows.shape != (pos.size, self.d_index):
            raise ValueError(f"expected rows of width {self.d_index}")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if pos.size and len(self) and pos[0] <= self.positions[-1]:
            raise ValueError("positions must extend past the cached range")
        self._rows = np.concatenate([self._rows, rows])
        self.positions = np.concatenate([self.positions, pos])

    def rows_for(self, positions) -> np.ndarray:
        """Gather cached feature rows by original position (a copy)."""
        want = np.asarray(positions, dtype=np.int64)
        cached = self.positions
        idx = np.searchsorted(cached, want)
        # An index past the end is checked first: it cannot be gathered.
        if np.any(idx >= cached.size) or np.any(cached[idx] != want):
            raise ValueError("missing cached keys")
        return self._rows[idx]

    def retain(self, positions) -> None:
        """Keep only the rows at ``positions``, e.g. after a KV compaction;
        ``positions`` must be strictly increasing."""
        keep = np.array(positions, dtype=np.int64)
        if np.any(np.diff(keep) <= 0):
            raise ValueError("positions must be strictly increasing")
        self._rows = self.rows_for(keep)
        self.positions = keep


def index_scores(q_feat: np.ndarray, gates: np.ndarray, k_feat: np.ndarray,
                 q_ids: np.ndarray, k_ids: np.ndarray):
    """The indexer's forward from precomputed per-row features.

    Returns ``z``, the (S, T, H_index) ReLU similarities, and ``scores``,
    their gated (S, T) sum with keys past a query's position at -inf.
    Scoring and the distillation step both run this one function, so the
    scorer sees keys exactly as training did.
    """
    # ReLU in place: z > 0 exactly where the dot products are.
    z = np.einsum("shd,td->sth", q_feat, k_feat)
    np.maximum(z, 0.0, out=z)
    scores = np.einsum("sth,sh->st", z, gates)
    np.copyto(scores, -np.inf, where=k_ids[None, :] > q_ids[:, None])
    return z, scores


def importance_from_features(q_feat: np.ndarray, gates: np.ndarray,
                             k_feat: np.ndarray, q_ids: np.ndarray,
                             k_ids: np.ndarray) -> np.ndarray:
    """Per-key max score over the query rows.

    ``q_feat``/``gates`` hold one row per query at positions ``q_ids``;
    ``k_feat`` one row per key at positions ``k_ids``. Keys outside every
    query's causal support come back -inf.
    """
    _, scores = index_scores(q_feat, gates, k_feat, q_ids, k_ids)
    return np.maximum.reduce(scores, axis=0, initial=-np.inf)


def indexer_importance(params: IndexerParams, x: np.ndarray,
                       q_pre: np.ndarray) -> np.ndarray:
    """Importance of every row of one sequence over all its query rows."""
    x = np.asarray(x, dtype=np.float64)
    ids = np.arange(x.shape[0])
    return importance_from_features(query_features(params, q_pre),
                                    head_gates(params, x),
                                    key_features(params, x), ids, ids)


@dataclass
class DistillBatch:
    """One sequence's worth of distillation inputs for a single layer.

    ``q_pre`` feeds the indexer (queries before rotation, as the scorer sees
    them); ``q_rot``/``k_rot``, the states the attention actually used, are
    read once to build :attr:`teacher_imp` and are not kept. Every query row
    is in the aggregation set.
    """

    x: np.ndarray               # (L, d_model) layer-input hidden states
    q_pre: np.ndarray           # (n_heads, L, d_head)
    q_rot: InitVar[np.ndarray]  # (n_heads, L, d_head)
    k_rot: InitVar[np.ndarray]  # (n_kv_heads, L, d_head)
    sink_count: int = 4
    # Distillation target: per-key max teacher logit over all queries, (L,).
    teacher_imp: np.ndarray = field(init=False)

    def __post_init__(self, q_rot, k_rot):
        if self.x.shape[0] != self.q_pre.shape[1]:
            raise ValueError("hidden states and queries must align")
        if self.sink_count < 0 or self.sink_count >= self.x.shape[0]:
            raise ValueError("sink count must leave at least one scored key")
        self.teacher_imp = teacher_block(q_rot, k_rot).max(axis=0)

    @property
    def length(self) -> int:
        return self.x.shape[0]


def pooled_vectors(params: IndexerParams, batch: DistillBatch):
    """(teacher_imp, student_imp) over all keys, both (L,).

    The teacher side is the batch's target; the student side is
    :func:`indexer_importance` over every query row.
    """
    return batch.teacher_imp, indexer_importance(params, batch.x, batch.q_pre)


def distill_loss(params: IndexerParams, batch: DistillBatch) -> float:
    """KL between pooled teacher and student importance, sinks excluded."""
    teacher_imp, student_imp = pooled_vectors(params, batch)
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
    """Loss and analytic gradients of :func:`distill_loss` w.r.t. u_q, u_k, g.

    The forward is :func:`index_scores` over every row, the scorer's own
    forward, so the loss equals :func:`distill_loss` exactly. A key's
    gradient flows only through its argmax query, so the backward runs its
    four ``einsum`` on just the distinct argmax rows of the keys that carry
    gradient and scatters the row results into zeros; every row keeps the
    bits the dense (L, L) backward gave it. The feature-norm backward and
    the weight-gradient matmuls keep all L rows, so their BLAS sums are the
    dense ones too.
    """
    n = batch.length
    ids = np.arange(n)

    flat_q = flatten_heads(batch.q_pre)            # (L, H*dh)
    raw_q = (flat_q @ params.u_q).reshape(n, params.h_index, params.d_index)
    q_feat = rmsnorm(raw_q)
    raw_k = batch.x @ params.u_k
    k_feat = rmsnorm(raw_k)
    gates = head_gates(params, batch.x)
    z, scores = index_scores(q_feat, gates, k_feat, ids, ids)

    arg_rows = np.argmax(scores, axis=0)           # lowest index wins ties
    student_imp = scores[arg_rows, ids]

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
    p[finite] = masked_softmax_rows(tf)
    q[finite] = masked_softmax_rows(sf)
    d_imp = np.zeros(n)
    d_imp[keep] = q - p

    # Route each key's gradient through its argmax query: d_scores has
    # non-zeros only on the rows R, so the backward runs on R alone.
    cols = np.flatnonzero(np.isfinite(student_imp) & (d_imp != 0.0))
    rows, slot = np.unique(arg_rows[cols], return_inverse=True)
    d_scores = np.zeros((rows.size, n))
    d_scores[slot, cols] = d_imp[cols]
    z_r = z[rows]

    d_gates = np.zeros_like(gates)
    d_gates[rows] = np.einsum("st,sth->sh", d_scores, z_r)
    d_dots = np.einsum("st,sh->sth", d_scores, gates[rows])
    d_dots *= z_r > 0.0
    d_qfeat = np.zeros_like(q_feat)
    d_qfeat[rows] = np.einsum("sth,td->shd", d_dots, k_feat)
    d_kfeat = np.einsum("sth,shd->td", d_dots, q_feat[rows])

    d_raw_q = _rmsnorm_backward(raw_q, d_qfeat)
    d_raw_k = _rmsnorm_backward(raw_k, d_kfeat)

    grad_u_q = flat_q.T @ d_raw_q.reshape(n, -1)
    grad_u_k = batch.x.T @ d_raw_k
    grad_g = (batch.x.T @ d_gates) * params.gate_scale
    return loss, {"u_q": grad_u_q, "u_k": grad_u_k, "g": grad_g}


# The warmup-stable-decay shape of a 4,100-step run (100 warmup, 2,000
# stable, 2,000 decay steps), which :func:`wsd_lr` squeezes into a run's
# own step count, the peak learning rate every stage trains at, and the
# learning rate its last step reaches.
WSD_WARMUP = 100
WSD_STABLE = 2000
WSD_DECAY = 2000
WSD_PEAK = 1e-3
WSD_FINAL_LR = 7.5e-6


def wsd_lr(step: int, steps: int, peak: float) -> float:
    """Warmup-stable-decay learning rate of 0-based ``step`` in a run of
    ``steps``: linear up to ``peak`` at the end of warmup, flat, then
    linear down to :data:`WSD_FINAL_LR` on the last step. Warmup
    and decay keep their share of the 4,100-step shape, at least one step
    each; runs under 3 steps stay at ``peak``."""
    frac = steps / (WSD_WARMUP + WSD_STABLE + WSD_DECAY)
    warm = decay = 0
    if steps >= 3:
        warm = min(max(1, round(WSD_WARMUP * frac)), steps)
        decay = min(max(1, round(WSD_DECAY * frac)), steps - warm)
    if step < warm:
        return peak * (step + 1) / warm
    if step < steps - decay:
        return peak
    return peak + (WSD_FINAL_LR - peak) * (step - (steps - decay) + 1) / decay


def clip_gradients(grads: dict) -> dict:
    """Scale the whole gradient set down to a global norm of at most 1."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= 1.0:
        return grads
    scale = 1.0 / total
    return {k: g * scale for k, g in grads.items()}


def train_indexer(params: IndexerParams, batches: list, steps: int,
                  peak: float) -> list:
    """SGD distillation over a cycled batch list; returns per-step losses.

    The loop mutates ``params`` in place and is deterministic: batch order
    is round-robin, gradients are exact and clipped to norm 1, and the
    learning rate follows :func:`wsd_lr` up to ``peak``. Raises
    :class:`DivergenceError` when the loss stops being finite.
    """
    if not batches:
        raise ValueError("need at least one batch")
    losses = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        for w in (params.u_q, params.u_k, params.g):
            if not np.all(np.isfinite(w)):
                raise DivergenceError(f"indexer weights non-finite at step {step}")
        loss, grads = distill_gradients(params, batch)
        if not np.isfinite(loss):
            raise DivergenceError(f"distillation loss diverged at step {step}")
        grads = clip_gradients(grads)
        lr = wsd_lr(step, steps, peak)
        params.u_q -= lr * grads["u_q"]
        params.u_k -= lr * grads["u_k"]
        params.g -= lr * grads["g"]
        losses.append(float(loss))
    return losses
