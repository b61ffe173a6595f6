"""Frozen random-weight causal transformer used as the reference workload.

The model is never trained: weights are drawn once from a seeded stream and
the forward pass exposes every intermediate an eviction policy or distillation
loss could want (hidden states, pre- and post-rotary queries, keys, values,
and the concatenated attention output before the output projection).

All attention softmax logits are scaled by 1/sqrt(d_model), and that same
scaling is used everywhere downstream that reconstructs attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .numerics import Rng, masked_softmax_rows, rmsnorm


@dataclass(frozen=True)
class TeacherConfig:
    n_layers: int = 4
    d_model: int = 64
    n_heads: int = 8
    n_kv_heads: int = 2
    d_ffn: int = 128
    rope_base: float = 10000.0
    vocab_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.n_layers < 0:
            raise ValueError("n_layers must be nonnegative")
        if self.n_heads < 1 or self.d_model < 1:
            raise ValueError("d_model and n_heads must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_kv_heads < 1 or self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be divisible by n_kv_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for rotary pairs")
        if self.d_ffn < 1 or self.vocab_size < 1:
            raise ValueError("d_ffn and vocab_size must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads


def kv_head_of(query_head: int, n_heads: int, n_kv_heads: int) -> int:
    """KV head serving a given query head: floor(h * n_kv / n_heads)."""
    return query_head * n_kv_heads // n_heads


def rope_apply(x: np.ndarray, positions, base: float = 10000.0) -> np.ndarray:
    """Rotate feature pairs (2i, 2i+1) by angle pos * base**(-2i/d).

    ``x`` has shape (..., L, d) with even d; ``positions`` has length L.
    Negative positions invert the rotation, which some callers use to undo it.
    """
    d = x.shape[-1]
    if d % 2 != 0:
        raise ValueError("rotary embedding needs an even feature dimension")
    pos = np.asarray(positions, dtype=np.float64)
    inv_freq = base ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    theta = pos[..., :, None] * inv_freq
    c = np.cos(theta)
    s = np.sin(theta)
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out


def attention_full(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale_dim: int) -> np.ndarray:
    """Causal softmax attention over aligned sequences, grouped kv heads.

    Args:
        q: (n_heads, L, d_head) queries, already rotated.
        k, v: (n_kv_heads, L, d_head) keys/values, keys already rotated.
        scale_dim: dimension under the sqrt in the logit scale.

    Returns:
        (L, n_heads * d_head) concatenated per-head outputs (head-major),
        i.e. the attention output before any output projection. This is
        :func:`attend_rows` under a causal mask.
    """
    n_heads, L, dh = q.shape
    n_kv = k.shape[0]
    if k.shape != (n_kv, L, dh) or v.shape != (n_kv, L, dh):
        raise ValueError("inconsistent attention shapes")
    return _attend(q, k, v, scale_dim, np.tri(L, dtype=bool))


def attend_rows(q_rows: np.ndarray, keys: np.ndarray, values: np.ndarray,
                scale_dim: int, visible: np.ndarray | None = None) -> np.ndarray:
    """Attention of free-standing query rows against an arbitrary key set.

    Args:
        q_rows: (n_heads, nq, d_head) rotated queries.
        keys, values: (n_kv_heads, n_rows, d_head) cached rows.
        visible: optional (nq, n_rows) bool mask; masked-off logits -> -inf.
            Every row needs a visible key, else "empty support" is raised.

    Returns (nq, n_heads * d_head).

    A single query row (``nq == 1``, a decode step) computes the query heads
    sharing a kv head as one stacked matmul, one iteration per kv head.
    Every other input (prefill, episodes, sweep) runs one head at a time
    with 2-D ops. NumPy runs the same BLAS call for each head of a stack,
    so the result is bitwise that of a per-head loop.
    """
    return _attend(q_rows, keys, values, scale_dim, visible)


def _attend(q_rows, keys, values, scale_dim, visible):
    # The kernel behind attend_rows and attention_full; they stay separate
    # names so a per-function profile attributes prefill and row attention
    # apart.
    n_heads, nq, dh = q_rows.shape
    n_kv, n_rows, _ = keys.shape
    group = n_heads // n_kv
    per_block = group if nq == 1 else 1
    scale = 1.0 / np.sqrt(float(scale_dim))
    out = np.empty((nq, n_heads, dh))
    for g in range(n_kv):
        for h0 in range(g * group, (g + 1) * group, per_block):
            h1 = h0 + per_block
            q = q_rows[h0] if per_block == 1 else q_rows[h0:h1]
            logits = (q @ keys[g].T) * scale
            if visible is not None:
                logits = np.where(visible, logits, -np.inf)
            o = masked_softmax_rows(logits) @ values[g]
            out[:, h0:h1, :] = o[:, None, :] if o.ndim == 2 else o.transpose(1, 0, 2)
    return out.reshape(nq, n_heads * dh)


@dataclass
class TeacherLayer:
    w_q: np.ndarray       # (d_model, n_heads * d_head)
    w_k: np.ndarray       # (d_model, n_kv_heads * d_head)
    w_v: np.ndarray       # (d_model, n_kv_heads * d_head)
    w_o: np.ndarray       # (n_heads * d_head, d_model)
    w_in: np.ndarray      # (d_model, d_ffn)
    w_out: np.ndarray     # (d_ffn, d_model)
    attn_norm_gain: np.ndarray = field(repr=False, default=None)
    ffn_norm_gain: np.ndarray = field(repr=False, default=None)


@dataclass
class LayerTrace:
    """Everything one layer produced for one sequence."""

    x_in: np.ndarray      # (L, d_model) hidden states entering the layer
    q_pre: np.ndarray     # (n_heads, L, d_head) queries before rotation
    q: np.ndarray         # (n_heads, L, d_head) rotated queries
    k: np.ndarray         # (n_kv_heads, L, d_head) rotated keys
    v: np.ndarray         # (n_kv_heads, L, d_head) values
    o_concat: np.ndarray  # (L, d_model) attention output before w_o
    x_out: np.ndarray     # (L, d_model) layer output


@dataclass
class ForwardTrace:
    layers: list
    output: np.ndarray


@dataclass
class StepTrace:
    """Per-layer rows produced by a single decode step."""

    x_in: list            # (d_model,) per layer
    q_pre: list           # (n_heads, d_head) per layer
    q: list               # (n_heads, d_head) per layer
    o_concat: list        # (d_model,) per layer
    output: np.ndarray    # final hidden row


class TeacherModel:
    """Deterministic construction: identical (config, seed) gives identical weights."""

    def __init__(self, config: TeacherConfig):
        self.config = config
        rng = Rng(config.seed)
        std = 1.0 / np.sqrt(float(config.d_model))
        self.embedding = rng.split(1).normal((config.vocab_size, config.d_model)) * std
        self.layers: list[TeacherLayer] = []
        d, dh = config.d_model, config.d_head
        for layer_idx in range(config.n_layers):
            lr = rng.split(1000 + layer_idx)
            self.layers.append(TeacherLayer(
                w_q=lr.split(0).normal((d, config.n_heads * dh)) * std,
                w_k=lr.split(1).normal((d, config.n_kv_heads * dh)) * std,
                w_v=lr.split(2).normal((d, config.n_kv_heads * dh)) * std,
                w_o=lr.split(3).normal((config.n_heads * dh, d)) * std,
                w_in=lr.split(4).normal((d, config.d_ffn)) * std,
                w_out=lr.split(5).normal((config.d_ffn, d)) * std,
                attn_norm_gain=np.ones(d),
                ffn_norm_gain=np.ones(d),
            ))

    def embed(self, tokens) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("tokens must be a nonempty 1-D sequence")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id out of range")
        return self.embedding[ids].copy()

    def _project_qkv(self, layer: TeacherLayer, x: np.ndarray, positions):
        """Shared projection path for prefill and decode; x is (n, d_model)."""
        cfg = self.config
        a_in = rmsnorm(x) * layer.attn_norm_gain
        n = x.shape[0]
        q_pre = (a_in @ layer.w_q).reshape(n, cfg.n_heads, cfg.d_head).transpose(1, 0, 2)
        k_pre = (a_in @ layer.w_k).reshape(n, cfg.n_kv_heads, cfg.d_head).transpose(1, 0, 2)
        v = (a_in @ layer.w_v).reshape(n, cfg.n_kv_heads, cfg.d_head).transpose(1, 0, 2)
        q = rope_apply(q_pre, positions, cfg.rope_base)
        k = rope_apply(k_pre, positions, cfg.rope_base)
        return q_pre, q, k, v

    def _finish_layer(self, layer: TeacherLayer, x: np.ndarray, o_concat: np.ndarray) -> np.ndarray:
        h = x + o_concat @ layer.w_o
        f_in = rmsnorm(h) * layer.ffn_norm_gain
        pre = f_in @ layer.w_in
        return h + (pre * expit(pre)) @ layer.w_out

    def forward(self, tokens=None, x0=None) -> ForwardTrace:
        """Full-sequence forward pass with per-layer traces.

        Exactly one of ``tokens`` (ids into the fixed embedding table) or
        ``x0`` (caller-supplied (L, d_model) input rows) must be given.
        """
        if (tokens is None) == (x0 is None):
            raise ValueError("provide exactly one of tokens or x0")
        if tokens is not None:
            x = self.embed(tokens)
        else:
            x = np.array(x0, dtype=np.float64, copy=True)
            if x.ndim != 2 or x.shape[1] != self.config.d_model:
                raise ValueError("x0 must have shape (L, d_model)")
            if x.shape[0] == 0:
                raise ValueError("empty sequence")
        positions = np.arange(x.shape[0])
        traces = []
        for layer in self.layers:
            q_pre, q, k, v = self._project_qkv(layer, x, positions)
            o_concat = attention_full(q, k, v, self.config.d_model)
            x_out = self._finish_layer(layer, x, o_concat)
            traces.append(LayerTrace(x_in=x, q_pre=q_pre, q=q, k=k, v=v,
                                     o_concat=o_concat, x_out=x_out))
            x = x_out
        return ForwardTrace(layers=traces, output=x)

    def forward_step(self, x_row: np.ndarray, cache, position: int) -> StepTrace:
        """One decode step: append this position's kv rows to ``cache`` and
        attend over everything cached so far (per layer).

        ``cache`` is a :class:`kvgate.cache.KvCache` with one slot per layer.
        """
        cfg = self.config
        x = np.asarray(x_row, dtype=np.float64).reshape(1, cfg.d_model)
        xs, qps, qs, os_ = [], [], [], []
        for idx, layer in enumerate(self.layers):
            q_pre, q, k, v = self._project_qkv(layer, x, np.array([position]))
            cache.append(idx, k, v, np.array([position]))
            o = attend_rows(q, cache.keys(idx), cache.values(idx), cfg.d_model)
            xs.append(x[0])
            qps.append(q_pre[:, 0, :])
            qs.append(q[:, 0, :])
            os_.append(o[0])
            x = self._finish_layer(layer, x, o)
        return StepTrace(x_in=xs, q_pre=qps, q=qs, o_concat=os_, output=x[0])


def flatten_heads(per_head: np.ndarray) -> np.ndarray:
    """(n_heads, L, d_head) -> (L, n_heads * d_head), head-major per token."""
    h, L, dh = per_head.shape
    return per_head.transpose(1, 0, 2).reshape(L, h * dh)


def pooled_teacher_importance(q: np.ndarray, k: np.ndarray, scale_dim: int,
                              q_set: np.ndarray | None = None) -> np.ndarray:
    """Per-key importance: max over query heads and query positions of the
    causal attention logits q_s . k_t / sqrt(scale_dim).

    Keys after the last pooled query have empty causal support and come back
    as -inf. ``q_set`` defaults to every query position.
    """
    n_heads, L, dh = q.shape
    n_kv = k.shape[0]
    scale = 1.0 / np.sqrt(float(scale_dim))
    rows = np.arange(L) if q_set is None else np.asarray(q_set, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty query set")
    imp = np.full(L, -np.inf)
    key_ids = np.arange(L)
    for h in range(n_heads):
        g = kv_head_of(h, n_heads, n_kv)
        logits = (q[h][rows] @ k[g].T) * scale
        logits = np.where(key_ids[None, :] <= rows[:, None], logits, -np.inf)
        imp = np.maximum(imp, logits.max(axis=0))
    return imp
