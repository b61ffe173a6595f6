"""Frozen random-weight causal transformer used as the reference workload.

The model is never trained: weights are drawn once from a seeded stream and
the forward pass exposes every intermediate an eviction policy or distillation
loss reads: each layer's input hidden states, pre- and post-rotary queries,
keys and values.

All attention softmax logits are scaled by 1/sqrt(d_model), and everything
downstream that reconstructs attention takes that scale from its one owner,
:func:`logit_scale`, which reads d_model off the queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, check_seed, masked_softmax_rows, rmsnorm, sigmoid

# Rotary frequency base: pair i of a d-wide row turns at ROPE_BASE**(-2i/d).
ROPE_BASE = 10000.0


@dataclass(frozen=True)
class TeacherConfig:
    n_layers: int = 4
    d_model: int = 64
    n_heads: int = 8
    n_kv_heads: int = 2
    d_ffn: int = 128
    vocab_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
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
        check_seed(self.seed)

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def kv_head_of(query_head: int, n_heads: int, n_kv_heads: int) -> int:
    """KV head serving a given query head: floor(h * n_kv / n_heads)."""
    return query_head * n_kv_heads // n_heads


def rope_tables(positions, d: int):
    """Rotary ``(cos, sin)`` tables, each (..., L, d // 2), for ``positions``.

    Pair i of a row at position p is rotated by angle p * ROPE_BASE**(-2i/d).
    One pair of tables serves every tensor rotated at the same positions.
    """
    if d % 2 != 0:
        raise ValueError("rotary embedding needs an even feature dimension")
    pos = np.asarray(positions, dtype=np.float64)
    inv_freq = ROPE_BASE ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    theta = pos[..., :, None] * inv_freq
    return np.cos(theta), np.sin(theta)


def rope_rotate(x: np.ndarray, tables) -> np.ndarray:
    """Rotate feature pairs (2i, 2i+1) of ``x`` (..., L, d) by
    :func:`rope_tables` built for the same L positions and d."""
    c, s = tables
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out


def rope_apply(x: np.ndarray, positions) -> np.ndarray:
    """Rotate feature pairs (2i, 2i+1) by angle pos * ROPE_BASE**(-2i/d).

    ``x`` has shape (..., L, d) with even d; ``positions`` has length L.
    Negative positions invert the rotation, which some callers use to undo it.
    """
    return rope_rotate(x, rope_tables(positions, x.shape[-1]))


def logit_scale(q: np.ndarray) -> float:
    """The teacher's one attention logit scale, 1/sqrt(n_heads * d_head),
    which is 1/sqrt(d_model), for (n_heads, n, d_head) queries."""
    return 1.0 / np.sqrt(float(q.shape[0] * q.shape[-1]))


def head_logits(q: np.ndarray, keys: np.ndarray,
                visible: np.ndarray | None = None):
    """Yield ``(h, g, logits)`` per query head h of ``q`` (n_heads, nq, d_head):
    g is its kv head in ``keys`` and ``logits`` the (nq, L) scaled
    ``q[h] @ keys[g].T``, -inf where the optional ``visible`` mask is False.
    Each ``logits`` is a fresh array, scaled and masked in place."""
    n_heads = q.shape[0]
    n_kv = keys.shape[0]
    scale = logit_scale(q)
    hidden = None if visible is None else ~np.asarray(visible, dtype=bool)
    for h in range(n_heads):
        g = kv_head_of(h, n_heads, n_kv)
        logits = q[h] @ keys[g].T
        logits *= scale
        if hidden is not None:
            np.copyto(logits, -np.inf, where=hidden)
        yield h, g, logits


def attention_full(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Causal softmax attention over aligned sequences, grouped kv heads.

    Args:
        q: (n_heads, L, d_head) queries, already rotated.
        k, v: (n_kv_heads, L, d_head) keys/values, keys already rotated.

    Returns:
        (L, n_heads * d_head) concatenated per-head outputs (head-major),
        i.e. the attention output before any output projection. This is
        :func:`attend_rows` under a causal mask.
    """
    n_heads, L, dh = q.shape
    n_kv = k.shape[0]
    if k.shape != (n_kv, L, dh) or v.shape != (n_kv, L, dh):
        raise ValueError("inconsistent attention shapes")
    return _attend(q, k, v, np.tri(L, dtype=bool))


def attend_rows(q_rows: np.ndarray, keys: np.ndarray, values: np.ndarray,
                visible: np.ndarray | None = None) -> np.ndarray:
    """Attention of free-standing query rows against an arbitrary key set.

    Args:
        q_rows: (n_heads, nq, d_head) rotated queries.
        keys, values: (n_kv_heads, n_rows, d_head) cached rows.
        visible: optional (nq, n_rows) bool mask; masked-off logits -> -inf.
            Every row needs a visible key, else "empty support" is raised.

    Returns (nq, n_heads * d_head).

    A single unmasked query row (``nq == 1``, a decode step) runs every
    head at once: the queries are viewed as (n_kv_heads, group, 1, d_head)
    and meet their kv head's keys and values through one 4-D stacked
    matmul each, with one softmax over all heads. Every other input
    (prefill, any masked row) runs one head at a time through
    :func:`head_logits`; episodes and the sweep rebuild its bits in
    :func:`kvgate.episodes.layer_episodes` instead. NumPy runs the same
    BLAS call for each matrix of a stack, so the result is bitwise that
    of a per-head loop.
    """
    return _attend(q_rows, keys, values, visible)


def _attend(q_rows, keys, values, visible):
    # The kernel behind attend_rows and attention_full; they stay separate
    # names so a per-function profile attributes prefill and row attention
    # apart.
    n_heads, nq, dh = q_rows.shape
    n_kv = keys.shape[0]
    if nq == 1 and visible is None:
        q = q_rows.reshape(n_kv, n_heads // n_kv, 1, dh)
        logits = (q @ keys.transpose(0, 2, 1)[:, None]) * logit_scale(q_rows)
        o = masked_softmax_rows(logits) @ values[:, None]
        return o.reshape(1, n_heads * dh)
    out = np.empty((nq, n_heads, dh))
    for h, g, logits in head_logits(q_rows, keys, visible):
        out[:, h, :] = masked_softmax_rows(logits) @ values[g]
    return out.reshape(nq, n_heads * dh)


@dataclass
class TeacherLayer:
    w_q: np.ndarray       # (d_model, n_heads * d_head)
    w_k: np.ndarray       # (d_model, n_kv_heads * d_head)
    w_v: np.ndarray       # (d_model, n_kv_heads * d_head)
    w_o: np.ndarray       # (n_heads * d_head, d_model)
    w_in: np.ndarray      # (d_model, d_ffn)
    w_out: np.ndarray     # (d_ffn, d_model)


@dataclass
class LayerTrace:
    """Everything one layer produced for one sequence."""

    x_in: np.ndarray      # (L, d_model) hidden states entering the layer
    q_pre: np.ndarray     # (n_heads, L, d_head) queries before rotation
    q: np.ndarray         # (n_heads, L, d_head) rotated queries
    k: np.ndarray         # (n_kv_heads, L, d_head) rotated keys
    v: np.ndarray         # (n_kv_heads, L, d_head) values


@dataclass
class ForwardTrace:
    layers: list          # LayerTrace per layer; layer i's output is i+1's x_in
    output: np.ndarray    # (L, d_model) the last layer's output


@dataclass
class StepTrace:
    """Per-layer rows produced by one decode step of S simulations; row s
    of every array belongs to the simulation of ``caches[s]``."""

    x_in: list            # (S, d_model) per layer
    q_pre: list           # (S, n_heads, d_head) per layer
    q: list               # (S, n_heads, d_head) per layer
    output: np.ndarray    # (S, d_model) final hidden rows


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
            ))

    def embed(self, tokens) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("tokens must be a nonempty 1-D sequence")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id out of range")
        return self.embedding[ids].copy()

    def _project_qkv(self, layer: TeacherLayer, x: np.ndarray, rope):
        """Shared projection path for prefill and decode.

        ``x`` is (..., n, d_model) and ``rope`` the :func:`rope_tables` of
        its n positions; q/k/v come back as (..., heads, n, d_head).
        """
        cfg = self.config
        a_in = rmsnorm(x)
        lead = x.shape[:-1]
        q_pre = (a_in @ layer.w_q).reshape(*lead, cfg.n_heads, cfg.d_head).swapaxes(-3, -2)
        k_pre = (a_in @ layer.w_k).reshape(*lead, cfg.n_kv_heads, cfg.d_head).swapaxes(-3, -2)
        v = (a_in @ layer.w_v).reshape(*lead, cfg.n_kv_heads, cfg.d_head).swapaxes(-3, -2)
        q = rope_rotate(q_pre, rope)
        k = rope_rotate(k_pre, rope)
        return q_pre, q, k, v

    def _finish_layer(self, layer: TeacherLayer, x: np.ndarray, o_concat: np.ndarray) -> np.ndarray:
        h = x + o_concat @ layer.w_o
        pre = rmsnorm(h) @ layer.w_in
        return h + (pre * sigmoid(pre)) @ layer.w_out

    def forward(self, x0) -> ForwardTrace:
        """Full-sequence forward pass with per-layer traces over the
        (L, d_model) input rows ``x0`` (token ids go through :meth:`embed`).
        """
        x = np.array(x0, dtype=np.float64, copy=True)
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ValueError("x0 must have shape (L, d_model)")
        if x.shape[0] == 0:
            raise ValueError("empty sequence")
        rope = rope_tables(np.arange(x.shape[0]), self.config.d_head)
        traces = []
        for layer in self.layers:
            q_pre, q, k, v = self._project_qkv(layer, x, rope)
            traces.append(LayerTrace(x_in=x, q_pre=q_pre, q=q, k=k, v=v))
            x = self._finish_layer(layer, x, attention_full(q, k, v))
        return ForwardTrace(layers=traces, output=x)

    def forward_step(self, x_rows: np.ndarray, caches, position: int) -> StepTrace:
        """One decode step of S simulations in lockstep, all at ``position``.

        Row s of ``x_rows`` (S, d_model) is the input of the simulation whose
        :class:`kvgate.cache.KvCache` is ``caches[s]``. Per layer, every
        simulation's kv rows are appended to its own cache and attend over
        everything cached there so far.

        The per-row work (rmsnorm, the projections, rotary, the FFN) runs
        once for all S rows on (S, 1, d) stacks: NumPy runs each stacked
        matrix's own 1-row product, so every row keeps the bits of a
        single-row step. A flat (S, d) @ W takes another BLAS path and does
        not.
        """
        cfg = self.config
        n_sim = len(caches)
        x = np.asarray(x_rows, dtype=np.float64).reshape(n_sim, 1, cfg.d_model)
        positions = np.array([position])
        rope = rope_tables(positions, cfg.d_head)
        xs, qps, qs = [], [], []
        for idx, layer in enumerate(self.layers):
            q_pre, q, k, v = self._project_qkv(layer, x, rope)
            o = np.empty((n_sim, 1, cfg.d_model))
            for s, cache in enumerate(caches):
                cache.append(idx, k[s], v[s], positions)
                o[s] = attend_rows(q[s], cache.keys(idx), cache.values(idx))
            xs.append(x[:, 0])
            qps.append(q_pre[:, :, 0])
            qs.append(q[:, :, 0])
            x = self._finish_layer(layer, x, o)
        return StepTrace(x_in=xs, q_pre=qps, q=qs, output=x[:, 0])


def flatten_heads(per_head: np.ndarray) -> np.ndarray:
    """(n_heads, L, d_head) -> (L, n_heads * d_head), head-major per token."""
    h, L, dh = per_head.shape
    return per_head.transpose(1, 0, 2).reshape(L, h * dh)


def teacher_block(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(L, L) causal attention logits of ``q`` against ``k`` over the same L
    positions, max-pooled over every query head: one running maximum over
    :func:`head_logits`, -inf above the diagonal."""
    L = q.shape[1]
    out = np.full((L, L), -np.inf)
    for _, _, logits in head_logits(q, k, np.tri(L, dtype=bool)):
        np.maximum(out, logits, out=out)
    return out


def pooled_teacher_importance(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-key importance: the column max of :func:`teacher_block`, i.e. the
    max over query heads and query positions of the causal logits
    q_s . k_t * :func:`logit_scale`. It is both the indexer's distillation
    target and the sweep's ``pooled_kl`` reference, with the same bits."""
    return teacher_block(q, k).max(axis=0)
