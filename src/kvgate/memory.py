"""Fixed-size fast-weight memory that absorbs evicted cache rows.

Evicted key/value rows are folded into a small outer-product state matrix.
A normalized, gated readout of that state is added back onto the attention
output, so queries arriving after an eviction can still recover a trace of
the dropped tokens. The state has constant size regardless of how many
tokens pass through it.

Two kinds of weights live here:

* fast weights: the state pair ``(M, b)``, updated online by simple
  accumulation rules whenever rows are evicted, never by gradients;
* slow weights: the feature map ``w_phi`` and the read gate, trained
  offline to reconstruct what compression removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, sigmoid
from .teacher import flatten_heads

MEM_EPS = 1e-6


def default_d_mem(d_model: int) -> int:
    return max(1, d_model // 8)


@dataclass
class MemorySlowWeights:
    """Trainable parameters: feature projection and scalar read gate."""

    w_phi: np.ndarray    # (d_model, d_mem)
    w_gate: np.ndarray   # (d_model,)
    gate_bias: float

    def __post_init__(self):
        self.w_phi = np.asarray(self.w_phi, dtype=np.float64)
        self.w_gate = np.asarray(self.w_gate, dtype=np.float64)
        self.gate_bias = float(self.gate_bias)
        if self.w_phi.ndim != 2:
            raise ValueError("w_phi must be 2-D")
        if self.d_mem < 1:
            raise ValueError("d_mem must be at least 1")
        if self.w_gate.shape != (self.w_phi.shape[0],):
            raise ValueError("w_gate width must match w_phi input width")
        for arr in (self.w_phi, self.w_gate):
            if not np.all(np.isfinite(arr)):
                raise ValueError("slow weights must be finite")
        if not np.isfinite(self.gate_bias):
            raise ValueError("slow weights must be finite")

    @property
    def d_model(self) -> int:
        return self.w_phi.shape[0]

    @property
    def d_mem(self) -> int:
        return self.w_phi.shape[1]

    @classmethod
    def init(cls, d_model: int, rng: Rng,
             d_mem: int | None = None) -> "MemorySlowWeights":
        if d_mem is None:
            d_mem = default_d_mem(d_model)
        scale = 1.0 / np.sqrt(float(d_model))
        return cls(w_phi=rng.split(0).normal((d_model, d_mem)) * scale,
                   w_gate=rng.split(1).normal((d_model,)) * scale,
                   gate_bias=0.0)


@dataclass
class MemoryState:
    """The fast weights for one layer, shared across heads.

    Footprint is d_mem * (d_model + 1) floats no matter how many tokens
    have been written.
    """

    m: np.ndarray   # (d_mem, d_model)
    b: np.ndarray   # (d_mem,)

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.m.ndim != 2 or self.b.shape != (self.m.shape[0],):
            raise ValueError("state shapes disagree")

    @classmethod
    def zeros(cls, d_mem: int, d_model: int) -> "MemoryState":
        return cls(np.zeros((d_mem, d_model)), np.zeros(d_mem))

    def nbytes(self) -> int:
        return self.m.nbytes + self.b.nbytes


def phi(slow: MemorySlowWeights, x: np.ndarray) -> np.ndarray:
    """Feature map into memory space; accepts a vector or rows."""
    return np.asarray(x, dtype=np.float64) @ slow.w_phi


def mem_read(slow: MemorySlowWeights, state: MemoryState,
             q: np.ndarray) -> np.ndarray:
    """Normalized readout phi(q)' M / (phi(q)^2 . b + eps) of (n, d_model)
    query rows: (n, d_model). Empty memory reads as zero.
    """
    feat = phi(slow, q)
    denom = (feat ** 2) @ state.b + MEM_EPS
    return (feat @ state.m) / denom[:, None]


def mem_write(slow: MemorySlowWeights, state: MemoryState,
              keys: np.ndarray, values: np.ndarray,
              lam: float = 0.95) -> MemoryState:
    """Fold evicted token rows into a fresh state: decay then accumulate.

    ``keys`` and ``values`` are (n, d_model); n = 0 applies pure decay.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.shape != values.shape or keys.ndim != 2:
        raise ValueError("keys and values must be matching (n, d_model) rows")
    feat = phi(slow, keys)
    return MemoryState(m=lam * state.m + feat.T @ values,
                       b=lam * state.b + (feat ** 2).sum(axis=0))


def gate(slow: MemorySlowWeights, q: np.ndarray) -> np.ndarray:
    """Read gate in (0, 1) of (..., n, d_model) query rows: (..., n)."""
    return sigmoid(np.asarray(q, dtype=np.float64) @ slow.w_gate + slow.gate_bias)


def fuse(slow: MemorySlowWeights, state: MemoryState, o_attn: np.ndarray,
         q: np.ndarray) -> np.ndarray:
    """Attention output plus the gated memory readout."""
    o_attn = np.asarray(o_attn, dtype=np.float64)
    g = np.asarray(gate(slow, q))[..., None]
    return o_attn + g * mem_read(slow, state, q)


def tokens_from_evicted(keys: np.ndarray, values: np.ndarray,
                        n_heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Token-level (n, d_model) key/value rows from per-kv-head evictions.

    Each kv head's slice is repeated across its query group and the heads
    are concatenated, so the row layout matches the flattened query space
    the memory is read with.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.shape != values.shape or keys.ndim != 3:
        raise ValueError("expected matching (n_kv_heads, n, d_head) rows")
    n_kv = keys.shape[0]
    if n_heads % n_kv != 0:
        raise ValueError("n_heads must be a multiple of n_kv_heads")
    reps = n_heads // n_kv
    return (flatten_heads(np.repeat(keys, reps, axis=0)),
            flatten_heads(np.repeat(values, reps, axis=0)))
