"""Deterministic numerical primitives shared by every other module.

Everything here is plain numpy on float64. The point is reproducibility:
given the same inputs (and for :class:`Rng`, the same seed and call order)
these functions return bit-identical results on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Epsilon inside the RMS denominator.
NORM_EPS = 1e-6
# Epsilon inside the entropy logarithm.
ENTROPY_EPS = 1e-12

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


class DivergenceError(RuntimeError):
    """Raised when a loss, a weight or an activation stops being finite."""


def _finalize_u64(z: int) -> int:
    """SplitMix64 output mix on a python int."""
    z &= _U64
    z ^= z >> 30
    z = (z * _MIX_A) & _U64
    z ^= z >> 27
    z = (z * _MIX_B) & _U64
    z ^= z >> 31
    return z


@dataclass
class Rng:
    """Counter-based SplitMix64 stream.

    The value at counter ``c`` depends only on ``(seed, c)``, so arrays of
    draws can be produced vectorized and the stream can be resumed or
    replayed exactly. Instances are single-owner: two call sites must not
    share one ``Rng``; derive independent children with :meth:`split`.
    """

    seed: int
    counter: int = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed & _U64) + idx * np.uint64(_GOLDEN)
            z = z ^ (z >> np.uint64(30))
            z = z * np.uint64(_MIX_A)
            z = z ^ (z >> np.uint64(27))
            z = z * np.uint64(_MIX_B)
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, shape=None):
        """Uniform float64 draws in [0, 1)."""
        n = 1 if shape is None else int(np.prod(shape))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return float(u[0]) if shape is None else u.reshape(shape)

    def normal(self, shape=None):
        """Standard normal draws (Box-Muller over the uniform stream)."""
        n = 1 if shape is None else int(np.prod(shape))
        m = n + (n % 2)
        u = self.uniform((m,))
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(m)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return float(z[0]) if shape is None else z[:n].reshape(shape)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n integers uniform over [low, high)."""
        if high <= low:
            raise ValueError("empty integer range")
        span = high - low
        draws = (self.uniform((n,)) * span).astype(np.int64)
        return low + np.minimum(draws, span - 1)

    def choice(self, population: int, k: int) -> np.ndarray:
        """k distinct indices from range(population), ascending."""
        if k > population:
            raise ValueError("cannot draw more distinct values than exist")
        keys = self.uniform((population,))
        return np.sort(np.argsort(keys, kind="stable")[:k])

    def split(self, stream: int) -> "Rng":
        """Independent child stream, deterministic in (seed, stream)."""
        child = _finalize_u64(_finalize_u64((stream + 1) * _GOLDEN) ^ (self.seed & _U64))
        return Rng(seed=child)


def with_capacity(buf: np.ndarray, used: int, need: int, axis: int = 0) -> np.ndarray:
    """Growth rule of the append-only row buffers.

    Returns ``buf`` when it holds ``need`` entries along ``axis``; otherwise
    a new buffer of twice the capacity (at least ``need``) whose first
    ``used`` entries are copied from ``buf``. Doubling makes n single-row
    appends copy O(n) rows in total, not O(n^2). Entries past ``used`` are
    uninitialized.
    """
    cap = buf.shape[axis]
    if need <= cap:
        return buf
    shape = list(buf.shape)
    shape[axis] = max(need, 2 * cap)
    out = np.empty(shape, dtype=buf.dtype)
    live = (slice(None),) * axis + (slice(0, used),)
    out[live] = buf[live]
    return out


def softmax_stable(logits) -> np.ndarray:
    """Softmax of a vector whose entries are finite or -inf (masked out).

    The maximum is subtracted before exponentiation, masked entries map to
    exact zeros, and an all-masked input raises instead of returning NaN.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("softmax_stable expects a 1-D array")
    if np.isnan(x).any() or np.isposinf(x).any():
        raise ValueError("logits must be finite or -inf")
    m = np.max(x) if x.size else -np.inf
    if not np.isfinite(m):
        raise ValueError("empty support")
    e = np.exp(x - m)
    return e / e.sum()


def masked_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a 2-D (or higher) array of logits.

    Rows may contain -inf entries but each row needs at least one finite
    entry; a fully masked row raises "empty support". A NaN or +inf logit
    makes its row maximum NaN or +inf, which raises DivergenceError: the
    values feeding the softmax have stopped being finite.
    """
    m = np.max(logits, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        if (np.isnan(m) | np.isposinf(m)).any():
            raise DivergenceError("non-finite attention logits")
        raise ValueError("empty support")
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64)
    m = np.max(x) if x.size else -np.inf
    if not np.isfinite(m):
        raise ValueError("empty support")
    s = x - m
    return s - np.log(np.exp(s).sum())


def rmsnorm(x, axis: int = -1) -> np.ndarray:
    """x / sqrt(mean(x^2) + 1e-6) along ``axis``; no learnable scale."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape[axis] == 0:
        raise ValueError("rmsnorm of an empty vector")
    ms = np.mean(a * a, axis=axis, keepdims=True)
    return a / np.sqrt(ms + NORM_EPS)


def topk_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, ascending.

    Ties resolve to the lower index (stable argsort on negated scores), so
    the result is a pure function of the input.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("topk_indices expects a 1-D array")
    if k < 0 or k > s.size:
        raise ValueError(f"k={k} out of range for {s.size} scores")
    order = np.argsort(-s, kind="stable")
    return np.sort(order[:k])


def kl_divergence(target_logits, student_logits) -> float:
    """KL(softmax(target) || softmax(student)) over the shared finite support.

    Both inputs are raw logits; -inf marks masked positions and the two masks
    must coincide. Computed through log-softmax in float64.
    """
    t = np.asarray(target_logits, dtype=np.float64)
    s = np.asarray(student_logits, dtype=np.float64)
    if t.shape != s.shape:
        raise ValueError("logit vectors must have the same shape")
    mt = np.isneginf(t)
    ms = np.isneginf(s)
    if not np.array_equal(mt, ms):
        raise ValueError("mask supports differ")
    tf = t[~mt]
    sf = s[~ms]
    if tf.size == 0:
        raise ValueError("empty support")
    lp = log_softmax(tf)
    lq = log_softmax(sf)
    p = np.exp(lp)
    return float(np.sum(p * (lp - lq)))


def normalized_entropy(p) -> float:
    """Entropy of a probability vector scaled into [0, 1] by log(T).

    -(1/log T) * sum_t p_t * log(p_t + 1e-12). Zero entries contribute
    exactly zero because the multiplication happens outside the log.
    """
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("normalized_entropy expects a 1-D array")
    if q.size < 2:
        raise ValueError("entropy is undefined for fewer than two outcomes")
    h = -float(np.sum(q * np.log(q + ENTROPY_EPS)))
    return h / float(np.log(q.size))


def score_to_prob(scores, mode: str = "softmax", temperature: float = 1.0) -> np.ndarray:
    """Turn a raw score vector into a probability vector.

    ``softmax``: tempered softmax.
    ``negonly``: shift by the minimum only when it is negative, then
    L1-normalize; an all-zero result after the shift falls back to uniform,
    which is what stops the division degenerating when every score ties.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("score_to_prob expects a nonempty 1-D array")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if mode == "softmax":
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        return softmax_stable(s / temperature)
    if mode == "negonly":
        lo = s.min()
        shifted = s - lo if lo < 0 else s
        total = shifted.sum()
        if total <= 0.0:
            return np.full(s.shape, 1.0 / s.size)
        return shifted / total
    raise ValueError(f"unknown score-to-prob mode: {mode!r}")
