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
# Seeds are 64-bit words; a seed outside [0, SEED_LIMIT) would alias one
# inside it, so :class:`Rng` refuses it.
SEED_LIMIT = 1 << 64

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U64 = SEED_LIMIT - 1


class DivergenceError(RuntimeError):
    """Raised when a loss, a weight or an activation stops being finite."""


def check_seed(seed) -> None:
    """Refuse a seed that is not an int in [0, SEED_LIMIT).

    ``True`` would draw seed 1's stream, and a float or numpy integer
    draws but breaks :meth:`Rng.split`'s python-int arithmetic.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


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

    def __post_init__(self):
        check_seed(self.seed)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
            z = z ^ (z >> np.uint64(30))
            z = z * np.uint64(_MIX_A)
            z = z ^ (z >> np.uint64(27))
            z = z * np.uint64(_MIX_B)
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, shape):
        """Uniform float64 draws in [0, 1)."""
        n = int(np.prod(shape))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape)

    def normal(self, shape):
        """Standard normal draws (Box-Muller over the uniform stream)."""
        n = int(np.prod(shape))
        m = n + (n % 2)
        u = self.uniform((m,))
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(m)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n].reshape(shape)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n integers uniform over [low, high)."""
        if high <= low:
            raise ValueError("empty integer range")
        span = high - low
        draws = (self.uniform((n,)) * span).astype(np.int64)
        return low + np.minimum(draws, span - 1)

    def split(self, stream: int) -> "Rng":
        """Independent child stream, deterministic in (seed, stream)."""
        child = _finalize_u64(_finalize_u64((stream + 1) * _GOLDEN) ^ self.seed)
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


def masked_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis; a vector is a single row.

    Rows may contain -inf entries but each row needs at least one finite
    entry; a fully masked row raises "empty support". A NaN or +inf logit
    makes its row maximum NaN or +inf, which raises DivergenceError: the
    values feeding the softmax have stopped being finite.

    It is :func:`row_exps` divided in place by each row's sum, so it
    allocates one array of the logits' shape.
    """
    e = row_exps(logits)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def row_exps(logits: np.ndarray) -> np.ndarray:
    """``exp(logits - m)`` along the last axis, m each row's maximum: the
    softmax's numerator, with :func:`masked_softmax_rows`' checks.

    The row maximum calls the ``np.maximum`` reduction directly: the
    arithmetic of ``np.max`` without its Python-level argument handling,
    which dominates a one-row call.
    """
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        if (np.isnan(m) | np.isposinf(m)).any():
            raise DivergenceError("non-finite attention logits")
        raise ValueError("empty support")
    e = np.subtract(logits, m)
    return np.exp(e, out=e)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64)
    m = np.max(x) if x.size else -np.inf
    if not np.isfinite(m):
        raise ValueError("empty support")
    s = x - m
    return s - np.log(np.exp(s).sum())


def sigmoid(x) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), elementwise, in float64.

    The exponential runs in complex128 on purpose; do not "simplify" it to
    float64. Float64 ``np.exp`` is numpy's own SIMD routine, which differs
    from the C library's ``exp`` in the last bit for about 2% of values.
    Complex128 ``np.exp`` calls the C library's ``cexp``, whose real part
    at a zero imaginary part is the C library's ``exp``; so this returns
    the bits of ``1 / (1 + math.exp(-v))`` for each value ``v``.
    The one known exception is x in [-709.79, -709.0], where glibc's
    ``cexp`` scales its argument and results (<= 1.22e-308) may be 1 ulp
    off.

    Below x = -709.78 ``exp(-x)`` overflows to inf and the result is
    exactly 0; complex ``exp`` warns there, so the warning is silenced.
    The exponential runs in place in one complex temporary, and the
    result is divided in place in its real part's copy.
    """
    with np.errstate(over="ignore"):
        z = np.negative(x, out=np.empty(np.shape(x), np.complex128))
        np.exp(z, out=z)
    d = z.real + 1
    return np.divide(1, d, out=d) if d.ndim else 1 / d


def rmsnorm(x) -> np.ndarray:
    """x / sqrt(mean(x^2) + 1e-6) along the last axis; no learnable scale.

    The mean is the sum-then-divide that ``np.mean`` performs, written out
    so that a one-row call does not pay for ``np.mean``'s Python wrapper.
    A non-finite mean square (a non-finite entry, or squares that overflow
    above ~1e154) raises DivergenceError.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.shape[-1] == 0:
        raise ValueError("rmsnorm of an empty vector")
    ms = np.add.reduce(a * a, axis=-1, keepdims=True) / a.shape[-1]
    if not np.isfinite(ms).all():
        raise DivergenceError("rmsnorm of non-finite or overflowing entries")
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
