"""Eviction scoring and the keep-set rule, shared by prefill and decode.

Every eviction decision has two steps. :func:`score_layer` reduces one
layer's cached rows to a score vector; it is the only place that dispatches
on a policy, for prefill and decode alike. A policy is its name (snapkv,
tova, knorm, random, or the learned indexer) and nothing else: snapkv's
query window is :data:`SNAPKV_WINDOW`, and the random policy's stream is
the caller's. :func:`select` then turns the scores into a keep
set: the top rows by score plus the forced sinks and trailing local window.
It is the only keep rule, so two policies that emit the same scores keep the
same rows. Heuristic scores are computed per kv head and summed across heads
for per-layer eviction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .indexer import head_gates, importance_from_features, query_features
from .numerics import Rng, masked_softmax_rows, topk_indices
from .teacher import head_logits

if TYPE_CHECKING:
    from .cache import CompressionPlan

POLICY_NAMES = ("snapkv", "knorm", "tova", "random", "indexer")
# The trailing query rows snapkv averages over, clipped to the rows there are.
SNAPKV_WINDOW = 8


def score_snapkv(q_window: np.ndarray, keys: np.ndarray, q_positions,
                 key_positions) -> np.ndarray:
    """Average attention mass from the trailing query window to each key,
    under the teacher's logit scale, over the query heads of each kv head.

    Args:
        q_window: (n_heads, w, d_head) rotated queries, the last w of the
            sequence.
        keys: (n_kv_heads, L, d_head) cached keys.
        q_positions / key_positions: absolute positions of the w queries
            and the L keys, for causal masking.

    Returns (n_kv_heads, L) scores; each head's scores sum to 1.
    """
    n_heads, w, _ = q_window.shape
    if w == 0:
        raise ValueError("scoring window must be at least 1")
    n_kv, n_rows, _ = keys.shape
    if w > n_rows:
        raise ValueError("scoring window exceeds the cached rows")
    key_positions = np.asarray(key_positions, dtype=np.int64)
    q_positions = np.asarray(q_positions, dtype=np.int64)
    visible = key_positions[None, :] <= q_positions[:, None]

    per_query_head = np.empty((n_heads, n_rows))
    for h, _, logits in head_logits(q_window, keys, visible):
        per_query_head[h] = masked_softmax_rows(logits).mean(axis=0)
    out = np.empty((n_kv, n_rows))
    group = n_heads // n_kv
    for g in range(n_kv):
        out[g] = per_query_head[g * group:(g + 1) * group].mean(axis=0)
    return out


def score_knorm(keys: np.ndarray) -> np.ndarray:
    """Euclidean norm of each cached key row, per kv head: (n_kv_heads, L)."""
    return np.linalg.norm(np.asarray(keys, dtype=np.float64), axis=2)


def score_random(n_rows: int, rng: Rng) -> np.ndarray:
    """Seeded uniform scores: the statistical floor policy, (L,) directly."""
    return rng.uniform((n_rows,))


def aggregate_heads(scores: np.ndarray) -> np.ndarray:
    """Per-layer score from (n_kv_heads, L) scores: fixed sum across heads."""
    return np.asarray(scores, dtype=np.float64).sum(axis=0)


def select(plan: CompressionPlan, scores: np.ndarray,
           positions: np.ndarray) -> np.ndarray:
    """Row indices to keep for one layer, ascending.

    Sinks (rows whose original position is below ``plan.sink_count``) and
    the trailing ``plan.local_window`` rows are forced and ride along
    regardless of score. Of the ``n - len(forced)`` other rows, the top
    ``ceil((1 - ratio) * candidates)`` by score survive; ``plan.budget``,
    when set, caps the total keep count. Ties go to the lower index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.int64)
    if scores.shape != positions.shape:
        raise ValueError("scores and positions must align")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n = scores.size
    sinks = np.flatnonzero(positions < plan.sink_count)
    window = np.arange(max(0, n - plan.local_window), n)
    forced = np.union1d(sinks, window)
    n_candidates = n - forced.size
    n_keep = math.ceil((1.0 - plan.ratio) * n_candidates)
    if plan.budget is not None:
        n_keep = min(n_keep, max(0, plan.budget - forced.size))
    masked = scores.copy()
    masked[forced] = -np.inf
    chosen = topk_indices(masked, min(n_keep, n_candidates))
    return np.union1d(chosen, forced)


@dataclass(frozen=True)
class QueryRows:
    """The query tokens a layer is scored against, one row per token."""

    x: np.ndarray          # (n, d_model) layer-input hidden states
    q_pre: np.ndarray      # (n_heads, n, d_head) queries before rotation
    q: np.ndarray          # (n_heads, n, d_head) rotated queries
    positions: np.ndarray  # (n,) absolute positions


def score_layer(name: str, keys: np.ndarray, key_positions: np.ndarray,
                queries: QueryRows, rng: Rng | None = None,
                params=None, key_feats: np.ndarray | None = None) -> np.ndarray:
    """One layer's (L,) scores under the policy ``name``, in prefill or decode.

    Args:
        keys: (n_kv_heads, L, d_head) cached rotated keys at ``key_positions``.
        queries: the scoring query rows.
        rng: the random policy's draws; the caller owns the stream.
        params / key_feats: the layer's indexer weights and the (L, d_index)
            indexer features of the cached keys.

    snapkv averages attention from the trailing :data:`SNAPKV_WINDOW`
    queries, tova uses the newest query alone, and the indexer takes each
    key's max score over every query row. An unknown name is a ValueError.
    """
    if name == "random":
        if rng is None:
            raise ValueError("random policy needs an rng")
        return score_random(keys.shape[1], rng)
    if name == "knorm":
        return aggregate_heads(score_knorm(keys))
    if name == "indexer":
        if params is None or key_feats is None:
            raise ValueError("indexer policy needs its weights and key features")
        return importance_from_features(query_features(params, queries.q_pre),
                                        head_gates(params, queries.x),
                                        key_feats, queries.positions,
                                        key_positions)
    if name not in ("snapkv", "tova"):
        raise ValueError(f"unknown policy: {name!r}")
    n = queries.positions.size
    w = 1 if name == "tova" else min(SNAPKV_WINDOW, n)
    per_head = score_snapkv(queries.q[:, n - w:, :], keys,
                            q_positions=queries.positions[n - w:],
                            key_positions=key_positions)
    return aggregate_heads(per_head)
