"""Per-layer KV cache with sink protection, compaction, and budget scheduling.

Eviction is per layer: one keep-index set applies to every kv head of that
layer, so the cache stays rectangular. Rows are identified by their original
sequence position, which never changes after a compaction; rotary rotations
were applied when the row was created, so nothing needs recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import with_capacity
from .policies import select


@dataclass(frozen=True)
class CompressionPlan:
    """Knobs of the keep rule, :func:`kvgate.policies.select`, for one run.

    ``ratio`` is the evicted share of the non-forced rows; ``sink_count``
    and ``local_window`` name the forced rows. ``budget`` is the total
    retained length including sinks and the local window; ``None`` disables
    the budget (prefill-ratio-only runs), and decode sets one per entry of
    ``decode.budgets``. ``decode_interval`` spaces the
    decode-time compressions of :class:`DecodeSchedule`.
    """

    ratio: float = 0.5
    decode_interval: int = 128
    budget: int | None = None
    sink_count: int = 4
    local_window: int = 32

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("ratio must lie in [0, 1]")
        if self.decode_interval < 1:
            raise ValueError("decode interval must be at least 1")
        if self.sink_count < 0 or self.local_window < 0:
            raise ValueError("sink_count and local_window must be nonnegative")
        if self.budget is not None and self.budget < self.sink_count + self.local_window:
            raise ValueError("budget must cover sinks plus the local window")


class KvCache:
    """Append-only-until-compacted storage of rotated keys and values.

    Each layer keeps capacity-doubling buffers (see
    :func:`kvgate.numerics.with_capacity`) whose leading ``length(layer)``
    rows are live, so a decode step's append copies one row, not the cache.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, d_head: int, sink_count: int = 4):
        if n_layers < 1:
            raise ValueError("need at least one layer")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.d_head = d_head
        self.sink_count = sink_count
        self._keys = [np.empty((n_kv_heads, 0, d_head)) for _ in range(n_layers)]
        self._values = [np.empty((n_kv_heads, 0, d_head)) for _ in range(n_layers)]
        self._positions = [np.empty(0, dtype=np.int64) for _ in range(n_layers)]
        self._lengths = [0] * n_layers

    def length(self, layer: int) -> int:
        return self._lengths[layer]

    def positions(self, layer: int) -> np.ndarray:
        """(length,) original positions, ascending.

        A view of the live rows, valid until the next append or compact on
        this layer; copy it to keep it longer. The same holds for
        :meth:`keys` and :meth:`values`.
        """
        return self._positions[layer][:self._lengths[layer]]

    def keys(self, layer: int) -> np.ndarray:
        """(n_kv_heads, length, d_head) rotated keys; a view like :meth:`positions`."""
        return self._keys[layer][:, :self._lengths[layer], :]

    def values(self, layer: int) -> np.ndarray:
        """(n_kv_heads, length, d_head) values; a view like :meth:`positions`."""
        return self._values[layer][:, :self._lengths[layer], :]

    def append(self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray, positions) -> None:
        """Append rows for strictly increasing, never-before-seen positions."""
        pos = np.asarray(positions, dtype=np.int64)
        k_rows = np.asarray(k_rows, dtype=np.float64)
        v_rows = np.asarray(v_rows, dtype=np.float64)
        expected = (self.n_kv_heads, pos.size, self.d_head)
        if k_rows.shape != expected or v_rows.shape != expected:
            raise ValueError(f"appended rows must have shape {expected}")
        if pos.size == 0:
            return
        # One position (a decode step) is trivially strictly increasing.
        if pos.size > 1 and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        n = self._lengths[layer]
        if n and pos[0] <= self._positions[layer][n - 1]:
            raise ValueError("positions must extend past the cached range")
        end = n + pos.size
        self._keys[layer] = with_capacity(self._keys[layer], n, end, axis=1)
        self._values[layer] = with_capacity(self._values[layer], n, end, axis=1)
        self._positions[layer] = with_capacity(self._positions[layer], n, end)
        self._keys[layer][:, n:end, :] = k_rows
        self._values[layer][:, n:end, :] = v_rows
        self._positions[layer][n:end] = pos
        self._lengths[layer] = end

    def sink_row_indices(self, layer: int) -> np.ndarray:
        """Row indices whose original position is below sink_count."""
        return np.flatnonzero(self.positions(layer) < self.sink_count)

    def compact(self, layer: int, keep_indices, local_window: int = 0):
        """Drop every row not listed in ``keep_indices``.

        The keep set must contain all sink rows and, when ``local_window`` is
        given, the trailing window rows; violations raise rather than being
        silently repaired. The kept rows are gathered, in order, into the
        front of the layer's buffers. Returns the evicted rows in original
        order as a ``(keys, values, positions)`` triple of copies, with
        keys/values shaped (n_kv_heads, n_evicted, d_head).
        """
        n = self.length(layer)
        keep = np.unique(np.asarray(keep_indices, dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= n):
            raise ValueError("keep index out of range")
        mask = np.zeros(n, dtype=bool)
        mask[keep] = True
        if not mask[self.sink_row_indices(layer)].all():
            raise ValueError("sink eviction forbidden")
        if local_window and not mask[max(0, n - local_window):].all():
            raise ValueError("local window eviction forbidden")
        drop = np.flatnonzero(~mask)
        keys, values, positions = self.keys(layer), self.values(layer), self.positions(layer)
        # Integer-array indexing copies, so the evicted rows and the gathered
        # kept rows never alias the buffers they are written back into.
        evicted = (keys[:, drop, :], values[:, drop, :], positions[drop])
        keys[:, :keep.size, :] = keys[:, keep, :]
        values[:, :keep.size, :] = values[:, keep, :]
        positions[:keep.size] = positions[keep]
        self._lengths[layer] = keep.size
        return evicted


def budget_compress(cache: KvCache, layer: int, plan: CompressionPlan,
                    scores: np.ndarray):
    """Compress one layer down to the plan budget (if above it).

    This is the keep rule at ratio 0 with the budget as its cap. Returns the
    evicted triple from :meth:`KvCache.compact`.
    """
    if plan.budget is None:
        raise ValueError("plan has no budget")
    keep = select(replace(plan, ratio=0.0), scores, cache.positions(layer))
    return cache.compact(layer, keep, plan.local_window)


class DecodeSchedule:
    """Periodic compression driver for the decode phase.

    Steps are 1-based. Every ``decode_interval`` steps each layer holding
    more than the budget is compressed back to it, scored by the caller's
    ``scorer(layer)``, which reads the queries of that interval from
    wherever the caller keeps them. Between boundaries at most
    ``decode_interval`` rows accumulate, so the retained length never
    exceeds ``budget + decode_interval`` provided the cache respected the
    budget when decoding started.
    """

    def __init__(self, cache: KvCache, plan: CompressionPlan):
        if plan.budget is None:
            raise ValueError("decode scheduling requires a budget")
        self.cache = cache
        self.plan = plan
        self.step_index = 0

    def step(self, scorer, on_evict=None) -> bool:
        """Advance one decode step; returns True when compression ran.

        ``scorer(layer)`` must return one score per cached row of that
        layer. ``on_evict(layer, keys, values, positions)`` sees each
        layer's evicted rows, in original order.
        """
        self.step_index += 1
        if self.step_index % self.plan.decode_interval != 0:
            return False
        compressed = False
        for layer in range(self.cache.n_layers):
            if self.cache.length(layer) <= self.plan.budget:
                continue
            evicted = budget_compress(self.cache, layer, self.plan,
                                      scorer(layer))
            compressed = True
            if on_evict is not None and evicted[2].size:
                on_evict(layer, *evicted)
        return compressed
