import numpy as np
import pytest

from kvgate.cache import (
    CompressionPlan,
    DecodeSchedule,
    KvCache,
    budget_compress,
)
from kvgate.indexer import IndexerKeyCache
from kvgate.numerics import Rng
from kvgate.policies import select
from kvgate.teacher import attend_rows


def filled_cache(n_layers=1, n_kv=2, d_head=4, length=12, sink_count=2, seed=0):
    cache = KvCache(n_layers, n_kv, d_head, sink_count=sink_count)
    rng = Rng(seed)
    for layer in range(n_layers):
        k = rng.normal((n_kv, length, d_head))
        v = rng.normal((n_kv, length, d_head))
        cache.append(layer, k, v, np.arange(length))
    return cache


def distinct_sorted(rng, population, k):
    """k distinct indices from range(population), ascending."""
    return np.sort(np.argsort(rng.uniform((population,)), kind="stable")[:k])


class TestPlan:
    def test_defaults_are_valid(self):
        plan = CompressionPlan()
        assert plan.ratio == 0.5
        assert plan.budget is None

    @pytest.mark.parametrize("kw", [
        dict(ratio=-0.1),
        dict(ratio=1.5),
        dict(decode_interval=0),
        dict(sink_count=-1),
        dict(local_window=-2),
        dict(budget=5, sink_count=4, local_window=2),
        dict(ratio=float("nan")),
    ])
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            CompressionPlan(**kw)


class TestKvCache:
    def test_append_and_accessors(self):
        cache = filled_cache(n_layers=2, length=6)
        assert cache.length(0) == 6
        assert cache.length(1) == 6
        assert cache.positions(1).tolist() == [0, 1, 2, 3, 4, 5]
        assert cache.keys(0).shape == (2, 6, 4)

    def test_append_rejects_bad_shape(self):
        cache = KvCache(1, 2, 4)
        with pytest.raises(ValueError, match="shape"):
            cache.append(0, np.zeros((2, 3, 5)), np.zeros((2, 3, 5)), [0, 1, 2])

    def test_append_rejects_nonincreasing_positions(self):
        cache = KvCache(1, 2, 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            cache.append(0, np.zeros((2, 2, 4)), np.zeros((2, 2, 4)), [3, 3])

    def test_append_rejects_rewind(self):
        cache = filled_cache(length=4)
        with pytest.raises(ValueError, match="extend past"):
            cache.append(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), [2])

    def test_sink_and_forced_rows(self):
        cache = filled_cache(length=10, sink_count=3)
        assert cache.sink_row_indices(0).tolist() == [0, 1, 2]
        # at ratio 1 the keep rule keeps exactly the forced rows
        plan = CompressionPlan(ratio=1.0, sink_count=3, local_window=2)
        forced = select(plan, np.zeros(10), cache.positions(0))
        assert forced.tolist() == [0, 1, 2, 8, 9]

    def test_compact_gathers_bitwise(self):
        cache = filled_cache(length=12, sink_count=2, seed=3)
        before_k = cache.keys(0).copy()
        before_v = cache.values(0).copy()
        keep = np.array([0, 1, 4, 7, 10, 11])
        ek, ev, epos = cache.compact(0, keep, local_window=2)
        assert cache.positions(0).tolist() == keep.tolist()
        assert np.array_equal(cache.keys(0), before_k[:, keep, :])
        assert np.array_equal(cache.values(0), before_v[:, keep, :])
        drop = [2, 3, 5, 6, 8, 9]
        assert epos.tolist() == drop
        assert np.array_equal(ek, before_k[:, drop, :])
        assert np.array_equal(ev, before_v[:, drop, :])

    def test_compact_rejects_out_of_range(self):
        cache = filled_cache(length=5)
        with pytest.raises(ValueError, match="out of range"):
            cache.compact(0, [0, 1, 7])

    def test_compact_protects_sinks(self):
        cache = filled_cache(length=8, sink_count=2)
        with pytest.raises(ValueError, match="sink eviction forbidden"):
            cache.compact(0, [0, 4, 5, 6, 7])

    def test_compact_protects_local_window(self):
        cache = filled_cache(length=8, sink_count=1)
        with pytest.raises(ValueError, match="local window eviction forbidden"):
            cache.compact(0, [0, 1, 2, 7], local_window=2)

    def test_positions_survive_compaction(self):
        cache = filled_cache(length=9, sink_count=1)
        cache.compact(0, [0, 3, 5, 8])
        cache.append(0, np.ones((2, 1, 4)), np.ones((2, 1, 4)), [9])
        assert cache.positions(0).tolist() == [0, 3, 5, 8, 9]


class ConcatOracle:
    """The reference storage rule: rebuild every array with
    np.concatenate on append, and gather into fresh arrays on drop."""

    def __init__(self, width_shape, axis):
        self.axis = axis
        self.arrays = [np.zeros(shape) for shape in width_shape]
        self.positions = np.zeros(0, dtype=np.int64)

    def append(self, rows, pos):
        self.arrays = [np.concatenate([a, r], axis=self.axis)
                       for a, r in zip(self.arrays, rows)]
        self.positions = np.concatenate([self.positions, pos])

    def keep(self, idx):
        self.arrays = [np.take(a, idx, axis=self.axis) for a in self.arrays]
        self.positions = self.positions[idx]


class TestCapacityGrowth:
    """Randomized appends and drops across capacity boundaries, bit for bit
    against a concatenate oracle after every operation."""

    def test_kv_cache_matches_concatenate_oracle(self):
        rng = Rng(40)
        n_kv, dh, sinks, window = 2, 3, 2, 2
        cache = KvCache(2, n_kv, dh, sink_count=sinks)
        oracles = [ConcatOracle([(n_kv, 0, dh)] * 2, axis=1) for _ in range(2)]
        next_pos = [0, 0]
        evicted = []
        peak = 0
        for op in range(300):
            layer = op % 2
            oracle = oracles[layer]
            n = cache.length(layer)
            if n > sinks + window + 2 and rng.uniform((1,))[0] < 0.2:
                idx = distinct_sorted(
                    rng, n, n - int(rng.integers(1, n // 4 + 1, 1)[0]))
                keep = np.union1d(idx, np.concatenate(
                    [np.arange(sinks), np.arange(n - window, n)]))
                got = cache.compact(layer, keep, local_window=window)
                drop = np.setdiff1d(np.arange(n), keep)
                want = (oracle.arrays[0][:, drop, :], oracle.arrays[1][:, drop, :],
                        oracle.positions[drop])
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                evicted.append((got, tuple(a.copy() for a in got)))
                oracle.keep(keep)
            else:
                count = int(rng.integers(1, 40 if op < 6 else 4, 1)[0])
                pos = next_pos[layer] + np.cumsum(rng.integers(1, 3, count))
                next_pos[layer] = int(pos[-1])
                k, v = rng.normal((n_kv, count, dh)), rng.normal((n_kv, count, dh))
                cache.append(layer, k, v, pos)
                oracle.append([k, v], pos)
            for li in range(2):
                assert np.array_equal(cache.keys(li), oracles[li].arrays[0])
                assert np.array_equal(cache.values(li), oracles[li].arrays[1])
                assert np.array_equal(cache.positions(li), oracles[li].positions)
                assert cache.length(li) == oracles[li].positions.size
            peak = max(peak, cache.length(layer))
        assert peak > 64
        assert len(evicted) > 10
        for got, snapshot in evicted:
            for a, b in zip(got, snapshot):
                assert np.array_equal(a, b)

    def test_feature_cache_matches_concatenate_oracle(self):
        rng = Rng(41)
        d = 3
        cache = IndexerKeyCache(d)
        oracle = ConcatOracle([(0, d)], axis=0)
        next_pos = 0
        peak = 0
        for op in range(300):
            n = len(cache)
            if n > 4 and rng.uniform((1,))[0] < 0.2:
                keep = distinct_sorted(
                    rng, n, n - int(rng.integers(1, n // 4 + 1, 1)[0]))
                dropped = np.setdiff1d(oracle.positions, oracle.positions[keep])
                cache.retain(oracle.positions[keep])
                oracle.keep(keep)
                if dropped.size:
                    with pytest.raises(ValueError, match="missing cached keys"):
                        cache.rows_for(dropped[:1])
            else:
                count = int(rng.integers(1, 40 if op < 6 else 4, 1)[0])
                pos = next_pos + np.cumsum(rng.integers(1, 3, count))
                next_pos = int(pos[-1])
                rows = rng.normal((count, d))
                cache.append(rows, pos)
                oracle.append([rows], pos)
            assert np.array_equal(cache.positions, oracle.positions)
            assert np.array_equal(cache.rows_for(oracle.positions), oracle.arrays[0])
            assert len(cache) == oracle.positions.size
            peak = max(peak, len(cache))
        assert peak > 64

    def test_retain_rejects_unordered_positions(self):
        cache = IndexerKeyCache(2)
        cache.append(Rng(42).normal((4, 2)), np.arange(4))
        with pytest.raises(ValueError, match="strictly increasing"):
            cache.retain([2, 1])
        assert cache.positions.tolist() == [0, 1, 2, 3]


class TestKeepForRatio:
    def test_documented_selection(self):
        # 8 rows, first row is a sink and last is the local window; of the six
        # evictable rows the top ceil(0.5 * 6) = 3 by score survive.
        scores = np.array([0.0, 9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 0.0])
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        keep = select(plan, scores, np.arange(8))
        assert keep.tolist() == [0, 1, 3, 5, 7]

    def test_ratio_zero_keeps_everything(self):
        scores = Rng(20).normal((10,))
        plan = CompressionPlan(ratio=0.0, sink_count=1, local_window=1)
        keep = select(plan, scores, np.arange(10))
        assert keep.tolist() == list(range(10))

    def test_ratio_one_keeps_only_forced(self):
        scores = Rng(21).normal((10,))
        plan = CompressionPlan(ratio=1.0, sink_count=2, local_window=1)
        keep = select(plan, scores, np.arange(10))
        assert keep.tolist() == [0, 1, 9]

    def test_cap_bounds_total(self):
        scores = np.arange(10, dtype=np.float64)
        plan = CompressionPlan(ratio=0.0, sink_count=1, local_window=1,
                               budget=4)
        keep = select(plan, scores, np.arange(10))
        assert keep.size == 4
        assert keep.tolist() == [0, 7, 8, 9]


def prefill_compress(cache, plan, scores):
    """One-shot compression of layer 0: the keep rule, then compaction."""
    keep = select(plan, scores, cache.positions(0))
    return cache.compact(0, keep, plan.local_window)


class TestPrefillCompress:
    def test_keeps_plan_fraction(self):
        cache = filled_cache(length=16, sink_count=2, seed=5)
        plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=2)
        scores = Rng(22).uniform((16,))
        _, _, evicted_pos = prefill_compress(cache, plan, scores)
        # 12 evictable rows -> 6 survive, plus 4 forced.
        assert cache.length(0) == 10
        assert evicted_pos.size == 6
        assert np.all(cache.positions(0)[:2] == [0, 1])

    def test_scores_must_cover_cache(self):
        cache = filled_cache(length=8)
        plan = CompressionPlan(sink_count=2, local_window=2)
        with pytest.raises(ValueError, match="align"):
            prefill_compress(cache, plan, np.zeros(5))

    def test_attention_on_compacted_cache_is_bitwise_stable(self):
        # Evicting rows must not perturb attention over the survivors: the
        # kept keys/values are gathered, never recomputed or renormalized.
        cache = filled_cache(length=20, sink_count=2, seed=6)
        q = Rng(23).normal((4, 2, 4))  # two query rows per attention head
        keep = np.array([0, 1, 5, 9, 13, 18, 19])
        expect = attend_rows(q, cache.keys(0)[:, keep, :],
                             cache.values(0)[:, keep, :])
        cache.compact(0, keep, local_window=2)
        got = attend_rows(q, cache.keys(0), cache.values(0))
        assert np.array_equal(expect, got)

    def test_randomized_compactions_never_touch_sinks(self):
        rng = Rng(24)
        for trial in range(200):
            length = 8 + int(rng.integers(0, 24, 1)[0])
            sink_count = int(rng.integers(1, 4, 1)[0])
            cache = filled_cache(length=length, sink_count=sink_count,
                                 seed=1000 + trial)
            plan = CompressionPlan(ratio=0.75, sink_count=sink_count,
                                   local_window=2)
            scores = rng.uniform((length,))
            prefill_compress(cache, plan, scores)
            kept = cache.positions(0)
            assert np.all(kept[:sink_count] == np.arange(sink_count))


class TestBudgetCompress:
    def test_noop_under_budget(self):
        cache = filled_cache(length=6, sink_count=1)
        plan = CompressionPlan(budget=8, sink_count=1, local_window=2)
        ek, ev, epos = budget_compress(cache, 0, plan, np.zeros(6))
        assert epos.size == 0 and ek.shape == (2, 0, 4) and ev.shape == (2, 0, 4)
        assert cache.length(0) == 6

    def test_exact_budget_when_over(self):
        cache = filled_cache(length=20, sink_count=2, seed=7)
        plan = CompressionPlan(budget=9, sink_count=2, local_window=3)
        scores = Rng(25).uniform((20,))
        budget_compress(cache, 0, plan, scores)
        assert cache.length(0) == 9
        kept = cache.positions(0)
        assert np.all(kept[:2] == [0, 1])
        assert np.all(kept[-3:] == [17, 18, 19])

    def test_matches_explicit_budget_rule(self):
        # forced rows plus the top (budget - forced) others, ties to the
        # lower index; integer scores make ties common
        rng = Rng(28)
        for trial in range(300):
            length = 6 + int(rng.integers(0, 30, 1)[0])
            sinks = int(rng.integers(0, 4, 1)[0])
            window = int(rng.integers(0, 4, 1)[0])
            budget = sinks + window + int(rng.integers(0, 8, 1)[0])
            cache = filled_cache(length=length, sink_count=sinks,
                                 seed=2000 + trial)
            plan = CompressionPlan(budget=budget, sink_count=sinks,
                                   local_window=window)
            scores = rng.integers(0, 4, length).astype(np.float64)
            budget_compress(cache, 0, plan, scores)
            forced = set(range(min(sinks, length)))
            forced |= set(range(max(0, length - window), length))
            others = sorted(set(range(length)) - forced,
                            key=lambda i: (-scores[i], i))
            want = forced | set(others[:max(0, budget - len(forced))])
            assert cache.positions(0).tolist() == sorted(want)

    def test_requires_budget(self):
        cache = filled_cache(length=6)
        plan = CompressionPlan(sink_count=1, local_window=1)
        with pytest.raises(ValueError, match="no budget"):
            budget_compress(cache, 0, plan, np.zeros(6))


class TestDecodeSchedule:
    def _run(self, interval, budget, total_steps, prefill=10):
        cache = filled_cache(length=prefill, sink_count=2, seed=8)
        plan = CompressionPlan(budget=budget, decode_interval=interval,
                               sink_count=2, local_window=2)
        sched = DecodeSchedule(cache, plan)
        rng = Rng(26)
        lengths = []
        pos = prefill
        for _ in range(total_steps):
            k = rng.normal((2, 1, 4))
            v = rng.normal((2, 1, 4))
            cache.append(0, k, v, [pos])
            pos += 1
            sched.step(scorer=lambda layer: Rng(27).uniform((cache.length(layer),)))
            lengths.append(cache.length(0))
        return cache, sched, lengths

    def test_retained_length_bound(self):
        budget, interval = 12, 4
        _, _, lengths = self._run(interval, budget, total_steps=100)
        assert max(lengths) <= budget + interval

    def test_no_compression_between_boundaries(self):
        cache, sched, _ = self._run(interval=6, budget=11, total_steps=18)
        assert sched.step_index == 18
        # after the last boundary the cache sits exactly at the budget
        assert cache.length(0) == 11

    def test_big_budget_never_compresses(self):
        cache, sched, lengths = self._run(interval=4, budget=500, total_steps=40)
        assert lengths == list(range(11, 51))
        assert cache.positions(0).tolist() == list(range(50))

    def test_scorer_runs_only_for_due_layers(self):
        cache = filled_cache(n_layers=2, length=10, sink_count=1)
        plan = CompressionPlan(budget=11, decode_interval=3, sink_count=1,
                               local_window=1)
        sched = DecodeSchedule(cache, plan)
        calls = []

        def scorer(layer):
            calls.append((sched.step_index, layer))
            return Rng(29).uniform((cache.length(layer),))

        for pos in range(10, 19):
            # only layer 0 grows, so layer 1 never needs compacting
            cache.append(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), [pos])
            sched.step(scorer)
        assert calls == [(3, 0), (6, 0), (9, 0)]

    def test_due_names_the_compacting_steps(self):
        cache = filled_cache(length=10, sink_count=1)
        plan = CompressionPlan(budget=8, decode_interval=3, sink_count=1,
                               local_window=1)
        sched = DecodeSchedule(cache, plan)
        due, compacted = [], []
        for pos in range(10, 19):
            cache.append(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), [pos])
            due.append(sched.due)
            compacted.append(sched.step(
                lambda layer: Rng(30).uniform((cache.length(layer),))))
        assert due == compacted == [False, False, True] * 3

    def test_requires_budget(self):
        cache = filled_cache(length=4)
        with pytest.raises(ValueError, match="requires a budget"):
            DecodeSchedule(cache, CompressionPlan(sink_count=1, local_window=1))

    def test_evict_callback_sees_original_order(self):
        cache = filled_cache(length=16, sink_count=2, seed=9)
        plan = CompressionPlan(budget=8, decode_interval=1, sink_count=2,
                               local_window=2)
        sched = DecodeSchedule(cache, plan)
        seen = []
        sched.step(scorer=lambda layer: Rng(28).uniform((cache.length(layer),)),
                   on_evict=lambda layer, k, v, p: seen.append(p))
        assert len(seen) == 1
        assert np.all(np.diff(seen[0]) > 0)
        assert seen[0].size == 8
