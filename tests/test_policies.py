import math

import numpy as np
import pytest

from kvgate.cache import CompressionPlan
from kvgate.indexer import IndexerParams, indexer_importance, key_features
from kvgate.numerics import Rng
from kvgate.policies import (
    SNAPKV_WINDOW,
    QueryRows,
    aggregate_heads,
    score_knorm,
    score_layer,
    score_random,
    score_snapkv,
    select,
)
from kvgate.teacher import TeacherConfig


def reference_snapkv(q_window, keys, scale_dim, L):
    """Scalar-loop oracle: mean causal attention row per group of heads."""
    n_heads, w, dh = q_window.shape
    n_kv = keys.shape[0]
    out = np.zeros((n_kv, keys.shape[1]))
    group = n_heads // n_kv
    for h in range(n_heads):
        g = h * n_kv // n_heads
        rows = np.zeros((w, keys.shape[1]))
        for i in range(w):
            q_pos = L - w + i
            logits = np.full(keys.shape[1], -np.inf)
            for t in range(keys.shape[1]):
                if t <= q_pos:
                    logits[t] = float(q_window[h, i] @ keys[g, t]) / math.sqrt(scale_dim)
            e = np.exp(logits - logits[np.isfinite(logits)].max())
            rows[i] = e / e.sum()
        out[g] += rows.mean(axis=0) / group
    return out


def prefill_snapkv(q_window, keys):
    """snapkv whose w queries sit at the newest w of the L cached
    positions 0..L-1, as in a prefill."""
    w, n = q_window.shape[1], keys.shape[1]
    return score_snapkv(q_window, keys, np.arange(n - w, n), np.arange(n))


class TestSnapkv:
    def test_matches_dense_oracle(self):
        rng = Rng(30)
        L, w, n_heads, n_kv, dh = 12, 4, 4, 2, 6
        q = rng.normal((n_heads, L, dh))
        k = rng.normal((n_kv, L, dh))
        got = prefill_snapkv(q[:, L - w:, :], k)
        want = reference_snapkv(q[:, L - w:, :], k, n_heads * dh, L)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_rows_sum_to_one_per_head(self):
        rng = Rng(31)
        q = rng.normal((4, 5, 6))
        k = rng.normal((2, 20, 6))
        s = prefill_snapkv(q, k)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)

    def test_full_window_equals_column_means(self):
        rng = Rng(32)
        L, dh = 10, 4
        q = rng.normal((2, L, dh))
        k = rng.normal((2, L, dh))
        s = prefill_snapkv(q, k)
        for g in range(2):
            dense = np.zeros((L, L))
            for i in range(L):
                logits = np.array([float(q[g, i] @ k[g, t]) / math.sqrt(2 * dh)
                                   for t in range(i + 1)])
                e = np.exp(logits - logits.max())
                dense[i, :i + 1] = e / e.sum()
            assert np.max(np.abs(s[g] - dense.mean(axis=0))) < 1e-10

    def test_window_one_is_final_softmax_row(self):
        rng = Rng(33)
        q = rng.normal((2, 1, 4))
        k = rng.normal((2, 9, 4))
        s = prefill_snapkv(q, k)
        for g in range(2):
            logits = (q[g, 0] @ k[g].T) / math.sqrt(8)
            e = np.exp(logits - logits.max())
            assert np.allclose(s[g], e / e.sum(), atol=1e-12)

    def test_compacted_positions_mask_correctly(self):
        # After eviction the cached positions are sparse; a window query may
        # precede none of them, but causality must still follow positions.
        rng = Rng(34)
        q = rng.normal((2, 2, 4))
        k = rng.normal((2, 5, 4))
        key_pos = np.array([0, 1, 7, 8, 9])
        s = score_snapkv(q, k, q_positions=np.array([8, 9]),
                         key_positions=key_pos)
        # the position-8 query must put zero mass on the position-9 key
        for g in range(2):
            row8 = np.r_[_softmax_row(q[g, 0], k[g, :4], 8), 0.0]
            row9 = _softmax_row(q[g, 1], k[g], 8)
            assert np.allclose(s[g], 0.5 * (row8 + row9), atol=1e-12)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError, match="window"):
            prefill_snapkv(Rng(36).normal((2, 6, 4)), Rng(37).normal((2, 5, 4)))


def _softmax_row(q_row, keys, scale_dim):
    logits = (q_row @ keys.T) / math.sqrt(scale_dim)
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestKnorm:
    def test_unit_and_doubled_rows(self):
        keys = np.zeros((1, 2, 3))
        keys[0, 0, 0] = 1.0
        keys[0, 1, 0] = 2.0
        assert score_knorm(keys)[0].tolist() == [1.0, 2.0]

    def test_zero_key_scores_zero(self):
        keys = Rng(38).normal((2, 4, 3))
        keys[:, 2, :] = 0.0
        s = score_knorm(keys)
        assert np.all(s[:, 2] == 0.0)

    def test_scaling_preserves_order(self):
        keys = Rng(39).normal((2, 10, 3))
        a = aggregate_heads(score_knorm(keys))
        b = aggregate_heads(score_knorm(keys * 3.5))
        assert np.array_equal(np.argsort(-a), np.argsort(-b))


def prefill_rows(q, x=None, q_pre=None):
    """Query rows for a prefill whose queries are every cached row."""
    n = q.shape[1]
    return QueryRows(x=x, q_pre=q_pre, q=q, positions=np.arange(n))


class TestTova:
    def test_equals_width_one_snapkv(self):
        rng = Rng(40)
        q = rng.normal((4, 7, 4))
        k = rng.normal((2, 7, 4))
        tova = score_layer("tova", k, np.arange(7), prefill_rows(q))
        snap = prefill_snapkv(q[:, -1:, :], k)
        assert np.array_equal(tova, aggregate_heads(snap))

    def test_single_row_cache(self):
        q = Rng(41).normal((2, 1, 4))
        k = Rng(42).normal((2, 1, 4))
        s = score_layer("tova", k, np.arange(1), prefill_rows(q))
        # one kv head per query head, each putting all its mass on the row
        assert np.allclose(s, 2.0)


class TestRandomPolicy:
    def test_reproducible(self):
        a = score_random(16, Rng(43))
        b = score_random(16, Rng(43))
        assert np.array_equal(a, b)

    def test_spread(self):
        s = score_random(1000, Rng(44))
        assert 0.0 <= s.min() and s.max() <= 1.0
        assert s.mean() == pytest.approx(0.5, abs=0.05)


class TestAggregate:
    def test_sums_heads(self):
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert aggregate_heads(s).tolist() == [4.0, 6.0]


class TestSelect:
    def test_matches_argsort_reference(self):
        rng = Rng(45)
        plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=2)
        for _ in range(200):
            n = 8 + int(rng.integers(0, 24, 1)[0])
            scores = rng.normal((n,))
            positions = np.arange(n)
            keep = select(plan, scores, positions)
            forced = np.union1d(np.arange(2), np.arange(n - 2, n))
            cand = np.setdiff1d(np.arange(n), forced)
            order = sorted(cand.tolist(), key=lambda i: (-scores[i], i))
            n_keep = math.ceil(0.5 * cand.size)
            want = np.union1d(order[:n_keep], forced)
            assert keep.tolist() == want.tolist()

    def test_tie_rule_keeps_lowest_indices(self):
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        keep = select(plan, np.zeros(9), np.arange(9))
        # 7 candidates -> ceil(3.5) = 4 lowest-index survivors
        assert keep.tolist() == [0, 1, 2, 3, 4, 8]

    def test_ratio_zero_keeps_all(self):
        plan = CompressionPlan(ratio=0.0, sink_count=1, local_window=1)
        keep = select(plan, Rng(46).normal((7,)), np.arange(7))
        assert keep.tolist() == list(range(7))

    def test_policy_selection_separation(self):
        rng = Rng(47)
        plan = CompressionPlan(ratio=0.75, sink_count=2, local_window=3)
        scores = rng.uniform((30,))
        a = select(plan, scores, np.arange(30))
        b = select(plan, scores.copy(), np.arange(30))
        assert a.tolist() == b.tolist()

    def test_rejects_nonfinite_scores(self):
        plan = CompressionPlan(sink_count=1, local_window=1)
        scores = np.array([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            select(plan, scores, np.arange(4))


class TestDispatch:
    def test_snapkv_and_tova_and_knorm(self):
        rng = Rng(48)
        q = rng.normal((4, 10, 4))
        k = rng.normal((2, 10, 4))
        pos = np.arange(10)
        snap = score_layer("snapkv", k, pos, prefill_rows(q))
        want = aggregate_heads(prefill_snapkv(q[:, -SNAPKV_WINDOW:, :], k))
        assert np.array_equal(snap, want)
        tova = score_layer("tova", k, pos, prefill_rows(q))
        assert np.array_equal(tova, aggregate_heads(prefill_snapkv(q[:, -1:, :], k)))
        knorm = score_layer("knorm", k, pos, prefill_rows(q))
        assert np.array_equal(knorm, aggregate_heads(score_knorm(k)))

    def test_window_clips_to_cache(self):
        rng = Rng(49)
        q = rng.normal((2, 3, 4))
        k = rng.normal((2, 3, 4))
        s = score_layer("snapkv", k, np.arange(3), prefill_rows(q))
        assert SNAPKV_WINDOW > 3
        assert np.array_equal(s, aggregate_heads(prefill_snapkv(q, k)))

    def test_rejects_unknown_name(self):
        k = Rng(56).normal((2, 5, 4))
        q = Rng(58).normal((2, 5, 4))
        for name in ("h2o", "SnapKV", ""):
            with pytest.raises(ValueError, match="unknown policy"):
                score_layer(name, k, np.arange(5), prefill_rows(q),
                            rng=Rng(59))

    def test_random_needs_rng(self):
        k = Rng(50).normal((2, 5, 4))
        with pytest.raises(ValueError, match="rng"):
            score_layer("random", k, np.arange(5), None)
        s = score_layer("random", k, np.arange(5), None,
                        rng=Rng(51))
        assert np.array_equal(s, score_random(5, Rng(51)))

    def test_indexer_needs_weights(self):
        k = Rng(52).normal((2, 5, 4))
        q = Rng(53).normal((2, 5, 4))
        with pytest.raises(ValueError, match="indexer"):
            score_layer("indexer", k, np.arange(5), prefill_rows(q))

    def test_indexer_matches_prefill_importance(self):
        cfg = TeacherConfig(n_layers=1, d_model=8, n_heads=2, n_kv_heads=1,
                            d_ffn=16, vocab_size=8, seed=1)
        params = IndexerParams.init(cfg, Rng(54), h_index=2, d_index=3)
        rng = Rng(55)
        x = rng.split(0).normal((12, 8))
        q_pre = rng.split(1).normal((2, 12, 4))
        k = rng.split(2).normal((1, 12, 4))
        rows = prefill_rows(q_pre, x=x, q_pre=q_pre)
        s = score_layer("indexer", k, np.arange(12), rows,
                        params=params, key_feats=key_features(params, x))
        assert np.array_equal(s, indexer_importance(params, x, q_pre))

    def test_decode_positions_mask_future_keys(self):
        # sparse cached positions: the window query at position 8 must not
        # see the key at position 9
        rng = Rng(57)
        q = rng.normal((2, 2, 4))
        k = rng.normal((2, 5, 4))
        key_pos = np.array([0, 1, 7, 8, 9])
        rows = QueryRows(x=None, q_pre=None, q=q, positions=np.array([8, 9]))
        s = score_layer("snapkv", k, key_pos, rows)
        want = score_snapkv(q, k, q_positions=np.array([8, 9]),
                            key_positions=key_pos)
        assert np.array_equal(s, aggregate_heads(want))
