import math

import numpy as np
import pytest

from kvgate.cache import CompressionPlan
from kvgate.indexer import (
    DistillBatch,
    _rmsnorm_backward,
    DivergenceError,
    IndexerKeyCache,
    IndexerParams,
    default_d_index,
    default_h_index,
    distill_gradients,
    distill_loss,
    indexer_importance,
    key_features,
    head_gates,
    importance_from_features,
    index_scores,
    pooled_vectors,
    query_features,
    teacher_block,
    train_indexer,
    wsd_lr,
)
from kvgate.numerics import Rng, kl_divergence, masked_softmax_rows, rmsnorm
from kvgate.policies import select
from kvgate.teacher import TeacherConfig, TeacherModel, flatten_heads, logit_scale


def dense_scores(params, x, q_pre):
    """Full L x L score matrix; the reference for the importance paths."""
    ids = np.arange(np.asarray(x).shape[0])
    return index_scores(query_features(params, q_pre), head_gates(params, x),
                        key_features(params, x), ids, ids)[1]


def subset_importance(params, x, q_pre, q_set):
    """Importance of every row of ``x`` over the query rows ``q_set``."""
    q_set = np.asarray(q_set, dtype=np.int64)
    return importance_from_features(query_features(params, q_pre)[q_set],
                                    head_gates(params, x)[q_set],
                                    key_features(params, x), q_set,
                                    np.arange(np.asarray(x).shape[0]))


def small_teacher(n_layers=2, seed=5):
    cfg = TeacherConfig(n_layers=n_layers, d_model=16, n_heads=4, n_kv_heads=2,
                        d_ffn=32, vocab_size=16, seed=seed)
    return TeacherModel(cfg)


def small_layer(length=20, x_seed=60, layer=0):
    """The rows small_setup's batch is built from: one layer's trace."""
    teacher = small_teacher()
    x0 = Rng(x_seed).normal((length, 16))
    return teacher.forward(x0=x0).layers[layer]


def layer_batch(teacher, x0, layer=0, sink_count=4):
    """One layer's distillation batch from a teacher forward over ``x0``."""
    lt = teacher.forward(x0=x0).layers[layer]
    return DistillBatch(x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q, k_rot=lt.k,
                        sink_count=sink_count)


def small_setup(length=20, sink_count=3, param_seed=61, x_seed=60, layer=0):
    teacher = small_teacher()
    x0 = Rng(x_seed).normal((length, 16))
    batch = layer_batch(teacher, x0, layer=layer, sink_count=sink_count)
    params = IndexerParams.init(teacher.config, Rng(param_seed),
                                h_index=2, d_index=3)
    return teacher, batch, params


def dense_distill_gradients(params, batch):
    """The dense (L, L) distillation backward, the oracle of the row-sparse one.

    ``d_scores`` is a full (L, L) array and every einsum runs over all L
    query rows, most of which carry only zeros.
    """
    n = batch.length
    ids = np.arange(n)

    flat_q = flatten_heads(batch.q_pre)
    raw_q = (flat_q @ params.u_q).reshape(n, params.h_index, params.d_index)
    q_feat = rmsnorm(raw_q)
    raw_k = batch.x @ params.u_k
    k_feat = rmsnorm(raw_k)
    gates = head_gates(params, batch.x)

    dots = np.einsum("shd,td->sth", q_feat, k_feat)
    z = np.maximum(dots, 0.0)
    scores = np.einsum("sth,sh->st", z, gates)
    invalid = ids[None, :] > ids[:, None]
    scores = np.where(invalid, -np.inf, scores)

    student_imp = scores.max(axis=0)
    arg_rows = np.argmax(scores, axis=0)

    keep = np.arange(batch.sink_count, n)
    t_valid = batch.teacher_imp[keep]
    s_valid = student_imp[keep]
    loss = kl_divergence(t_valid, s_valid)

    finite = np.isfinite(s_valid)
    p = np.zeros_like(t_valid)
    q = np.zeros_like(s_valid)
    p[finite] = masked_softmax_rows(t_valid[finite])
    q[finite] = masked_softmax_rows(s_valid[finite])
    d_imp = np.zeros(n)
    d_imp[keep] = q - p

    d_scores = np.zeros((n, n))
    cols = np.flatnonzero(np.isfinite(student_imp) & (d_imp != 0.0))
    d_scores[arg_rows[cols], cols] = d_imp[cols]

    d_gates = np.einsum("st,sth->sh", d_scores, z)
    d_z = np.einsum("st,sh->sth", d_scores, gates)
    d_dots = d_z * (dots > 0.0)
    d_qfeat = np.einsum("sth,td->shd", d_dots, k_feat)
    d_kfeat = np.einsum("sth,shd->td", d_dots, q_feat)

    d_raw_q = _rmsnorm_backward(raw_q, d_qfeat)
    d_raw_k = _rmsnorm_backward(raw_k, d_kfeat)

    grad_u_q = flat_q.T @ d_raw_q.reshape(n, -1)
    grad_u_k = batch.x.T @ d_raw_k
    grad_g = (batch.x.T @ d_gates) * params.gate_scale
    return loss, {"u_q": grad_u_q, "u_k": grad_u_k, "g": grad_g}


def gqa_batch(length, n_heads, n_kv_heads, seed, sink_count=4):
    """A one-layer teacher's distillation batch, d_head 4, random inputs."""
    d_model = 4 * n_heads
    teacher = TeacherModel(TeacherConfig(
        n_layers=1, d_model=d_model, n_heads=n_heads, n_kv_heads=n_kv_heads,
        d_ffn=2 * d_model, vocab_size=16, seed=seed))
    x0 = Rng(seed + 1).normal((length, d_model))
    return teacher, layer_batch(teacher, x0, 0, sink_count=sink_count)


def argmax_rows(params, batch):
    """Distinct argmax query rows of the non-sink keys, and the score matrix."""
    scores = dense_scores(params, batch.x, batch.q_pre)
    arg_rows = np.argmax(scores, axis=0)
    return np.unique(arg_rows[batch.sink_count:]), scores


def assert_matches_dense_oracle(params, batch, steps=3, lr=0.5):
    """Loss and gradients equal the dense oracle's bytes at every SGD step."""
    for _ in range(steps):
        loss, grads = distill_gradients(params, batch)
        want_loss, want = dense_distill_gradients(params, batch)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert set(grads) == set(want)
        for name, value in want.items():
            assert grads[name].shape == value.shape
            assert grads[name].tobytes() == value.tobytes(), name
        params.u_q -= lr * grads["u_q"]
        params.u_k -= lr * grads["u_k"]
        params.g -= lr * grads["g"]


def reference_scores(params, x, q_pre):
    """Scalar-loop oracle for the gated similarity matrix."""
    n = x.shape[0]
    flat = np.concatenate([q_pre[h] for h in range(q_pre.shape[0])], axis=1)
    out = np.full((n, n), -np.inf)
    for s in range(n):
        raw_q = (flat[s] @ params.u_q).reshape(params.h_index, params.d_index)
        q = np.stack([row / math.sqrt(np.mean(row**2) + 1e-6) for row in raw_q])
        alpha = (x[s] @ params.g) / math.sqrt(params.h_index * params.d_index)
        for t in range(s + 1):
            raw_k = x[t] @ params.u_k
            k = raw_k / math.sqrt(np.mean(raw_k**2) + 1e-6)
            total = 0.0
            for h in range(params.h_index):
                total += alpha[h] * max(0.0, float(q[h] @ k))
            out[s, t] = total
    return out


class TestParams:
    def test_defaults(self):
        assert default_h_index(8) == 2
        assert default_h_index(2) == 1
        assert default_d_index(16) == 2
        assert default_d_index(4) == 1

    def test_init_shapes(self):
        teacher = small_teacher()
        p = IndexerParams.init(teacher.config, Rng(1))
        assert p.u_q.shape == (16, p.h_index * p.d_index)
        assert p.u_k.shape == (16, p.d_index)
        assert p.g.shape == (16, p.h_index)

    def test_init_deterministic(self):
        teacher = small_teacher()
        a = IndexerParams.init(teacher.config, Rng(2))
        b = IndexerParams.init(teacher.config, Rng(2))
        assert np.array_equal(a.u_q, b.u_q)
        assert np.array_equal(a.u_k, b.u_k)
        assert np.array_equal(a.g, b.g)

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError, match="u_q output width"):
            IndexerParams(u_q=np.zeros((16, 5)), u_k=np.zeros((16, 3)),
                          g=np.zeros((16, 2)))

    def test_rejects_nonfinite(self):
        bad = np.zeros((16, 6))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            IndexerParams(u_q=bad, u_k=np.zeros((16, 3)), g=np.zeros((16, 2)))


class TestFeatures:
    def test_query_features_normalized_per_head(self):
        _, batch, params = small_setup()
        q = query_features(params, batch.q_pre)
        assert q.shape == (20, 2, 3)
        rms = np.sqrt(np.mean(q**2, axis=2))
        assert np.allclose(rms, 1.0, atol=1e-5)

    def test_key_features_normalized(self):
        _, batch, params = small_setup()
        k = key_features(params, batch.x)
        assert k.shape == (20, 3)
        assert np.allclose(np.sqrt(np.mean(k**2, axis=1)), 1.0, atol=1e-5)


class TestKeyCache:
    def test_append_and_gather(self):
        cache = IndexerKeyCache(d_index=3)
        rows = Rng(3).normal((5, 3))
        cache.append(rows, np.arange(5))
        assert len(cache) == 5
        got = cache.rows_for([1, 4])
        assert np.array_equal(got, rows[[1, 4]])
        empty = cache.rows_for([])
        assert empty.shape == (0, 3) and empty.dtype == np.float64

    def test_missing_position_raises(self):
        cache = IndexerKeyCache(d_index=3)
        cache.append(Rng(4).normal((4, 3)), [0, 1, 2, 3])
        with pytest.raises(ValueError, match="missing cached keys"):
            cache.rows_for([2, 7])

    def test_missing_position_in_an_empty_cache_raises(self):
        with pytest.raises(ValueError, match="missing cached keys"):
            IndexerKeyCache(d_index=2).rows_for([3])

    def test_survives_sparse_positions(self):
        # rows stay addressable by original position after the kv cache has
        # dropped the in-between tokens
        cache = IndexerKeyCache(d_index=2)
        rows = Rng(5).normal((3, 2))
        cache.append(rows, [0, 5, 9])
        assert np.array_equal(cache.rows_for([5, 9]), rows[1:])

    def test_rejects_rewind(self):
        cache = IndexerKeyCache(d_index=2)
        cache.append(Rng(6).normal((2, 2)), [0, 1])
        with pytest.raises(ValueError, match="extend past"):
            cache.append(Rng(7).normal((1, 2)), [1])

    def test_retain_follows_compaction(self):
        cache = IndexerKeyCache(d_index=2)
        rows = Rng(8).normal((6, 2))
        cache.append(rows, np.arange(6))
        cache.retain([0, 2, 5])
        assert cache.positions.tolist() == [0, 2, 5]
        assert np.array_equal(cache.rows_for([0, 2, 5]), rows[[0, 2, 5]])
        with pytest.raises(ValueError, match="missing cached keys"):
            cache.rows_for([1])
        cache.append(Rng(9).normal((1, 2)), [6])
        assert len(cache) == 4
        with pytest.raises(ValueError, match="missing cached keys"):
            cache.retain([3])


class TestScoreBlock:
    def test_matches_scalar_reference(self):
        _, batch, params = small_setup()
        got = dense_scores(params, batch.x, batch.q_pre)
        want = reference_scores(params, batch.x, batch.q_pre)
        m = np.isfinite(want)
        assert np.max(np.abs(got[m] - want[m])) < 1e-10
        assert np.all(np.isneginf(got[~m]))

    def test_zero_gate_zeroes_support(self):
        _, batch, params = small_setup()
        params.g[:] = 0.0
        a = dense_scores(params, batch.x, batch.q_pre)
        assert np.all(a[np.isfinite(a)] == 0.0)

    def test_causal_mask(self):
        _, batch, params = small_setup()
        a = dense_scores(params, batch.x, batch.q_pre)[3:4, 2:5]
        assert np.isfinite(a[0, 0]) and np.isfinite(a[0, 1])
        assert np.isneginf(a[0, 2])

    def test_cache_rows_match_recomputed(self):
        _, batch, params = small_setup()
        cache = IndexerKeyCache(params.d_index)
        cache.append(key_features(params, batch.x), np.arange(20))
        ids = np.arange(20)
        from_cache = importance_from_features(
            query_features(params, batch.q_pre), head_gates(params, batch.x),
            cache.rows_for(ids), ids, ids)
        fresh = indexer_importance(params, batch.x, batch.q_pre)
        assert np.array_equal(from_cache, fresh)


class TestImportance:
    def test_column_max_example(self):
        # importance is the columnwise max over the query set
        _, batch, params = small_setup()
        dense = dense_scores(params, batch.x, batch.q_pre)
        q_set = np.array([0, 1])
        imp = subset_importance(params, batch.x, batch.q_pre, q_set)
        want = dense[q_set].max(axis=0)
        finite = np.isfinite(want)
        assert np.array_equal(imp[finite], want[finite])
        assert np.all(np.isneginf(imp[~finite]))

    def test_single_query_is_its_row(self):
        _, batch, params = small_setup()
        dense = dense_scores(params, batch.x, batch.q_pre)
        imp = subset_importance(params, batch.x, batch.q_pre, [7])
        assert np.array_equal(imp[:8], dense[7, :8])
        assert np.all(np.isneginf(imp[8:]))

    def test_causality_of_importance(self):
        # rows after the last query must not influence any score
        _, batch, params = small_setup()
        q_set = np.arange(10)
        imp = subset_importance(params, batch.x, batch.q_pre, q_set)
        x2 = batch.x.copy()
        x2[12:] = Rng(65).normal((8, 16)) * 5.0
        imp2 = subset_importance(params, x2, batch.q_pre, q_set)
        assert np.array_equal(imp[:10], imp2[:10])

    def test_gate_scaling_preserves_keep_set(self):
        _, batch, params = small_setup()
        imp = indexer_importance(params, batch.x, batch.q_pre)
        scaled = IndexerParams(params.u_q, params.u_k, params.g * 3.0)
        imp2 = indexer_importance(scaled, batch.x, batch.q_pre)
        finite = np.isfinite(imp)
        assert np.allclose(imp2[finite], 3.0 * imp[finite], rtol=1e-12)
        assert np.array_equal(np.argsort(-imp), np.argsort(-imp2))


class TestPreEvict:
    """Keep sets decided from indexer scores alone, before any KV row."""

    def split(self, params, batch, plan):
        imp = indexer_importance(params, batch.x, batch.q_pre)
        keep = select(plan, imp, np.arange(batch.length))
        return keep, np.setdiff1d(np.arange(batch.length), keep)

    def test_ratio_zero_keeps_all(self):
        _, batch, params = small_setup()
        plan = CompressionPlan(ratio=0.0, sink_count=3, local_window=2)
        keep, evicted = self.split(params, batch, plan)
        assert keep.tolist() == list(range(20))
        assert evicted.size == 0

    def test_keep_and_evicted_partition(self):
        _, batch, params = small_setup()
        plan = CompressionPlan(ratio=0.5, sink_count=3, local_window=2)
        keep, evicted = self.split(params, batch, plan)
        assert np.intersect1d(keep, evicted).size == 0
        assert np.union1d(keep, evicted).tolist() == list(range(20))
        assert np.all(np.isin([0, 1, 2, 18, 19], keep))


class TestDistillBatch:
    def test_builder_shapes(self):
        teacher, batch, _ = small_setup()
        assert batch.x.shape == (20, 16)
        assert batch.q_pre.shape == (4, 20, 4)
        assert batch.teacher_imp.shape == (20,)
        lt = small_layer()
        assert lt.k.shape == (2, 20, 4)
        assert logit_scale(lt.q) == 1.0 / math.sqrt(16)

    def test_keeps_its_target_not_the_rotated_states(self):
        lt = small_layer()
        batch = DistillBatch(x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q,
                             k_rot=lt.k, sink_count=3)
        assert not hasattr(batch, "q_rot")
        assert not hasattr(batch, "k_rot")
        want = teacher_block(lt.q, lt.k).max(axis=0)
        assert batch.teacher_imp.tobytes() == want.tobytes()

    def test_sink_count_validation(self):
        teacher = small_teacher()
        x0 = Rng(66).normal((6, 16))
        with pytest.raises(ValueError, match="sink count"):
            layer_batch(teacher, x0, 0, sink_count=6)

    def test_teacher_target_built_once_per_batch(self, monkeypatch):
        teacher = small_teacher()
        calls = []

        def counting(*args):
            calls.append(1)
            return teacher_block(*args)

        monkeypatch.setattr("kvgate.indexer.teacher_block", counting)
        batches = [layer_batch(teacher, Rng(80 + i).normal((12, 16)), 0,
                               sink_count=2) for i in range(3)]
        assert len(calls) == 3
        params = IndexerParams.init(teacher.config, Rng(83), h_index=1, d_index=2)
        train_indexer(params, batches, 10, 1e-3)
        assert len(calls) == 3


class TestStreamingLoss:
    def test_pooled_vectors_match_teacher_oracle(self):
        # The distillation target and the sweep's pooled_kl reference are
        # one formula, so they agree bit for bit.
        teacher, batch, params = small_setup()
        t_imp, _ = pooled_vectors(params, batch)
        trace = teacher.forward(x0=Rng(60).normal((20, 16)))
        from kvgate.teacher import pooled_teacher_importance
        lt = trace.layers[0]
        want = pooled_teacher_importance(lt.q, lt.k)
        assert t_imp.tobytes() == want.tobytes()

    def test_sink_scores_are_irrelevant(self):
        _, batch, params = small_setup(sink_count=4)
        base = distill_loss(params, batch)
        lt = small_layer()
        k_noisy = lt.k.copy()
        k_noisy[:, :4, :] += 100.0
        noisy = DistillBatch(x=batch.x, q_pre=batch.q_pre, q_rot=lt.q,
                             k_rot=k_noisy, sink_count=batch.sink_count)
        assert distill_loss(params, noisy) == base
        assert not np.array_equal(noisy.teacher_imp[:4], batch.teacher_imp[:4])

    def test_zero_when_student_equals_teacher(self):
        # force the student pooled vector to coincide with the teacher's by
        # comparing the teacher against itself through the KL
        from kvgate.numerics import kl_divergence
        _, batch, params = small_setup()
        t_imp, _ = pooled_vectors(params, batch)
        keep = np.arange(batch.sink_count, batch.length)
        assert kl_divergence(t_imp[keep], t_imp[keep]) == pytest.approx(0.0, abs=1e-12)


class TestGradients:
    def test_finite_difference_check(self):
        _, batch, params = small_setup()
        loss, grads = distill_gradients(params, batch)
        assert loss == distill_loss(params, batch)
        h = 1e-5
        rng = Rng(67)
        for name in ("u_q", "u_k", "g"):
            flat = getattr(params, name).reshape(-1)
            coords = set(rng.split(len(name)).integers(0, flat.size, 15).tolist())
            for c in coords:
                old = flat[c]
                flat[c] = old + h
                lp = distill_loss(params, batch)
                flat[c] = old - h
                lm = distill_loss(params, batch)
                flat[c] = old
                fd = (lp - lm) / (2 * h)
                an = grads[name].reshape(-1)[c]
                if abs(fd) > 1e-12 or abs(an) > 1e-12:
                    assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-4

    def test_zero_gate_kills_query_gradient(self):
        _, batch, params = small_setup()
        params.g[:] = 0.0
        _, grads = distill_gradients(params, batch)
        assert np.all(grads["u_q"] == 0.0)

    def test_sink_rows_contribute_nothing(self):
        _, batch, params = small_setup(sink_count=4)
        _, grads = distill_gradients(params, batch)
        lt = small_layer()
        perturbed = DistillBatch(x=batch.x.copy(), q_pre=batch.q_pre,
                                 q_rot=lt.q, k_rot=lt.k,
                                 sink_count=batch.sink_count)
        perturbed.x[:4] = Rng(68).normal((4, 16))
        _, grads2 = distill_gradients(params, perturbed)
        assert np.array_equal(grads["u_k"], grads2["u_k"])
        assert np.array_equal(grads["g"], grads2["g"])


class TestSparseBackward:
    """The row-sparse backward against the dense (L, L) oracle, byte for byte."""

    @pytest.mark.parametrize("length, heads, h_index, d_index", [
        (8, (8, 2), 1, 1), (8, (4, 1), 4, 8),
        (24, (8, 2), 2, 3), (24, (4, 1), 3, 5),
        (128, (8, 2), 2, 1), (128, (4, 1), 4, 8),
        (256, (8, 2), 4, 8), (256, (4, 1), 1, 2),
    ])
    def test_lengths_and_gqa(self, length, heads, h_index, d_index):
        teacher, batch = gqa_batch(length, *heads, seed=90 + length)
        params = IndexerParams.init(teacher.config, Rng(91), h_index=h_index,
                                    d_index=d_index)
        assert_matches_dense_oracle(params, batch)

    @pytest.mark.parametrize("heads", [(8, 2), (4, 1)])
    def test_every_indexer_width(self, heads):
        teacher, batch = gqa_batch(24, *heads, seed=92)
        for h_index in range(1, 5):
            for d_index in range(1, 9):
                params = IndexerParams.init(teacher.config, Rng(93),
                                            h_index=h_index, d_index=d_index)
                assert_matches_dense_oracle(params, batch)

    def test_single_argmax_row(self):
        teacher, batch = gqa_batch(24, 8, 2, seed=96, sink_count=22)
        params = IndexerParams.init(teacher.config, Rng(97), h_index=2,
                                    d_index=3)
        rows, _ = argmax_rows(params, batch)
        assert rows.size == 1
        assert_matches_dense_oracle(params, batch)

    def test_no_gradient_columns(self):
        teacher, batch = gqa_batch(24, 4, 1, seed=98)
        params = IndexerParams.init(teacher.config, Rng(99), h_index=2,
                                    d_index=3)
        # A teacher target equal to the student's importance leaves every
        # key with a zero gradient.
        _, batch.teacher_imp = pooled_vectors(params, batch)
        loss, grads = distill_gradients(params, batch)
        assert loss == 0.0
        for value in grads.values():
            assert not value.any()
        assert_matches_dense_oracle(params, batch, steps=1)

    def test_tied_queries_route_to_the_lowest_row(self):
        # Rows 2 and 3 share the only coordinates the indexer reads (the
        # first of q_pre and of x), so they tie exactly on every key up
        # to 2, and their gate of 2.0 makes that tie the column maximum.
        # Their second coordinates differ, so which row carries the
        # gradient shows in grad_u_q and grad_g.
        x = np.array([[0.5, 0.3], [0.4, -0.2], [2.0, 0.7], [2.0, -1.1],
                      [0.3, 0.9], [0.6, 0.1]])
        q_pre = np.array([[[0.5, 0.1], [0.8, -0.4], [1.5, 0.6], [1.5, -0.9],
                           [0.7, 0.2], [0.9, 0.3]]])
        rng = Rng(100)
        batch = DistillBatch(x=x, q_pre=q_pre, q_rot=rng.split(0).normal((1, 6, 2)),
                             k_rot=rng.split(1).normal((1, 6, 2)), sink_count=1)
        reads_first = np.array([[1.0], [0.0]])
        params = IndexerParams(u_q=reads_first.copy(), u_k=reads_first.copy(),
                               g=reads_first.copy())
        _, scores = argmax_rows(params, batch)
        assert np.array_equal(scores[2, :3], scores[3, :3])
        assert np.array_equal(np.argmax(scores, axis=0)[1:3], [2, 2])
        _, grads = distill_gradients(params, batch)
        assert grads["u_q"][1, 0] != 0.0 and grads["g"][1, 0] != 0.0
        assert_matches_dense_oracle(params, batch)


class WsdSchedule:
    """The schedule object ``wsd_lr`` replaced, kept as its oracle: linear
    up, flat, linear down, and ``scaled`` squeezes the shape into a run."""

    def __init__(self, warmup_steps=100, stable_steps=2000, decay_steps=2000,
                 peak=1e-3, final=7.5e-6):
        self.warmup_steps = warmup_steps
        self.stable_steps = stable_steps
        self.decay_steps = decay_steps
        self.peak = peak
        self.final = final
        self.total_steps = warmup_steps + stable_steps + decay_steps

    def lr(self, step):
        if step < self.warmup_steps:
            return self.peak * (step + 1) / self.warmup_steps
        if step < self.warmup_steps + self.stable_steps:
            return self.peak
        j = step - self.warmup_steps - self.stable_steps
        return self.peak + (self.final - self.peak) * (j + 1) / self.decay_steps

    def scaled(self, total):
        frac = total / self.total_steps
        warm = min(max(1, round(self.warmup_steps * frac)), total) if total >= 3 else 0
        decay = min(max(1, round(self.decay_steps * frac)), total - warm) if total >= 3 else 0
        return WsdSchedule(warm, total - warm - decay, decay, self.peak, self.final)


class TestSchedule:
    @pytest.mark.parametrize("steps", [1, 2, 3, 50, 600, 4100])
    @pytest.mark.parametrize("peak", [1e-3, 0.3])
    def test_matches_the_scaled_schedule_object(self, steps, peak):
        want = WsdSchedule(peak=peak).scaled(steps)
        for step in range(steps):
            assert wsd_lr(step, steps, peak) == want.lr(step), step

    def test_endpoints(self):
        # 4,100 steps is the unsqueezed shape: 100 up, 2,000 flat, 2,000 down.
        assert wsd_lr(99, 4100, 1e-3) == pytest.approx(1e-3)
        assert wsd_lr(100, 4100, 1e-3) == 1e-3
        assert wsd_lr(2099, 4100, 1e-3) == 1e-3
        assert wsd_lr(4099, 4100, 1e-3) == pytest.approx(7.5e-6)

    def test_warmup_is_linear(self):
        # 164 steps squeeze the shape to 4 warmup steps.
        assert [wsd_lr(i, 164, 1e-3) for i in range(4)] == pytest.approx(
            [0.25e-3, 0.5e-3, 0.75e-3, 1e-3])

    def test_scaled_preserves_total(self):
        lrs = [wsd_lr(i, 600, 1e-3) for i in range(600)]
        assert lrs[0] < 1e-3 and max(lrs) == 1e-3
        assert lrs[-1] == pytest.approx(7.5e-6)

    def test_scaled_tiny(self):
        assert wsd_lr(0, 1, 1e-3) == 1e-3
        assert [wsd_lr(i, 2, 1e-3) for i in range(2)] == [1e-3, 1e-3]


class TestTraining:
    def test_loss_decreases(self):
        teacher = small_teacher()
        batches = []
        for i in range(4):
            x0 = Rng(70 + i).normal((16, 16))
            batches.append(layer_batch(teacher, x0, 0, sink_count=2))
        params = IndexerParams.init(teacher.config, Rng(71), h_index=2, d_index=3)
        before = np.mean([distill_loss(params, b) for b in batches])
        losses = train_indexer(params, batches, 80, 1e-3)
        after = np.mean([distill_loss(params, b) for b in batches])
        assert len(losses) == 80
        assert after < before

    def test_zero_steps_leaves_params_unchanged(self):
        teacher = small_teacher()
        x0 = Rng(72).normal((12, 16))
        batch = layer_batch(teacher, x0, 0, sink_count=2)
        params = IndexerParams.init(teacher.config, Rng(73), h_index=1, d_index=2)
        before = params.copy()
        losses = train_indexer(params, [batch], 0, 1e-3)
        assert losses == []
        assert np.array_equal(params.u_q, before.u_q)
        assert np.array_equal(params.u_k, before.u_k)
        assert np.array_equal(params.g, before.g)

    def test_deterministic(self):
        teacher = small_teacher()
        x0 = Rng(74).normal((12, 16))
        batch = layer_batch(teacher, x0, 0, sink_count=2)
        runs = []
        for _ in range(2):
            params = IndexerParams.init(teacher.config, Rng(75), h_index=1,
                                        d_index=2)
            losses = train_indexer(params, [batch], 30, 1e-3)
            runs.append((losses, params))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1].u_q, runs[1][1].u_q)

    def test_divergence_guard(self):
        teacher = small_teacher()
        x0 = Rng(76).normal((12, 16))
        batch = layer_batch(teacher, x0, 0, sink_count=2)
        params = IndexerParams.init(teacher.config, Rng(77), h_index=1, d_index=2)
        params.u_k[0, 0] = np.inf
        with pytest.raises(DivergenceError):
            train_indexer(params, [batch], 10, 1e-3)
