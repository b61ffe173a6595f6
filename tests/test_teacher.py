import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from kvgate.cache import KvCache
from kvgate.indexer import DistillBatch
from kvgate.numerics import NORM_EPS, Rng, masked_softmax_rows, rmsnorm
from kvgate.policies import score_snapkv
from kvgate.teacher import (
    LayerTrace,
    StepTrace,
    TeacherConfig,
    TeacherModel,
    attend_rows,
    attention_full,
    flatten_heads,
    kv_head_of,
    pooled_teacher_importance,
    rope_apply,
    teacher_block,
)


def logistic(x):
    """1 / (1 + exp(-v)) per value through the C library's ``math.exp``:
    a bitwise oracle for ``numerics.sigmoid``."""
    return np.vectorize(lambda v: 1.0 / (1.0 + math.exp(-v)), otypes=[float])(x)


def reference_attention(q, k, v, scale_dim):
    """O(L^2) scalar-loop oracle for grouped causal attention."""
    n_heads, L, dh = q.shape
    n_kv = k.shape[0]
    out = np.zeros((L, n_heads * dh))
    for h in range(n_heads):
        g = h * n_kv // n_heads
        for s in range(L):
            logits = np.array([float(q[h, s] @ k[g, t]) / math.sqrt(scale_dim)
                               for t in range(s + 1)])
            w = np.exp(logits - logits.max())
            w = w / w.sum()
            acc = np.zeros(dh)
            for t in range(s + 1):
                acc += w[t] * v[g, t]
            out[s, h * dh:(h + 1) * dh] = acc
    return out


def per_head_attention(q_rows, keys, values, scale_dim, visible=None):
    """One query head at a time with 2-D ops: the arithmetic the grouped
    kernel must reproduce bit for bit."""
    n_heads, nq, dh = q_rows.shape
    n_kv = keys.shape[0]
    scale = 1.0 / np.sqrt(float(scale_dim))
    out = np.empty((nq, n_heads * dh))
    for h in range(n_heads):
        g = kv_head_of(h, n_heads, n_kv)
        logits = (q_rows[h] @ keys[g].T) * scale
        if visible is not None:
            logits = np.where(visible, logits, -np.inf)
        out[:, h * dh:(h + 1) * dh] = masked_softmax_rows(logits) @ values[g]
    return out


def oracle_step(model, x_row, cache, position):
    """A decode step the plain way, the arithmetic forward_step must keep:
    three projections, rope_apply on q and on k in each layer, per-head
    attention and an np.mean rmsnorm. Returns the StepTrace fields."""
    cfg = model.config
    n, dh = 1, cfg.d_head

    def norm(a):
        return a / np.sqrt(np.mean(a * a, axis=-1, keepdims=True) + NORM_EPS)

    x = np.asarray(x_row, dtype=np.float64).reshape(1, cfg.d_model)
    fields = {"x_in": [], "q_pre": [], "q": []}
    for idx, layer in enumerate(model.layers):
        a_in = norm(x)
        q_pre = (a_in @ layer.w_q).reshape(n, cfg.n_heads, dh).transpose(1, 0, 2)
        k_pre = (a_in @ layer.w_k).reshape(n, cfg.n_kv_heads, dh).transpose(1, 0, 2)
        v = (a_in @ layer.w_v).reshape(n, cfg.n_kv_heads, dh).transpose(1, 0, 2)
        q = rope_apply(q_pre, [position])
        k = rope_apply(k_pre, [position])
        cache.append(idx, k, v, [position])
        o = per_head_attention(q, cache.keys(idx), cache.values(idx), cfg.d_model)
        fields["x_in"].append(x[0])
        fields["q_pre"].append(q_pre[:, 0, :])
        fields["q"].append(q[:, 0, :])
        h = x + o @ layer.w_o
        pre = norm(h) @ layer.w_in
        x = h + (pre * logistic(pre)) @ layer.w_out
    fields["output"] = x[0]
    return fields


def small_config(**kw):
    base = dict(n_layers=2, d_model=16, n_heads=4, n_kv_heads=2, d_ffn=32,
                vocab_size=16, seed=5)
    base.update(kw)
    return TeacherConfig(**base)


class TestConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            TeacherConfig(d_model=30, n_heads=4)
        with pytest.raises(ValueError):
            TeacherConfig(n_heads=8, n_kv_heads=3)
        with pytest.raises(ValueError):
            # d_head = 1 is odd, rotary pairs impossible
            TeacherConfig(d_model=8, n_heads=8)

    def test_zero_layers_rejected(self):
        # Config parsing and KvCache refuse a layerless teacher too.
        with pytest.raises(ValueError, match="n_layers"):
            small_config(n_layers=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2**64 + 5 would build seed 5's weights.
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=seed)

    @pytest.mark.parametrize("seed", [True, 5.0, np.int64(5)],
                             ids=["bool", "float", "int64"])
    def test_seed_that_is_not_an_int_rejected(self, seed):
        # True built seed 1's weights.
        with pytest.raises(ValueError, match="must be an int"):
            small_config(seed=seed)

    def test_derived_dims(self):
        cfg = TeacherConfig(d_model=64, n_heads=8, n_kv_heads=2)
        assert cfg.d_head == 8

    def test_kv_head_mapping(self):
        assert [kv_head_of(h, 8, 2) for h in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [kv_head_of(h, 4, 4) for h in range(4)] == [0, 1, 2, 3]


class TestRope:
    def test_position_zero_is_identity(self):
        x = Rng(1).normal((3, 5, 8))
        out = rope_apply(x, np.zeros(5))
        assert np.allclose(out, x, atol=1e-15)

    def test_preserves_norm(self):
        x = Rng(2).normal((4, 7, 10))
        out = rope_apply(x, np.arange(7) * 13.0)
        assert np.allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1),
                           atol=1e-12)

    def test_inner_product_depends_on_relative_offset(self):
        rng = Rng(3)
        q = rng.normal((8,))
        k = rng.normal((8,))
        pairs = [(5, 2), (9, 6), (103, 100)]  # all offset 3
        dots = []
        for m, n in pairs:
            qm = rope_apply(q[None, :], np.array([m]))[0]
            kn = rope_apply(k[None, :], np.array([n]))[0]
            dots.append(float(qm @ kn))
        assert dots[0] == pytest.approx(dots[1], abs=1e-9)
        assert dots[0] == pytest.approx(dots[2], abs=1e-9)

    def test_negative_position_inverts(self):
        x = Rng(4).normal((2, 6))
        fwd = rope_apply(x, np.array([11, 29]))
        back = rope_apply(fwd, np.array([-11, -29]))
        assert np.allclose(back, x, atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_apply(np.zeros((2, 7)), np.arange(2))


class TestAttention:
    def test_single_token(self):
        rng = Rng(5)
        q = rng.normal((2, 1, 4))
        k = rng.normal((1, 1, 4))
        v = rng.normal((1, 1, 4))
        out = attention_full(q, k, v)
        # only one visible value: attention must return it exactly
        assert np.allclose(out[0, :4], v[0, 0], atol=1e-12)
        assert np.allclose(out[0, 4:], v[0, 0], atol=1e-12)

    def test_matches_reference(self):
        rng = Rng(6)
        for trial in range(5):
            q = rng.normal((4, 16, 6))
            k = rng.normal((2, 16, 6))
            v = rng.normal((2, 16, 6))
            got = attention_full(q, k, v)
            ref = reference_attention(q, k, v, 24)
            assert np.abs(got - ref).max() < 1e-10

    def test_uniform_when_queries_vanish(self):
        rng = Rng(7)
        L = 6
        q = np.zeros((1, L, 4))
        k = rng.normal((1, L, 4))
        v = rng.normal((1, L, 4))
        out = attention_full(q, k, v)
        for s in range(L):
            assert np.allclose(out[s], v[0, :s + 1].mean(axis=0), atol=1e-12)


class TestAttentionKernel:
    """attend_rows and attention_full against the per-head oracle: stacked
    head blocks (nq == 1) and one head at a time (nq > 1), from a few keys
    to more than a decode cache holds.

    The logit scale is 1/sqrt(n_heads * d_head). d_head 4, 6 and 8 at 8
    heads give widths 32, 48 and 64: 1/sqrt(64) is exact in binary, so
    there multiplying by the scale and dividing by sqrt(64) agree; 32 and
    48 have inexact scales, and there only the oracle's multiply matches."""

    KEY_COUNTS = (12, 64, 700, 1280, 2100)
    D_HEADS = (4, 6, 8)

    @staticmethod
    def masks(nq, n_rows, rng):
        causal = np.tri(nq, n_rows, k=max(n_rows - nq, 0), dtype=bool)
        random = rng.uniform((nq, n_rows)) < 0.3
        random[np.arange(nq), rng.integers(0, n_rows, nq)] = True
        return {"none": None, "causal": causal, "random": random}

    @pytest.mark.parametrize("n_heads,n_kv", [(8, 2), (8, 8), (4, 1)])
    @pytest.mark.parametrize("nq", [1, 3, 43, 86])
    def test_matches_per_head_oracle(self, n_heads, n_kv, nq):
        rng = Rng(100 + 10 * n_heads + n_kv + nq)
        for dh, n_rows in product(self.D_HEADS, self.KEY_COUNTS):
            q = rng.normal((n_heads, nq, dh))
            # cache-style views: the live prefix of a larger buffer
            keys = rng.normal((n_kv, 2 * n_rows, dh))[:, :n_rows, :]
            values = rng.normal((n_kv, 2 * n_rows, dh))[:, :n_rows, :]
            for name, visible in self.masks(nq, n_rows, rng).items():
                got = attend_rows(q, keys, values, visible=visible)
                want = per_head_attention(q, keys, values, n_heads * dh,
                                          visible)
                assert np.array_equal(got, want), (dh, n_rows, name)

    @pytest.mark.parametrize("length", [1, 16, 128, 200])
    def test_full_attention_is_causal_attend_rows(self, length):
        rng = Rng(200 + length)
        causal = np.tri(length, dtype=bool)
        for dh in self.D_HEADS:
            q = rng.normal((8, length, dh))
            k = rng.normal((2, length, dh))
            v = rng.normal((2, length, dh))
            assert np.array_equal(attention_full(q, k, v),
                                  per_head_attention(q, k, v, 8 * dh,
                                                     causal)), dh

    @pytest.mark.parametrize("nq,n_rows", [(1, 12), (3, 700), (86, 2100)])
    def test_fully_masked_row_raises(self, nq, n_rows):
        rng = Rng(300 + nq)
        visible = np.ones((nq, n_rows), dtype=bool)
        visible[nq - 1] = False
        with pytest.raises(ValueError, match="empty support"):
            attend_rows(rng.normal((8, nq, 8)), rng.normal((2, n_rows, 8)),
                        rng.normal((2, n_rows, 8)), visible=visible)


class TestForward:
    def test_deterministic_construction(self):
        a = TeacherModel(small_config())
        b = TeacherModel(small_config())
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w_q, lb.w_q)
            assert np.array_equal(la.w_out, lb.w_out)
        assert np.array_equal(a.embedding, b.embedding)
        c = TeacherModel(small_config(seed=6))
        assert not np.array_equal(a.layers[0].w_q, c.layers[0].w_q)

    @pytest.mark.parametrize("x0, message", [
        (np.zeros((2, 15)), "shape"),
        (np.zeros(16), "shape"),
        (np.zeros((0, 16)), "empty sequence"),
    ], ids=["width", "1-D", "empty"])
    def test_rejects_malformed_input(self, x0, message):
        model = TeacherModel(small_config())
        with pytest.raises(ValueError, match=message):
            model.forward(x0=x0)

    def test_causality_is_exact(self):
        model = TeacherModel(small_config())
        rng = Rng(9)
        x0 = rng.normal((12, 16))
        base = model.forward(x0=x0)
        for t in (4, 7, 11):
            bumped = x0.copy()
            bumped[t] += rng.normal((16,))
            out = model.forward(x0=bumped)
            # earlier positions see identical inputs, so identical bits
            assert np.array_equal(out.output[:t], base.output[:t])
            assert not np.array_equal(out.output[t], base.output[t])

    def test_gqa_with_full_kv_heads_matches_mha_reference(self):
        cfg = small_config(n_kv_heads=4)
        model = TeacherModel(cfg)
        x0 = Rng(10).normal((10, 16))
        trace = model.forward(x0=x0)
        lt = trace.layers[0]
        ref = reference_attention(lt.q, lt.k, lt.v, cfg.d_model)
        assert np.abs(attention_full(lt.q, lt.k, lt.v) - ref).max() < 1e-10

    def test_trace_shapes(self):
        cfg = small_config()
        model = TeacherModel(cfg)
        trace = model.forward(x0=Rng(11).normal((9, 16)))
        lt = trace.layers[0]
        names = [f.name for f in dataclasses.fields(LayerTrace)]
        assert names == ["x_in", "q_pre", "q", "k", "v"]
        assert "o_concat" not in [f.name for f in dataclasses.fields(StepTrace)]
        assert lt.q_pre.shape == (4, 9, 4)
        assert lt.k.shape == (2, 9, 4)
        assert attention_full(lt.q, lt.k, lt.v).shape == (9, 16)
        # Each layer's output is the next layer's input, and the last
        # layer's is the trace output, bit for bit.
        outputs = [nxt.x_in for nxt in trace.layers[1:]] + [trace.output]
        for layer, lt, out in zip(model.layers, trace.layers, outputs):
            o_concat = attention_full(lt.q, lt.k, lt.v)
            assert np.array_equal(model._finish_layer(layer, lt.x_in, o_concat),
                                  out)

    def test_flatten_heads_is_head_major(self):
        per_head = np.arange(2 * 3 * 4).reshape(2, 3, 4)
        flat = flatten_heads(per_head)
        assert flat.shape == (3, 8)
        assert flat[1].tolist() == per_head[0, 1].tolist() + per_head[1, 1].tolist()


class TestDecode:
    def test_prefill_then_decode_matches_full_forward(self):
        cfg = small_config(n_layers=3)
        model = TeacherModel(cfg)
        x0 = Rng(12).normal((20, 16))
        full = model.forward(x0=x0)

        cache = KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head, sink_count=0)
        outputs = []
        for t in range(20):
            step = model.forward_step(x0[t][None, :], [cache], position=t)
            outputs.append(step.output[0])
        got = np.stack(outputs)
        assert np.abs(got - full.output).max() < 1e-9

    def test_step_trace_rows_match_full_trace(self):
        cfg = small_config()
        model = TeacherModel(cfg)
        x0 = Rng(13).normal((8, 16))
        full = model.forward(x0=x0)
        cache = KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head, sink_count=0)
        for t in range(8):
            step = model.forward_step(x0[t][None, :], [cache], position=t)
        # after the loop the cache holds exactly the full-trace keys
        for li, lt in enumerate(full.layers):
            assert np.abs(cache.keys(li) - lt.k).max() < 1e-9
            assert np.abs(cache.values(li) - lt.v).max() < 1e-9
            # the last step's rows are the full trace's row 7
            assert np.abs(step.x_in[li][0] - lt.x_in[7]).max() < 1e-9
            assert np.abs(step.q_pre[li][0] - lt.q_pre[:, 7]).max() < 1e-9
            assert np.abs(step.q[li][0] - lt.q[:, 7]).max() < 1e-9
        assert np.abs(step.output[0] - full.output[7]).max() < 1e-9


    @pytest.mark.parametrize("n_heads,n_kv", [(8, 2), (4, 4), (4, 1)])
    def test_step_is_bitwise_the_oracle_step(self, n_heads, n_kv):
        # Three simulations decode in lockstep, each fed its own output, and
        # each must match its own oracle run bit for bit (tobytes, so signed
        # zeros count). 340 steps grow the caches past capacities 64, 128
        # and 256. At step 100 simulation 1 keeps the sinks, every third row
        # and the trailing window, simulation 2 every fifth row at step 60
        # and every second row at step 200, and simulation 0 never compacts,
        # so the caches the stacked step serves differ in length and rows.
        cfg = small_config(d_model=32, n_heads=n_heads, n_kv_heads=n_kv)
        model = TeacherModel(cfg)
        n_sim = 3
        compactions = {(1, 100): 3, (2, 60): 5, (2, 200): 2}

        def new_caches():
            return [KvCache(cfg.n_layers, n_kv, cfg.d_head, sink_count=4)
                    for _ in range(n_sim)]

        caches, oracle_caches = new_caches(), new_caches()
        x_rows = Rng(14).normal((n_sim, cfg.d_model))
        for t in range(340):
            for s in range(n_sim):
                stride = compactions.get((s, t))
                if stride is None:
                    continue
                for cache in (caches[s], oracle_caches[s]):
                    for li in range(cfg.n_layers):
                        n = cache.length(li)
                        keep = np.union1d(np.arange(0, n, stride),
                                          np.arange(n - 8, n))
                        keep = np.union1d(keep, cache.sink_row_indices(li))
                        cache.compact(li, keep, local_window=8)
            step = model.forward_step(x_rows, caches, position=t)
            for s in range(n_sim):
                want = oracle_step(model, x_rows[s], oracle_caches[s],
                                   position=t)
                for name in ("x_in", "q_pre", "q"):
                    got = getattr(step, name)
                    assert len(got) == cfg.n_layers
                    for li in range(cfg.n_layers):
                        assert got[li].shape[0] == n_sim
                        assert got[li][s].shape == want[name][li].shape
                        assert (got[li][s].tobytes()
                                == want[name][li].tobytes()), (t, s, name, li)
                assert step.output[s].tobytes() == want["output"].tobytes(), \
                    (t, s)
                for li in range(cfg.n_layers):
                    for part in ("keys", "values", "positions"):
                        assert (getattr(caches[s], part)(li).tobytes()
                                == getattr(oracle_caches[s], part)(li).tobytes())
            x_rows = rmsnorm(step.output)
        assert caches[0].length(0) > 256
        assert len({cache.length(0) for cache in caches}) == n_sim


class TestPooledImportance:
    def test_matches_bruteforce_max(self):
        rng = Rng(15)
        q = rng.normal((4, 10, 4))
        k = rng.normal((2, 10, 4))
        imp = pooled_teacher_importance(q, k)
        for t in range(10):
            best = -np.inf
            for h in range(4):
                g = h * 2 // 4
                for s in range(t, 10):
                    best = max(best, float(q[h, s] @ k[g, t]) / math.sqrt(16))
            assert imp[t] == pytest.approx(best, abs=1e-12)

    def test_block_is_the_causal_head_max(self):
        rng = Rng(17)
        q = rng.normal((4, 9, 4))
        k = rng.normal((2, 9, 4))
        block = teacher_block(q, k)
        for s, t in product(range(9), range(9)):
            if t > s:
                assert block[s, t] == -np.inf
                continue
            best = max(float(q[h, s] @ k[h * 2 // 4, t]) / math.sqrt(16)
                       for h in range(4))
            assert block[s, t] == pytest.approx(best, abs=1e-12)
        assert (pooled_teacher_importance(q, k).tobytes()
                == block.max(axis=0).tobytes())


class TestLogitScale:
    """Every consumer that rebuilds attention scales its logits by
    1/sqrt(d_model). At d_model 48 with 8 heads of width 6 and 2 kv heads,
    that differs from 1/sqrt(d_head) and 1/sqrt(n_kv_heads * d_head), and
    it is inexact in binary. The oracles write the scale out by hand."""

    SCALE = 1.0 / math.sqrt(48)

    def test_every_consumer_scales_by_d_model(self):
        cfg = TeacherConfig(n_layers=1, d_model=48, n_heads=8, n_kv_heads=2,
                            d_ffn=32, vocab_size=16, seed=3)
        lt = TeacherModel(cfg).forward(x0=Rng(16).normal((12, 48))).layers[0]
        q, k, v = lt.q, lt.k, lt.v
        causal = np.tri(12, dtype=bool)
        # query head h reads kv head h // 4
        logits = np.stack([q[h] @ k[h // 4].T for h in range(8)]) * self.SCALE
        logits = np.where(causal, logits, -np.inf)
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        out = np.concatenate([weights[h] @ v[h // 4] for h in range(8)], axis=1)

        def close(got, want):
            return np.allclose(got, want, rtol=1e-12, atol=1e-12)

        assert close(attention_full(q, k, v), out)
        assert close(attend_rows(q, k, v, visible=causal), out)
        assert close(attend_rows(q[:, -1:], k, v), out[-1:])
        # snapkv over the last 4 queries: mean attention row per query head,
        # then mean over the 4 query heads of each kv head
        snap = weights[:, 8:].mean(axis=1).reshape(2, 4, 12).mean(axis=1)
        assert close(score_snapkv(q[:, 8:], k, np.arange(8, 12), np.arange(12)),
                     snap)
        # the teacher target: max causal logit over heads and queries
        imp = logits.max(axis=(0, 1))
        assert close(pooled_teacher_importance(q, k), imp)
        batch = DistillBatch(x=lt.x_in, q_pre=lt.q_pre, q_rot=q, k_rot=k)
        assert close(batch.teacher_imp, imp)
