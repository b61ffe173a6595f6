import math

import numpy as np
import pytest

from kvgate.cache import KvCache
from kvgate.numerics import Rng, masked_softmax_rows
from kvgate.teacher import (
    TeacherConfig,
    TeacherModel,
    attend_rows,
    attention_full,
    flatten_heads,
    kv_head_of,
    pooled_teacher_importance,
    rope_apply,
)


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

    def test_derived_dims(self):
        cfg = TeacherConfig(d_model=64, n_heads=8, n_kv_heads=2)
        assert cfg.d_head == 8
        assert cfg.group_size == 4

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
        out = attention_full(q, k, v, scale_dim=8)
        # only one visible value: attention must return it exactly
        assert np.allclose(out[0, :4], v[0, 0], atol=1e-12)
        assert np.allclose(out[0, 4:], v[0, 0], atol=1e-12)

    def test_matches_reference(self):
        rng = Rng(6)
        for trial in range(5):
            q = rng.normal((4, 16, 6))
            k = rng.normal((2, 16, 6))
            v = rng.normal((2, 16, 6))
            got = attention_full(q, k, v, scale_dim=24)
            ref = reference_attention(q, k, v, 24)
            assert np.abs(got - ref).max() < 1e-10

    def test_uniform_when_queries_vanish(self):
        rng = Rng(7)
        L = 6
        q = np.zeros((1, L, 4))
        k = rng.normal((1, L, 4))
        v = rng.normal((1, L, 4))
        out = attention_full(q, k, v, scale_dim=16)
        for s in range(L):
            assert np.allclose(out[s], v[0, :s + 1].mean(axis=0), atol=1e-12)


class TestAttentionKernel:
    """attend_rows and attention_full against the per-head oracle: stacked
    head blocks (nq == 1) and one head at a time (nq > 1), from a few keys
    to more than a decode cache holds."""

    KEY_COUNTS = (12, 64, 700, 1280, 2100)

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
        dh = 8
        q = rng.normal((n_heads, nq, dh))
        for n_rows in self.KEY_COUNTS:
            # cache-style views: the live prefix of a larger buffer
            keys = rng.normal((n_kv, 2 * n_rows, dh))[:, :n_rows, :]
            values = rng.normal((n_kv, 2 * n_rows, dh))[:, :n_rows, :]
            for name, visible in self.masks(nq, n_rows, rng).items():
                got = attend_rows(q, keys, values, 64, visible=visible)
                want = per_head_attention(q, keys, values, 64, visible)
                assert np.array_equal(got, want), (n_rows, name)

    @pytest.mark.parametrize("length", [1, 16, 128, 200])
    def test_full_attention_is_causal_attend_rows(self, length):
        rng = Rng(200 + length)
        q = rng.normal((8, length, 8))
        k = rng.normal((2, length, 8))
        v = rng.normal((2, length, 8))
        causal = np.tri(length, dtype=bool)
        assert np.array_equal(attention_full(q, k, v, 64),
                              per_head_attention(q, k, v, 64, causal))

    @pytest.mark.parametrize("nq,n_rows", [(1, 12), (3, 700), (86, 2100)])
    def test_fully_masked_row_raises(self, nq, n_rows):
        rng = Rng(300 + nq)
        visible = np.ones((nq, n_rows), dtype=bool)
        visible[nq - 1] = False
        with pytest.raises(ValueError, match="empty support"):
            attend_rows(rng.normal((8, nq, 8)), rng.normal((2, n_rows, 8)),
                        rng.normal((2, n_rows, 8)), 64, visible=visible)


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

    def test_zero_layers_is_identity(self):
        model = TeacherModel(small_config(n_layers=0))
        x0 = Rng(8).normal((5, 16))
        trace = model.forward(x0=x0)
        assert trace.layers == []
        assert np.array_equal(trace.output, x0)

    def test_requires_exactly_one_input(self):
        model = TeacherModel(small_config())
        with pytest.raises(ValueError):
            model.forward()
        with pytest.raises(ValueError):
            model.forward(tokens=[1, 2], x0=np.zeros((2, 16)))

    def test_token_and_x0_paths_agree(self):
        model = TeacherModel(small_config())
        tokens = [3, 1, 4, 1, 5]
        via_tokens = model.forward(tokens=tokens)
        via_x0 = model.forward(x0=model.embed(tokens))
        assert np.array_equal(via_tokens.output, via_x0.output)

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
        assert np.abs(lt.o_concat - ref).max() < 1e-10

    def test_trace_shapes(self):
        cfg = small_config()
        model = TeacherModel(cfg)
        trace = model.forward(x0=Rng(11).normal((9, 16)))
        lt = trace.layers[0]
        assert lt.q_pre.shape == (4, 9, 4)
        assert lt.k.shape == (2, 9, 4)
        assert lt.o_concat.shape == (9, 16)
        assert np.array_equal(trace.layers[1].x_in, lt.x_out)

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
            step = model.forward_step(x0[t], cache, position=t)
            outputs.append(step.output)
        got = np.stack(outputs)
        assert np.abs(got - full.output).max() < 1e-9

    def test_step_trace_rows_match_full_trace(self):
        cfg = small_config()
        model = TeacherModel(cfg)
        x0 = Rng(13).normal((8, 16))
        full = model.forward(x0=x0)
        cache = KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head, sink_count=0)
        for t in range(8):
            step = model.forward_step(x0[t], cache, position=t)
        # after the loop the cache holds exactly the full-trace keys
        for li, lt in enumerate(full.layers):
            assert np.abs(cache.keys(li) - lt.k).max() < 1e-9
            assert np.abs(cache.values(li) - lt.v).max() < 1e-9
        assert np.abs(step.o_concat[0] - full.layers[0].o_concat[7]).max() < 1e-9


class TestPooledImportance:
    def test_trailing_keys_have_empty_support(self):
        rng = Rng(14)
        q = rng.normal((2, 6, 4))
        k = rng.normal((1, 6, 4))
        imp = pooled_teacher_importance(q, k, scale_dim=8, q_set=np.array([2, 3]))
        assert np.all(np.isneginf(imp[4:]))
        assert np.all(np.isfinite(imp[:4]))

    def test_matches_bruteforce_max(self):
        rng = Rng(15)
        q = rng.normal((4, 10, 4))
        k = rng.normal((2, 10, 4))
        imp = pooled_teacher_importance(q, k, scale_dim=16)
        for t in range(10):
            best = -np.inf
            for h in range(4):
                g = h * 2 // 4
                for s in range(t, 10):
                    best = max(best, float(q[h, s] @ k[g, t]) / math.sqrt(16))
            assert imp[t] == pytest.approx(best, abs=1e-12)
