import numpy as np
import pytest

from kvgate.memory import (
    MEM_EPS,
    MemorySlowWeights,
    MemoryState,
    default_d_mem,
    fuse,
    gate,
    mem_read,
    mem_write,
    phi,
    tokens_from_evicted,
)
from kvgate.numerics import Rng


def one_hot_slow(d: int) -> MemorySlowWeights:
    """Identity feature map, neutral gate: phi(x) = x."""
    return MemorySlowWeights(w_phi=np.eye(d), w_gate=np.zeros(d), gate_bias=0.0)


class TestSlowWeights:
    def test_default_dim(self):
        assert default_d_mem(64) == 8
        assert default_d_mem(4) == 1

    def test_init_shapes_and_determinism(self):
        a = MemorySlowWeights.init(32, Rng(1))
        b = MemorySlowWeights.init(32, Rng(1))
        assert a.w_phi.shape == (32, 4)
        assert a.w_gate.shape == (32,)
        assert a.gate_bias == 0.0
        assert np.array_equal(a.w_phi, b.w_phi)
        assert np.array_equal(a.w_gate, b.w_gate)

    def test_explicit_d_mem(self):
        assert MemorySlowWeights.init(32, Rng(2), d_mem=7).d_mem == 7

    def test_rejects_gate_width_mismatch(self):
        with pytest.raises(ValueError, match="w_gate width"):
            MemorySlowWeights(np.zeros((8, 2)), np.zeros(7), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            MemorySlowWeights(np.zeros((8, 2)), np.zeros(8), np.nan)


class TestState:
    def test_zeros(self):
        st = MemoryState.zeros(3, 12)
        assert st.m.shape == (3, 12) and st.b.shape == (3,)
        assert np.all(st.m == 0.0) and np.all(st.b == 0.0)

    def test_footprint_constant_in_tokens(self):
        # d_mem * (d_model + 1) floats no matter how much was written
        slow = MemorySlowWeights.init(16, Rng(3), d_mem=2)
        st = MemoryState.zeros(2, 16)
        before = st.nbytes()
        assert before == 2 * (16 + 1) * 8
        for i in range(5):
            st = mem_write(slow, st, Rng(4 + i).normal((40, 16)),
                           Rng(9 + i).normal((40, 16)))
        assert st.nbytes() == before

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            MemoryState(np.zeros((3, 4)), np.zeros(2))


class TestRead:
    def test_empty_memory_reads_zero(self):
        slow = MemorySlowWeights.init(16, Rng(5))
        st = MemoryState.zeros(slow.d_mem, 16)
        assert np.all(mem_read(slow, st, Rng(6).normal((1, 16))) == 0.0)
        assert np.all(mem_read(slow, st, Rng(6).normal((4, 16))) == 0.0)

    def test_matches_direct_formula(self):
        slow = MemorySlowWeights.init(16, Rng(7), d_mem=3)
        st = mem_write(slow, MemoryState.zeros(3, 16),
                       Rng(8).normal((6, 16)), Rng(9).normal((6, 16)),
                       lam=0.9)
        q = Rng(10).normal((1, 16))
        f = q[0] @ slow.w_phi
        want = (f @ st.m) / (f ** 2 @ st.b + MEM_EPS)
        assert np.max(np.abs(mem_read(slow, st, q) - want)) < 1e-12

    def test_one_hot_closed_form(self):
        # a single write with phi(k) = e_0 and v = [3, 4] reads back v/(1+eps)
        slow = one_hot_slow(2)
        st = mem_write(slow, MemoryState.zeros(2, 2),
                       np.array([[1.0, 0.0]]), np.array([[3.0, 4.0]]),
                       lam=1.0)
        got = mem_read(slow, st, np.array([[1.0, 0.0]]))[0]
        want = np.array([3.0, 4.0]) / (1.0 + MEM_EPS)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_batch_rows_match_vector_reads(self):
        slow = MemorySlowWeights.init(12, Rng(11), d_mem=2)
        st = mem_write(slow, MemoryState.zeros(2, 12),
                       Rng(12).normal((5, 12)), Rng(13).normal((5, 12)))
        rows = Rng(14).normal((4, 12))
        batch = mem_read(slow, st, rows)
        for i in range(4):
            assert np.allclose(batch[i], mem_read(slow, st, rows[i:i + 1])[0],
                               atol=1e-14)


class TestWrite:
    def test_linearity_under_no_decay(self):
        slow = MemorySlowWeights.init(10, Rng(15), d_mem=3)
        keys = Rng(16).normal((2, 10))
        vals = Rng(17).normal((2, 10))
        st0 = MemoryState.zeros(3, 10)
        batched = mem_write(slow, st0, keys, vals, lam=1.0)
        seq = mem_write(slow, st0, keys[:1], vals[:1], lam=1.0)
        seq = mem_write(slow, seq, keys[1:], vals[1:], lam=1.0)
        assert np.allclose(batched.m, seq.m, atol=1e-14)
        assert np.allclose(batched.b, seq.b, atol=1e-14)

    def test_empty_write_is_pure_decay(self):
        slow = MemorySlowWeights.init(10, Rng(18), d_mem=2)
        st = mem_write(slow, MemoryState.zeros(2, 10),
                       Rng(19).normal((3, 10)), Rng(20).normal((3, 10)))
        decayed = mem_write(slow, st, np.zeros((0, 10)), np.zeros((0, 10)),
                            lam=0.5)
        assert np.array_equal(decayed.m, 0.5 * st.m)
        assert np.array_equal(decayed.b, 0.5 * st.b)

    def test_decay_sequence_matches_weighted_sum(self):
        # k writes with decay equal the closed-form sum of aged outer products
        slow = MemorySlowWeights.init(8, Rng(21), d_mem=2)
        lam = 0.9
        st = MemoryState.zeros(2, 8)
        events = [(Rng(30 + i).normal((3, 8)), Rng(40 + i).normal((3, 8)))
                  for i in range(4)]
        for keys, vals in events:
            st = mem_write(slow, st, keys, vals, lam=lam)
        m_ref = np.zeros((2, 8))
        b_ref = np.zeros(2)
        for age, (keys, vals) in enumerate(reversed(events)):
            f = phi(slow, keys)
            m_ref += lam ** age * (f.T @ vals)
            b_ref += lam ** age * (f ** 2).sum(axis=0)
        assert np.max(np.abs(st.m - m_ref)) < 1e-10
        assert np.max(np.abs(st.b - b_ref)) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_rejects_bad_rates(self, lam):
        slow = MemorySlowWeights.init(4, Rng(22), d_mem=1)
        with pytest.raises(ValueError):
            mem_write(slow, MemoryState.zeros(1, 4), np.zeros((1, 4)),
                      np.zeros((1, 4)), lam=lam)

    def test_rejects_mismatched_rows(self):
        slow = MemorySlowWeights.init(4, Rng(23), d_mem=1)
        with pytest.raises(ValueError, match="matching"):
            mem_write(slow, MemoryState.zeros(1, 4), np.zeros((2, 4)),
                      np.zeros((3, 4)))


class TestGateAndFuse:
    def test_neutral_gate_is_half(self):
        slow = MemorySlowWeights(np.eye(4), np.zeros(4), 0.0)
        assert np.all(gate(slow, Rng(24).normal((3, 4))) == 0.5)

    def test_closed_gate_limit(self):
        slow = MemorySlowWeights(np.eye(4), np.zeros(4), -40.0)
        assert np.all(gate(slow, Rng(25).normal((3, 4))) < 1e-15)

    def test_gate_bounded(self):
        slow = MemorySlowWeights.init(8, Rng(26))
        g = gate(slow, Rng(27).normal((50, 8)) * 10.0)
        assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_fuse_with_empty_memory_is_identity(self):
        slow = MemorySlowWeights.init(8, Rng(28))
        st = MemoryState.zeros(slow.d_mem, 8)
        o = Rng(29).normal((2, 8))
        assert np.array_equal(fuse(slow, st, o, Rng(30).normal((2, 8))), o)

    def test_orthogonal_write_readback_residual(self):
        # orthogonal one-hot features: reading with token j's feature returns
        # v_j/(1+eps) on top of the attention output
        d = 3
        slow = one_hot_slow(d)
        keys = np.eye(d)
        vals = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 5.0], [7.0, 1.0, 2.0]])
        st = mem_write(slow, MemoryState.zeros(d, d), keys, vals, lam=1.0)
        o = np.zeros((1, d))
        for j in range(d):
            got = fuse(slow, st, o, keys[j:j + 1])[0]
            want = 0.5 * vals[j] / (1.0 + MEM_EPS)   # neutral gate is 1/2
            assert np.max(np.abs(got - want)) < 1e-9

    def test_fuse_rows(self):
        slow = MemorySlowWeights.init(6, Rng(31), d_mem=2)
        st = mem_write(slow, MemoryState.zeros(2, 6),
                       Rng(32).normal((4, 6)), Rng(33).normal((4, 6)))
        o = Rng(34).normal((3, 6))
        q = Rng(35).normal((3, 6))
        rows = fuse(slow, st, o, q)
        for i in range(3):
            assert np.allclose(rows[i], fuse(slow, st, o[i:i + 1], q[i:i + 1])[0],
                               atol=1e-14)


class TestTokensFromEvicted:
    def test_concat_layout(self):
        # 2 kv heads, 4 query heads: each kv head occupies two d_head slots
        keys = Rng(36).normal((2, 3, 4))
        vals = Rng(37).normal((2, 3, 4))
        k_tok, v_tok = tokens_from_evicted(keys, vals, n_heads=4)
        assert k_tok.shape == (3, 16)
        for t in range(3):
            want = np.concatenate([keys[0, t], keys[0, t], keys[1, t], keys[1, t]])
            assert np.array_equal(k_tok[t], want)
            wantv = np.concatenate([vals[0, t], vals[0, t], vals[1, t], vals[1, t]])
            assert np.array_equal(v_tok[t], wantv)

    def test_zero_tokens(self):
        k_tok, v_tok = tokens_from_evicted(np.zeros((2, 0, 4)),
                                           np.zeros((2, 0, 4)), n_heads=4)
        assert k_tok.shape == (0, 16) and v_tok.shape == (0, 16)

    def test_rejects_uneven_groups(self):
        with pytest.raises(ValueError, match="multiple"):
            tokens_from_evicted(np.zeros((3, 1, 4)), np.zeros((3, 1, 4)),
                                n_heads=4)
