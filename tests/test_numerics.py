import math

import numpy as np
import pytest

from kvgate.numerics import (
    DivergenceError,
    Rng,
    kl_divergence,
    log_softmax,
    masked_softmax_rows,
    normalized_entropy,
    rmsnorm,
    score_to_prob,
    softmax_stable,
    topk_indices,
)

# Frozen oracle values, computed from the closed forms (not from the module):
#   softmax([1000, 1001]) = [e^-1, 1] / (1 + e^-1)
#   rmsnorm([3, 4])       = [3, 4] / sqrt(12.5 + 1e-6)
#   KL([0,0] || [0,ln3])  = 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
#   Hn([0.75, 0.25])      = -(0.75 ln 0.75 + 0.25 ln 0.25) / ln 2
SOFTMAX_1000_1001 = (0.2689414213699951, 0.7310585786300049)
RMSNORM_3_4 = (0.8485281034827336, 1.1313708046436448)
KL_HALF_VS_QUARTER = 0.14384103622589042
ENTROPY_75_25 = 0.8112781244591328


class TestSoftmax:
    def test_large_logits_match_closed_form(self):
        out = softmax_stable([1000.0, 1001.0])
        assert out == pytest.approx(SOFTMAX_1000_1001, abs=1e-15)

    def test_masked_entries_are_exact_zeros(self):
        out = softmax_stable([0.0, -np.inf, 1.0, -np.inf])
        assert out[1] == 0.0 and out[3] == 0.0
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="empty support"):
            softmax_stable([-np.inf, -np.inf])

    def test_shift_invariance(self):
        rng = Rng(101)
        for _ in range(200):
            x = rng.normal((16,)) * 10.0
            c = rng.normal() * 100.0
            a = softmax_stable(x)
            b = softmax_stable(x + c)
            assert np.abs(a - b).max() < 1e-12

    def test_sums_to_one(self):
        rng = Rng(102)
        for _ in range(200):
            x = rng.normal((32,)) * 50.0
            assert abs(softmax_stable(x).sum() - 1.0) < 1e-12

    def test_rejects_nan_and_posinf(self):
        with pytest.raises(ValueError):
            softmax_stable([0.0, np.nan])
        with pytest.raises(ValueError):
            softmax_stable([0.0, np.inf])

    def test_row_softmax_matches_vector_softmax(self):
        rng = Rng(103)
        mat = rng.normal((5, 9))
        mat[2, 4] = -np.inf
        rows = masked_softmax_rows(mat)
        for i in range(5):
            assert np.allclose(rows[i], softmax_stable(mat[i]), atol=1e-15)

    def test_row_softmax_tells_non_finite_from_empty(self):
        masked = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        with pytest.raises(ValueError, match="empty support"):
            masked_softmax_rows(masked)
        for bad in (np.nan, np.inf):
            mat = np.array([[0.0, 1.0], [bad, -np.inf]])
            with pytest.raises(DivergenceError, match="non-finite"):
                masked_softmax_rows(mat)
            # a non-finite row outranks a fully masked one
            with pytest.raises(DivergenceError):
                masked_softmax_rows(np.vstack([masked, mat]))


class TestRmsnorm:
    def test_three_four(self):
        assert rmsnorm([3.0, 4.0]) == pytest.approx(RMSNORM_3_4, abs=1e-15)

    def test_constant_vector(self):
        out = rmsnorm([2.0, 2.0, 2.0, 2.0])
        assert out == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-6)

    def test_output_rms_is_one(self):
        rng = Rng(104)
        for _ in range(100):
            # keep inputs well away from zero so the 1e-6 stabilizer is negligible
            x = rng.normal((24,)) * (1.0 + rng.uniform() * 9.0)
            y = rmsnorm(x)
            assert math.isclose(np.sqrt(np.mean(y * y)), 1.0, abs_tol=1e-6)

    def test_zero_vector_stays_finite(self):
        assert np.all(rmsnorm(np.zeros(8)) == 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rmsnorm(np.zeros(0))

    def test_rowwise_matches_per_row(self):
        rng = Rng(105)
        mat = rng.normal((6, 10))
        out = rmsnorm(mat)
        for i in range(6):
            assert np.allclose(out[i], rmsnorm(mat[i]), atol=1e-15)


class TestTopK:
    def test_basic(self):
        assert topk_indices([1.0, 5.0, 3.0, 5.0], 2).tolist() == [1, 3]

    def test_tie_takes_lower_index(self):
        assert topk_indices([2.0, 2.0, 2.0], 2).tolist() == [0, 1]

    def test_k_zero_and_k_full(self):
        s = [0.3, -1.0, 9.0]
        assert topk_indices(s, 0).tolist() == []
        assert topk_indices(s, 3).tolist() == [0, 1, 2]

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError):
            topk_indices([1.0], 2)

    def test_matches_sort_reference(self):
        rng = Rng(106)
        for _ in range(200):
            n = 1 + int(rng.uniform() * 40)
            k = int(rng.uniform() * (n + 1))
            s = np.round(rng.normal((n,)) * 3.0, 1)  # coarse values force ties
            got = topk_indices(s, k)
            # reference: sort by (-score, index) and take the first k
            ref = sorted(sorted(range(n), key=lambda i: (-s[i], i))[:k])
            assert got.tolist() == ref

    def test_selected_scores_dominate_rest(self):
        rng = Rng(107)
        s = rng.normal((30,))
        idx = topk_indices(s, 10)
        rest = np.setdiff1d(np.arange(30), idx)
        assert s[idx].min() >= s[rest].max()


class TestKl:
    def test_identical_logits_give_zero(self):
        rng = Rng(108)
        for _ in range(50):
            x = rng.normal((12,))
            assert kl_divergence(x, x) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_pair(self):
        got = kl_divergence([0.0, 0.0], [0.0, math.log(3.0)])
        assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)

    def test_nonnegative(self):
        rng = Rng(109)
        for _ in range(1000):
            t = rng.normal((8,)) * 4.0
            s = rng.normal((8,)) * 4.0
            assert kl_divergence(t, s) >= -1e-12

    def test_masks_must_match(self):
        t = np.array([0.0, -np.inf, 1.0])
        s = np.array([0.0, 1.0, -np.inf])
        with pytest.raises(ValueError, match="mask"):
            kl_divergence(t, s)

    def test_shared_mask_ignores_masked_slots(self):
        t = np.array([0.3, -np.inf, 1.0, -np.inf])
        s = np.array([0.1, -np.inf, 0.2, -np.inf])
        got = kl_divergence(t, s)
        ref = kl_divergence([0.3, 1.0], [0.1, 0.2])
        assert got == pytest.approx(ref, abs=1e-14)

    def test_log_softmax_normalizes(self):
        rng = Rng(110)
        x = rng.normal((20,)) * 30.0
        assert abs(np.exp(log_softmax(x)).sum() - 1.0) < 1e-12


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        for n in (2, 5, 64):
            assert normalized_entropy(np.full(n, 1.0 / n)) == pytest.approx(1.0, abs=1e-9)

    def test_one_hot_is_zero(self):
        p = np.zeros(16)
        p[3] = 1.0
        assert normalized_entropy(p) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_two_point_value(self):
        assert normalized_entropy([0.75, 0.25]) == pytest.approx(ENTROPY_75_25, abs=1e-9)

    def test_uniform_maximizes(self):
        rng = Rng(111)
        for _ in range(300):
            n = 2 + int(rng.uniform() * 30)
            p = rng.uniform((n,)) + 1e-3
            p = p / p.sum()
            assert normalized_entropy(p) <= 1.0 + 1e-9

    def test_single_outcome_raises(self):
        with pytest.raises(ValueError):
            normalized_entropy([1.0])


class TestScoreToProb:
    def test_negonly_shifts_negative_minimum(self):
        out = score_to_prob([-1.0, 0.0, 1.0], mode="negonly")
        assert out == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0], abs=1e-15)

    def test_negonly_nonnegative_input_is_plain_l1(self):
        rng = Rng(112)
        for _ in range(100):
            s = np.abs(rng.normal((10,)))
            out = score_to_prob(s, mode="negonly")
            assert np.array_equal(out, s / s.sum())

    def test_negonly_all_equal_is_uniform(self):
        for v in (0.0, -2.5):
            out = score_to_prob(np.full(4, v), mode="negonly")
            assert out.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_softmax_temperature(self):
        s = np.array([0.0, 1.0])
        hot = score_to_prob(s, mode="softmax", temperature=10.0)
        cold = score_to_prob(s, mode="softmax", temperature=0.1)
        assert hot[1] < cold[1]
        with pytest.raises(ValueError):
            score_to_prob(s, mode="softmax", temperature=0.0)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            score_to_prob([1.0], mode="meanshift")


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).normal((100,))
        b = Rng(7).normal((100,))
        assert np.array_equal(a, b)

    def test_counter_resume(self):
        whole = Rng(9).uniform((40,))
        r = Rng(9)
        first = r.uniform((13,))
        rest = r.uniform((27,))
        assert np.array_equal(whole, np.concatenate([first, rest]))

    def test_split_streams_differ_and_are_stable(self):
        root = Rng(3)
        a = root.split(0).uniform((50,))
        b = root.split(1).uniform((50,))
        a2 = Rng(3).split(0).uniform((50,))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, a2)

    def test_uniform_range_and_moments(self):
        u = Rng(11).uniform((20000,))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        z = Rng(12).normal((20000,))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_integers_in_range(self):
        v = Rng(13).integers(-3, 5, 1000)
        assert v.min() >= -3 and v.max() <= 4

    def test_choice_distinct_sorted(self):
        got = Rng(14).choice(20, 8)
        assert len(set(got.tolist())) == 8
        assert np.all(np.diff(got) > 0)
