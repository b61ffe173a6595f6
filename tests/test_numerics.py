import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kvgate.numerics import (
    NORM_EPS,
    DivergenceError,
    Rng,
    kl_divergence,
    log_softmax,
    masked_softmax_rows,
    rmsnorm,
    sigmoid,
    topk_indices,
)

# Frozen oracle values, computed from the closed forms (not from the module):
#   softmax([1000, 1001]) = [e^-1, 1] / (1 + e^-1)
#   rmsnorm([3, 4])       = [3, 4] / sqrt(12.5 + 1e-6)
#   KL([0,0] || [0,ln3])  = 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
SOFTMAX_1000_1001 = (0.2689414213699951, 0.7310585786300049)
RMSNORM_3_4 = (0.8485281034827336, 1.1313708046436448)
KL_HALF_VS_QUARTER = 0.14384103622589042


class TestSoftmax:
    def test_large_logits_match_closed_form(self):
        out = masked_softmax_rows(np.array([1000.0, 1001.0]))
        assert out == pytest.approx(SOFTMAX_1000_1001, abs=1e-15)

    def test_masked_entries_are_exact_zeros(self):
        out = masked_softmax_rows(np.array([0.0, -np.inf, 1.0, -np.inf]))
        assert out[1] == 0.0 and out[3] == 0.0
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="empty support"):
            masked_softmax_rows(np.array([-np.inf, -np.inf]))

    def test_shift_invariance(self):
        rng = Rng(101)
        for _ in range(200):
            x = rng.normal((16,)) * 10.0
            c = rng.normal((1,))[0] * 100.0
            a = masked_softmax_rows(x)
            b = masked_softmax_rows(x + c)
            assert np.abs(a - b).max() < 1e-12

    def test_sums_to_one(self):
        rng = Rng(102)
        for _ in range(200):
            x = rng.normal((32,)) * 50.0
            assert abs(masked_softmax_rows(x).sum() - 1.0) < 1e-12

    def test_rejects_nan_and_posinf(self):
        with pytest.raises(DivergenceError):
            masked_softmax_rows(np.array([0.0, np.nan]))
        with pytest.raises(DivergenceError):
            masked_softmax_rows(np.array([0.0, np.inf]))

    def test_row_softmax_matches_vector_softmax(self):
        rng = Rng(103)
        mat = rng.normal((5, 9))
        mat[2, 4] = -np.inf
        rows = masked_softmax_rows(mat)
        for i in range(5):
            e = np.exp(mat[i] - mat[i].max())
            assert np.allclose(rows[i], e / e.sum(), atol=1e-15)

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
            x = rng.normal((24,)) * (1.0 + rng.uniform((1,))[0] * 9.0)
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


def mean_rmsnorm(x):
    """rmsnorm through np.mean, the formula rmsnorm must match bit for bit."""
    a = np.asarray(x, dtype=np.float64)
    return a / np.sqrt(np.mean(a * a, axis=-1, keepdims=True) + NORM_EPS)


def max_softmax_rows(logits):
    """masked_softmax_rows through np.max, bit for bit the kernel's formula."""
    m = np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def logistic(x):
    """1 / (1 + exp(-v)) per value through the C library's ``math.exp``,
    the bits ``numerics.sigmoid`` must give; an overflowing exp gives 0.

    ``math.exp`` leaves the processor's overflow flag set when it raises,
    which numpy would report as a warning after the loop.
    """
    def one(v):
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            return 0.0
    with np.errstate(over="ignore"):
        return np.vectorize(one, otypes=[float])(x)


SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40)
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def masked_logits(draw):
    """Finite logits with some entries -inf, each row keeping a finite one."""
    shape = draw(SHAPES)
    logits = draw(hnp.arrays(np.float64, shape, elements=FINITE))
    masked = draw(hnp.arrays(np.bool_, shape))
    keep = draw(hnp.arrays(np.int64, shape[:-1],
                           elements=st.integers(0, shape[-1] - 1)))
    np.put_along_axis(masked, keep[..., None], False, axis=-1)
    logits[masked] = -np.inf
    return logits


class TestReductionsKeepTheirBytes:
    """The wrapper-free reductions run the same arithmetic as np.mean and
    np.max, so every output bit must match."""

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, SHAPES, elements=FINITE))
    def test_rmsnorm_is_the_mean_formula(self, x):
        assert np.array_equal(rmsnorm(x), mean_rmsnorm(x))

    @settings(max_examples=200, deadline=None)
    @given(logits=masked_logits())
    def test_softmax_rows_is_the_max_formula(self, logits):
        assert np.array_equal(masked_softmax_rows(logits),
                              max_softmax_rows(logits))

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, SHAPES,
                        elements=st.floats(-709, 709, allow_nan=False)))
    def test_sigmoid_is_the_scalar_formula(self, x):
        assert np.array_equal(sigmoid(x), logistic(x))


class TestSigmoid:
    @pytest.mark.parametrize("x, want", [(0.0, 0.5), (-0.0, 0.5),
                                         (np.inf, 1.0), (-np.inf, 0.0),
                                         (np.nan, np.nan)])
    def test_fixed_values(self, x, want):
        assert np.array_equal(sigmoid(np.float64(x)), want, equal_nan=True)

    def test_overflow_is_exactly_zero_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-800.0, -1e300]))
        assert out.tolist() == [0.0, 0.0]
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3, 4)])
    def test_keeps_shape_as_float64(self, shape):
        out = sigmoid(np.linspace(-5.0, 5.0, int(np.prod(shape))).reshape(shape))
        assert np.shape(out) == shape
        assert out.dtype == np.float64

    def test_within_one_ulp_where_cexp_scales(self):
        # In (-709.79, -709] glibc's cexp scales its argument and rounds
        # twice; the results are subnormal-range values, at most 1 ulp off.
        x = np.linspace(-709.79, -709.0, 20001)[1:]
        want = logistic(x)
        assert np.all(np.abs(sigmoid(x) - want) <= np.spacing(want))


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
            n = 1 + int(rng.uniform((1,))[0] * 40)
            k = int(rng.uniform((1,))[0] * (n + 1))
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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Each would alias a seed inside the range: 2**64 + 5 drew seed 5's
        # stream, -1 drew seed 2**64 - 1's.
        with pytest.raises(ValueError, match="2\\*\\*64"):
            Rng(seed)

    @pytest.mark.parametrize("seed", [True, 5.0, np.int64(5)],
                             ids=["bool", "float", "int64"])
    def test_seed_that_is_not_an_int_rejected(self, seed):
        # True drew seed 1's stream; 5.0 drew seed 5's but could not split,
        # and np.int64(5).split overflowed.
        with pytest.raises(ValueError, match="must be an int"):
            Rng(seed)

    def test_seeds_at_both_ends_keep_their_streams(self):
        # Frozen draws, recorded before out-of-range seeds were refused.
        assert Rng(5).uniform((3,)).tolist() == [
            0.386768045983934, 0.7523070158382239, 0.2327091656774618]
        top = Rng(2**64 - 1)
        assert top.uniform((3,)).tolist() == [
            0.8939429202831845, 0.9125972035944532, 0.21948196289526756]
        assert top.split(7).uniform((2,)).tolist() == [
            0.3292713902976405, 0.5118690212535497]
