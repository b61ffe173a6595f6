import numpy as np
import pytest

from kvgate.numerics import Rng
from kvgate.synth import (
    TAIL_WIDTH,
    beacon_direction,
    planted_sequence,
    retention_recall,
)
from kvgate.teacher import TeacherConfig, TeacherModel, pooled_teacher_importance

SINKS = 4
TAIL = TAIL_WIDTH


def retrieval_teacher(n_layers):
    cfg = TeacherConfig(n_layers=n_layers, d_model=64, n_heads=4, n_kv_heads=2,
                        d_ffn=128, seed=0)
    return TeacherModel(cfg)


def one_needle(teacher, length, stream, base_seed=1234):
    """A planted sequence with a single mid-context needle."""
    rng = Rng(base_seed).split(stream)
    needle = int(rng.split(99).integers(SINKS, length - TAIL, 1)[0])
    seq = planted_sequence(teacher, length, [needle], rng)
    return seq, needle


class TestConstruction:
    def test_deterministic(self):
        teacher = retrieval_teacher(2)
        a = planted_sequence(teacher, 48, [10, 20], Rng(7))
        b = planted_sequence(teacher, 48, [10, 20], Rng(7))
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.planted, b.planted)

    def test_no_needles_is_plain_noise(self):
        teacher = retrieval_teacher(2)
        seq = planted_sequence(teacher, 32, [], Rng(8))
        assert seq.planted.size == 0
        assert np.array_equal(seq.x0, Rng(8).normal((32, 64)))

    def test_duplicate_needles_collapse(self):
        teacher = retrieval_teacher(2)
        seq = planted_sequence(teacher, 48, [9, 9, 17], Rng(9))
        assert seq.planted.tolist() == [9, 17]

    @pytest.mark.parametrize("kw,msg", [
        (dict(length=8, needle_positions=[2]), "query tail"),
        (dict(length=32, needle_positions=[30]), "precede"),
        (dict(length=32, needle_positions=[-1]), "precede"),
    ])
    def test_rejects_bad_arguments(self, kw, msg):
        teacher = retrieval_teacher(2)
        with pytest.raises(ValueError, match=msg):
            planted_sequence(teacher, rng=Rng(10), **kw)

    def test_planted_rows_have_boosted_rms(self):
        teacher = retrieval_teacher(2)
        seq = planted_sequence(teacher, 48, [12], Rng(11))
        d = 64
        assert np.linalg.norm(seq.x0[12]) == pytest.approx(4.0 * np.sqrt(d))
        for pos in range(48 - TAIL, 48):
            assert np.linalg.norm(seq.x0[pos]) == pytest.approx(4.0 * np.sqrt(d))
        # ordinary rows keep unit rms on average
        body = np.delete(seq.x0, [12] + list(range(48 - TAIL, 48)), axis=0)
        assert np.sqrt(np.mean(body**2)) == pytest.approx(1.0, abs=0.05)

    def test_random_sequence_moments(self):
        teacher = retrieval_teacher(2)
        x = planted_sequence(teacher, 2000, [], Rng(12)).x0
        assert x.shape == (2000, 64)
        assert abs(x.mean()) < 0.01
        assert np.std(x) == pytest.approx(1.0, abs=0.01)


class TestBeacon:
    def test_unit_norm_and_seed_determinism(self):
        t1 = retrieval_teacher(2)
        t2 = retrieval_teacher(4)
        b1 = beacon_direction(t1)
        b2 = beacon_direction(t2)
        assert np.linalg.norm(b1) == pytest.approx(1.0)
        # same teacher seed and width -> same beacon, regardless of depth
        assert np.array_equal(b1, b2)

    def test_different_seed_different_beacon(self):
        t1 = retrieval_teacher(2)
        cfg = TeacherConfig(n_layers=2, d_model=64, n_heads=4, n_kv_heads=2,
                            d_ffn=128, seed=3)
        t3 = TeacherModel(cfg)
        assert abs(float(beacon_direction(t1) @ beacon_direction(t3))) < 0.5

    def test_needles_share_the_beacon_component(self):
        teacher = retrieval_teacher(2)
        beacon = beacon_direction(teacher)
        dots = []
        for stream in range(4):
            seq, needle = one_needle(teacher, 64, stream)
            row = seq.x0[needle] / np.linalg.norm(seq.x0[needle])
            dots.append(float(row @ beacon))
        # the beacon carries a consistent, same-sign share of every needle
        assert min(dots) > 0.1


class TestRecallMetric:
    def test_counts_retained_fraction(self):
        kept = np.array([3, 21, 40])
        planted = np.array([3, 7, 21])
        assert retention_recall(kept, planted) == pytest.approx(2 / 3)

    def test_empty_planted_is_perfect(self):
        assert retention_recall(np.array([1, 2]), np.array([], dtype=np.int64)) == 1.0


class TestTeacherSignal:
    def test_needle_is_argmax_in_shallow_teacher(self):
        # With two layers the alignment solve has slack to spare, so the
        # needle should dominate every non-forced row outright.
        teacher = retrieval_teacher(2)
        for stream in range(6):
            seq, needle = one_needle(teacher, 64, stream)
            for lt in teacher.forward(x0=seq.x0).layers:
                imp = pooled_teacher_importance(lt.q, lt.k)
                middle = np.r_[imp[SINKS:needle], imp[needle + 1:64 - TAIL]]
                assert imp[needle] > middle.max()

    def test_needle_beats_median_in_deep_teacher(self):
        teacher = retrieval_teacher(4)
        for stream in range(8):
            rng = Rng(555).split(stream)
            needle = int(rng.split(99).integers(SINKS, 96 - TAIL, 1)[0])
            seq = planted_sequence(teacher, 96, [needle], rng)
            for lt in teacher.forward(x0=seq.x0).layers:
                imp = pooled_teacher_importance(lt.q, lt.k)
                middle = np.r_[imp[SINKS:needle], imp[needle + 1:96 - TAIL]]
                assert imp[needle] > np.median(middle)

    def test_needle_key_norms_look_ordinary(self):
        # Norm-based eviction should gain nothing from the construction: on
        # average the needle's accumulated key norm sits mid-pack.
        teacher = retrieval_teacher(4)
        beaten = []
        for stream in range(8):
            rng = Rng(555).split(stream)
            needle = int(rng.split(99).integers(SINKS, 96 - TAIL, 1)[0])
            seq = planted_sequence(teacher, 96, [needle], rng)
            trace = teacher.forward(x0=seq.x0)
            for lt in trace.layers:
                norms = np.linalg.norm(lt.k, axis=2).sum(axis=0)
                middle = np.r_[norms[SINKS:needle], norms[needle + 1:96 - TAIL]]
                beaten.append(float((middle > norms[needle]).mean()))
        assert 0.2 < np.mean(beaten) < 0.85
