import numpy as np
import pytest

from kvgate.crosslayer import index_reuse_plan, scores_with_reuse


class TestReuse:
    def test_identity_at_group_one(self):
        assert index_reuse_plan(5, 1).tolist() == [0, 1, 2, 3, 4]

    def test_groups_of_four(self):
        assert index_reuse_plan(8, 4).tolist() == [0, 0, 0, 0, 4, 4, 4, 4]

    def test_sources_never_later(self):
        for n in (1, 3, 7, 12):
            for g in (1, 2, 4, 5):
                plan = index_reuse_plan(n, g)
                assert np.all(plan <= np.arange(n))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            index_reuse_plan(0, 4)
        with pytest.raises(ValueError):
            index_reuse_plan(4, 0)

    def test_reuse_counts_evaluations(self):
        calls = []

        def compute(layer):
            calls.append(layer)
            return np.full(3, float(layer))

        out = scores_with_reuse(10, 4, compute)
        assert calls == [0, 4, 8]
        assert len(calls) == int(np.ceil(10 / 4))
        assert out[1] is out[0] and out[7] is out[4]
        assert np.all(out[9] == 8.0)
