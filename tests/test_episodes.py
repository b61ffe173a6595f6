import math

import numpy as np
import pytest

import kvgate.episodes as episodes_module
from kvgate.cache import CompressionPlan
from kvgate.episodes import (
    EpisodeStack,
    LayerEpisode,
    episode_loss,
    episode_loss_and_grads,
    memory_loss_and_grads,
    plain_mse,
    prefill_episodes,
    train_memory,
)
from kvgate.indexer import DivergenceError
from kvgate.memory import MEM_EPS, MemorySlowWeights, MemoryState, gate, mem_write
from kvgate.numerics import Rng
from kvgate.policies import aggregate_heads, score_knorm, select
from kvgate.teacher import (
    LayerTrace,
    TeacherConfig,
    TeacherModel,
    attend_rows,
    flatten_heads,
)

D = 16


def logistic(x):
    """1 / (1 + exp(-v)) per value through the C library's ``math.exp``:
    a bitwise oracle for ``numerics.sigmoid``."""
    return np.vectorize(lambda v: 1.0 / (1.0 + math.exp(-v)), otypes=[float])(x)


def distinct_sorted(rng, population, k):
    """k distinct indices from range(population), ascending."""
    return np.sort(np.argsort(rng.uniform((population,)), kind="stable")[:k])


def toy_teacher():
    cfg = TeacherConfig(n_layers=2, d_model=D, n_heads=4, n_kv_heads=2,
                        d_ffn=32, vocab_size=16, seed=5)
    return TeacherModel(cfg)


def knorm_scores(trace, upto):
    return [aggregate_heads(score_knorm(lt.k[:, :upto, :])) for lt in trace.layers]


def knorm_keeps(trace, plan, upto):
    return [select(plan, sc, np.arange(upto)) for sc in knorm_scores(trace, upto)]


def one_write_episode(seed=0, n_eval=9, n_write=3):
    r = Rng(700 + seed)
    return LayerEpisode(queries=r.split(0).normal((n_eval, D)),
                        targets=r.split(1).normal((n_eval, D)) * 0.3,
                        write_keys=r.split(2).normal((n_write, D)),
                        write_values=r.split(3).normal((n_write, D)))


def zero_write(n):
    return {"write_keys": np.zeros((n, D)), "write_values": np.zeros((n, D))}


class TestEpisodeTypes:
    def test_write_event_rejects_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            LayerEpisode(queries=np.zeros((2, D)), targets=np.zeros((2, D)),
                         write_keys=np.zeros((2, D)),
                         write_values=np.zeros((3, D)))
        with pytest.raises(ValueError, match="matching"):
            LayerEpisode(queries=np.zeros((2, D)), targets=np.zeros((2, D)),
                         write_keys=np.zeros(D), write_values=np.zeros(D))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            LayerEpisode(queries=np.zeros((2, D)), targets=np.zeros((3, D)),
                         **zero_write(0))


class TestPrefillEpisodes:
    def test_no_eviction_means_zero_targets(self):
        teacher = toy_teacher()
        trace = teacher.forward(x0=Rng(200).normal((24, D)))
        plan = CompressionPlan(ratio=0.0, sink_count=2, local_window=2)
        eps = prefill_episodes(trace, 16, knorm_keeps(trace, plan, 16))
        assert len(eps) == teacher.config.n_layers
        for ep in eps:
            assert np.all(ep.targets == 0.0)
            assert ep.write_keys.shape == ep.write_values.shape == (0, D)

    def test_eviction_produces_targets_and_writes(self):
        teacher = toy_teacher()
        trace = teacher.forward(x0=Rng(201).normal((24, D)))
        plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=2)
        eps = prefill_episodes(trace, 16, knorm_keeps(trace, plan, 16))
        for li, ep in enumerate(eps):
            assert ep.n_eval == 8
            assert np.any(ep.targets != 0.0)
            assert ep.write_keys.shape == ep.write_values.shape == (6, D)
            assert np.array_equal(ep.queries,
                                  flatten_heads(trace.layers[li].q_pre)[16:])

    def test_targets_match_manual_attention_difference(self, monkeypatch):
        teacher = toy_teacher()
        trace = teacher.forward(x0=Rng(202).normal((20, D)))
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        eps = prefill_episodes(trace, 12, knorm_keeps(trace, plan, 12))
        lt = trace.layers[0]
        keep = select(plan, knorm_scores(trace, 12)[0], np.arange(12))
        t = 15   # third eval row
        q_row = lt.q[:, t:t + 1, :]
        full = np.zeros((1, 20), dtype=bool)
        full[0, :t + 1] = True
        o_full = attend_rows(q_row, lt.k, lt.v, visible=full)[0]
        kept = np.zeros((1, 20), dtype=bool)
        kept[0, keep] = True
        kept[0, 12:t + 1] = True
        o_kept = attend_rows(q_row, lt.k, lt.v, visible=kept)[0]
        assert np.allclose(eps[0].targets[3], o_full - o_kept, atol=1e-12)

        # Every row at once, masks built row by row: the full-cache mask
        # layer_episodes builds, and bit-identical targets.
        n_eval = 8
        full = np.zeros((n_eval, 20), dtype=bool)
        for i in range(n_eval):
            full[i, :12 + i + 1] = True
        masks = []
        logits_of = episodes_module.head_logits

        def recording_logits(q, k, visible):
            masks.append(visible)
            return logits_of(q, k, visible)

        monkeypatch.setattr(episodes_module, "head_logits", recording_logits)
        r = Rng(206)
        for trial in range(6):
            keeps = [distinct_sorted(r.split(10 * trial + li), 12, size)
                     for li, size in enumerate((trial, 12 - trial))]
            masks.clear()
            eps = prefill_episodes(trace, 12, keeps)
            assert len(masks) == len(trace.layers)
            assert all(np.array_equal(mask, full) for mask in masks)
            for li, lt in enumerate(trace.layers):
                kept = np.zeros((n_eval, 20), dtype=bool)
                kept[:, keeps[li]] = True
                for i in range(n_eval):
                    kept[i, 12:12 + i + 1] = True
                q_rows = lt.q[:, 12:, :]
                o_full = attend_rows(q_rows, lt.k, lt.v, visible=full)
                o_kept = attend_rows(q_rows, lt.k, lt.v, visible=kept)
                assert np.array_equal(eps[li].targets, o_full - o_kept)

    def test_full_keep_reuses_the_full_output(self, monkeypatch):
        # One head_logits pass per layer serves every keep set: n_heads
        # logit blocks per layer, however many keep sets there are, and a
        # keep-all set adds no softmax work.
        teacher = toy_teacher()
        n_heads = teacher.config.n_heads
        trace = teacher.forward(x0=Rng(208).normal((20, D)))
        blocks, exps = [], []
        logits_of = episodes_module.head_logits
        exps_of = episodes_module.row_exps

        def counting_logits(*args, **kwargs):
            for item in logits_of(*args, **kwargs):
                blocks.append(1)
                yield item

        def counting_exps(logits):
            exps.append(logits.shape[0])
            return exps_of(logits)

        monkeypatch.setattr(episodes_module, "head_logits", counting_logits)
        monkeypatch.setattr(episodes_module, "row_exps", counting_exps)
        keeps = [np.arange(12), np.arange(12)[::-1]]
        eps = prefill_episodes(trace, 12, keeps)
        assert len(blocks) == 2 * n_heads
        assert exps == [8] * (2 * n_heads)
        for ep in eps:
            assert np.all(ep.targets == 0.0)
            assert ep.write_keys.shape == ep.write_values.shape == (0, D)
        blocks.clear()
        eps = list(episodes_module.layer_episodes(
            trace.layers[0], 12, [np.arange(12), np.arange(11),
                                  np.arange(1, 12), np.arange(12)[::-1]]))
        assert len(blocks) == n_heads
        assert [np.all(ep.targets == 0.0) for ep in eps] == [
            True, False, False, True]

    def test_shared_softmax_equals_masked_attention_bitwise(self, monkeypatch):
        # Random q/k/v with duplicated key rows, so logits tie, and keep sets
        # drawn at random or built to evict row argmaxes: every episode's
        # targets equal attend_rows under masks built row by row, and both
        # the reuse branch (argmax kept) and the recompute branch ran.
        recomputed = []
        exps_of = episodes_module.row_exps

        def counting_exps(logits):
            recomputed.append(logits.shape[0])
            return exps_of(logits)

        monkeypatch.setattr(episodes_module, "row_exps", counting_exps)
        n_heads, n_kv, dh, length, upto = 4, 2, 4, 20, 12
        n_eval = length - upto
        visible = np.tri(n_eval, length, upto, dtype=bool)
        prefix = np.arange(upto)
        cases = 0
        for seed in range(40):
            r = Rng(900 + seed)
            k = r.split(1).normal((n_kv, length, dh))
            dup = distinct_sorted(r.split(2), length, 6)
            k[:, dup[1::2]] = k[:, dup[0::2]]
            q = r.split(0).normal((n_heads, length, dh)) * 2.0
            v = r.split(3).normal((n_kv, length, dh))
            layer = LayerTrace(x_in=np.zeros((length, n_heads * dh)),
                               q_pre=q, q=q, k=k, v=v)
            q_rows = q[:, upto:, :]
            tops = set()
            for h in range(n_heads):
                w = q_rows[h] @ k[h * n_kv // n_heads].T
                tops.update(np.argmax(np.where(visible, w, -np.inf), axis=-1))
            tops = np.array(sorted(t for t in tops if t < upto))
            assert tops.size
            keeps = [distinct_sorted(r.split(10 + j), upto, size)
                     for j, size in enumerate((0, 2, 4, 6, 8, 10, 11))]
            keeps += [np.setdiff1d(prefix, tops),
                      np.setdiff1d(prefix, tops[: len(tops) // 2]),
                      np.setdiff1d(prefix, tops[:1]), tops, prefix]
            recomputed.clear()
            eps = list(episodes_module.layer_episodes(layer, upto, keeps))
            o_full = attend_rows(q_rows, k, v, visible=visible)
            for keep, ep in zip(keeps, eps):
                kept = np.zeros((n_eval, length), dtype=bool)
                for i in range(n_eval):
                    kept[i, keep] = True
                    kept[i, upto:upto + i + 1] = True
                o_kept = attend_rows(q_rows, k, v, visible=kept)
                assert np.array_equal(ep.targets, o_full - o_kept)
                cases += 1
            # One full-cache call per head, then only recomputed rows.
            assert recomputed[:1] == [n_eval]
            extra = sum(recomputed) - n_heads * n_eval
            evicting = sum(keep.size < upto for keep in keeps)
            assert 0 < extra < n_heads * n_eval * evicting
        assert cases == 40 * 12

    def test_rejects_bad_eval_start(self):
        teacher = toy_teacher()
        lt = teacher.forward(x0=Rng(203).normal((10, D))).layers[0]
        with pytest.raises(ValueError, match="split"):
            list(episodes_module.layer_episodes(lt, 10, [np.arange(10)]))

    def test_rejects_wrong_score_count(self):
        teacher = toy_teacher()
        trace = teacher.forward(x0=Rng(204).normal((10, D)))
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        with pytest.raises(ValueError, match="per layer"):
            prefill_episodes(trace, 6, knorm_keeps(trace, plan, 6)[:1])

    def test_rejects_keep_outside_prefix(self):
        teacher = toy_teacher()
        trace = teacher.forward(x0=Rng(205).normal((10, D)))
        keeps = [np.arange(6), np.array([0, 6])]
        with pytest.raises(ValueError, match="prefix"):
            prefill_episodes(trace, 6, keeps)


def copy_slow(slow):
    """An independent copy of a memory's slow weights."""
    return MemorySlowWeights(slow.w_phi.copy(), slow.w_gate.copy(),
                             slow.gate_bias)


def oracle_episode_loss_and_grads(slow, episode):
    """The single-episode kernel the stacked one replaced, kept as its oracle."""
    feat_k = episode.write_keys @ slow.w_phi
    st = MemoryState(m=feat_k.T @ episode.write_values,
                     b=(feat_k ** 2).sum(axis=0))
    queries, targets = episode.queries, episode.targets
    fq = queries @ slow.w_phi
    g = logistic(queries @ slow.w_gate + slow.gate_bias)

    inv_size = 1.0 / targets.size
    denom = (fq ** 2) @ st.b + MEM_EPS
    m = (fq @ st.m) / denom[:, None]
    resid = targets - g[:, None] * m
    loss = float(np.sum(resid ** 2)) / targets.size

    d_pred = -2.0 * inv_size * resid
    d_g = np.sum(d_pred * m, axis=1)
    d_m = d_pred * g[:, None]
    d_z = d_g * g * (1.0 - g)
    d_num = d_m / denom[:, None]
    d_denom = -np.sum(d_m * m, axis=1) / denom
    d_fq = d_num @ st.m.T + 2.0 * fq * st.b[None, :] * d_denom[:, None]

    # The write path: the state the write made, differentiated back to
    # the write rows' features.
    ds = fq.T @ d_num
    db = (fq ** 2).T @ d_denom
    d_fk = episode.write_values @ ds.T + 2.0 * feat_k * db[None, :]
    grad_phi = queries.T @ d_fq
    grad_phi += episode.write_keys.T @ d_fk
    grads = {"w_phi": grad_phi, "w_gate": queries.T @ d_z,
             "gate_bias": np.float64(d_z.sum())}
    return loss, grads


def oracle_memory_loss_and_grads(slow, episodes):
    """Batch mean over the oracle, one episode at a time."""
    weight = 1.0 / len(episodes)
    loss = 0.0
    grads = None
    for ep in episodes:
        l, g = oracle_episode_loss_and_grads(slow, ep)
        loss += weight * l
        if grads is None:
            grads = {k: weight * v for k, v in g.items()}
        else:
            for k in grads:
                grads[k] = grads[k] + weight * g[k]
    return loss, grads


def oracle_train_memory(slow, episodes, steps, lr=0.05):
    """train_memory's Adagrad loop over the oracle batch mean."""
    acc_phi = np.zeros_like(slow.w_phi)
    acc_gate = np.zeros_like(slow.w_gate)
    acc_bias = 0.0
    losses = []
    for _ in range(steps):
        loss, grads = oracle_memory_loss_and_grads(slow, episodes)
        acc_phi += grads["w_phi"] ** 2
        acc_gate += grads["w_gate"] ** 2
        acc_bias += float(grads["gate_bias"]) ** 2
        slow.w_phi -= lr * grads["w_phi"] / np.sqrt(acc_phi + 1e-12)
        slow.w_gate -= lr * grads["w_gate"] / np.sqrt(acc_gate + 1e-12)
        slow.gate_bias -= lr * float(grads["gate_bias"]) / np.sqrt(acc_bias + 1e-12)
        losses.append(loss)
    return losses


def pipeline_episodes():
    """One layer's episodes at the benchmark pipeline's shapes.

    README teacher width (d_model 64, 8/2 heads, d_mem 8), 8 sequences of
    128 tokens split at 85, knorm keeps at ratio 0.5: 43 eval
    rows and one 36-row write per episode.
    """
    cfg = TeacherConfig(n_layers=1, d_model=64, n_heads=8, n_kv_heads=2,
                        d_ffn=128, vocab_size=64, seed=7)
    teacher = TeacherModel(cfg)
    plan = CompressionPlan(ratio=0.5, sink_count=4, local_window=8)
    eps = []
    for s in range(8):
        x0 = teacher.embed(Rng(600).split(s).integers(0, 64, 128))
        trace = teacher.forward(x0=x0)
        eps += prefill_episodes(trace, 85, knorm_keeps(trace, plan, 85))
    return eps


def mixed_episodes():
    """One shape, mixed contents: ordinary episodes, one whose targets
    vanish, and one whose write rows are all zero, so its state stays
    empty."""
    eps = [one_write_episode(i, 6, 4) for i in range(5)]
    eps[1].targets[:] = 0.0
    eps[3] = LayerEpisode(queries=eps[3].queries, targets=eps[3].targets,
                          **zero_write(4))
    return eps


def assert_same_loss_and_grads(got, want):
    assert got[0] == want[0]
    assert set(got[1]) == set(want[1])
    for name, value in want[1].items():
        assert np.array_equal(got[1][name], value), name
        assert np.shape(got[1][name]) == np.shape(value)


def check_against_finite_differences(eps):
    """Batch gradients against central differences of the mean episode loss."""
    slow = MemorySlowWeights.init(D, Rng(302), d_mem=3)
    _, grads = memory_loss_and_grads(slow, EpisodeStack.of(eps))
    h = 1e-6

    def loss_now():
        return np.mean([episode_loss(slow, ep) for ep in eps])

    for name in ("w_phi", "w_gate"):
        flat = getattr(slow, name).reshape(-1)
        for c in Rng(303).integers(0, flat.size, 20):
            old = flat[c]
            flat[c] = old + h
            lp = loss_now()
            flat[c] = old - h
            lm = loss_now()
            flat[c] = old
            fd = (lp - lm) / (2 * h)
            an = grads[name].reshape(-1)[c]
            if max(abs(fd), abs(an)) > 1e-12:
                assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-4
    old = slow.gate_bias
    slow.gate_bias = old + h
    lp = loss_now()
    slow.gate_bias = old - h
    lm = loss_now()
    slow.gate_bias = old
    fd = (lp - lm) / (2 * h)
    an = float(grads["gate_bias"])
    assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-4


class TestLossAndGrads:
    def test_loss_matches_manual_replay(self):
        ep = one_write_episode()
        slow = MemorySlowWeights.init(D, Rng(300), d_mem=3)
        st = mem_write(slow, MemoryState.zeros(3, D), ep.write_keys,
                       ep.write_values)
        total = 0.0
        for i in range(ep.n_eval):
            f = ep.queries[i] @ slow.w_phi
            m = (f @ st.m) / (f ** 2 @ st.b + MEM_EPS)
            g = logistic(ep.queries[i] @ slow.w_gate + slow.gate_bias)
            total += np.sum((ep.targets[i] - g * m) ** 2)
        want = total / ep.targets.size
        got = episode_loss(slow, ep)
        assert got == pytest.approx(want, rel=1e-12)

    def test_grad_loss_equals_plain_loss(self):
        # episode_loss is memory.py's forward, so this ties the stacked
        # kernel's fused forward to mem_write, mem_read and gate bit for bit.
        no_rows = [one_write_episode(i, 5, 0) for i in range(2)]
        for eps, d_model, d_mem in ((mixed_episodes(), D, 3),
                                    (no_rows, D, 3),
                                    (pipeline_episodes(), 64, 8)):
            slow = MemorySlowWeights.init(d_model, Rng(301), d_mem=d_mem)
            losses, _ = episode_loss_and_grads(slow, EpisodeStack.of(eps))
            assert losses == [episode_loss(slow, ep) for ep in eps]

    def test_plain_loss_reads_and_writes_through_memory(self, monkeypatch):
        calls = {"mem_write": 0, "mem_read": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(episodes_module, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(episodes_module, name, counted)
        slow = MemorySlowWeights.init(D, Rng(305), d_mem=3)
        for ep in mixed_episodes():
            before = dict(calls)
            episode_loss(slow, ep)
            assert calls["mem_write"] - before["mem_write"] == 1
            assert calls["mem_read"] - before["mem_read"] == 1

    def test_finite_difference_check(self):
        check_against_finite_differences([one_write_episode()])

    def test_finite_difference_check_mixed_batch(self):
        check_against_finite_differences(mixed_episodes())

    def test_batch_is_mean_of_episodes(self):
        eps = [one_write_episode(0), one_write_episode(1)]
        slow = MemorySlowWeights.init(D, Rng(305), d_mem=3)
        (l0, l1), g = episode_loss_and_grads(slow, EpisodeStack.of(eps))
        lb, gb = memory_loss_and_grads(slow, EpisodeStack.of(eps))
        assert lb == pytest.approx(0.5 * (l0 + l1), rel=1e-12)
        assert np.allclose(gb["w_phi"], 0.5 * (g["w_phi"][0] + g["w_phi"][1]),
                           atol=1e-15)
        # A fresh stack of the same episodes gives the same bytes.
        assert_same_loss_and_grads(
            memory_loss_and_grads(slow, EpisodeStack.of(eps)), (lb, gb))

    def test_empty_batch_rejected(self):
        slow = MemorySlowWeights.init(D, Rng(306), d_mem=2)
        with pytest.raises(ValueError, match="episodes"):
            memory_loss_and_grads(slow, EpisodeStack.of([]))


class TestStackedKernel:
    """The stacked kernel against the single-episode oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def pipeline_eps(self):
        return pipeline_episodes()

    def test_pipeline_shapes(self, pipeline_eps):
        # One ratio evicts the same number of rows from every sequence, so
        # a layer's pipeline episodes stack as one shape.
        eps = pipeline_eps
        assert len(eps) == 8
        assert {(ep.n_eval, ep.write_keys.shape) for ep in eps} == {(43, (36, 64))}
        stack = EpisodeStack.of(eps)
        assert stack.queries.shape == stack.targets.shape == (8, 43, 64)
        assert stack.write_keys.shape == stack.write_values.shape == (8, 36, 64)

    @pytest.mark.parametrize("batch", ["pipeline", "one", "mixed"])
    def test_batch_matches_oracle(self, pipeline_eps, batch):
        if batch == "mixed":
            eps, d_model, d_mem = mixed_episodes(), D, 3
        else:
            eps, d_model, d_mem = pipeline_eps, 64, 8
            if batch == "one":
                eps = eps[3:4]
        slow = MemorySlowWeights.init(d_model, Rng(800), d_mem=d_mem)
        got = memory_loss_and_grads(slow, EpisodeStack.of(eps))
        want = oracle_memory_loss_and_grads(slow, eps)
        assert_same_loss_and_grads(got, want)

    def test_each_stacked_episode_matches_oracle(self):
        eps = mixed_episodes()
        slow = MemorySlowWeights.init(D, Rng(801), d_mem=3)
        losses, grads = episode_loss_and_grads(slow, EpisodeStack.of(eps))
        for i, ep in enumerate(eps):
            want_loss, want = oracle_episode_loss_and_grads(slow, ep)
            assert losses[i] == want_loss
            assert np.array_equal(grads["w_phi"][i], want["w_phi"])
            assert np.array_equal(grads["w_gate"][i], want["w_gate"])
            assert grads["gate_bias"][i] == want["gate_bias"]

    @pytest.mark.parametrize("batch", ["pipeline", "mixed"])
    def test_training_run_matches_oracle(self, pipeline_eps, batch):
        if batch == "mixed":
            eps, d_model, d_mem = mixed_episodes(), D, 3
        else:
            eps, d_model, d_mem = pipeline_eps, 64, 8
        slow = MemorySlowWeights.init(d_model, Rng(802), d_mem=d_mem)
        oracle = copy_slow(slow)
        losses = train_memory(slow, eps, steps=150)
        assert losses == oracle_train_memory(oracle, eps, steps=150)
        assert np.array_equal(slow.w_phi, oracle.w_phi)
        assert np.array_equal(slow.w_gate, oracle.w_gate)
        assert slow.gate_bias == oracle.gate_bias

    def test_one_kernel_call_per_step(self, monkeypatch):
        calls = []
        kernel = episodes_module.episode_loss_and_grads

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(episodes_module, "episode_loss_and_grads", counting)
        slow = MemorySlowWeights.init(D, Rng(803), d_mem=3)
        train_memory(slow, [one_write_episode(i) for i in range(4)], steps=10)
        assert len(calls) == 10

    def test_stack_rejects_mixed_shapes(self):
        for other in (one_write_episode(1, n_eval=8),
                      one_write_episode(1, n_write=4)):
            with pytest.raises(ValueError, match="share"):
                EpisodeStack.of([one_write_episode(0), other])
        with pytest.raises(ValueError, match="no episodes"):
            EpisodeStack.of([])


def kernel_bytes(result):
    """A kernel result as bytes: losses, then each gradient."""
    losses, grads = result
    return (np.array(losses).tobytes(), grads["w_phi"].tobytes(),
            grads["w_gate"].tobytes(), np.array(grads["gate_bias"]).tobytes())


class TestWorkArrays:
    """The kernel's reused work arrays never change what it returns."""

    def test_repeated_and_interleaved_calls_match_a_fresh_stack(self):
        nine = [one_write_episode(i) for i in range(3)]
        six = [one_write_episode(i, 6, 4) for i in range(2)]
        slow = MemorySlowWeights.init(D, Rng(804), d_mem=3)
        stacks = [EpisodeStack.of(nine), EpisodeStack.of(six)]
        want = [kernel_bytes(episode_loss_and_grads(slow, EpisodeStack.of(eps)))
                for eps in (nine, six)]
        for _ in range(3):
            for stack, first in zip(stacks, want):
                got = episode_loss_and_grads(slow, stack)
                assert kernel_bytes(got) == first
        for stack in stacks:
            assert [a.shape for a in stack._work] == [stack.queries.shape] * 3

    def test_work_arrays_are_made_once(self):
        stack = EpisodeStack.of([one_write_episode(i) for i in range(2)])
        slow = MemorySlowWeights.init(D, Rng(805), d_mem=3)
        episode_loss_and_grads(slow, stack)
        made = tuple(map(id, stack._work))
        episode_loss_and_grads(slow, stack)
        assert tuple(map(id, stack._work)) == made
        assert all(a.flags.c_contiguous for a in stack._work)

    def test_returned_results_survive_the_next_call(self):
        stack = EpisodeStack.of([one_write_episode(i) for i in range(2)])
        slow = MemorySlowWeights.init(D, Rng(806), d_mem=3)
        first = episode_loss_and_grads(slow, stack)
        kept = kernel_bytes(first)
        slow.w_phi *= 1.5
        slow.gate_bias += 0.25
        second = episode_loss_and_grads(slow, stack)
        assert kernel_bytes(first) == kept
        assert kernel_bytes(second) != kept
        for a in stack._work:
            for result in (first, second):
                assert not np.shares_memory(a, result[1]["w_phi"])
                assert not np.shares_memory(a, result[1]["w_gate"])


class TestTrainMemory:
    def test_loss_decreases(self):
        eps = [one_write_episode(i) for i in range(4)]
        slow = MemorySlowWeights.init(D, Rng(307), d_mem=3)
        losses = train_memory(slow, eps, steps=60)
        assert len(losses) == 60
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        eps = [one_write_episode(i) for i in range(2)]
        runs = []
        for _ in range(2):
            slow = MemorySlowWeights.init(D, Rng(308), d_mem=2)
            losses = train_memory(slow, eps, steps=25)
            runs.append((losses, slow))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1].w_phi, runs[1][1].w_phi)
        assert runs[0][1].gate_bias == runs[1][1].gate_bias

    def test_no_eviction_episodes_are_inert(self):
        # empty writes: the readout is zero, so nothing moves
        teacher = toy_teacher()
        trace = teacher.forward(x0=Rng(309).normal((20, D)))
        plan = CompressionPlan(ratio=0.0, sink_count=2, local_window=2)
        eps = prefill_episodes(trace, 12, knorm_keeps(trace, plan, 12))
        slow = MemorySlowWeights.init(D, Rng(310), d_mem=2)
        before = copy_slow(slow)
        losses = train_memory(slow, eps, steps=10)
        assert losses == [0.0] * 10
        assert np.array_equal(slow.w_phi, before.w_phi)
        assert np.array_equal(slow.w_gate, before.w_gate)

    def test_gate_drifts_shut_when_targets_vanish(self):
        # residual-free episodes with junk left in memory: opening the gate
        # only hurts, so its mean output should fall
        eps = []
        for i in range(6):
            r = Rng(400 + i)
            eps.append(LayerEpisode(
                queries=r.split(0).normal((10, D)),
                targets=np.zeros((10, D)),
                write_keys=r.split(1).normal((5, D)),
                write_values=r.split(2).normal((5, D))))
        slow = MemorySlowWeights.init(D, Rng(401), d_mem=4)
        g_before = np.mean([np.mean(gate(slow, e.queries)) for e in eps])
        train_memory(slow, eps, steps=200)
        g_after = np.mean([np.mean(gate(slow, e.queries)) for e in eps])
        assert g_after < g_before

    def test_divergence_guard(self):
        ep = one_write_episode()
        slow = MemorySlowWeights.init(D, Rng(402), d_mem=2)
        slow.w_phi[0, 0] = np.inf
        with pytest.raises(DivergenceError):
            train_memory(slow, [ep], steps=5)

    def test_rejects_empty_and_bad_lr(self):
        slow = MemorySlowWeights.init(D, Rng(403), d_mem=2)
        with pytest.raises(ValueError):
            train_memory(slow, [], steps=5)
        with pytest.raises(ValueError):
            train_memory(slow, [one_write_episode()], steps=5, lr=0.0)

    def test_rejects_mixed_shapes(self):
        # A batch is one stack: episodes that differ in rows or write size
        # are refused before any step, and the weights stay as they were.
        slow = MemorySlowWeights.init(D, Rng(404), d_mem=2)
        before = copy_slow(slow)
        for other in (one_write_episode(1, n_eval=8),
                      one_write_episode(1, n_write=0)):
            with pytest.raises(ValueError, match="share"):
                train_memory(slow, [one_write_episode(0), other], steps=5)
        assert np.array_equal(slow.w_phi, before.w_phi)
        assert np.array_equal(slow.w_gate, before.w_gate)
        assert slow.gate_bias == before.gate_bias

    def test_trained_beats_untrained_on_holdout(self):
        teacher = toy_teacher()
        plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=2)

        def eps_for(rng):
            trace = teacher.forward(x0=teacher.embed(rng.integers(0, 16, 24)))
            return prefill_episodes(trace, 16, knorm_keeps(trace, plan, 16))

        train = [ep for i in range(12) for ep in eps_for(Rng(500).split(i))]
        slow = MemorySlowWeights.init(D, Rng(501), d_mem=2)
        frozen = copy_slow(slow)
        train_memory(slow, train, steps=150)
        hold = [ep for s in range(6) for ep in eps_for(Rng(502).split(s))]
        before = np.mean([episode_loss(frozen, e) for e in hold])
        after = np.mean([episode_loss(slow, e) for e in hold])
        assert after < before
