import numpy as np
import pytest
from scipy.special import expit

import kvgate.episodes as episodes_module
from kvgate.cache import CompressionPlan
from kvgate.episodes import (
    EpisodeBatch,
    EpisodeStack,
    FullRun,
    LayerEpisode,
    WriteEvent,
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
from kvgate.teacher import TeacherConfig, TeacherModel, attend_rows, flatten_heads

D = 16


def toy_teacher():
    cfg = TeacherConfig(n_layers=2, d_model=D, n_heads=4, n_kv_heads=2,
                        d_ffn=32, vocab_size=16, seed=5)
    return TeacherModel(cfg)


def knorm_scores(trace, upto):
    return [aggregate_heads(score_knorm(lt.k[:, :upto, :])) for lt in trace.layers]


def knorm_keeps(trace, plan, upto):
    return [select(plan, sc, np.arange(upto)) for sc in knorm_scores(trace, upto)]


def multi_write_episode(seed=0, n_eval=9):
    r = Rng(100 + seed)
    writes = [WriteEvent(r.split(2 * j).normal((3, D)),
                         r.split(2 * j + 1).normal((3, D)))
              for j in range(3)]
    return LayerEpisode(queries=r.split(50).normal((n_eval, D)),
                        targets=r.split(51).normal((n_eval, D)) * 0.3,
                        writes=writes,
                        reads_after=np.array([0, 1, 1, 2, 2, 2, 3, 3, 3]))


class TestEpisodeTypes:
    def test_write_event_rejects_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            WriteEvent(np.zeros((2, D)), np.zeros((3, D)))

    def test_reads_after_defaults_to_all_writes(self):
        ep = LayerEpisode(queries=np.zeros((4, D)), targets=np.zeros((4, D)),
                          writes=[WriteEvent(np.zeros((1, D)), np.zeros((1, D)))])
        assert ep.reads_after.tolist() == [1, 1, 1, 1]

    def test_rejects_bad_reads_after(self):
        with pytest.raises(ValueError, match="out of range"):
            LayerEpisode(queries=np.zeros((2, D)), targets=np.zeros((2, D)),
                         writes=[], reads_after=np.array([0, 1]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            LayerEpisode(queries=np.zeros((2, D)), targets=np.zeros((3, D)))


class TestPrefillEpisodes:
    def test_no_eviction_means_zero_targets(self):
        teacher = toy_teacher()
        x0 = Rng(200).normal((24, D))
        trace = teacher.forward(x0=x0)
        plan = CompressionPlan(ratio=0.0, sink_count=2, local_window=2)
        eps = prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 16),
                               eval_start=16)
        assert len(eps) == teacher.config.n_layers
        for ep in eps:
            assert np.all(ep.targets == 0.0)
            assert ep.writes[0].keys.shape[0] == 0

    def test_eviction_produces_targets_and_writes(self):
        teacher = toy_teacher()
        x0 = Rng(201).normal((24, D))
        trace = teacher.forward(x0=x0)
        plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=2)
        eps = prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 16),
                               eval_start=16)
        for li, ep in enumerate(eps):
            assert ep.n_eval == 8
            assert np.any(ep.targets != 0.0)
            assert ep.writes[0].keys.shape == (6, D)
            assert np.array_equal(ep.queries,
                                  flatten_heads(trace.layers[li].q_pre)[16:])
            assert ep.reads_after.tolist() == [1] * 8

    def test_targets_match_manual_attention_difference(self):
        teacher = toy_teacher()
        x0 = Rng(202).normal((20, D))
        trace = teacher.forward(x0=x0)
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        eps = prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 12),
                               eval_start=12)
        lt = trace.layers[0]
        keep = select(plan, knorm_scores(trace, 12)[0], np.arange(12))
        t = 15   # third eval row
        q_row = lt.q[:, t:t + 1, :]
        full = np.zeros((1, 20), dtype=bool)
        full[0, :t + 1] = True
        o_full = attend_rows(q_row, lt.k, lt.v, D, visible=full)[0]
        kept = np.zeros((1, 20), dtype=bool)
        kept[0, keep] = True
        kept[0, 12:t + 1] = True
        o_kept = attend_rows(q_row, lt.k, lt.v, D, visible=kept)[0]
        assert np.allclose(eps[0].targets[3], o_full - o_kept, atol=1e-12)

        # Every row at once, masks built row by row: bit-identical targets.
        full_run = FullRun.of(teacher, x0, 12)
        n_eval = 8
        full = np.zeros((n_eval, 20), dtype=bool)
        for i in range(n_eval):
            full[i, :12 + i + 1] = True
        assert np.array_equal(full_run.visible, full)
        r = Rng(206)
        for trial in range(6):
            keeps = [r.split(10 * trial + li).choice(12, size)
                     for li, size in enumerate((trial, 12 - trial))]
            eps = prefill_episodes(teacher, x0, keeps, 12, full_run=full_run)
            for li, lt in enumerate(trace.layers):
                kept = np.zeros((n_eval, 20), dtype=bool)
                kept[:, keeps[li]] = True
                for i in range(n_eval):
                    kept[i, 12:12 + i + 1] = True
                q_rows = lt.q[:, 12:, :]
                o_full = attend_rows(q_rows, lt.k, lt.v, D, visible=full)
                o_kept = attend_rows(q_rows, lt.k, lt.v, D, visible=kept)
                assert np.array_equal(full_run.o_full[li], o_full)
                assert np.array_equal(eps[li].targets, o_full - o_kept)

    def test_full_run_gives_the_episodes_built_without_it(self):
        teacher = toy_teacher()
        x0 = Rng(207).normal((20, D))
        full_run = FullRun.of(teacher, x0, 12)
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        keeps = knorm_keeps(full_run.trace, plan, 12)
        given = prefill_episodes(teacher, x0, keeps, 12, full_run=full_run)
        built = prefill_episodes(teacher, x0, keeps, 12)
        for a, b in zip(given, built):
            assert np.array_equal(a.queries, b.queries)
            assert np.array_equal(a.targets, b.targets)
            assert np.array_equal(a.writes[0].keys, b.writes[0].keys)
            assert np.array_equal(a.writes[0].values, b.writes[0].values)
            assert np.array_equal(a.reads_after, b.reads_after)

    def test_full_keep_reuses_the_full_output(self, monkeypatch):
        teacher = toy_teacher()
        x0 = Rng(208).normal((20, D))
        full_run = FullRun.of(teacher, x0, 12)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return attend_rows(*args, **kwargs)

        monkeypatch.setattr(episodes_module, "attend_rows", counting)
        keeps = [np.arange(12), np.arange(12)[::-1]]
        eps = prefill_episodes(teacher, x0, keeps, 12, full_run=full_run)
        assert calls == []
        for ep in eps:
            assert np.all(ep.targets == 0.0)
            assert ep.writes[0].keys.shape[0] == 0
        prefill_episodes(teacher, x0, [np.arange(11), np.arange(12)], 12,
                         full_run=full_run)
        assert len(calls) == 1

    def test_rejects_full_run_of_another_split(self):
        teacher = toy_teacher()
        x0 = Rng(209).normal((20, D))
        with pytest.raises(ValueError, match="another eval start"):
            prefill_episodes(teacher, x0, [np.arange(10)] * 2, 10,
                             full_run=FullRun.of(teacher, x0, 12))

    def test_rejects_bad_eval_start(self):
        teacher = toy_teacher()
        x0 = Rng(203).normal((10, D))
        trace = teacher.forward(x0=x0)
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        with pytest.raises(ValueError, match="split"):
            prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 10), 10)

    def test_rejects_wrong_score_count(self):
        teacher = toy_teacher()
        x0 = Rng(204).normal((10, D))
        trace = teacher.forward(x0=x0)
        plan = CompressionPlan(ratio=0.5, sink_count=1, local_window=1)
        with pytest.raises(ValueError, match="per layer"):
            prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 6)[:1], 6)

    def test_rejects_keep_outside_prefix(self):
        teacher = toy_teacher()
        x0 = Rng(205).normal((10, D))
        keeps = [np.arange(6), np.array([0, 6])]
        with pytest.raises(ValueError, match="prefix"):
            prefill_episodes(teacher, x0, keeps, 6)


def oracle_episode_loss_and_grads(slow, episode, lam=0.95, eta=1.0,
                                  stop_write_grad=False):
    """The single-episode kernel the stacked one replaced, kept as its oracle."""
    feats_k = [ev.keys @ slow.w_phi for ev in episode.writes]
    states = [MemoryState.zeros(slow.d_mem, slow.d_model)]
    for ev, f in zip(episode.writes, feats_k):
        prev = states[-1]
        states.append(MemoryState(m=lam * prev.m + eta * (f.T @ ev.values),
                                  b=lam * prev.b + eta * (f ** 2).sum(axis=0)))
    n_writes = len(episode.writes)
    queries, targets = episode.queries, episode.targets
    feat_q = queries @ slow.w_phi
    z = queries @ slow.w_gate + slow.gate_bias
    g = expit(z)

    grad_phi = np.zeros_like(slow.w_phi)
    grad_gate = np.zeros_like(slow.w_gate)
    grad_bias = 0.0
    ds_acc = [np.zeros_like(states[0].m) for _ in range(n_writes + 1)]
    db_acc = [np.zeros_like(states[0].b) for _ in range(n_writes + 1)]

    total = 0.0
    inv_size = 1.0 / targets.size
    for j in np.unique(episode.reads_after):
        rows = episode.reads_after == j
        st = states[j]
        fq = feat_q[rows]
        denom = (fq ** 2) @ st.b + MEM_EPS
        num = fq @ st.m
        m = num / denom[:, None]
        resid = targets[rows] - g[rows, None] * m
        total += float(np.sum(resid ** 2))

        d_pred = -2.0 * inv_size * resid
        d_g = np.sum(d_pred * m, axis=1)
        d_m = d_pred * g[rows, None]
        d_z = d_g * g[rows] * (1.0 - g[rows])
        grad_gate += queries[rows].T @ d_z
        grad_bias += float(d_z.sum())

        d_num = d_m / denom[:, None]
        d_denom = -np.sum(d_m * m, axis=1) / denom
        d_fq = d_num @ st.m.T + 2.0 * fq * st.b[None, :] * d_denom[:, None]
        grad_phi += queries[rows].T @ d_fq
        if not stop_write_grad and j > 0:
            ds_acc[j] += fq.T @ d_num
            db_acc[j] += (fq ** 2).T @ d_denom

    if not stop_write_grad:
        ds = np.zeros_like(states[0].m)
        db = np.zeros_like(states[0].b)
        for j in range(n_writes, 0, -1):
            ds += ds_acc[j]
            db += db_acc[j]
            ev, fk = episode.writes[j - 1], feats_k[j - 1]
            d_fk = eta * (ev.values @ ds.T) + 2.0 * eta * fk * db[None, :]
            grad_phi += ev.keys.T @ d_fk
            ds = lam * ds
            db = lam * db

    grads = {"w_phi": grad_phi, "w_gate": grad_gate,
             "gate_bias": np.float64(grad_bias)}
    return total / targets.size, grads


def oracle_memory_loss_and_grads(slow, episodes, lam=0.95, eta=1.0,
                                 stop_write_grad=False):
    """Batch mean over the oracle, one episode at a time."""
    weight = 1.0 / len(episodes)
    loss = 0.0
    grads = None
    for ep in episodes:
        l, g = oracle_episode_loss_and_grads(slow, ep, lam, eta, stop_write_grad)
        loss += weight * l
        if grads is None:
            grads = {k: weight * v for k, v in g.items()}
        else:
            for k in grads:
                grads[k] = grads[k] + weight * g[k]
    return loss, grads


def oracle_train_memory(slow, episodes, steps, lr=0.05, stop_write_grad=False):
    """train_memory's Adagrad loop over the oracle batch mean."""
    acc_phi = np.zeros_like(slow.w_phi)
    acc_gate = np.zeros_like(slow.w_gate)
    acc_bias = 0.0
    losses = []
    for _ in range(steps):
        loss, grads = oracle_memory_loss_and_grads(
            slow, episodes, stop_write_grad=stop_write_grad)
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
        full_run = FullRun.of(teacher, x0, 85)
        keeps = knorm_keeps(full_run.trace, plan, 85)
        eps += prefill_episodes(teacher, x0, keeps, 85, full_run=full_run)
    return eps


def single_write_episode(seed, n_eval, n_write, reads_after):
    r = Rng(700 + seed)
    return LayerEpisode(queries=r.split(0).normal((n_eval, D)),
                        targets=r.split(1).normal((n_eval, D)) * 0.3,
                        writes=[WriteEvent(r.split(2).normal((n_write, D)),
                                           r.split(3).normal((n_write, D)))],
                        reads_after=np.asarray(reads_after, dtype=np.int64))


def mixed_episodes():
    """Interleaved shapes: row counts, write counts and read orders differ."""
    return [
        multi_write_episode(0),
        single_write_episode(0, 6, 4, [1] * 6),
        multi_write_episode(1),
        single_write_episode(1, 6, 4, [1] * 6),
        single_write_episode(2, 5, 4, [0, 1, 0, 1, 1]),
        multi_write_episode(2),
        single_write_episode(3, 6, 2, [1] * 6),
        LayerEpisode(queries=Rng(710).normal((4, D)),
                     targets=Rng(711).normal((4, D)), writes=[]),
        single_write_episode(4, 5, 4, [0, 1, 0, 1, 1]),
        multi_write_episode(3),
    ]


def assert_same_loss_and_grads(got, want):
    assert got[0] == want[0]
    assert set(got[1]) == set(want[1])
    for name, value in want[1].items():
        assert np.array_equal(got[1][name], value), name
        assert np.shape(got[1][name]) == np.shape(value)


def check_against_finite_differences(eps):
    """Batch gradients against central differences of the mean episode loss."""
    slow = MemorySlowWeights.init(D, Rng(302), d_mem=3)
    _, grads = memory_loss_and_grads(slow, eps, lam=0.9, eta=0.8)
    h = 1e-6

    def loss_now():
        return np.mean([episode_loss(slow, ep, lam=0.9, eta=0.8)
                        for ep in eps])

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
        ep = multi_write_episode()
        slow = MemorySlowWeights.init(D, Rng(300), d_mem=3)
        states = [MemoryState.zeros(3, D)]
        for ev in ep.writes:
            states.append(mem_write(slow, states[-1], ev.keys, ev.values,
                                    lam=0.9, eta=0.8))
        total = 0.0
        for i in range(ep.n_eval):
            st = states[ep.reads_after[i]]
            f = ep.queries[i] @ slow.w_phi
            m = (f @ st.m) / (f ** 2 @ st.b + MEM_EPS)
            g = expit(ep.queries[i] @ slow.w_gate + slow.gate_bias)
            total += np.sum((ep.targets[i] - g * m) ** 2)
        want = total / ep.targets.size
        got = episode_loss(slow, ep, lam=0.9, eta=0.8)
        assert got == pytest.approx(want, rel=1e-12)

    def test_grad_loss_equals_plain_loss(self):
        eps = mixed_episodes()
        slow = MemorySlowWeights.init(D, Rng(301), d_mem=3)
        batch = EpisodeBatch.of(eps)
        for stack, idx in zip(batch.stacks, batch.order):
            losses, _ = episode_loss_and_grads(slow, stack, lam=0.9, eta=0.8)
            for loss, i in zip(losses, idx):
                assert loss == episode_loss(slow, eps[i], lam=0.9, eta=0.8)

    def test_finite_difference_check(self):
        check_against_finite_differences([multi_write_episode()])

    def test_finite_difference_check_mixed_batch(self):
        check_against_finite_differences(mixed_episodes())

    def test_stop_write_grad_changes_feature_grads_only(self):
        ep = multi_write_episode()
        slow = MemorySlowWeights.init(D, Rng(304), d_mem=3)
        loss_full, g_full = memory_loss_and_grads(slow, [ep])
        loss_stop, g_stop = memory_loss_and_grads(slow, [ep],
                                                  stop_write_grad=True)
        assert loss_stop == loss_full
        assert not np.allclose(g_stop["w_phi"], g_full["w_phi"])
        assert np.array_equal(g_stop["w_gate"], g_full["w_gate"])
        assert float(g_stop["gate_bias"]) == float(g_full["gate_bias"])

    def test_batch_is_mean_of_episodes(self):
        eps = [multi_write_episode(0), multi_write_episode(1)]
        slow = MemorySlowWeights.init(D, Rng(305), d_mem=3)
        (l0, l1), g = episode_loss_and_grads(slow, EpisodeStack.of(eps))
        lb, gb = memory_loss_and_grads(slow, eps)
        assert lb == pytest.approx(0.5 * (l0 + l1), rel=1e-12)
        assert np.allclose(gb["w_phi"], 0.5 * (g["w_phi"][0] + g["w_phi"][1]),
                           atol=1e-15)

    def test_empty_batch_rejected(self):
        slow = MemorySlowWeights.init(D, Rng(306), d_mem=2)
        with pytest.raises(ValueError, match="episodes"):
            memory_loss_and_grads(slow, [])


class TestStackedKernel:
    """The stacked kernel against the single-episode oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def pipeline_eps(self):
        return pipeline_episodes()

    def test_pipeline_shapes(self, pipeline_eps):
        eps = pipeline_eps
        assert len(eps) == 8
        assert {(ep.n_eval, ep.writes[0].keys.shape) for ep in eps} == {(43, (36, 64))}
        assert len(EpisodeBatch.of(eps).stacks) == 1

    @pytest.mark.parametrize("stop_write_grad", [False, True])
    @pytest.mark.parametrize("batch", ["pipeline", "one", "mixed"])
    def test_batch_matches_oracle(self, pipeline_eps, batch, stop_write_grad):
        if batch == "mixed":
            eps, d_model, d_mem = mixed_episodes(), D, 3
        else:
            eps, d_model, d_mem = pipeline_eps, 64, 8
            if batch == "one":
                eps = eps[3:4]
        slow = MemorySlowWeights.init(d_model, Rng(800), d_mem=d_mem)
        for lam, eta in ((0.95, 1.0), (0.9, 0.8)):
            got = memory_loss_and_grads(slow, eps, lam, eta, stop_write_grad)
            want = oracle_memory_loss_and_grads(slow, eps, lam, eta,
                                                stop_write_grad)
            assert_same_loss_and_grads(got, want)

    @pytest.mark.parametrize("stop_write_grad", [False, True])
    def test_each_stacked_episode_matches_oracle(self, stop_write_grad):
        eps = mixed_episodes()
        slow = MemorySlowWeights.init(D, Rng(801), d_mem=3)
        batch = EpisodeBatch.of(eps)
        assert len(batch.stacks) == 5
        assert sorted(i for idx in batch.order for i in idx) == list(range(len(eps)))
        for stack, idx in zip(batch.stacks, batch.order):
            losses, grads = episode_loss_and_grads(
                slow, stack, stop_write_grad=stop_write_grad)
            for pos, i in enumerate(idx):
                want_loss, want = oracle_episode_loss_and_grads(
                    slow, eps[i], stop_write_grad=stop_write_grad)
                assert losses[pos] == want_loss
                assert np.array_equal(grads["w_phi"][pos], want["w_phi"])
                assert np.array_equal(grads["w_gate"][pos], want["w_gate"])
                assert grads["gate_bias"][pos] == want["gate_bias"]

    @pytest.mark.parametrize("batch", ["pipeline", "mixed"])
    def test_training_run_matches_oracle(self, pipeline_eps, batch):
        if batch == "mixed":
            eps, d_model, d_mem = mixed_episodes(), D, 3
        else:
            eps, d_model, d_mem = pipeline_eps, 64, 8
        slow = MemorySlowWeights.init(d_model, Rng(802), d_mem=d_mem)
        oracle = slow.copy()
        losses = train_memory(slow, eps, steps=150)
        assert losses == oracle_train_memory(oracle, eps, steps=150)
        assert np.array_equal(slow.w_phi, oracle.w_phi)
        assert np.array_equal(slow.w_gate, oracle.w_gate)
        assert slow.gate_bias == oracle.gate_bias

    @pytest.mark.parametrize("shapes", [1, 2])
    def test_one_kernel_call_per_shape_and_step(self, monkeypatch, shapes):
        eps = [multi_write_episode(i) for i in range(4)]
        if shapes == 2:
            eps[1::2] = [single_write_episode(i, 6, 4, [1] * 6)
                         for i in range(2)]
        calls = []
        kernel = episodes_module.episode_loss_and_grads

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(episodes_module, "episode_loss_and_grads", counting)
        slow = MemorySlowWeights.init(D, Rng(803), d_mem=3)
        train_memory(slow, eps, steps=10)
        assert len(calls) == 10 * shapes

    def test_stack_rejects_mixed_shapes(self):
        eps = [multi_write_episode(0), single_write_episode(0, 6, 4, [1] * 6)]
        with pytest.raises(ValueError, match="share"):
            EpisodeStack.of(eps)
        with pytest.raises(ValueError, match="no episodes"):
            EpisodeStack.of([])


class TestTrainMemory:
    def test_loss_decreases(self):
        eps = [multi_write_episode(i) for i in range(4)]
        slow = MemorySlowWeights.init(D, Rng(307), d_mem=3)
        losses = train_memory(slow, eps, steps=60)
        assert len(losses) == 60
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        eps = [multi_write_episode(i) for i in range(2)]
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
        x0 = Rng(309).normal((20, D))
        trace = teacher.forward(x0=x0)
        plan = CompressionPlan(ratio=0.0, sink_count=2, local_window=2)
        eps = prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 12), 12)
        slow = MemorySlowWeights.init(D, Rng(310), d_mem=2)
        before = slow.copy()
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
                writes=[WriteEvent(r.split(1).normal((5, D)),
                                   r.split(2).normal((5, D)))],
                reads_after=np.ones(10, dtype=np.int64)))
        slow = MemorySlowWeights.init(D, Rng(401), d_mem=4)
        g_before = np.mean([np.mean(gate(slow, e.queries)) for e in eps])
        train_memory(slow, eps, steps=200)
        g_after = np.mean([np.mean(gate(slow, e.queries)) for e in eps])
        assert g_after < g_before

    def test_divergence_guard(self):
        ep = multi_write_episode()
        slow = MemorySlowWeights.init(D, Rng(402), d_mem=2)
        slow.w_phi[0, 0] = np.inf
        with pytest.raises(DivergenceError):
            train_memory(slow, [ep], steps=5)

    def test_rejects_empty_and_bad_lr(self):
        slow = MemorySlowWeights.init(D, Rng(403), d_mem=2)
        with pytest.raises(ValueError):
            train_memory(slow, [], steps=5)
        with pytest.raises(ValueError):
            train_memory(slow, [multi_write_episode()], steps=5, lr=0.0)

    def test_trained_beats_untrained_on_holdout(self):
        teacher = toy_teacher()
        plan = CompressionPlan(ratio=0.5, sink_count=2, local_window=2)

        def eps_for(rng):
            x0 = teacher.embed(rng.integers(0, 16, 24))
            trace = teacher.forward(x0=x0)
            return prefill_episodes(teacher, x0, knorm_keeps(trace, plan, 16), 16)

        train = [ep for i in range(12) for ep in eps_for(Rng(500).split(i))]
        slow = MemorySlowWeights.init(D, Rng(501), d_mem=2)
        frozen = slow.copy()
        train_memory(slow, train, steps=150)
        hold = [ep for s in range(6) for ep in eps_for(Rng(502).split(s))]
        before = np.mean([episode_loss(frozen, e) for e in hold])
        after = np.mean([episode_loss(slow, e) for e in hold])
        assert after < before
