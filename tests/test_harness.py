"""Experiment drivers: data generation, training runs, sweeps, decode."""

import gc
import hashlib
import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import kvgate.config as config_module
import kvgate.episodes as episodes_module
import kvgate.harness as harness
from kvgate.cache import DecodeSchedule, KvCache, budget_compress
from kvgate.cli import EXIT_DIVERGENCE, main
from kvgate.config import ConfigError, parse_config
from kvgate.episodes import episode_loss, plain_mse, prefill_episodes
from kvgate.harness import (
    EVAL_STREAM,
    POLICY_SEED,
    SWEEP_RATIOS,
    batches_by_layer,
    build_episode_sets,
    decode_run,
    eval_sequences,
    init_indexer,
    init_memory,
    input_sequence,
    memory_eval_losses,
    selftest,
    sequence_scores,
    sweep_run,
    train_indexer_run,
    train_memory_run,
    training_sequences,
)
from kvgate.indexer import (
    DivergenceError,
    IndexerKeyCache,
    distill_loss,
    key_features,
)
from kvgate.metrics import dump_record, make_record
from kvgate.numerics import Rng, kl_divergence, rmsnorm
from kvgate.policies import (
    QueryRows,
    aggregate_heads,
    score_knorm,
    score_layer,
    select,
)
from kvgate.synth import retention_recall
from kvgate.teacher import TeacherModel, pooled_teacher_importance


def raw_config(**overrides):
    raw = {
        "version": 1,
        "seed": 5,
        "teacher": {"n_layers": 2, "d_model": 16, "n_heads": 4,
                    "n_kv_heads": 2, "d_ffn": 32, "vocab_size": 12},
        "plan": {"ratio": 0.5, "sink_count": 2, "local_window": 4},
        "data": {"kind": "tokens", "length": 30, "n_train": 3, "n_eval": 2},
        "train": {"h_index": 2, "d_index": 3, "indexer_steps": 12,
                  "mem_steps": 15},
        "decode": {"steps": 12, "interval": 4, "budgets": [10, 64]},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return raw


def small_config(**overrides):
    return parse_config(raw_config(**overrides))


def oracle_simulation(cfg, teacher, x0, budget, params_by_layer=None):
    """One decode simulation on its own, prompt traced again: the
    sequential loop that decode_run's lockstep must reproduce bit for bit.

    Returns per-step outputs, max kept sizes and cumulative evictions.
    """
    cfg_t = cfg.teacher
    cache = KvCache(cfg_t.n_layers, cfg_t.n_kv_heads, cfg_t.d_head,
                    sink_count=cfg.plan.sink_count)
    trace = teacher.forward(x0=x0)
    length = x0.shape[0]
    positions = np.arange(length)
    for li, lt in enumerate(trace.layers):
        cache.append(li, lt.k, lt.v, positions)
    policy = cfg.policy_name
    use_indexer = policy == "indexer"
    feature_caches = []
    if use_indexer:
        for li, lt in enumerate(trace.layers):
            fc = IndexerKeyCache(params_by_layer[li].d_index)
            fc.append(key_features(params_by_layer[li], lt.x_in), positions)
            feature_caches.append(fc)
    calls = 0
    evicted_total = 0

    def score(layer, queries):
        nonlocal calls
        calls += 1
        kept = cache.positions(layer)
        if not use_indexer:
            return score_layer(policy, cache.keys(layer), kept, queries,
                               rng=Rng(POLICY_SEED).split(4000 + calls))
        return score_layer(policy, cache.keys(layer), kept, queries,
                           params=params_by_layer[layer],
                           key_feats=feature_caches[layer].rows_for(kept))

    # The query rows of the current interval, per layer, emptied at every
    # boundary whether or not it compacted.
    buffered = [[] for _ in range(cfg_t.n_layers)]

    def scorer(layer):
        rows = buffered[layer]
        return score(layer, QueryRows(
            x=np.stack([b["x"] for b in rows]),
            q_pre=np.stack([b["q_pre"] for b in rows], axis=1),
            q=np.stack([b["q"] for b in rows], axis=1),
            positions=np.array([b["pos"] for b in rows], dtype=np.int64)))

    def on_evict(layer, keys, values, dropped_positions):
        nonlocal evicted_total
        evicted_total += dropped_positions.size

    def retain_features():
        for li, fc in enumerate(feature_caches):
            fc.retain(cache.positions(li))

    schedule = None
    if budget is not None:
        plan = replace(cfg.plan, budget=budget)
        for li, lt in enumerate(trace.layers):
            prompt = QueryRows(lt.x_in, lt.q_pre, lt.q, positions)
            on_evict(li, *budget_compress(cache, li, plan, score(li, prompt)))
        retain_features()
        schedule = DecodeSchedule(cache, plan)

    x_row = rmsnorm(trace.output[-1])
    outputs = np.zeros((cfg.decode_steps, cfg_t.d_model))
    kept_sizes = np.zeros(cfg.decode_steps, dtype=np.int64)
    evictions = np.zeros(cfg.decode_steps, dtype=np.int64)
    for t in range(cfg.decode_steps):
        pos = length + t
        step = teacher.forward_step(x_row[None, :], [cache], pos)
        outputs[t] = step.output[0]
        for li, fc in enumerate(feature_caches):
            fc.append(key_features(params_by_layer[li], step.x_in[li]),
                      np.array([pos]))
        if schedule is not None:
            for li in range(cfg_t.n_layers):
                buffered[li].append(dict(x=step.x_in[li][0],
                                         q_pre=step.q_pre[li][0],
                                         q=step.q[li][0], pos=pos))
            if schedule.step(scorer, on_evict=on_evict):
                retain_features()
            if (t + 1) % cfg.plan.decode_interval == 0:
                for rows in buffered:
                    rows.clear()
        kept_sizes[t] = max(cache.length(li) for li in range(cfg_t.n_layers))
        evictions[t] = evicted_total
        x_row = rmsnorm(step.output[0])
    return {"outputs": outputs, "kept": kept_sizes, "evictions": evictions}


def oracle_decode_records(cfg, params_by_layer=None):
    """decode_run's records from one sequential run per simulation."""
    teacher = TeacherModel(cfg.teacher)
    x0, _ = input_sequence(cfg, teacher, Rng(cfg.seed).split(EVAL_STREAM),
                           n_needles=1)
    reference = oracle_simulation(cfg, teacher, x0, None, params_by_layer)
    total = cfg.data_length + cfg.decode_steps
    records = []
    for budget in cfg.decode_budgets:
        sim = oracle_simulation(cfg, teacher, x0, budget, params_by_layer)
        bound = budget + cfg.plan.decode_interval
        for t in range(cfg.decode_steps):
            err = float(np.mean((sim["outputs"][t]
                                 - reference["outputs"][t]) ** 2))
            records.append(make_record("decode", cfg.config_hash, cfg.seed, {
                "policy": cfg.policy_name, "budget": budget, "step": t + 1,
                "kept": int(sim["kept"][t]), "bound": bound,
                "within": bool(sim["kept"][t] <= bound),
                "evicted": int(sim["evictions"][t]), "recon": err,
            }))
        records.append(make_record("decode_summary", cfg.config_hash, cfg.seed, {
            "policy": cfg.policy_name, "budget": budget,
            "bound_ok": bool(np.all(sim["kept"] <= bound)),
            "matches_reference": bool(np.array_equal(sim["outputs"],
                                                     reference["outputs"])),
            "covers_total": bool(budget >= total),
            "evicted_total": int(sim["evictions"][-1]),
        }))
    return records


def eval_indexer_kl(params_by_layer, per_layer_batches):
    """Mean pooled-distribution KL across layers and sequences."""
    return float(np.mean([distill_loss(params_by_layer[li], batch)
                          for li, batches in enumerate(per_layer_batches)
                          for batch in batches]))


@pytest.fixture(scope="module")
def cfg():
    return small_config()


@pytest.fixture(scope="module")
def teacher(cfg):
    return TeacherModel(cfg.teacher)


class TestData:
    def test_token_inputs_shape_and_determinism(self, cfg, teacher):
        a, planted = input_sequence(cfg, teacher, Rng(cfg.seed).split(2000),
                                    n_needles=1)
        b, _ = input_sequence(cfg, teacher, Rng(cfg.seed).split(2000),
                              n_needles=1)
        assert a.shape == (cfg.data_length, cfg.teacher.d_model)
        assert planted.size == 0
        assert np.array_equal(a, b)

    def test_planted_needles_are_candidates(self, teacher):
        planted_cfg = small_config(data={"kind": "planted", "length": 48})
        x0, planted = input_sequence(planted_cfg, teacher, Rng(3),
                                     n_needles=2)
        assert x0.shape == (48, 16)
        assert planted.size >= 1
        assert planted.min() >= planted_cfg.plan.sink_count
        assert planted.max() < planted_cfg.eval_start - planted_cfg.plan.local_window

    def test_planted_requires_candidate_room(self):
        # eval_start 6 leaves no slot between the 2 sinks and the
        # 4-row local window; parsing refuses it, before any draw.
        with pytest.raises(ConfigError, match="candidate"):
            small_config(data={"kind": "planted", "length": 10})

    def test_sequence_counts(self, cfg, teacher):
        assert len(list(training_sequences(cfg, teacher))) == cfg.n_train
        assert len(list(eval_sequences(cfg, teacher))) == cfg.n_eval

    def test_train_and_eval_streams_differ(self, cfg, teacher):
        train = next(training_sequences(cfg, teacher))
        evals = next(eval_sequences(cfg, teacher))
        assert not np.array_equal(train[0], evals[0])


class TestLayerScores:
    """``sequence_scores``: one eval sequence's prefix scores, per layer."""

    @pytest.fixture(scope="class")
    def trace(self, cfg, teacher):
        x0, _ = input_sequence(cfg, teacher, Rng(9), n_needles=1)
        return teacher.forward(x0=x0)

    def test_knorm_matches_direct_computation(self, cfg, trace):
        upto = cfg.eval_start
        scores = sequence_scores("knorm", trace, upto, 0)
        for li, lt in enumerate(trace.layers):
            expected = aggregate_heads(score_knorm(lt.k[:, :upto, :]))
            assert np.array_equal(scores[li], expected)

    @pytest.mark.parametrize("name", ["knorm", "random"])
    def test_scores_each_layer_once(self, cfg, trace, monkeypatch, name):
        # random draws from the sequence's stream, knorm draws nothing.
        keys = []
        score_layer = harness.score_layer

        def counting(policy, k, *args, **kwargs):
            keys.append(k)
            return score_layer(policy, k, *args, **kwargs)

        monkeypatch.setattr(harness, "score_layer", counting)
        scores = sequence_scores(name, trace, cfg.eval_start, 0)
        layers = trace.layers
        assert len(keys) == len(scores) == len(layers)
        for k, lt in zip(keys, layers):
            assert np.array_equal(k, lt.k[:, :cfg.eval_start, :])

    def test_random_scores_are_seeded(self, cfg, trace):
        # Each sequence index draws from its own stream.
        a = sequence_scores("random", trace, cfg.eval_start, 4)
        b = sequence_scores("random", trace, cfg.eval_start, 4)
        c = sequence_scores("random", trace, cfg.eval_start, 5)
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])


class TestTrainIndexerRun:
    def test_zero_steps_keeps_initialization(self, monkeypatch):
        forwards = []
        forward = TeacherModel.forward

        def counting(self, *args, **kwargs):
            forwards.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TeacherModel, "forward", counting)
        cfg0 = small_config(train={"indexer_steps": 0})
        result = train_indexer_run(cfg0)
        fresh = init_indexer(cfg0)
        for got, init in zip(result["params"], fresh):
            assert np.array_equal(got.u_q, init.u_q)
            assert np.array_equal(got.u_k, init.u_k)
            assert np.array_equal(got.g, init.g)
        assert result == {"params": result["params"], "curve": []}
        # No step reads a batch, so no teacher forward runs; one step
        # traces every training sequence once.
        assert forwards == []
        cfg1 = small_config(train={"indexer_steps": 1})
        train_indexer_run(cfg1)
        assert len(forwards) == cfg1.n_train

    def test_curve_length_and_improvement(self, cfg, teacher):
        result = train_indexer_run(cfg)
        assert len(result["curve"]) == cfg.indexer_steps
        assert all(r["step"] == i for i, r in enumerate(result["curve"]))
        batches = batches_by_layer(
            teacher, [teacher.forward(x0=x0)
                      for x0, _ in training_sequences(cfg, teacher)],
            cfg.plan.sink_count)
        trained_kl = eval_indexer_kl(result["params"], batches)
        fresh_kl = eval_indexer_kl(init_indexer(cfg), batches)
        assert trained_kl < fresh_kl

    def test_determinism(self, cfg):
        a = train_indexer_run(cfg)
        b = train_indexer_run(cfg)
        for pa, pb in zip(a["params"], b["params"]):
            assert np.array_equal(pa.u_q, pb.u_q)
        assert a["curve"] == b["curve"]


@pytest.fixture(scope="module")
def stage_one(cfg):
    return train_indexer_run(cfg)["params"]


@pytest.fixture(scope="module")
def sweep_cfg():
    return small_config(policy={"name": "knorm"})


@pytest.fixture(scope="module")
def sweep_records(sweep_cfg):
    return sweep_run(sweep_cfg, params_by_layer=None, memories=None)


@pytest.fixture(scope="module")
def decode_records(sweep_cfg):
    return decode_run(sweep_cfg)


class TestTrainMemoryRun:
    def test_joint_tuning_moves_indexer(self, cfg, stage_one):
        result = train_memory_run(cfg, stage_one)
        assert not np.array_equal(result["params"][0].u_q, stage_one[0].u_q)

    def test_curve_length_and_descent(self, cfg, stage_one):
        result = train_memory_run(cfg, stage_one)
        assert len(result["curve"]) == cfg.mem_steps
        assert result["curve"][-1]["loss"] < result["curve"][0]["loss"]

    def test_one_teacher_forward_per_training_sequence(self, cfg, stage_one,
                                                       monkeypatch):
        # the indexer re-fit and the episodes share each training
        # sequence's trace, and the eval traces each eval sequence once
        calls = []
        forward = TeacherModel.forward

        def counting(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TeacherModel, "forward", counting)
        train_memory_run(cfg, stage_one)
        assert len(calls) == cfg.n_train + cfg.n_eval

    def test_episode_sets_shape(self, cfg, teacher, stage_one):
        traces = (teacher.forward(x0=x0)
                  for x0, _ in training_sequences(cfg, teacher))
        sets = build_episode_sets(cfg, traces, params_by_layer=stage_one)
        assert len(sets) == cfg.teacher.n_layers
        assert all(len(eps) == cfg.n_train for eps in sets)


class TestSweep:
    def test_grid_coverage(self, sweep_cfg, sweep_records):
        pairs = {(r["policy"], r["ratio"]) for r in sweep_records}
        assert pairs == {(p, r) for p in ("knorm", "random")
                         for r in SWEEP_RATIOS}

    def test_zero_ratio_row(self, sweep_records):
        for r in sweep_records:
            if r["ratio"] == 0.0:
                assert r["recon_attn"] == 0.0
                assert r["recon_fused"] == 0.0
                assert r["recall"] == 1.0

    def test_kv_bytes_non_increasing_in_ratio(self, sweep_records):
        for policy in ("knorm", "random"):
            rows = sorted((r for r in sweep_records if r["policy"] == policy),
                          key=lambda r: r["ratio"])
            kv = [r["kv_bytes"] for r in rows]
            assert all(a >= b for a, b in zip(kv, kv[1:]))
            totals = [r["total_bytes"] for r in rows]
            assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_accounting_identity(self, sweep_records):
        for r in sweep_records:
            assert r["total_bytes"] == (r["kv_bytes"] + r["indexer_bytes"]
                                        + r["memory_bytes"])

    def test_threading_matches_serial(self, sweep_cfg, sweep_records):
        threaded = sweep_run(sweep_cfg, threads=3)
        assert threaded == sweep_records

    def test_indexer_rows_need_checkpoint(self):
        idx_cfg = small_config(policy={"name": "indexer"})
        with pytest.raises(ConfigError, match="checkpoint"):
            sweep_run(idx_cfg)

    def test_memory_bytes_reported_with_memories(self, cfg):
        stage_one = train_indexer_run(cfg)["params"]
        trained = train_memory_run(cfg, stage_one)
        with_mem = sweep_run(small_config(policy={"name": "indexer"}),
                             params_by_layer=trained["params"],
                             memories=trained["memories"])
        row = next(r for r in with_mem
                   if r["policy"] == "indexer" and r["ratio"] == 0.5)
        d_model = 16
        d_mem = trained["memories"][0].d_mem
        assert row["memory_bytes"] == 2 * d_mem * (d_model + 1) * 8
        assert row["indexer_bytes"] > 0
        assert row["recon_fused"] != row["recon_attn"]


class TestCheckpointCheck:
    """The indexer policy without weights fails before any teacher work,
    with one message in every stage that scores."""

    @pytest.mark.parametrize("stage", [
        sweep_run, decode_run, lambda cfg: train_memory_run(cfg, None)],
        ids=["sweep", "decode", "train-memory"])
    def test_fails_before_any_work(self, stage, monkeypatch):
        work = []
        forward = TeacherModel.forward

        def counting(self, *args, **kwargs):
            work.append("forward")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TeacherModel, "forward", counting)
        with pytest.raises(ConfigError) as info:
            stage(small_config(policy={"name": "indexer"}))
        assert str(info.value) == "the indexer policy needs a trained checkpoint"
        assert work == []


class TestSweepFromScratch:
    """Every record equals its point recomputed alone, nothing shared."""

    def test_records_match_per_point_recomputation(self):
        cfg = small_config(policy={"name": "snapkv"},
                           data={"kind": "planted", "length": 48})
        memories = train_memory_run(cfg, None)["memories"]
        records = sweep_run(cfg, memories=memories, threads=2)
        assert [(r["policy"], r["ratio"]) for r in records] == [
            (name, ratio) for name in ("snapkv", "knorm", "random")
            for ratio in SWEEP_RATIOS]
        teacher = TeacherModel(cfg.teacher)
        sequences = list(eval_sequences(cfg, teacher))
        upto = cfg.eval_start
        prefix = np.arange(upto)
        support = np.arange(cfg.plan.sink_count, upto)
        for record in records:
            plan = replace(cfg.plan, ratio=record["ratio"])
            attn, fused, recalls, kls = [], [], [], []
            for s, (x0, planted) in enumerate(sequences):
                trace = teacher.forward(x0=x0)
                scores = sequence_scores(record["policy"], trace, upto, s)
                keeps = [select(plan, sc, prefix) for sc in scores]
                eps = prefill_episodes(trace, upto, keeps)
                for li, lt in enumerate(trace.layers):
                    attn.append(plain_mse(eps[li]))
                    fused.append(episode_loss(memories[li], eps[li]))
                    recalls.append(retention_recall(keeps[li], planted))
                    imp = pooled_teacher_importance(lt.q[:, :upto, :],
                                                    lt.k[:, :upto, :])
                    kls.append(kl_divergence(imp[support],
                                             scores[li][support]))
            assert record["recon_attn"] == float(np.mean(attn))
            assert record["recon_fused"] == float(np.mean(fused))
            assert record["recall"] == float(np.mean(recalls))
            assert record["pooled_kl"] == float(np.mean(kls))
            assert record["kv_bytes"] == sum(
                int(k.size) * cfg.teacher.n_kv_heads * cfg.teacher.d_head * 16
                for k in keeps)
        assert any(r["recon_fused"] != r["recon_attn"] for r in records)
        assert len({r["recall"] for r in records}) > 1


class TestStreamedEval:
    """The sweep, the memory eval and the indexer's batches hold one
    sequence's trace at a time, the sweep's overlap aside."""

    @pytest.fixture
    def alive_at_build(self, monkeypatch):
        """(traces, episodes) still alive at each ``TeacherModel.forward``
        call, and weak references to every episode built.

        Every episode comes from ``layer_episodes``: the sweep calls it
        by its harness name, and ``prefill_episodes`` by its episodes one.
        """
        traces, episodes, counts = [], [], []
        forward = TeacherModel.forward
        layer_episodes = episodes_module.layer_episodes

        def alive(refs):
            return sum(ref() is not None for ref in refs)

        def tracked_forward(self, *args, **kwargs):
            counts.append((alive(traces), alive(episodes)))
            trace = forward(self, *args, **kwargs)
            traces.append(weakref.ref(trace))
            return trace

        def tracked(*args, **kwargs):
            for ep in layer_episodes(*args, **kwargs):
                episodes.append(weakref.ref(ep))
                yield ep

        monkeypatch.setattr(TeacherModel, "forward", tracked_forward)
        monkeypatch.setattr(harness, "layer_episodes", tracked)
        monkeypatch.setattr(episodes_module, "layer_episodes", tracked)
        return counts, episodes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_frees_each_run_before_the_next(self, alive_at_build,
                                                  threads):
        at_build, built = alive_at_build
        cfg = small_config(policy={"name": "knorm"}, data={"n_eval": 4})
        records = sweep_run(cfg, threads=threads)
        assert len(built) == len(records) * cfg.n_eval * cfg.teacher.n_layers
        assert len(at_build) == cfg.n_eval
        assert max(traces for traces, _ in at_build) <= 1
        assert max(eps for _, eps in at_build) <= cfg.teacher.n_layers
        assert all(r["n_sequences"] == cfg.n_eval for r in records)

    def test_train_memory_eval_frees_each_run_before_the_next(
            self, alive_at_build, tmp_path):
        # One training sequence, so the training traces, which the indexer
        # re-fit holds together, are one trace too.
        raw = raw_config(data={"n_train": 1, "n_eval": 4},
                         train={"indexer_steps": 2, "mem_steps": 2})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        at_build, built = alive_at_build
        assert main(["train-indexer", "--config", str(config),
                     "--out", out]) == 0
        # Only train-memory's forwards are counted.
        at_build.clear()
        assert main(["train-memory", "--config", str(config), "--out", out,
                     "--checkpoint", str(tmp_path / "out" / "indexer.kvgt")]) == 0
        n_layers = raw["teacher"]["n_layers"]
        assert len(built) == (1 + 4) * n_layers
        assert len(at_build) == 1 + 4
        assert max(traces for traces, _ in at_build) <= 1
        assert max(eps for _, eps in at_build) <= n_layers
        # The training trace and episodes are dropped before the eval, and
        # each eval sequence's before the next one's forward.
        assert at_build[1:] == [(0, 0)] * 4

    def test_no_earlier_trace_at_a_train_indexer_forward(self,
                                                         alive_at_build):
        cfg = small_config(data={"n_train": 4}, train={"indexer_steps": 2})
        at_build, _ = alive_at_build
        train_indexer_run(cfg)
        assert [traces for traces, _ in at_build] == [0] * cfg.n_train

    def test_eval_draws_each_sequence_own_policy_stream(self, teacher):
        cfg = small_config(policy={"name": "random"}, data={"n_eval": 3})
        memory_sets = (init_memory(cfg), train_memory_run(cfg, None)["memories"])

        def traces():
            return (teacher.forward(x0=x0)
                    for x0, _ in eval_sequences(cfg, teacher))

        def mean_loss(memories, eval_eps):
            per = [episode_loss(memories[li], ep)
                   for li, eps in enumerate(eval_eps) for ep in eps]
            return float(sum(per) / len(per))

        over_all = build_episode_sets(cfg, traces())
        expected = [mean_loss(m, over_all) for m in memory_sets]
        assert memory_eval_losses(cfg, teacher, None, memory_sets) == expected
        # Episoding each sequence on its own restarts the stream at 0,
        # which moves the losses.
        restarted = [[] for _ in range(cfg.teacher.n_layers)]
        for trace in traces():
            for li, eps in enumerate(build_episode_sets(cfg, [trace])):
                restarted[li].extend(eps)
        assert [mean_loss(m, restarted) for m in memory_sets] != expected


class TestDecode:
    def test_budget_bound_every_step(self, cfg, decode_records):
        steps = [r for r in decode_records if r["kind"] == "decode"]
        assert len(steps) == len(cfg.decode_budgets) * cfg.decode_steps
        assert all(r["within"] for r in steps)
        assert all(r["kept"] <= r["bound"] for r in steps)

    def test_covering_budget_matches_reference(self, cfg, decode_records):
        summaries = {r["budget"]: r for r in decode_records
                     if r["kind"] == "decode_summary"}
        big = summaries[64]
        assert big["covers_total"]
        assert big["matches_reference"]
        assert big["evicted_total"] == 0
        small = summaries[10]
        assert small["bound_ok"]
        assert not small["matches_reference"]
        assert small["evicted_total"] > 0

    def test_reference_reconstruction_is_zero_for_covering_budget(self, decode_records):
        recon = [r["recon"] for r in decode_records
                 if r["kind"] == "decode" and r["budget"] == 64]
        assert max(recon) == 0.0

    def test_evictions_monotone(self, decode_records):
        for budget in (10, 64):
            evicted = [r["evicted"] for r in decode_records
                       if r["kind"] == "decode" and r["budget"] == budget]
            assert all(a <= b for a, b in zip(evicted, evicted[1:]))

    def test_small_budget_rejected(self):
        # Below sinks plus window, refused when the config is parsed.
        with pytest.raises(ConfigError, match="budget"):
            small_config(policy={"name": "knorm"}, decode={"budgets": [4]})

    def test_indexer_decode_needs_params(self, cfg):
        with pytest.raises(ConfigError, match="checkpoint"):
            decode_run(cfg)

    def test_determinism(self, sweep_cfg, decode_records):
        assert decode_run(sweep_cfg) == decode_records

    def test_hashes_the_config_once(self, monkeypatch):
        blobs = []

        def sha256(blob):
            blobs.append(blob)
            return hashlib.sha256(blob)

        monkeypatch.setattr(config_module, "hashlib",
                            SimpleNamespace(sha256=sha256))
        records = decode_run(small_config(policy={"name": "knorm"}))
        assert len(records) > 1
        assert len(blobs) == 1
        assert {r["config"] for r in records} == {
            hashlib.sha256(blobs[0]).hexdigest()[:16]}

    def test_indexer_scored_decode_obeys_bounds(self, cfg):
        idx_cfg = small_config(policy={"name": "indexer"})
        params = train_indexer_run(idx_cfg)["params"]
        decode_records = decode_run(idx_cfg, params_by_layer=params)
        steps = [r for r in decode_records if r["kind"] == "decode"]
        assert all(r["within"] for r in steps)
        summaries = {r["budget"]: r for r in decode_records
                     if r["kind"] == "decode_summary"}
        assert summaries[64]["matches_reference"]


class TestDecodeDivergence:
    def test_non_finite_step_output_raises(self, monkeypatch, tmp_path, capsys):
        # Only one simulation's row goes bad; the error names it, and the
        # CLI still exits 3.
        raw = raw_config(policy={"name": "knorm"})
        knorm = parse_config(raw)
        poisoned_row = {}

        class Poisoned(TeacherModel):
            def forward_step(self, x_rows, caches, position):
                step = super().forward_step(x_rows, caches, position)
                if position == knorm.data_length + 2:
                    step.output[poisoned_row["s"], 0] = np.nan
                return step

        monkeypatch.setattr(harness, "TeacherModel", Poisoned)
        poisoned_row["s"] = 2
        with pytest.raises(DivergenceError, match=r"step 3 \(budget 64\)"):
            decode_run(knorm)
        poisoned_row["s"] = 0
        with pytest.raises(DivergenceError, match=r"step 3 \(reference\)"):
            decode_run(knorm)

        poisoned_row["s"] = 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["decode-sim", "--config", str(config),
                     "--out", str(out)]) == EXIT_DIVERGENCE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DivergenceError"
        assert "step 3 (budget 10)" in record["message"]
        assert not (out / "decode.jsonl").exists()


class TestLockstepDecode:
    """decode_run steps the reference and every budget together; each must
    keep the bits of its own sequential run."""

    OVERRIDES = dict(decode={"steps": 40, "interval": 4,
                             "budgets": [10, 14, 17, 40, 96]})

    @pytest.mark.parametrize("policy", ["indexer", "snapkv", "tova",
                                        "knorm", "random"])
    def test_records_match_sequential_oracle(self, policy):
        cfg = small_config(policy={"name": policy}, **self.OVERRIDES)
        params = (train_indexer_run(cfg)["params"] if policy == "indexer"
                  else None)
        got = decode_run(cfg, params_by_layer=params)
        want = oracle_decode_records(cfg, params_by_layer=params)
        assert [dump_record(r) for r in got] == [dump_record(r) for r in want]
        evicted = {r["budget"]: r["evicted_total"] for r in got
                   if r["kind"] == "decode_summary"}
        assert evicted[10] > evicted[14] > evicted[17] > 0
        # The 30-row prompt fits budget 40: the boundaries at steps 4 and 8
        # compact nothing, the one at step 12 compacts on its own rows.
        assert evicted[17] > evicted[40] > 0
        assert evicted[96] == 0

    def test_state_is_freed_without_the_cyclic_gc(self, monkeypatch):
        cfg = small_config(policy={"name": "indexer"}, **self.OVERRIDES)
        params = train_indexer_run(cfg)["params"]
        made = []

        class Tracked(KvCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(harness, "KvCache", Tracked)
        gc.collect()
        gc.disable()
        try:
            decode_run(cfg, params_by_layer=params)
            alive = [ref() is not None for ref in made]
        finally:
            gc.enable()
        assert len(made) == 1 + len(cfg.decode_budgets)
        assert not any(alive)

    def test_key_features_are_added_per_boundary(self, monkeypatch):
        # Each budget simulation adds its prompt's features, then each
        # interval's at its boundary, one stacked call per layer; the
        # reference scores nothing.
        cfg = small_config(policy={"name": "indexer"}, **self.OVERRIDES)
        params = train_indexer_run(cfg)["params"]
        calls = {"key_features": 0, "append": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "key_features",
                            counting("key_features", key_features))
        monkeypatch.setattr(IndexerKeyCache, "append",
                            counting("append", IndexerKeyCache.append))
        decode_run(cfg, params_by_layer=params)
        boundaries = cfg.decode_steps // cfg.plan.decode_interval
        want = (len(cfg.decode_budgets) * cfg.teacher.n_layers
                * (1 + boundaries))
        assert calls == {"key_features": want, "append": want}


class TestDecodeStartScoring:
    """The compaction at decode start scores against the prompt."""

    def kept_at_start(self, cfg, monkeypatch):
        kept = []

        class Recording(harness.DecodeSchedule):
            def __init__(self, cache, plan):
                kept.append([cache.positions(li).copy()
                             for li in range(cache.n_layers)])
                super().__init__(cache, plan)

        monkeypatch.setattr(harness, "DecodeSchedule", Recording)
        decode_run(cfg)
        assert len(kept) == 1
        return kept[0]

    def test_snapkv_keeps_its_prompt_scored_rows(self, monkeypatch):
        overrides = dict(decode={"budgets": [12]},
                         data={"length": 40})
        cfg = small_config(policy={"name": "snapkv"}, **overrides)
        kept = self.kept_at_start(cfg, monkeypatch)
        teacher = TeacherModel(cfg.teacher)
        x0, _ = input_sequence(cfg, teacher, Rng(cfg.seed).split(EVAL_STREAM),
                               n_needles=1)
        trace = teacher.forward(x0=x0)
        positions = np.arange(cfg.data_length)
        plan = replace(cfg.plan, ratio=0.0, budget=12)
        for li, lt in enumerate(trace.layers):
            scores = score_layer(cfg.policy_name, lt.k, positions,
                                 QueryRows(lt.x_in, lt.q_pre, lt.q, positions))
            assert np.array_equal(kept[li], select(plan, scores, positions))
        knorm = self.kept_at_start(
            small_config(policy={"name": "knorm"}, **overrides), monkeypatch)
        assert any(not np.array_equal(a, b) for a, b in zip(kept, knorm))


class TestSelftest:
    def test_all_checks_pass(self):
        results = selftest()
        assert len(results) >= 6
        assert all(ok for _, ok in results)
