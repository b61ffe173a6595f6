"""Experiment drivers: data generation, training runs, sweeps, decode."""

from dataclasses import replace

import numpy as np
import pytest

import kvgate.harness as harness
from kvgate.config import ConfigError, parse_config
from kvgate.episodes import episode_loss, plain_mse, prefill_episodes
from kvgate.harness import (
    EVAL_STREAM,
    POLICY_STREAM,
    SWEEP_RATIOS,
    batches_by_layer,
    build_episode_sets,
    decode_run,
    eval_sequences,
    init_indexer,
    input_sequence,
    layer_scores,
    make_policy,
    plan_at_ratio,
    selftest,
    sweep_run,
    train_indexer_run,
    train_memory_run,
    training_sequences,
)
from kvgate.indexer import DivergenceError, streaming_distill_loss
from kvgate.numerics import Rng, kl_divergence
from kvgate.policies import (
    QueryRows,
    aggregate_heads,
    score_knorm,
    score_layer,
    select,
)
from kvgate.synth import retention_recall
from kvgate.teacher import TeacherModel, pooled_teacher_importance


def small_config(**overrides):
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
    return parse_config(raw)


def eval_indexer_kl(params_by_layer, per_layer_batches):
    """Mean pooled-distribution KL across layers and sequences."""
    return float(np.mean([streaming_distill_loss(params_by_layer[li], batch)
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
        a, planted = input_sequence(cfg, teacher, Rng(cfg.seed).split(2000))
        b, _ = input_sequence(cfg, teacher, Rng(cfg.seed).split(2000))
        assert a.shape == (cfg.data_length, cfg.teacher.d_model)
        assert planted.size == 0
        assert np.array_equal(a, b)

    def test_gauss_inputs(self, teacher):
        gauss = small_config(data={"kind": "gauss"})
        x0, planted = input_sequence(gauss, teacher, Rng(1))
        assert x0.shape == (gauss.data_length, 16)
        assert planted.size == 0

    def test_planted_needles_are_candidates(self, teacher):
        planted_cfg = small_config(data={"kind": "planted", "length": 48,
                                         "eval_start": 28})
        x0, planted = input_sequence(planted_cfg, teacher, Rng(3),
                                     n_needles=2)
        assert x0.shape == (48, 16)
        assert planted.size >= 1
        assert planted.min() >= planted_cfg.plan.sink_count
        assert planted.max() < planted_cfg.eval_start - planted_cfg.plan.local_window

    def test_planted_requires_candidate_room(self, teacher):
        tight = small_config(data={"kind": "planted", "length": 30,
                                   "eval_start": 6})
        with pytest.raises(ConfigError, match="candidate"):
            input_sequence(tight, teacher, Rng(3))

    def test_sequence_counts(self, cfg, teacher):
        assert len(training_sequences(cfg, teacher)) == cfg.n_train
        assert len(eval_sequences(cfg, teacher)) == cfg.n_eval

    def test_train_and_eval_streams_differ(self, cfg, teacher):
        train = training_sequences(cfg, teacher)
        evals = eval_sequences(cfg, teacher)
        assert not np.array_equal(train[0][0], evals[0][0])


class TestLayerScores:
    def test_knorm_matches_direct_computation(self, cfg, teacher):
        x0, _ = input_sequence(cfg, teacher, Rng(9))
        trace = teacher.forward(x0=x0)
        scores = layer_scores(cfg, make_policy(cfg, "knorm"), trace, 20)
        for li, lt in enumerate(trace.layers):
            expected = aggregate_heads(score_knorm(lt.k[:, :20, :]))
            assert np.array_equal(scores[li], expected)

    def test_indexer_policy_without_params_raises(self, cfg, teacher):
        x0, _ = input_sequence(cfg, teacher, Rng(9))
        trace = teacher.forward(x0=x0)
        with pytest.raises(ConfigError, match="checkpoint"):
            layer_scores(cfg, make_policy(cfg, "indexer"), trace, 20)

    def test_reuse_shares_score_objects(self, teacher):
        reuse_cfg = small_config(reuse={"group_size": 2})
        x0, _ = input_sequence(reuse_cfg, teacher, Rng(9))
        trace = teacher.forward(x0=x0)
        scores = layer_scores(reuse_cfg, make_policy(reuse_cfg, "knorm"),
                              trace, 20)
        assert scores[1] is scores[0]

    def test_layer_mean_gives_one_shared_vector(self, teacher):
        agg_cfg = small_config(agg={"mode": "layer_mean"})
        x0, _ = input_sequence(agg_cfg, teacher, Rng(9))
        trace = teacher.forward(x0=x0)
        scores = layer_scores(agg_cfg, make_policy(agg_cfg, "knorm"),
                              trace, 20)
        per_layer = [aggregate_heads(score_knorm(lt.k[:, :20, :]))
                     for lt in trace.layers]
        assert scores[1] is scores[0]
        assert np.allclose(scores[0], np.mean(per_layer, axis=0))

    def test_random_scores_are_seeded(self, cfg, teacher):
        x0, _ = input_sequence(cfg, teacher, Rng(9))
        trace = teacher.forward(x0=x0)
        policy = make_policy(cfg, "random")
        a = layer_scores(cfg, policy, trace, 20, rng_parent=Rng(4))
        b = layer_scores(cfg, policy, trace, 20, rng_parent=Rng(4))
        c = layer_scores(cfg, policy, trace, 20, rng_parent=Rng(5))
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])


class TestTrainIndexerRun:
    def test_zero_steps_keeps_initialization(self):
        cfg0 = small_config(train={"indexer_steps": 0})
        result = train_indexer_run(cfg0)
        fresh = init_indexer(cfg0)
        for got, init in zip(result["params"], fresh):
            assert np.array_equal(got.u_q, init.u_q)
            assert np.array_equal(got.u_k, init.u_k)
            assert np.array_equal(got.g, init.g)
        assert result["curve"] == []

    def test_curve_length_and_improvement(self, cfg):
        result = train_indexer_run(cfg)
        assert len(result["curve"]) == cfg.indexer_steps
        assert all(r["step"] == i for i, r in enumerate(result["curve"]))
        trained_kl = eval_indexer_kl(result["params"], result["batches"])
        fresh_kl = eval_indexer_kl(init_indexer(cfg), result["batches"])
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
    def test_freeze_keeps_indexer_bitwise(self, cfg, stage_one):
        result = train_memory_run(cfg, stage_one, freeze_indexer=True)
        for got, orig in zip(result["params"], stage_one):
            assert np.array_equal(got.u_q, orig.u_q)
            assert np.array_equal(got.u_k, orig.u_k)
            assert np.array_equal(got.g, orig.g)

    def test_joint_tuning_moves_indexer(self, cfg, stage_one):
        result = train_memory_run(cfg, stage_one, freeze_indexer=False)
        assert not np.array_equal(result["params"][0].u_q, stage_one[0].u_q)

    def test_curve_length_and_descent(self, cfg, stage_one):
        result = train_memory_run(cfg, stage_one, freeze_indexer=True)
        assert len(result["curve"]) == cfg.mem_steps
        assert result["curve"][-1]["loss"] < result["curve"][0]["loss"]

    def test_one_teacher_forward_per_training_sequence(self, cfg, stage_one,
                                                       monkeypatch):
        # the indexer re-fit and the episodes share each sequence's trace
        calls = []
        forward = TeacherModel.forward

        def counting(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TeacherModel, "forward", counting)
        train_memory_run(cfg, stage_one, freeze_indexer=False)
        assert len(calls) == cfg.n_train

    def test_episode_sets_shape(self, cfg, teacher, stage_one):
        sets = build_episode_sets(cfg, teacher,
                                  training_sequences(cfg, teacher),
                                  params_by_layer=stage_one)
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
        trained = train_memory_run(cfg, stage_one, freeze_indexer=True)
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


class TestSweepFromScratch:
    """Every record equals its point recomputed alone, nothing shared."""

    def test_records_match_per_point_recomputation(self):
        cfg = small_config(policy={"name": "snapkv"},
                           data={"kind": "planted", "length": 48,
                                 "eval_start": 28})
        memories = train_memory_run(cfg, None)["memories"]
        records = sweep_run(cfg, memories=memories, threads=2)
        assert [(r["policy"], r["ratio"]) for r in records] == [
            (name, ratio) for name in ("snapkv", "knorm", "random")
            for ratio in SWEEP_RATIOS]
        teacher = TeacherModel(cfg.teacher)
        sequences = eval_sequences(cfg, teacher)
        upto = cfg.eval_start
        prefix = np.arange(upto)
        support = np.arange(cfg.plan.sink_count, upto)
        for record in records:
            policy = make_policy(cfg, record["policy"])
            plan = plan_at_ratio(cfg, record["ratio"])
            attn, fused, recalls, kls = [], [], [], []
            for s, (x0, planted) in enumerate(sequences):
                trace = teacher.forward(x0=x0)
                scores = layer_scores(
                    cfg, policy, trace, upto,
                    rng_parent=Rng(policy.seed).split(POLICY_STREAM + s))
                keeps = [select(plan, sc, prefix) for sc in scores]
                eps = prefill_episodes(teacher, x0, keeps, upto,
                                       head_sum=cfg.head_sum)
                for li, lt in enumerate(trace.layers):
                    attn.append(plain_mse(eps[li]))
                    fused.append(episode_loss(memories[li], eps[li],
                                              lam=cfg.lam, eta=cfg.eta))
                    recalls.append(retention_recall(keeps[li], planted))
                    imp = pooled_teacher_importance(lt.q[:, :upto, :],
                                                    lt.k[:, :upto, :],
                                                    cfg.teacher.d_model)
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
        bad = small_config(policy={"name": "knorm"}, decode={"budgets": [4]})
        with pytest.raises(ConfigError, match="budget"):
            decode_run(bad)

    def test_indexer_decode_needs_params(self, cfg):
        with pytest.raises(ConfigError, match="checkpoint"):
            decode_run(cfg)

    def test_determinism(self, sweep_cfg, decode_records):
        assert decode_run(sweep_cfg) == decode_records

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
    def test_non_finite_step_output_raises(self, monkeypatch):
        knorm = small_config(policy={"name": "knorm"})

        class Poisoned(TeacherModel):
            def forward_step(self, x_row, cache, position):
                step = super().forward_step(x_row, cache, position)
                if position == knorm.data_length + 2:
                    step.output[0] = np.nan
                return step

        monkeypatch.setattr(harness, "TeacherModel", Poisoned)
        with pytest.raises(DivergenceError, match="step 3"):
            decode_run(knorm)


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
                         data={"kind": "gauss", "length": 40})
        cfg = small_config(policy={"name": "snapkv"}, **overrides)
        kept = self.kept_at_start(cfg, monkeypatch)
        teacher = TeacherModel(cfg.teacher)
        x0, _ = input_sequence(cfg, teacher, Rng(cfg.seed).split(EVAL_STREAM))
        trace = teacher.forward(x0=x0)
        positions = np.arange(cfg.data_length)
        plan = replace(cfg.plan, ratio=0.0, budget=12)
        for li, lt in enumerate(trace.layers):
            scores = score_layer(make_policy(cfg), lt.k, positions,
                                 QueryRows(lt.x_in, lt.q_pre, lt.q, positions),
                                 cfg.teacher.d_model)
            assert np.array_equal(kept[li], select(plan, scores, positions))
        knorm = self.kept_at_start(
            small_config(policy={"name": "knorm"}, **overrides), monkeypatch)
        assert any(not np.array_equal(a, b) for a, b in zip(kept, knorm))


class TestSelftest:
    def test_all_checks_pass(self):
        results = selftest()
        assert len(results) >= 8
        assert all(ok for _, ok in results)
