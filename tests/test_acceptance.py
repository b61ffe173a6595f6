"""Acceptance battery: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per guarantee. Tolerances are pinned here and are part of the contract;
the training-based checks (compensation effect, indexer quality) pin their
full recipe so the measured margins are reproducible bit for bit.
"""

import json
import math

import numpy as np

from kvgate.cache import CompressionPlan, KvCache, budget_compress
from kvgate.cli import main
from kvgate.harness import batches_by_layer
from kvgate.crosslayer import scores_with_reuse
from kvgate.episodes import (
    EpisodeStack,
    LayerEpisode,
    episode_loss,
    memory_loss_and_grads,
    plain_mse,
    prefill_episodes,
    train_memory,
)
from kvgate.indexer import (
    IndexerParams,
    distill_gradients,
    distill_loss,
    indexer_importance,
    train_indexer,
)
from kvgate.memory import MEM_EPS, MemorySlowWeights, MemoryState, mem_read, \
    mem_write, phi
from kvgate.metrics import read_records
from kvgate.numerics import Rng
from kvgate.policies import aggregate_heads, score_knorm, select
import kvgate.synth as synth
from kvgate.synth import TAIL_WIDTH, planted_sequence, retention_recall
from kvgate.teacher import TeacherConfig, TeacherModel, attend_rows, kv_head_of


def quadratic_attention(q_rows, keys, values, scale_dim, visible):
    """Scalar-loop reference: per-row softmax over visible keys."""
    n_heads, nq, d_head = q_rows.shape
    n_kv = keys.shape[0]
    out = np.zeros((nq, n_heads * d_head))
    for s in range(nq):
        cols = [t for t in range(keys.shape[1]) if visible[s, t]]
        for h in range(n_heads):
            g = kv_head_of(h, n_heads, n_kv)
            logits = [float(q_rows[h, s] @ keys[g, t]) / math.sqrt(scale_dim)
                      for t in cols]
            top = max(logits)
            weights = [math.exp(l - top) for l in logits]
            norm = sum(weights)
            acc = np.zeros(d_head)
            for w, t in zip(weights, cols):
                acc += (w / norm) * values[g, t]
            out[s, h * d_head:(h + 1) * d_head] = acc
    return out


def test_attention_matches_quadratic_reference_and_decode_accumulation():
    for i in range(100):
        rng = Rng(2024).split(i)
        length = int(rng.integers(1, 65, 1)[0])
        n_kv = int(rng.integers(1, 3, 1)[0]) * 2
        d_head = int(rng.integers(1, 3, 1)[0]) * 4
        keys = rng.split(0).normal((n_kv, length, d_head))
        values = rng.split(1).normal((n_kv, length, d_head))
        q_rows = rng.split(2).normal((4, length, d_head))
        visible = np.tril(np.ones((length, length), dtype=bool))
        got = attend_rows(q_rows, keys, values, visible)
        want = quadratic_attention(q_rows, keys, values, 4 * d_head, visible)
        assert np.max(np.abs(got - want)) < 1e-10

    cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                        d_ffn=64, vocab_size=16, seed=0)
    teacher = TeacherModel(cfg)
    tokens = Rng(9).integers(0, cfg.vocab_size, 48)
    x0 = teacher.embed(tokens)
    trace = teacher.forward(x0=x0)
    split = 32
    cache = KvCache(cfg.n_layers, cfg.n_kv_heads, cfg.d_head, sink_count=2)
    for li, lt in enumerate(trace.layers):
        cache.append(li, lt.k[:, :split, :], lt.v[:, :split, :],
                     np.arange(split))
    worst = 0.0
    for pos in range(split, tokens.size):
        step = teacher.forward_step(x0[pos][None, :], [cache], pos)
        worst = max(worst, float(np.max(np.abs(
            step.output[0] - trace.output[pos]))))
    assert worst < 1e-9


def test_scored_loss_matches_training_forward():
    cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                        d_ffn=64, vocab_size=16, seed=1)
    teacher = TeacherModel(cfg)
    for case, length in enumerate((7, 33, 64, 200)):
        x0 = Rng(300).split(case).normal((length, cfg.d_model))
        per_layer = batches_by_layer(teacher, [teacher.forward(x0=x0)], 3)
        for layer in range(cfg.n_layers):
            (batch,) = per_layer[layer]
            params = IndexerParams.init(cfg, Rng(301).split(case * 2 + layer),
                                        h_index=2, d_index=4)
            trained, _ = distill_gradients(params, batch)
            assert distill_loss(params, batch) == trained


def _coords(rng, shape, count=50):
    size = int(np.prod(shape))
    order = np.argsort(rng.uniform((size,)))
    return [np.unravel_index(int(flat), shape) for flat in order[:count]]


def _relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def test_analytic_gradients_match_central_differences():
    cfg = TeacherConfig(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2,
                        d_ffn=64, vocab_size=16, seed=5)
    teacher = TeacherModel(cfg)
    x0 = Rng(60).normal((20, cfg.d_model))
    (batch,), _ = batches_by_layer(teacher, [teacher.forward(x0=x0)], 3)
    params = IndexerParams.init(cfg, Rng(61), h_index=2, d_index=4)
    _, grads = distill_gradients(params, batch)
    for name, arr in (("u_q", params.u_q), ("u_k", params.u_k),
                      ("g", params.g)):
        for idx in _coords(Rng(62).split(hash(name) % 97), arr.shape):
            h = 1e-6 * max(1.0, abs(arr[idx]))
            saved = arr[idx]
            arr[idx] = saved + h
            up = distill_loss(params, batch)
            arr[idx] = saved - h
            down = distill_loss(params, batch)
            arr[idx] = saved
            numeric = (up - down) / (2.0 * h)
            assert _relative_error(grads[name][idx], numeric) < 1e-4

    # The memory's gradients, on one-write episodes: a batch with 5-row
    # writes, and one whose writes have zero rows (an empty state).
    d_model = 64
    batches = []
    for n_write in (5, 0):
        episodes = []
        for i in range(6):
            rng = Rng(500 + i)
            episodes.append(LayerEpisode(
                queries=rng.split(0).normal((10, d_model)),
                targets=0.1 * rng.split(1).normal((10, d_model)),
                write_keys=rng.split(2).normal((n_write, d_model)),
                write_values=rng.split(3).normal((n_write, d_model))))
        batches.append(EpisodeStack.of(episodes))
    slow = MemorySlowWeights.init(d_model, Rng(510))

    def memory_fd(episodes, read, write):
        saved = read()
        h = 1e-6 * max(1.0, abs(saved))
        write(saved + h)
        up, _ = memory_loss_and_grads(slow, episodes)
        write(saved - h)
        down, _ = memory_loss_and_grads(slow, episodes)
        write(saved)
        return (up - down) / (2.0 * h)

    for episodes in batches:
        _, mgrads = memory_loss_and_grads(slow, episodes)
        for idx in _coords(Rng(511), slow.w_phi.shape):
            numeric = memory_fd(episodes, lambda: slow.w_phi[idx],
                                lambda v: slow.w_phi.__setitem__(idx, v))
            assert _relative_error(mgrads["w_phi"][idx], numeric) < 1e-4
        for idx in _coords(Rng(512), slow.w_gate.shape):
            numeric = memory_fd(episodes, lambda: slow.w_gate[idx],
                                lambda v: slow.w_gate.__setitem__(idx, v))
            assert _relative_error(mgrads["w_gate"][idx], numeric) < 1e-4
        numeric = memory_fd(episodes, lambda: slow.gate_bias,
                            lambda v: setattr(slow, "gate_bias", v))
        assert _relative_error(float(mgrads["gate_bias"]), numeric) < 1e-4


def test_compaction_semantics_and_sink_protection():
    plan = CompressionPlan(ratio=0.5, sink_count=3, local_window=5)
    for i in range(20):
        rng = Rng(700).split(i)
        length, n_kv, d_head = 40, 2, 8
        keys = rng.split(0).normal((n_kv, length, d_head))
        values = rng.split(1).normal((n_kv, length, d_head))
        q_rows = rng.split(2).normal((4, 6, d_head))
        keep = select(plan, rng.split(3).uniform((length,)),
                      np.arange(length))
        mask = np.zeros((6, length), dtype=bool)
        mask[:, keep] = True
        compacted = attend_rows(q_rows, keys[:, keep, :], values[:, keep, :],
                                np.ones((6, keep.size), dtype=bool))
        masked = attend_rows(q_rows, keys, values, mask)
        assert np.max(np.abs(compacted - masked)) < 1e-10

    for i in range(1000):
        rng = Rng(800).split(i)
        length = int(rng.integers(15, 40, 1)[0])
        sink_count = int(rng.integers(1, 5, 1)[0])
        window = int(rng.integers(1, 6, 1)[0])
        cache = KvCache(1, 2, 4, sink_count=sink_count)
        cache.append(0, rng.split(0).normal((2, length, 4)),
                     rng.split(1).normal((2, length, 4)), np.arange(length))
        scores = rng.split(2).uniform((length,))
        if i % 2 == 0:
            step_plan = CompressionPlan(ratio=0.75, sink_count=sink_count,
                                        local_window=window)
            cache.compact(0, select(step_plan, scores, cache.positions(0)),
                          window)
        else:
            budget = sink_count + window + int(rng.integers(0, 6, 1)[0])
            step_plan = CompressionPlan(ratio=0.75, sink_count=sink_count,
                                        local_window=window, budget=budget)
            budget_compress(cache, 0, step_plan, scores)
        kept = set(cache.positions(0).tolist())
        assert set(range(sink_count)) <= kept

    rng = Rng(900)
    length = 36
    keys = rng.split(0).normal((2, length, 4))
    values = rng.split(1).normal((2, length, 4))
    scores = rng.split(2).uniform((length,))
    keep = select(plan, scores, np.arange(length))

    pre = KvCache(1, 2, 4, sink_count=plan.sink_count)
    pre.append(0, keys[:, keep, :], values[:, keep, :], keep)
    post = KvCache(1, 2, 4, sink_count=plan.sink_count)
    post.append(0, keys, values, np.arange(length))
    post.compact(0, select(plan, scores, post.positions(0)), plan.local_window)
    assert np.array_equal(pre.keys(0), post.keys(0))
    assert np.array_equal(pre.values(0), post.values(0))
    assert np.array_equal(pre.positions(0), post.positions(0))


def test_memory_update_algebra_and_footprint():
    d_model, d_mem = 16, 4
    slow = MemorySlowWeights.init(d_model, Rng(40), d_mem=d_mem)
    rng = Rng(41)
    batch_a = (rng.split(0).normal((3, d_model)),
               rng.split(1).normal((3, d_model)))
    batch_b = (rng.split(2).normal((4, d_model)),
               rng.split(3).normal((4, d_model)))

    zero = MemoryState.zeros(d_mem, d_model)
    seq = mem_write(slow, mem_write(slow, zero, *batch_a, lam=1.0),
                    *batch_b, lam=1.0)
    only_a = mem_write(slow, zero, *batch_a, lam=1.0)
    only_b = mem_write(slow, zero, *batch_b, lam=1.0)
    assert np.allclose(seq.m, only_a.m + only_b.m, rtol=0.0, atol=1e-10)
    assert np.allclose(seq.b, only_a.b + only_b.b, rtol=0.0, atol=1e-10)
    joined = mem_write(slow, zero, np.vstack([batch_a[0], batch_b[0]]),
                       np.vstack([batch_a[1], batch_b[1]]), lam=1.0)
    assert np.allclose(seq.m, joined.m, rtol=0.0, atol=1e-10)

    lam = 0.9
    state = MemoryState(rng.split(4).normal((d_mem, d_model)),
                        np.abs(rng.split(5).normal((d_mem,))))
    expect_m = state.m.copy()
    expect_b = state.b.copy()
    rolled = state
    for t in range(5):
        keys = rng.split(10 + t).normal((3, d_model))
        values = rng.split(20 + t).normal((3, d_model))
        feat = phi(slow, keys)
        expect_m = lam * expect_m + feat.T @ values
        expect_b = lam * expect_b + np.sum(feat ** 2, axis=0)
        rolled = mem_write(slow, rolled, keys, values, lam=lam)
    assert np.max(np.abs(rolled.m - expect_m)) < 1e-10
    assert np.max(np.abs(rolled.b - expect_b)) < 1e-10

    onehot = MemorySlowWeights(w_phi=np.eye(4), w_gate=np.zeros(4),
                               gate_bias=0.0)
    values = np.arange(16.0).reshape(4, 4)
    state = mem_write(onehot, MemoryState.zeros(4, 4), np.eye(4), values,
                      lam=1.0)
    read = mem_read(onehot, state, np.eye(4)[1:2])
    assert np.max(np.abs(read - values[1:2] / (1.0 + MEM_EPS))) <= 1e-9

    state = MemoryState.zeros(d_mem, 32)
    wide = MemorySlowWeights.init(32, Rng(42), d_mem=d_mem)
    assert state.nbytes() == d_mem * (32 + 1) * 8
    for t in range(10):
        state = mem_write(wide, state, rng.split(30 + t).normal((6, 32)),
                          rng.split(40 + t).normal((6, 32)))
    assert state.nbytes() == d_mem * (32 + 1) * 8


def test_trained_memory_beats_attention_only_reconstruction():
    cfg = TeacherConfig(n_layers=4, d_model=64, n_heads=8, n_kv_heads=2,
                        d_ffn=128, vocab_size=12, seed=0)
    teacher = TeacherModel(cfg)
    length, eval_start = 96, 64
    plan = CompressionPlan(ratio=0.5, sink_count=4, local_window=8)

    def episodes_for(rng):
        x0 = teacher.embed(rng.integers(0, 12, length))
        trace = teacher.forward(x0=x0)
        keeps = [select(plan, aggregate_heads(score_knorm(lt.k[:, :eval_start, :])),
                        np.arange(eval_start))
                 for lt in trace.layers]
        return prefill_episodes(trace, eval_start, keeps)

    by_layer = [[] for _ in range(cfg.n_layers)]
    for i in range(96):
        for li, ep in enumerate(episodes_for(Rng(8000).split(i))):
            by_layer[li].append(ep)
    memories = []
    for li in range(cfg.n_layers):
        slow = MemorySlowWeights.init(cfg.d_model, Rng(77 + li))
        losses = train_memory(slow, by_layer[li])
        assert losses[-1] < losses[0]
        memories.append(slow)

    wins, plain_total, fused_total = 0, 0.0, 0.0
    for s in range(32):
        eps = episodes_for(Rng(8100).split(s))
        plain = float(np.mean([plain_mse(ep) for ep in eps]))
        fused = float(np.mean([episode_loss(memories[li], ep)
                               for li, ep in enumerate(eps)]))
        wins += fused < plain
        plain_total += plain
        fused_total += fused
    assert wins / 32 >= 0.90
    assert 1.0 - fused_total / plain_total >= 0.10


def test_trained_indexer_beats_untrained_and_heuristic_retention(monkeypatch):
    cfg = TeacherConfig(n_layers=4, d_model=64, n_heads=4, n_kv_heads=2,
                        d_ffn=128, seed=0)
    teacher = TeacherModel(cfg)
    length, tail, sinks = 96, TAIL_WIDTH, 4
    # These needles lean harder on the shared beacon than the pipeline's.
    monkeypatch.setattr(synth, "BEACON_WEIGHT", 0.95)

    traces = []
    for i in range(16):
        rng = Rng(7000).split(i)
        if i < 12:
            needles = sorted(set(
                rng.split(99).integers(sinks, length - tail, 2).tolist()))
            x0 = planted_sequence(teacher, length, needles, rng).x0
        else:
            x0 = rng.normal((length, cfg.d_model))
        traces.append(teacher.forward(x0=x0))
    batches = batches_by_layer(teacher, traces, sinks)
    trained, untrained = {}, {}
    for layer in range(cfg.n_layers):
        trained[layer] = IndexerParams.init(cfg, Rng(42).split(layer),
                                            h_index=2, d_index=4)
        untrained[layer] = trained[layer].copy()
        train_indexer(trained[layer], batches[layer], 600, 1e-3)

    kl_wins = 0
    recall = {"indexer": [], "knorm": [], "random": []}
    plan = CompressionPlan(ratio=0.5, sink_count=sinks, local_window=tail)
    positions = np.arange(length)
    for s in range(50):
        rng = Rng(9000).split(s)
        needle = int(rng.split(99).integers(sinks, length - tail, 1)[0])
        seq = planted_sequence(teacher, length, [needle], rng)
        trace = teacher.forward(x0=seq.x0)
        per_layer = batches_by_layer(teacher, [trace], sinks)
        kl_trained, kl_untrained = 0.0, 0.0
        for layer in range(cfg.n_layers):
            (batch,) = per_layer[layer]
            kl_trained += distill_loss(trained[layer], batch)
            kl_untrained += distill_loss(untrained[layer], batch)
            importance = indexer_importance(trained[layer], batch.x,
                                            batch.q_pre)
            recall["indexer"].append(retention_recall(
                select(plan, importance, positions), seq.planted))
            knorm = np.linalg.norm(trace.layers[layer].k, axis=2).sum(axis=0)
            recall["knorm"].append(retention_recall(
                select(plan, knorm, positions), seq.planted))
            recall["random"].append(retention_recall(
                select(plan, rng.split(50 + layer).uniform((length,)),
                       positions), seq.planted))
        kl_wins += kl_trained < kl_untrained
    assert kl_wins / 50 >= 0.95
    mean_indexer = float(np.mean(recall["indexer"]))
    assert mean_indexer >= float(np.mean(recall["random"])) + 0.1
    assert mean_indexer >= float(np.mean(recall["knorm"])) + 0.1


def test_decode_compression_respects_budget_bound():
    from kvgate.config import parse_config
    from kvgate.harness import decode_run

    cfg = parse_config({
        "version": 1, "seed": 11,
        "teacher": {"n_layers": 2, "d_model": 16, "n_heads": 4,
                    "n_kv_heads": 2, "d_ffn": 32, "vocab_size": 12},
        "plan": {"ratio": 0.5, "sink_count": 4, "local_window": 8},
        "policy": {"name": "knorm"},
        "data": {"kind": "tokens", "length": 64},
        "decode": {"steps": 2000, "interval": 128, "budgets": [144, 2100]},
    })
    records = decode_run(cfg)
    steps = [r for r in records if r["kind"] == "decode"]
    assert len(steps) == 2 * 2000
    assert all(r["within"] for r in steps)
    assert all(r["kept"] <= r["budget"] + 128 for r in steps)
    summaries = {r["budget"]: r for r in records
                 if r["kind"] == "decode_summary"}
    assert summaries[144]["bound_ok"]
    assert summaries[144]["evicted_total"] > 0
    assert summaries[2100]["covers_total"]
    assert summaries[2100]["matches_reference"]
    assert summaries[2100]["evicted_total"] == 0


def test_layer_group_reuse_scores_each_group_once():
    for n_layers in (1, 3, 4, 8, 10):
        calls = {"n": 0}

        def compute(layer):
            calls["n"] += 1
            return np.arange(6.0) + layer

        scores = scores_with_reuse(n_layers, 4, compute)
        assert len(scores) == n_layers
        assert calls["n"] == math.ceil(n_layers / 4)
        assert all(scores[layer] is scores[layer - layer % 4]
                   for layer in range(n_layers))


def test_cli_reruns_are_byte_identical_with_consistent_accounting(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "version": 1,
        "seed": 5,
        "teacher": {"n_layers": 2, "d_model": 16, "n_heads": 4,
                    "n_kv_heads": 2, "d_ffn": 32, "vocab_size": 12},
        "plan": {"ratio": 0.5, "sink_count": 2, "local_window": 4},
        "data": {"kind": "tokens", "length": 30, "n_train": 3, "n_eval": 2},
        "train": {"h_index": 2, "d_index": 3, "indexer_steps": 8,
                  "mem_steps": 10},
        "decode": {"steps": 12, "interval": 4, "budgets": [10, 64]},
    }), encoding="utf-8")

    def run_twice(*argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{argv[0]}.{tag}"
            assert main([str(a) for a in argv[1:]] + ["--out", str(out)]) == 0
            outs.append(out)
        first, second = outs
        names = {p.name for p in first.iterdir() if p.name != "run.log"}
        assert names == {p.name for p in second.iterdir()
                         if p.name != "run.log"}
        for name in sorted(names):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        return first

    stage_one = run_twice("train-indexer", "train-indexer",
                          "--config", config)
    checkpoint = stage_one / "indexer.kvgt"
    run_twice("train-memory", "train-memory", "--config", config,
              "--checkpoint", checkpoint)
    sweep_dir = run_twice("sweep", "sweep", "--config", config,
                          "--checkpoint", checkpoint)
    run_twice("decode-sim", "decode-sim", "--config", config,
              "--checkpoint", checkpoint)
    run_twice("report", "report", sweep_dir / "sweep.jsonl")

    records = read_records(sweep_dir / "sweep.jsonl")
    assert records
    by_policy = {}
    for rec in records:
        total = rec["kv_bytes"] + rec["indexer_bytes"] + rec["memory_bytes"]
        assert rec["total_bytes"] == total
        by_policy.setdefault(rec["policy"], []).append(
            (rec["ratio"], rec["total_bytes"], rec["kv_bytes"]))
    for rows in by_policy.values():
        rows.sort()
        totals = [row[1] for row in rows]
        kv = [row[2] for row in rows]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert all(a >= b for a, b in zip(kv, kv[1:]))
