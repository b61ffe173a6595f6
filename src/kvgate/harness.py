"""Experiment drivers: training runs, ratio sweeps, decode simulation.

Everything here is deterministic in (config, seed): data seeds are split
from the config seed, sweep points own their Rng children, and thread
pools only parallelize across points whose results are collected in
submission order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .cache import CompressionPlan, DecodeSchedule, KvCache, budget_compress
from .config import ConfigError, ExperimentConfig
from .crosslayer import LayerScoreBundle, aggregate_scores, scores_with_reuse
from .episodes import (
    FullRun,
    episode_loss,
    plain_mse,
    prefill_episodes,
    train_memory,
)
from .indexer import (
    DistillBatch,
    IndexerKeyCache,
    IndexerParams,
    WsdSchedule,
    key_features,
    train_indexer,
)
from .memory import MemorySlowWeights, default_d_mem
from .metrics import make_record
from .numerics import DivergenceError, Rng, kl_divergence, rmsnorm
from .policies import PolicyId, QueryRows, score_layer, select
from .synth import planted_sequence, retention_recall
from .teacher import TeacherModel, pooled_teacher_importance

SWEEP_RATIOS = (0.0, 0.10, 0.25, 0.50, 0.75, 0.90)

TRAIN_STREAM = 1000
EVAL_STREAM = 2000
POLICY_STREAM = 3000


def make_policy(cfg: ExperimentConfig, name: str | None = None) -> PolicyId:
    return PolicyId(name=name or cfg.policy_name, window=cfg.policy_window,
                    seed=cfg.policy_seed, head_pool=cfg.policy_head_pool)


def plan_at_ratio(cfg: ExperimentConfig, ratio: float) -> CompressionPlan:
    return replace(cfg.plan, ratio=ratio, decode_interval=cfg.decode_interval)


def input_sequence(cfg: ExperimentConfig, teacher: TeacherModel, rng: Rng,
                   n_needles: int = 1):
    """One synthetic input per the configured data kind: (x0, planted)."""
    length = cfg.data_length
    if cfg.data_kind == "tokens":
        tokens = rng.integers(0, cfg.teacher.vocab_size, length)
        return teacher.embed(tokens), np.zeros(0, dtype=np.int64)
    if cfg.data_kind == "gauss":
        return rng.normal((length, cfg.teacher.d_model)), np.zeros(0, dtype=np.int64)
    lo = cfg.plan.sink_count
    hi = cfg.eval_start - cfg.plan.local_window
    if hi <= lo:
        raise ConfigError("planted data needs candidate slots between the "
                          "sinks and the local window")
    needles = rng.split(99).integers(lo, hi, n_needles)
    planted = planted_sequence(teacher, length, needles, rng)
    return planted.x0, planted.planted


def training_sequences(cfg: ExperimentConfig, teacher: TeacherModel) -> list:
    out = []
    for i in range(cfg.n_train):
        rng = Rng(cfg.seed).split(TRAIN_STREAM + i)
        out.append(input_sequence(cfg, teacher, rng, n_needles=2))
    return out


def eval_sequences(cfg: ExperimentConfig, teacher: TeacherModel) -> list:
    out = []
    for s in range(cfg.n_eval):
        rng = Rng(cfg.seed).split(EVAL_STREAM + s)
        out.append(input_sequence(cfg, teacher, rng, n_needles=1))
    return out


def batches_by_layer(teacher: TeacherModel, traces, sink_count: int) -> list:
    """Distillation batches for every layer from one teacher trace per sequence."""
    per_layer = [[] for _ in range(teacher.config.n_layers)]
    for trace in traces:
        for li, lt in enumerate(trace.layers):
            per_layer[li].append(DistillBatch(
                x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q, k_rot=lt.k,
                scale_dim=teacher.config.d_model, sink_count=sink_count))
    return per_layer


def init_indexer(cfg: ExperimentConfig) -> list:
    return [IndexerParams.init(cfg.teacher, Rng(cfg.param_seed).split(layer),
                               h_index=cfg.h_index, d_index=cfg.d_index)
            for layer in range(cfg.teacher.n_layers)]


def init_memory(cfg: ExperimentConfig) -> list:
    return [MemorySlowWeights.init(cfg.teacher.d_model,
                                   Rng(cfg.param_seed).split(100 + layer),
                                   d_mem=cfg.d_mem)
            for layer in range(cfg.teacher.n_layers)]


def fit_indexer(cfg: ExperimentConfig, params_by_layer: list,
                per_layer_batches: list) -> list:
    """Train every layer in place; returns per-step mean losses by layer."""
    if cfg.indexer_steps == 0:
        return [[] for _ in params_by_layer]
    schedule = WsdSchedule(peak=cfg.indexer_peak).scaled(cfg.indexer_steps)
    return [train_indexer(params, per_layer_batches[li], schedule)
            for li, params in enumerate(params_by_layer)]


def layer_scores(cfg: ExperimentConfig, policy: PolicyId, trace, upto: int,
                 params_by_layer=None, rng_parent: Rng | None = None) -> list:
    """Per-layer importance over the first ``upto`` rows, post aggregation.

    Index reuse shares score computations across layer groups; the entropy
    modes then replace every layer's vector with the gated mean.
    """
    n_layers = len(trace.layers)
    d_model = trace.layers[0].x_in.shape[1]
    if policy.name == "indexer" and params_by_layer is None:
        raise ConfigError("indexer policy needs a trained checkpoint")
    positions = np.arange(upto)

    def compute(layer: int) -> np.ndarray:
        lt = trace.layers[layer]
        x = lt.x_in[:upto]
        params = params_by_layer[layer] if policy.name == "indexer" else None
        return score_layer(
            policy, lt.k[:, :upto, :], positions,
            QueryRows(x, lt.q_pre[:, :upto, :], lt.q[:, :upto, :], positions),
            d_model,
            rng=None if rng_parent is None else rng_parent.split(50 + layer),
            params=params,
            key_feats=None if params is None else key_features(params, x))

    scores = scores_with_reuse(n_layers, cfg.reuse_group_size, compute)
    if cfg.agg_mode != "none":
        bundle = LayerScoreBundle.from_scores(scores, prob_mode=cfg.agg_prob)
        pooled = aggregate_scores(bundle, cfg.agg_mode, gamma=cfg.agg_gamma)
        scores = [pooled for _ in range(n_layers)]
    return scores


def train_indexer_run(cfg: ExperimentConfig) -> dict:
    """Stage one: distill the teacher's pooled importance into the indexer."""
    teacher = TeacherModel(cfg.teacher)
    params = init_indexer(cfg)
    # A generator: the parts of a trace no batch holds are freed at once.
    traces = (teacher.forward(x0=x0)
              for x0, _ in training_sequences(cfg, teacher))
    per_layer = batches_by_layer(teacher, traces, cfg.plan.sink_count)
    losses_by_layer = fit_indexer(cfg, params, per_layer)
    curve = [{"step": step,
              "loss": float(np.mean([losses_by_layer[li][step]
                                     for li in range(len(params))]))}
             for step in range(cfg.indexer_steps)]
    return {"params": params, "curve": curve, "teacher": teacher,
            "batches": per_layer}


def _drain(items: list):
    """Yield a list's items in order, removing each from the list first."""
    items.reverse()
    while items:
        yield items.pop()


def build_episode_sets(cfg: ExperimentConfig, teacher: TeacherModel,
                       sequences, params_by_layer=None, runs=None) -> list:
    """Per-layer episode lists for the configured policy at the plan ratio.

    ``runs`` yields each sequence's :class:`~kvgate.episodes.FullRun` at
    ``cfg.eval_start``, in order; by default each is built when its
    sequence comes up. A caller that already holds the runs passes them
    here rather than tracing the teacher again.
    """
    policy = make_policy(cfg)
    plan = plan_at_ratio(cfg, cfg.plan.ratio)
    if runs is None:
        runs = (FullRun.of(teacher, x0, cfg.eval_start)
                for x0, _ in sequences)
    per_layer = [[] for _ in range(cfg.teacher.n_layers)]
    for s, ((x0, _), full_run) in enumerate(zip(sequences, runs)):
        scores = layer_scores(cfg, policy, full_run.trace, cfg.eval_start,
                              params_by_layer=params_by_layer,
                              rng_parent=Rng(cfg.policy_seed).split(POLICY_STREAM + s))
        keeps = [select(plan, sc, np.arange(cfg.eval_start)) for sc in scores]
        eps = prefill_episodes(teacher, x0, keeps, cfg.eval_start,
                               head_sum=cfg.head_sum, full_run=full_run)
        for li in range(cfg.teacher.n_layers):
            per_layer[li].append(eps[li])
    return per_layer


def train_memory_run(cfg: ExperimentConfig, indexer_params: list,
                     freeze_indexer: bool = False) -> dict:
    """Stage two: fit the per-layer compensation memories.

    Unless frozen, the indexer keeps training on the same distillation
    batches before the eviction episodes are built, so the memories learn
    against the keep sets the final indexer actually produces. Both come
    from one teacher forward per training sequence.
    """
    teacher = TeacherModel(cfg.teacher)
    params = ([p.copy() for p in indexer_params]
              if indexer_params is not None else None)
    sequences = training_sequences(cfg, teacher)
    runs = [FullRun.of(teacher, x0, cfg.eval_start) for x0, _ in sequences]
    if params is not None and not freeze_indexer and cfg.policy_name == "indexer":
        fit_indexer(cfg, params,
                    batches_by_layer(teacher, [run.trace for run in runs],
                                     cfg.plan.sink_count))
    # Each run is freed once its episodes are built, so all the runs and
    # all the episodes are never alive together.
    per_layer_eps = build_episode_sets(cfg, teacher, sequences,
                                       params_by_layer=params,
                                       runs=_drain(runs))
    memories = init_memory(cfg)
    losses_by_layer = [train_memory(memories[li], per_layer_eps[li],
                                    steps=cfg.mem_steps, lr=cfg.mem_lr,
                                    lam=cfg.lam, eta=cfg.eta,
                                    stop_write_grad=cfg.stop_write_grad)
                       for li in range(cfg.teacher.n_layers)]
    curve = [{"step": step,
              "loss": float(np.mean([losses_by_layer[li][step]
                                     for li in range(len(memories))]))}
             for step in range(cfg.mem_steps)]
    return {"params": params, "memories": memories, "curve": curve,
            "teacher": teacher, "episodes": per_layer_eps}


def _accounting(cfg: ExperimentConfig, keep_counts, policy: PolicyId,
                params_by_layer, memories) -> dict:
    d_head = cfg.teacher.d_head
    kv = sum(int(c) * cfg.teacher.n_kv_heads * d_head * 2 * 8
             for c in keep_counts)
    idx = 0
    if policy.name == "indexer" and params_by_layer is not None:
        idx = sum(int(c) * params_by_layer[li].d_index * 8
                  for li, c in enumerate(keep_counts))
    mem = 0
    if memories is not None:
        mem = sum(m.d_mem * (m.d_model + 1) * 8 for m in memories)
    return {"kv_bytes": kv, "indexer_bytes": idx, "memory_bytes": mem,
            "total_bytes": kv + idx + mem}


def sweep_policies(cfg: ExperimentConfig) -> list:
    names = [cfg.policy_name]
    for extra in ("knorm", "random"):
        if extra not in names:
            names.append(extra)
    return names


def sweep_run(cfg: ExperimentConfig, params_by_layer=None, memories=None,
              threads: int = 1) -> list:
    """Metrics records for every (policy, ratio) grid point.

    Each piece of work runs once at the level it depends on:

    - per eval sequence: the teacher trace, each layer's full-cache output
      (a :class:`~kvgate.episodes.FullRun`) and the teacher's pooled
      importance;
    - per (policy, sequence): the layer scores and their KL against the
      teacher's importance, so the random policy draws its stream once;
    - per (policy, ratio) point: the keep sets, the episodes and the
      metrics that read them.

    With ``threads > 1`` the points are spread over a pool and collected in
    submission order, so the records do not depend on the thread count.
    """
    teacher = TeacherModel(cfg.teacher)
    sequences = eval_sequences(cfg, teacher)
    upto = cfg.eval_start
    prefix = np.arange(upto)
    support = np.arange(cfg.plan.sink_count, upto)
    names = sweep_policies(cfg)

    # Built here, not on the pool: when pool threads made these arrays, which
    # outlive the threads, a process that swept repeatedly grew its peak RSS
    # with every call (85 -> 93 MB over 12 sweep-planted calls).
    per_seq = []
    for s, (x0, _) in enumerate(sequences):
        full_run = FullRun.of(teacher, x0, upto)
        teacher_imp = [pooled_teacher_importance(lt.q[:, :upto, :],
                                                 lt.k[:, :upto, :],
                                                 cfg.teacher.d_model)
                       for lt in full_run.trace.layers]
        scored = {}
        for name in names:
            policy = make_policy(cfg, name)
            scores = layer_scores(cfg, policy, full_run.trace, upto,
                                  params_by_layer=params_by_layer,
                                  rng_parent=Rng(policy.seed).split(POLICY_STREAM + s))
            scored[name] = (scores, [kl_divergence(imp[support], sc[support])
                                     for imp, sc in zip(teacher_imp, scores)])
        per_seq.append((full_run, scored))

    def eval_point(point):
        name, ratio = point
        policy = make_policy(cfg, name)
        plan = plan_at_ratio(cfg, ratio)
        # The rule at ratio 1 keeps exactly the forced rows.
        forced = select(replace(plan, ratio=1.0), np.zeros(upto), prefix).size
        candidates = upto - forced
        mse_attn, mse_fused, recalls = [], [], []
        for s, (x0, planted) in enumerate(sequences):
            full_run, scored = per_seq[s]
            keeps = [select(plan, sc, prefix) for sc in scored[name][0]]
            eps = prefill_episodes(teacher, x0, keeps, upto,
                                   head_sum=cfg.head_sum, full_run=full_run)
            keep_counts = [k.size for k in keeps]
            kept_fraction = ((keeps[0].size - forced) / candidates
                             if candidates else 1.0)
            for li in range(cfg.teacher.n_layers):
                mse_attn.append(plain_mse(eps[li]))
                if memories is not None:
                    mse_fused.append(episode_loss(memories[li], eps[li],
                                                  lam=cfg.lam, eta=cfg.eta))
                recalls.append(retention_recall(keeps[li], planted))
        fields = {
            "policy": name,
            "ratio": ratio,
            "recon_attn": float(np.mean(mse_attn)),
            "recon_fused": (float(np.mean(mse_fused)) if memories is not None
                            else float(np.mean(mse_attn))),
            "recall": float(np.mean(recalls)),
            "kept_fraction": float(kept_fraction),
            "pooled_kl": float(np.mean([kl for _, scored in per_seq
                                        for kl in scored[name][1]])),
            "n_sequences": len(sequences),
        }
        fields.update(_accounting(cfg, keep_counts, policy,
                                  params_by_layer, memories))
        return make_record("sweep", cfg.config_hash, cfg.seed, fields)

    points = [(name, ratio) for name in names for ratio in SWEEP_RATIOS]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(eval_point, points))
    return [eval_point(p) for p in points]


def _stack_queries(buffered) -> QueryRows | None:
    """Query rows from the per-step dicts a DecodeSchedule buffered."""
    if not buffered:
        return None
    return QueryRows(x=np.stack([b["x"] for b in buffered]),
                     q_pre=np.stack([b["q_pre"] for b in buffered], axis=1),
                     q=np.stack([b["q"] for b in buffered], axis=1),
                     positions=np.array([b["pos"] for b in buffered],
                                        dtype=np.int64))


def _finite_row(row: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(row).all():
        raise DivergenceError(f"decode output non-finite at {where}")
    return row


def _simulate_decode(cfg: ExperimentConfig, teacher: TeacherModel,
                     x0: np.ndarray, budget: int | None,
                     params_by_layer=None) -> dict:
    """Prefill, then feed the teacher its own (normalized) outputs.

    Returns per-step kept sizes, cumulative evictions, and the full output
    matrix so callers can compare trajectories bit for bit. Raises
    :class:`DivergenceError` when the prompt's last output row or a step's
    output is non-finite, before it reaches attention or the records.
    """
    cfg_t = cfg.teacher
    cache = KvCache(cfg_t.n_layers, cfg_t.n_kv_heads, cfg_t.d_head,
                    sink_count=cfg.plan.sink_count)
    trace = teacher.forward(x0=x0)
    _finite_row(trace.output[-1], "the prompt")
    length = x0.shape[0]
    positions = np.arange(length)
    for li, lt in enumerate(trace.layers):
        cache.append(li, lt.k, lt.v, positions)

    policy = make_policy(cfg)
    use_indexer = policy.name == "indexer"
    if use_indexer and params_by_layer is None:
        raise ConfigError("the indexer policy needs a trained checkpoint")
    feature_caches = []
    if use_indexer:
        for li, lt in enumerate(trace.layers):
            fc = IndexerKeyCache(params_by_layer[li].d_index)
            fc.append(key_features(params_by_layer[li], lt.x_in), positions)
            feature_caches.append(fc)
    calls = 0
    evicted_total = 0

    def score(layer: int, queries: QueryRows | None) -> np.ndarray:
        nonlocal calls
        calls += 1
        kept = cache.positions(layer)
        if not use_indexer:
            return score_layer(policy, cache.keys(layer), kept, queries,
                               cfg_t.d_model, rng=Rng(policy.seed).split(4000 + calls))
        return score_layer(policy, cache.keys(layer), kept, queries,
                           cfg_t.d_model, params=params_by_layer[layer],
                           key_feats=feature_caches[layer].rows_for(kept))

    def scorer(layer: int, _cache, buffered) -> np.ndarray:
        return score(layer, _stack_queries(buffered))

    def on_evict(layer, keys, values, dropped_positions):
        nonlocal evicted_total
        evicted_total += dropped_positions.size

    def retain_features():
        for li, fc in enumerate(feature_caches):
            fc.retain(cache.positions(li))

    schedule = None
    if budget is not None:
        if budget < cfg.plan.sink_count + cfg.plan.local_window:
            raise ConfigError("decode budget must cover the sinks plus the "
                              "local window")
        plan = replace(cfg.plan, budget=budget,
                       decode_interval=cfg.decode_interval)
        for li, lt in enumerate(trace.layers):
            # The first compaction is scored against the prompt: the indexer
            # reads every prompt row, snapkv its trailing window, and tova
            # its last row.
            prompt = QueryRows(lt.x_in, lt.q_pre, lt.q, positions)
            on_evict(li, *budget_compress(cache, li, plan, score(li, prompt)))
        retain_features()
        schedule = DecodeSchedule(cache, plan)

    x_row = rmsnorm(trace.layers[-1].x_out[-1])
    outputs = np.zeros((cfg.decode_steps, cfg_t.d_model))
    kept_sizes = np.zeros(cfg.decode_steps, dtype=np.int64)
    evictions = np.zeros(cfg.decode_steps, dtype=np.int64)
    for t in range(cfg.decode_steps):
        pos = length + t
        step = teacher.forward_step(x_row, cache, pos)
        outputs[t] = _finite_row(step.output, f"step {t + 1}")
        for li, fc in enumerate(feature_caches):
            fc.append(key_features(params_by_layer[li], step.x_in[li][None, :]),
                      np.array([pos]))
        if schedule is not None:
            for li in range(cfg_t.n_layers):
                schedule.buffer_query(li, x=step.x_in[li],
                                      q_pre=step.q_pre[li], q=step.q[li],
                                      pos=pos)
            if schedule.step(scorer, on_evict=on_evict):
                retain_features()
        kept_sizes[t] = max(cache.length(li) for li in range(cfg_t.n_layers))
        evictions[t] = evicted_total
        x_row = rmsnorm(step.output)
    return {"outputs": outputs, "kept": kept_sizes, "evictions": evictions}


def decode_run(cfg: ExperimentConfig, params_by_layer=None) -> list:
    """Budget-sweep decode simulation records, reference included."""
    teacher = TeacherModel(cfg.teacher)
    x0, _ = input_sequence(cfg, teacher, Rng(cfg.seed).split(EVAL_STREAM))
    reference = _simulate_decode(cfg, teacher, x0, None, params_by_layer)
    total = cfg.data_length + cfg.decode_steps
    records = []
    for budget in cfg.decode_budgets:
        sim = _simulate_decode(cfg, teacher, x0, budget, params_by_layer)
        bound = budget + cfg.decode_interval
        for t in range(cfg.decode_steps):
            err = float(np.mean((sim["outputs"][t] - reference["outputs"][t]) ** 2))
            records.append(make_record("decode", cfg.config_hash, cfg.seed, {
                "policy": cfg.policy_name,
                "budget": budget,
                "step": t + 1,
                "kept": int(sim["kept"][t]),
                "bound": bound,
                "within": bool(sim["kept"][t] <= bound),
                "evicted": int(sim["evictions"][t]),
                "recon": err,
            }))
        records.append(make_record("decode_summary", cfg.config_hash, cfg.seed, {
            "policy": cfg.policy_name,
            "budget": budget,
            "bound_ok": bool(np.all(sim["kept"] <= bound)),
            "matches_reference": bool(np.array_equal(sim["outputs"],
                                                     reference["outputs"])),
            "covers_total": bool(budget >= total),
            "evicted_total": int(sim["evictions"][-1]),
        }))
    return records


def selftest() -> list:
    """Fast invariant battery: (name, passed) pairs, independent of config."""
    import tempfile
    from pathlib import Path

    from .checkpoint import load_weights, save_weights
    from .crosslayer import entropy_gated_mean, running_mean
    from .indexer import pooled_vectors
    from .memory import MEM_EPS, MemoryState, mem_read, mem_write
    from .numerics import masked_softmax_rows, normalized_entropy
    from .teacher import TeacherConfig, attend_rows

    checks = []
    cfg = TeacherConfig(n_layers=2, d_model=16, n_heads=4, n_kv_heads=2,
                        d_ffn=32, vocab_size=16, seed=9)
    teacher = TeacherModel(cfg)
    x0 = teacher.embed(Rng(1).integers(0, cfg.vocab_size, 24))
    trace = teacher.forward(x0=x0)
    lt = trace.layers[0]

    visible = np.tril(np.ones((24, 24), dtype=bool))
    manual = np.zeros((24, cfg.d_model))
    scale = 1.0 / np.sqrt(cfg.d_model)
    for t in range(24):
        for h in range(cfg.n_heads):
            g = cfg.n_kv_heads * h // cfg.n_heads
            logits = lt.k[g][: t + 1] @ lt.q[h][t] * scale
            w = np.exp(logits - logits.max())
            w /= w.sum()
            manual[t, h * cfg.d_head:(h + 1) * cfg.d_head] = w @ lt.v[g][: t + 1]
    engine = attend_rows(lt.q, lt.k, lt.v, cfg.d_model, visible=visible)
    checks.append(("attention matches quadratic reference",
                   float(np.max(np.abs(engine - manual))) < 1e-10))

    params = IndexerParams.init(cfg, Rng(2), h_index=2, d_index=3)
    batch = DistillBatch(x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q, k_rot=lt.k,
                         scale_dim=cfg.d_model, sink_count=3)
    t_a, s_a = pooled_vectors(params, batch, q_blk=3, k_blk=8)
    t_b, s_b = pooled_vectors(params, batch, q_blk=24, k_blk=24)
    checks.append(("streamed importance equals dense importance",
                   np.array_equal(t_a, t_b) and np.array_equal(s_a, s_b)))

    slow = MemorySlowWeights(w_phi=np.eye(4), w_gate=np.zeros(4),
                             gate_bias=0.0)
    state = mem_write(slow, MemoryState.zeros(4, 4), np.eye(4),
                      np.arange(16.0).reshape(4, 4), lam=1.0, eta=1.0)
    read = mem_read(slow, state, np.eye(4)[1])
    checks.append(("one-hot memory readout matches closed form",
                   float(np.max(np.abs(read * (1.0 + MEM_EPS)
                                       - np.arange(16.0).reshape(4, 4)[1]))) < 1e-9))

    plan = CompressionPlan(ratio=0.5, decode_interval=16, budget=32,
                           sink_count=4, local_window=8)
    cache = KvCache(1, 2, 4, sink_count=4)
    rng = Rng(3)
    cache.append(0, rng.normal((2, 40, 4)), rng.normal((2, 40, 4)),
                 np.arange(40))
    budget_compress(cache, 0, plan, Rng(11).uniform((40,)))
    sched = DecodeSchedule(cache, plan)
    bound_ok = True
    sinks_ok = True
    for t in range(200):
        pos = 40 + t
        cache.append(0, rng.normal((2, 1, 4)), rng.normal((2, 1, 4)),
                     np.array([pos]))
        sched.step(lambda layer, c, b: Rng(10).split(t).uniform((c.length(layer),)))
        bound_ok = bound_ok and cache.length(0) <= plan.budget + plan.decode_interval
        sinks_ok = sinks_ok and np.all(np.isin(np.arange(4), cache.positions(0)))
    checks.append(("decode retention stays within budget plus interval", bound_ok))
    checks.append(("sink rows survive every compaction", sinks_ok))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.kvgt"
        tensors = {"a": Rng(4).normal((3, 3)), "b": np.float64(2.0)}
        save_weights(path, tensors)
        loaded = load_weights(path)
        checks.append(("weights file round trip is exact",
                       all(np.array_equal(loaded[k], tensors[k])
                           for k in tensors)))

    bundle = LayerScoreBundle.from_scores(list(Rng(5).normal((4, 12))))
    gated = entropy_gated_mean(bundle, gamma=1.0, direction="skip_high")
    checks.append(("entropy gate at gamma one equals the running mean",
                   np.array_equal(gated, running_mean(bundle))))
    uniform = normalized_entropy(np.full(9, 1.0 / 9.0))
    checks.append(("uniform distribution has unit entropy",
                   abs(uniform - 1.0) < 1e-9))
    probs = masked_softmax_rows(np.array([[0.0, -np.inf, -np.inf]]))
    checks.append(("one-hot distribution has zero entropy",
                   abs(normalized_entropy(probs[0])) < 1e-9))
    return checks
