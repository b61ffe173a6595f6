"""Experiment drivers: training runs, ratio sweeps, decode simulation.

Everything here is deterministic in (config, seed): data seeds are split
from the config seed, sweep points own their Rng children, and thread
pools only parallelize across (sequence, layer) tasks whose results are
collected in submission order.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .cache import CompressionPlan, DecodeSchedule, KvCache, budget_compress
from .config import ConfigError, ExperimentConfig
from .episodes import (
    episode_loss,
    layer_episodes,
    plain_mse,
    prefill_episodes,
    train_memory,
)
from .indexer import (
    WSD_PEAK,
    DistillBatch,
    IndexerKeyCache,
    IndexerParams,
    key_features,
    train_indexer,
)
from .memory import MemorySlowWeights, MemoryState
from .metrics import make_record
from .numerics import DivergenceError, Rng, kl_divergence, rmsnorm
from .policies import QueryRows, score_layer, select
from .synth import planted_sequence, retention_recall
from .teacher import ForwardTrace, TeacherModel, pooled_teacher_importance

SWEEP_RATIOS = (0.0, 0.10, 0.25, 0.50, 0.75, 0.90)

TRAIN_STREAM = 1000
EVAL_STREAM = 2000
POLICY_STREAM = 3000
# Roots of the random policy's streams and of the initial indexer and
# memory weights; every config had these values when they were settable.
POLICY_SEED = 0
PARAM_SEED = 42


def input_sequence(cfg: ExperimentConfig, teacher: TeacherModel, rng: Rng,
                   n_needles: int):
    """One synthetic input per the configured data kind: (x0, planted)."""
    length = cfg.data_length
    if cfg.data_kind == "tokens":
        tokens = rng.integers(0, cfg.teacher.vocab_size, length)
        return teacher.embed(tokens), np.zeros(0, dtype=np.int64)
    # parse_config keeps these slots non-empty and before the query tail.
    needles = rng.split(99).integers(
        cfg.plan.sink_count, cfg.eval_start - cfg.plan.local_window, n_needles)
    planted = planted_sequence(teacher, length, needles, rng)
    return planted.x0, planted.planted


def training_sequences(cfg: ExperimentConfig, teacher: TeacherModel):
    """Each training sequence's ``(x0, planted)``, made when it is reached."""
    for i in range(cfg.n_train):
        rng = Rng(cfg.seed).split(TRAIN_STREAM + i)
        yield input_sequence(cfg, teacher, rng, n_needles=2)


def eval_sequences(cfg: ExperimentConfig, teacher: TeacherModel):
    """Each eval sequence's ``(x0, planted)``, made when it is reached."""
    for s in range(cfg.n_eval):
        rng = Rng(cfg.seed).split(EVAL_STREAM + s)
        yield input_sequence(cfg, teacher, rng, n_needles=1)


def batches_by_layer(teacher: TeacherModel, traces, sink_count: int) -> list:
    """Distillation batches for every layer from one teacher trace per sequence."""
    per_layer = [[] for _ in range(teacher.config.n_layers)]
    for trace in traces:
        for li, lt in enumerate(trace.layers):
            per_layer[li].append(DistillBatch(
                x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q, k_rot=lt.k,
                sink_count=sink_count))
        # Dropped here, so a generator's next trace is made without it.
        del trace, lt
    return per_layer


def init_indexer(cfg: ExperimentConfig) -> list:
    return [IndexerParams.init(cfg.teacher, Rng(PARAM_SEED).split(layer),
                               h_index=cfg.h_index, d_index=cfg.d_index)
            for layer in range(cfg.teacher.n_layers)]


def init_memory(cfg: ExperimentConfig) -> list:
    return [MemorySlowWeights.init(cfg.teacher.d_model,
                                   Rng(PARAM_SEED).split(100 + layer))
            for layer in range(cfg.teacher.n_layers)]


def fit_indexer(cfg: ExperimentConfig, teacher: TeacherModel,
                params_by_layer: list, traces) -> list:
    """Train every layer in place on batches built from ``traces``;
    returns per-step losses by layer. At zero steps ``traces`` is never
    read, so a generator of teacher forwards runs none."""
    if cfg.indexer_steps == 0:
        return [[] for _ in params_by_layer]
    per_layer = batches_by_layer(teacher, traces, cfg.plan.sink_count)
    return [train_indexer(params, per_layer[li], cfg.indexer_steps,
                          WSD_PEAK)
            for li, params in enumerate(params_by_layer)]


def _loss_curve(losses_by_layer: list) -> list:
    """One record per training step: the step's loss, averaged over layers."""
    return [{"step": step, "loss": float(np.mean(losses))}
            for step, losses in enumerate(zip(*losses_by_layer))]


def train_indexer_run(cfg: ExperimentConfig) -> dict:
    """Stage one: distill the teacher's pooled importance into the indexer."""
    teacher = TeacherModel(cfg.teacher)
    params = init_indexer(cfg)
    # A generator: each trace is freed once its batches are built.
    traces = (teacher.forward(x0=x0)
              for x0, _ in training_sequences(cfg, teacher))
    losses_by_layer = fit_indexer(cfg, teacher, params, traces)
    return {"params": params, "curve": _loss_curve(losses_by_layer)}


def _drain(items: list):
    """Yield a list's items in order, removing each from the list first."""
    items.reverse()
    while items:
        yield items.pop()


def _require_checkpoint(cfg: ExperimentConfig, params_by_layer) -> None:
    """A stage scoring with the indexer fails here, before any work, when
    it has no trained weights."""
    if cfg.policy_name == "indexer" and params_by_layer is None:
        raise ConfigError("the indexer policy needs a trained checkpoint")


def sequence_scores(name: str, trace: ForwardTrace, upto: int, s: int,
                    params_by_layer=None) -> list:
    """Scores of the first ``upto`` rows of sequence ``s``'s trace under the
    policy ``name``, per layer; a scorer that draws does so from the
    sequence's own stream."""
    positions = np.arange(upto)
    rng_parent = Rng(POLICY_SEED).split(POLICY_STREAM + s)
    scores = []
    for layer, lt in enumerate(trace.layers):
        x = lt.x_in[:upto]
        params = params_by_layer[layer] if name == "indexer" else None
        scores.append(score_layer(
            name, lt.k[:, :upto, :], positions,
            QueryRows(x, lt.q_pre[:, :upto, :], lt.q[:, :upto, :], positions),
            rng=rng_parent.split(50 + layer), params=params,
            key_feats=None if params is None else key_features(params, x)))
    return scores


def sequence_episodes(cfg: ExperimentConfig, traces, params_by_layer):
    """Yield the per-layer episodes of each trace in ``traces``, in order,
    under the configured policy and plan; the ``s``-th trace is scored as
    sequence ``s``. Each trace and its episodes are dropped before the
    next trace is drawn, so a generator of teacher forwards holds one at
    a time."""
    upto = cfg.eval_start
    prefix = np.arange(upto)
    s = 0   # by hand: enumerate's reused tuple would pin the last trace
    for trace in traces:
        scores = sequence_scores(cfg.policy_name, trace, upto, s,
                                 params_by_layer)
        eps = prefill_episodes(trace, upto,
                               [select(cfg.plan, sc, prefix) for sc in scores])
        del trace, scores
        yield eps
        del eps
        s += 1


def build_episode_sets(cfg: ExperimentConfig, traces,
                       params_by_layer=None) -> list:
    """Per-layer episode lists for the configured policy at the plan ratio.

    ``traces`` yields each sequence's teacher trace, in order; a generator
    lets each trace be freed once its episodes are built.
    """
    per_layer = [[] for _ in range(cfg.teacher.n_layers)]
    for eps in sequence_episodes(cfg, traces, params_by_layer):
        for li, ep in enumerate(eps):
            per_layer[li].append(ep)
    return per_layer


def train_memory_run(cfg: ExperimentConfig, indexer_params: list) -> dict:
    """Stage two: fit the per-layer compensation memories, then evaluate
    them.

    The indexer keeps training on the same distillation batches before the
    eviction episodes are built, so the memories learn against the keep
    sets the final indexer actually produces. Both come from one teacher
    trace per training sequence. Only the indexer policy needs
    ``indexer_params``; without them the result's ``params`` is ``None``.
    The result's ``eval`` is :func:`memory_eval_losses` of the initial and
    the trained memories: ``[loss_init, loss_trained]``.
    """
    _require_checkpoint(cfg, indexer_params)
    teacher = TeacherModel(cfg.teacher)
    params = ([p.copy() for p in indexer_params]
              if indexer_params is not None else None)
    traces = [teacher.forward(x0=x0)
              for x0, _ in training_sequences(cfg, teacher)]
    if cfg.policy_name == "indexer":
        fit_indexer(cfg, teacher, params, traces)
    # Each trace is freed once its episodes are built, so all the traces
    # and all the episodes are never alive together.
    per_layer_eps = build_episode_sets(cfg, _drain(traces),
                                       params_by_layer=params)
    memories = init_memory(cfg)
    losses_by_layer = [train_memory(memories[li], per_layer_eps[li],
                                    steps=cfg.mem_steps)
                       for li in range(cfg.teacher.n_layers)]
    del per_layer_eps
    return {"params": params, "memories": memories,
            "curve": _loss_curve(losses_by_layer),
            "eval": memory_eval_losses(cfg, teacher, params,
                                       (init_memory(cfg), memories))}


def memory_eval_losses(cfg: ExperimentConfig, teacher: TeacherModel,
                       params_by_layer, memory_sets) -> list:
    """Mean eval-episode loss of each memory list in ``memory_sets``.

    The eval sequences are episoded one at a time by
    :func:`sequence_episodes`, and only their loss scalars are kept, so one
    sequence's trace and episodes are alive at a time. Each mean sums its
    losses layer by layer, each layer's in sequence order.
    """
    losses = [[[] for _ in range(cfg.teacher.n_layers)] for _ in memory_sets]
    traces = (teacher.forward(x0=x0) for x0, _ in eval_sequences(cfg, teacher))
    for eps in sequence_episodes(cfg, traces, params_by_layer):
        for memories, per_layer in zip(memory_sets, losses):
            for li, memory in enumerate(memories):
                per_layer[li].append(episode_loss(memory, eps[li]))
        del eps
    means = []
    for per_layer in losses:
        per = [loss for layer in per_layer for loss in layer]
        means.append(float(sum(per) / len(per)))
    return means


def _accounting(cfg: ExperimentConfig, kept: int, name: str,
                params_by_layer, memories) -> dict:
    """Bytes held after compaction, when every layer keeps ``kept`` rows."""
    kv = (cfg.teacher.n_layers * kept
          * cfg.teacher.n_kv_heads * cfg.teacher.d_head * 2 * 8)
    idx = 0
    if name == "indexer" and params_by_layer is not None:
        idx = sum(kept * p.d_index * 8 for p in params_by_layer)
    mem = sum(MemoryState.zeros(m.d_mem, m.d_model).nbytes()
              for m in memories or ())
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

    One pass over the eval sequences, one sequence at a time. Each piece of
    work runs once at the level it depends on:

    - per eval sequence: the teacher trace and the teacher's pooled
      importance;
    - per (policy, sequence): the layer scores and their KL against the
      teacher's importance, so the random policy draws its stream once;
    - per (sequence, layer): the eval rows' full-cache softmax, which
      :func:`~kvgate.episodes.layer_episodes` shares across every point;
    - per (policy, ratio) point, sequence and layer: the keep set, the
      episode and the metrics that read it.

    A point keeps only its per-layer scalars, in (sequence, layer) order,
    so a sequence's trace and episodes are freed once its layers are done.
    Every (sequence, layer) task runs on one pool of ``threads`` workers,
    made once; results are collected in submission order, so the records
    do not depend on the thread count.
    """
    _require_checkpoint(cfg, params_by_layer)
    teacher = TeacherModel(cfg.teacher)
    upto = cfg.eval_start
    prefix = np.arange(upto)
    support = np.arange(cfg.plan.sink_count, upto)
    names = sweep_policies(cfg)
    plans = {ratio: replace(cfg.plan, ratio=ratio) for ratio in SWEEP_RATIOS}
    points = [(name, ratio) for name in names for ratio in SWEEP_RATIOS]
    # Per point, record field -> its per-layer values over the sequences.
    results = {point: {} for point in points}
    kls = {name: [] for name in names}
    # Sequence index -> (trace, planted, scores by policy) while its
    # layers run. Tasks look their sequence up here rather than holding it,
    # so a sequence is freed as soon as its layers are collected.
    live = {}

    def eval_layer(s, layer) -> list:
        # Every point's values at one layer of sequence s, in point order;
        # one episode is alive at a time.
        trace, planted, scored = live[s]
        keeps = [select(plans[ratio], scored[name][layer], prefix)
                 for name, ratio in points]
        values = []
        for keep, ep in zip(keeps, layer_episodes(trace.layers[layer], upto,
                                                  keeps)):
            attn = plain_mse(ep)
            values.append({
                "recon_attn": attn,
                "recall": retention_recall(keep, planted),
                "recon_fused": (attn if memories is None
                                else episode_loss(memories[layer], ep))})
        return values

    def prepare(s, x0, planted) -> None:
        # Built here, not on the pool: when pool threads made arrays that
        # outlive the threads, a process that swept repeatedly grew its
        # peak RSS with every call (85 -> 93 MB over 12 sweep-planted calls).
        trace = teacher.forward(x0=x0)
        teacher_imp = [pooled_teacher_importance(lt.q[:, :upto, :],
                                                 lt.k[:, :upto, :])
                       for lt in trace.layers]
        scored = {}
        for name in names:
            scored[name] = sequence_scores(name, trace, upto, s,
                                           params_by_layer)
            kls[name].extend(kl_divergence(imp[support], sc[support])
                             for imp, sc in zip(teacher_imp, scored[name]))
        live[s] = (trace, planted, scored)

    def collect(s, futures) -> None:
        for future in futures:
            for point, values in zip(points, future.result()):
                for key, value in values.items():
                    results[point].setdefault(key, []).append(value)
        del live[s]

    # Sequence s is prepared here while the pool runs the layers of s - 1,
    # and its layers are submitted before those are collected, so the pool
    # is not left idle at a sequence boundary. At most two sequences are
    # live.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = None
        for s, (x0, planted) in enumerate(eval_sequences(cfg, teacher)):
            prepare(s, x0, planted)
            submitted = s, [pool.submit(eval_layer, s, layer)
                            for layer in range(cfg.teacher.n_layers)]
            if pending is not None:
                collect(*pending)
            pending = submitted
        collect(*pending)

    # The keep rule's count depends only on the plan and the prefix length,
    # and at ratio 1 it keeps exactly the forced rows.
    kept = {ratio: select(replace(cfg.plan, ratio=ratio), np.zeros(upto),
                          prefix).size
            for ratio in (*SWEEP_RATIOS, 1.0)}
    forced = kept[1.0]
    candidates = upto - forced
    records = []
    for point in points:
        name, ratio = point
        kept_fraction = ((kept[ratio] - forced) / candidates
                         if candidates else 1.0)
        fields = {
            "policy": name,
            "ratio": ratio,
            **{key: float(np.mean(values))
               for key, values in results[point].items()},
            "kept_fraction": float(kept_fraction),
            "pooled_kl": float(np.mean(kls[name])),
            "n_sequences": cfg.n_eval,
        }
        fields.update(_accounting(cfg, kept[ratio], name,
                                  params_by_layer, memories))
        records.append(make_record("sweep", cfg.config_hash, cfg.seed, fields))
    return records


def _window_queries(window, layer: int, s: int) -> QueryRows:
    """Simulation ``s``'s query rows at ``layer`` over the lockstep steps
    in ``window``, each a ``(position, x_in, q_pre, q)`` tuple."""
    positions, x_in, q_pre, q = zip(*window)
    return QueryRows(x=np.stack([rows[layer][s] for rows in x_in]),
                     q_pre=np.stack([rows[layer][s] for rows in q_pre], axis=1),
                     q=np.stack([rows[layer][s] for rows in q], axis=1),
                     positions=np.array(positions, dtype=np.int64))


def _finite_row(row: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(row).all():
        raise DivergenceError(f"decode output non-finite at {where}")
    return row


class _Simulation:
    """One decode simulation's own state: the reference (no budget) or one
    budget's run with its schedule, indexer feature caches and scorer
    stream counter. The query rows its compactions score live in the
    lockstep loop's one window, shared by every simulation.

    State lives in plain attributes, never in closures or stored bound
    methods, so nothing forms a reference cycle: a finished simulation's
    caches are freed as soon as :func:`decode_run` drops it, without
    waiting for the cyclic garbage collector.
    """

    def __init__(self, cfg: ExperimentConfig, budget: int | None, trace,
                 params_by_layer, prompt_features):
        cfg_t = cfg.teacher
        self.budget = budget
        self.name = "reference" if budget is None else f"budget {budget}"
        self.policy = cfg.policy_name
        self.params = params_by_layer if self.policy == "indexer" else None
        self.calls = 0
        self.evicted = 0
        self.outputs = np.zeros((cfg.decode_steps, cfg_t.d_model))
        self.kept = np.zeros(cfg.decode_steps, dtype=np.int64)
        self.evictions = np.zeros(cfg.decode_steps, dtype=np.int64)
        self.cache = KvCache(cfg_t.n_layers, cfg_t.n_kv_heads, cfg_t.d_head,
                             sink_count=cfg.plan.sink_count)
        positions = np.arange(trace.output.shape[0])
        for li, lt in enumerate(trace.layers):
            self.cache.append(li, lt.k, lt.v, positions)
        self.feature_caches = []
        self.schedule = None
        if budget is None:
            return
        if self.params is not None:
            for li, feats in enumerate(prompt_features):
                fc = IndexerKeyCache(self.params[li].d_index)
                fc.append(feats, positions)
                self.feature_caches.append(fc)
        plan = replace(cfg.plan, budget=budget)
        for li, lt in enumerate(trace.layers):
            # The first compaction is scored against the prompt: the indexer
            # reads every prompt row, snapkv its trailing window, and tova
            # its last row.
            prompt = QueryRows(lt.x_in, lt.q_pre, lt.q, positions)
            self.on_evict(li, *budget_compress(self.cache, li, plan,
                                               self.score(li, prompt)))
        self.schedule = DecodeSchedule(self.cache, plan)

    def score(self, layer: int, queries: QueryRows) -> np.ndarray:
        self.calls += 1
        kept = self.cache.positions(layer)
        params = key_feats = None
        if self.params is not None:
            params = self.params[layer]
            key_feats = self.feature_caches[layer].rows_for(kept)
        return score_layer(self.policy, self.cache.keys(layer), kept, queries,
                           rng=Rng(POLICY_SEED).split(4000 + self.calls),
                           params=params, key_feats=key_feats)

    def on_evict(self, layer, keys, values, dropped_positions) -> None:
        self.evicted += dropped_positions.size
        if self.feature_caches:
            self.feature_caches[layer].retain(self.cache.positions(layer))

    def advance(self, t: int, window, s: int) -> None:
        """Run the schedule, scoring row ``s`` of the window's queries, and
        record step ``t``'s kept size and evictions."""
        if self.schedule is not None:
            self.schedule.step(
                lambda layer: self.score(layer, _window_queries(window, layer, s)),
                on_evict=self.on_evict)
        self.kept[t] = max(self.cache.length(li)
                           for li in range(self.cache.n_layers))
        self.evictions[t] = self.evicted


def _run_lockstep(cfg: ExperimentConfig, teacher: TeacherModel,
                  x0: np.ndarray, params_by_layer) -> list:
    """Prefill once, then decode the reference and every budget in lockstep,
    feeding each simulation its own (normalized) outputs.

    Returns the simulations, reference first, then one per budget in
    config order. Raises :class:`DivergenceError`, naming the step and the
    simulation, when the prompt's last output row or a step's output row
    is non-finite, before it reaches attention or the records.
    """
    trace = teacher.forward(x0=x0)
    _finite_row(trace.output[-1], "the prompt")
    prompt_features = []
    if cfg.policy_name == "indexer":
        prompt_features = [key_features(params_by_layer[li], lt.x_in)
                           for li, lt in enumerate(trace.layers)]
    sims = [_Simulation(cfg, budget, trace, params_by_layer, prompt_features)
            for budget in (None, *cfg.decode_budgets)]
    # Only budget runs score, so the indexer's feature caches belong to the
    # trailing rows of each step.
    scored = [sim for sim in sims if sim.feature_caches]
    first = len(sims) - len(scored)
    caches = [sim.cache for sim in sims]
    x_rows = np.repeat(rmsnorm(trace.output[-1])[None, :],
                       len(sims), axis=0)
    length = x0.shape[0]
    # The prompt's trace is not read past the start-of-decode compactions.
    del trace, prompt_features
    # The last interval's query rows: every schedule compacts only after a
    # whole interval of steps, so at a boundary the window holds exactly the
    # rows its compactions score.
    window = deque(maxlen=cfg.plan.decode_interval)
    for t in range(cfg.decode_steps):
        pos = length + t
        step = teacher.forward_step(x_rows, caches, pos)
        for sim, row in zip(sims, step.output):
            sim.outputs[t] = _finite_row(row, f"step {t + 1} ({sim.name})")
        if scored:
            for li, params in enumerate(params_by_layer):
                feats = key_features(params, step.x_in[li][first:, None, :])
                for sim, row in zip(scored, feats):
                    sim.feature_caches[li].append(row, np.array([pos]))
        window.append((pos, step.x_in, step.q_pre, step.q))
        for s, sim in enumerate(sims):
            sim.advance(t, window, s)
        x_rows = rmsnorm(step.output)
    return sims


def decode_run(cfg: ExperimentConfig, params_by_layer=None) -> list:
    """Budget-sweep decode simulation records, reference included."""
    _require_checkpoint(cfg, params_by_layer)
    teacher = TeacherModel(cfg.teacher)
    x0, _ = next(eval_sequences(cfg, teacher))
    reference, *sims = _run_lockstep(cfg, teacher, x0, params_by_layer)
    total = cfg.data_length + cfg.decode_steps
    records = []
    for sim in sims:
        budget = sim.budget
        bound = budget + cfg.plan.decode_interval
        recon = np.mean((sim.outputs - reference.outputs) ** 2, axis=1)
        for t in range(cfg.decode_steps):
            records.append(make_record("decode", cfg.config_hash, cfg.seed, {
                "policy": cfg.policy_name,
                "budget": budget,
                "step": t + 1,
                "kept": int(sim.kept[t]),
                "bound": bound,
                "within": bool(sim.kept[t] <= bound),
                "evicted": int(sim.evictions[t]),
                "recon": float(recon[t]),
            }))
        records.append(make_record("decode_summary", cfg.config_hash, cfg.seed, {
            "policy": cfg.policy_name,
            "budget": budget,
            "bound_ok": bool(np.all(sim.kept <= bound)),
            "matches_reference": bool(np.array_equal(sim.outputs,
                                                     reference.outputs)),
            "covers_total": bool(budget >= total),
            "evicted_total": int(sim.evictions[-1]),
        }))
    return records


def selftest() -> list:
    """Fast invariant battery: (name, passed) pairs, independent of config."""
    import tempfile
    from pathlib import Path

    from .checkpoint import load_weights, save_weights
    from .indexer import distill_gradients, distill_loss
    from .memory import MEM_EPS, mem_read, mem_write
    from .teacher import TeacherConfig, attend_rows, head_logits

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
    engine = attend_rows(lt.q, lt.k, lt.v, visible=visible)
    checks.append(("attention matches quadratic reference",
                   float(np.max(np.abs(engine - manual))) < 1e-10))

    # Keep sets that evict every row's full-cache argmax key, every other
    # key, and nothing: the shared softmax must give the bits of attention
    # under each keep set's explicit mask.
    visible = np.tri(12, 24, 12, dtype=bool)
    q_rows = lt.q[:, 12:, :]
    tops = np.unique([np.argmax(w, axis=-1) for _, _, w
                      in head_logits(q_rows, lt.k, visible)])
    keeps = [np.setdiff1d(np.arange(12), tops), np.arange(0, 12, 2),
             np.arange(12)]
    o_full = attend_rows(q_rows, lt.k, lt.v, visible=visible)
    same = bool((tops < 12).any())
    for keep, ep in zip(keeps, layer_episodes(lt, 12, keeps)):
        kept = visible.copy()
        kept[:, :12] = False
        kept[:, keep] = True
        o_kept = attend_rows(q_rows, lt.k, lt.v, visible=kept)
        same = same and np.array_equal(ep.targets, o_full - o_kept)
    checks.append(("shared-softmax episodes equal masked attention", same))

    params = IndexerParams.init(cfg, Rng(2), h_index=2, d_index=3)
    batch = DistillBatch(x=lt.x_in, q_pre=lt.q_pre, q_rot=lt.q, k_rot=lt.k,
                         sink_count=3)
    checks.append(("scored importance equals the training forward",
                   distill_loss(params, batch)
                   == distill_gradients(params, batch)[0]))

    slow = MemorySlowWeights(w_phi=np.eye(4), w_gate=np.zeros(4),
                             gate_bias=0.0)
    state = mem_write(slow, MemoryState.zeros(4, 4), np.eye(4),
                      np.arange(16.0).reshape(4, 4), lam=1.0)
    read = mem_read(slow, state, np.eye(4)[1:2])
    checks.append(("one-hot memory readout matches closed form",
                   float(np.max(np.abs(read * (1.0 + MEM_EPS)
                                       - np.arange(16.0).reshape(4, 4)[1:2]))) < 1e-9))

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
        sched.step(lambda layer: Rng(10).split(t).uniform((cache.length(layer),)))
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

    return checks
