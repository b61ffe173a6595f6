"""Teacher-forced reconstruction episodes for memory training.

An episode freezes, for one layer of one sequence, everything the memory
module needs to learn from: the queries of the tokens that ran against a
compressed cache, the attention output they lost to eviction, and the
exact write events that fed the memory along the way. Training replays
the writes symbolically so gradients reach the feature map through both
the read and the write path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .memory import (
    MEM_EPS,
    MemorySlowWeights,
    MemoryState,
    gate,
    mem_read,
    mem_write,
    phi,
    tokens_from_evicted,
)
from .numerics import DivergenceError
from .teacher import ForwardTrace, TeacherModel, attend_rows, flatten_heads


@dataclass(frozen=True)
class WriteEvent:
    """One eviction burst: token-level rows headed for the memory."""

    keys: np.ndarray     # (n, d_model)
    values: np.ndarray   # (n, d_model)

    def __post_init__(self):
        if self.keys.shape != self.values.shape or self.keys.ndim != 2:
            raise ValueError("write rows must be matching (n, d_model)")


@dataclass
class LayerEpisode:
    """Reads and writes for one layer, in stream order.

    ``reads_after[i]`` counts how many write events had landed before the
    i-th query ran, so replay can reconstruct the state each read saw.
    """

    queries: np.ndarray              # (n_eval, d_model) flattened pre-RoPE queries
    targets: np.ndarray              # (n_eval, d_model) full minus compressed output
    writes: list = field(default_factory=list)
    reads_after: np.ndarray | None = None

    def __post_init__(self):
        self.queries = np.asarray(self.queries, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.queries.shape != self.targets.shape or self.queries.ndim != 2:
            raise ValueError("queries and targets must be matching rows")
        if self.reads_after is None:
            self.reads_after = np.full(len(self.queries), len(self.writes),
                                       dtype=np.int64)
        self.reads_after = np.asarray(self.reads_after, dtype=np.int64)
        if self.reads_after.shape != (len(self.queries),):
            raise ValueError("reads_after must label every query row")
        if self.reads_after.size and (self.reads_after.min() < 0
                                      or self.reads_after.max() > len(self.writes)):
            raise ValueError("reads_after out of range")

    @property
    def n_eval(self) -> int:
        return self.queries.shape[0]


def plain_mse(episode: LayerEpisode) -> float:
    """Reconstruction error left by compression when no memory helps."""
    return float(np.mean(episode.targets ** 2))


@dataclass(frozen=True)
class FullRun:
    """One sequence's uncompressed run: the part of an episode no keep set moves.

    Holds the teacher trace, the causal mask of the rows from ``eval_start``
    on over the full cache, and each layer's attention output for those rows
    under that mask. Build it once per sequence with :meth:`of` and pass it
    to every :func:`prefill_episodes` call on that sequence.
    """

    trace: ForwardTrace
    eval_start: int
    visible: np.ndarray   # (n_eval, L) bool, row i sees positions <= eval_start + i
    o_full: list          # per layer, (n_eval, n_heads * d_head)

    @classmethod
    def of(cls, teacher: TeacherModel, x0: np.ndarray, eval_start: int) -> FullRun:
        x0 = np.asarray(x0, dtype=np.float64)
        length = x0.shape[0]
        if not 0 < eval_start < length:
            raise ValueError("eval start must split the sequence")
        trace = teacher.forward(x0=x0)
        visible = np.tri(length - eval_start, length, eval_start, dtype=bool)
        o_full = [attend_rows(lt.q[:, eval_start:, :], lt.k, lt.v,
                              visible=visible)
                  for lt in trace.layers]
        return cls(trace, eval_start, visible, o_full)


def prefill_episodes(full_run: FullRun, keeps_by_layer) -> list:
    """One episode per layer for a compress-then-continue run.

    The first ``full_run.eval_start`` tokens are compressed to each layer's
    keep set (row indices into that prefix, from
    :func:`kvgate.policies.select`); every later token reads the surviving
    prefix plus the uncompressed tail it arrived with. Targets compare
    against the same token's attention over the full cache, so an all-keep
    set yields exactly zero targets.

    A caller trying several keep sets on one sequence builds its
    :class:`FullRun` once. Per call, only the keep-set attention is
    computed, and not even that when nothing is evicted.
    """
    layers = full_run.trace.layers
    if len(keeps_by_layer) != len(layers):
        raise ValueError("need one keep set per layer")
    eval_start = full_run.eval_start
    n_eval = full_run.visible.shape[0]
    episodes = []
    prefix = np.arange(eval_start)
    for li, lt in enumerate(layers):
        keep = np.asarray(keeps_by_layer[li], dtype=np.int64)
        if keep.size and (keep.min() < 0 or keep.max() >= eval_start):
            raise ValueError("keep sets must index the compressed prefix")
        evicted = np.setdiff1d(prefix, keep)
        o_full = full_run.o_full[li]
        o_kept = o_full
        if evicted.size:
            kept = full_run.visible.copy()
            kept[:, :eval_start] = False
            kept[:, keep] = True
            o_kept = attend_rows(lt.q[:, eval_start:, :], lt.k, lt.v,
                                 visible=kept)
        k_tok, v_tok = tokens_from_evicted(lt.k[:, evicted, :],
                                           lt.v[:, evicted, :],
                                           lt.q.shape[0])
        episodes.append(LayerEpisode(
            queries=flatten_heads(lt.q_pre)[eval_start:],
            targets=o_full - o_kept,
            writes=[WriteEvent(k_tok, v_tok)],
            reads_after=np.ones(n_eval, dtype=np.int64)))
    return episodes


def _shape_key(episode: LayerEpisode) -> tuple:
    """What episodes must share to be stacked: rows, write sizes, read order."""
    return (episode.n_eval, tuple(ev.keys.shape[0] for ev in episode.writes),
            episode.reads_after.tobytes())


@dataclass(frozen=True)
class EpisodeStack:
    """Episodes of one shape, stacked along a leading episode axis ``E``.

    ``queries`` and ``targets`` are (E, n_eval, d_model); the j-th write
    event of every episode is ``write_keys[j]`` / ``write_values[j]``, each
    (E, w_j, d_model). All episodes share ``reads_after`` (n_eval,).
    The stack also owns :func:`episode_loss_and_grads`' work arrays, so a
    training loop that reuses one stack allocates them once; they make a
    stack unfit for concurrent kernel calls.
    """

    queries: np.ndarray
    targets: np.ndarray
    write_keys: tuple
    write_values: tuple
    reads_after: np.ndarray
    _work: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _work_arrays(self, group: int, n_rows: int) -> tuple:
        """Three contiguous (E, n_rows, d_model) arrays for the rows that
        read after ``group`` writes, made on first use and reused after."""
        arrays = self._work.get(group)
        if arrays is None:
            shape = (self.queries.shape[0], n_rows, self.queries.shape[2])
            arrays = self._work[group] = tuple(np.empty(shape) for _ in range(3))
        return arrays

    @classmethod
    def of(cls, episodes) -> EpisodeStack:
        if not episodes:
            raise ValueError("no episodes")
        key = _shape_key(episodes[0])
        if any(_shape_key(ep) != key for ep in episodes):
            raise ValueError("stacked episodes must share rows, write sizes "
                             "and reads_after")
        n_writes = len(episodes[0].writes)
        return cls(
            queries=np.stack([ep.queries for ep in episodes]),
            targets=np.stack([ep.targets for ep in episodes]),
            write_keys=tuple(np.stack([ep.writes[j].keys for ep in episodes])
                             for j in range(n_writes)),
            write_values=tuple(np.stack([ep.writes[j].values for ep in episodes])
                               for j in range(n_writes)),
            reads_after=episodes[0].reads_after)


@dataclass(frozen=True)
class EpisodeBatch:
    """A batch of episodes as one :class:`EpisodeStack` per shape.

    ``order[s]`` holds the batch positions of ``stacks[s]``'s episodes, so
    per-episode results can be put back in the order the batch was given.
    """

    stacks: tuple
    order: tuple
    size: int

    @classmethod
    def of(cls, episodes) -> EpisodeBatch:
        if not episodes:
            raise ValueError("no episodes")
        groups = {}
        for i, ep in enumerate(episodes):
            groups.setdefault(_shape_key(ep), []).append(i)
        return cls(stacks=tuple(EpisodeStack.of([episodes[i] for i in idx])
                                for idx in groups.values()),
                   order=tuple(np.array(idx) for idx in groups.values()),
                   size=len(episodes))


def _replay_states(slow: MemorySlowWeights, keys, values, n_ep: int,
                   lam: float, eta: float):
    """A stack's writes replayed as :func:`mem_write` does them: per-event
    features and the state ``m[j]``/``b[j]`` a read sees after ``j`` writes."""
    feats = [phi(slow, k) for k in keys]
    ms = [np.zeros((n_ep, slow.d_mem, slow.d_model))]
    bs = [np.zeros((n_ep, slow.d_mem))]
    for v, f in zip(values, feats):
        ms.append(lam * ms[-1] + eta * (np.swapaxes(f, -1, -2) @ v))
        bs.append(lam * bs[-1] + eta * (f ** 2).sum(axis=-2))
    return feats, ms, bs


def episode_loss(slow: MemorySlowWeights, episode: LayerEpisode,
                 lam: float = 0.95, eta: float = 1.0) -> float:
    """Mean squared residual after the gated readout is subtracted, by the
    memory's own forward: :func:`mem_write` per write event, then
    :func:`mem_read` and :func:`gate` per ``reads_after`` group."""
    states = [MemoryState.zeros(slow.d_mem, slow.d_model)]
    for ev in episode.writes:
        states.append(mem_write(slow, states[-1], ev.keys, ev.values,
                                lam=lam, eta=eta))
    total = 0.0
    for j in np.unique(episode.reads_after):
        rows = episode.reads_after == j
        q = episode.queries[rows]
        resid = (episode.targets[rows]
                 - gate(slow, q)[:, None] * mem_read(slow, states[j], q))
        total += float(np.sum(resid ** 2))
    return total / episode.targets.size


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of every episode in ``a`` (E, n, ...), C-contiguous.

    ``a[:, idx]`` would lay the copy out row-major over (idx, E), which
    slows every later elementwise op; a read that sees every row gets
    ``a`` itself.
    """
    return a if idx.size == a.shape[1] else a.take(idx, axis=1)


def episode_loss_and_grads(slow: MemorySlowWeights, stack: EpisodeStack,
                           lam: float = 0.95, eta: float = 1.0):
    """Per-episode losses plus analytic slow-weight gradients over a stack.

    Every array carries the stack's leading episode axis E: queries and
    targets (E, n, d_model), write rows (E, w, d_model), states
    (E, d_mem, d_model). Returns ``(losses, grads)``: a list of E losses,
    and ``w_phi`` (E, d_model, d_mem), ``w_gate`` (E, d_model) and
    ``gate_bias`` (a list of E floats), one gradient per episode.

    Each episode's results are byte-identical to running it alone, and its
    loss to :func:`episode_loss` (the memory's own forward, which this one
    fuses with what the backward needs), because the kernel keeps three rules:

    1. every elementwise expression has the single-episode form, with the
       episode axis broadcast (``m = num / denom``, ``resid = t - g * m``,
       ``d_pred = (-2 / size) * resid``);
    2. transposed operands are ``np.swapaxes`` views, never contiguous
       copies, so every per-episode BLAS call sees the same layout;
    3. nothing reduces over the episode axis here; scalars are summed per
       episode in Python (see :func:`memory_loss_and_grads` for the mean);
    4. the (E, rows, d_model) work arrays of a ``reads_after`` group are
       written with ``out=`` into the stack's own arrays for that group
       (:meth:`EpisodeStack._work_arrays`), each contiguous in the group's
       exact shape: a strided view of a larger buffer would change
       ``np.sum``'s pairwise order. Nothing returned aliases them, and a
       stack must not serve two calls at once.

    The write path is differentiated by running the state recursion
    backwards.
    """
    queries, targets = stack.queries, stack.targets
    n_ep = queries.shape[0]
    feats_k, ms, bs = _replay_states(slow, stack.write_keys,
                                     stack.write_values, n_ep, lam, eta)
    n_writes = len(stack.write_keys)
    feat_q = phi(slow, queries)
    g = gate(slow, queries)

    grad_phi = np.zeros((n_ep,) + slow.w_phi.shape)
    grad_gate = np.zeros((n_ep,) + slow.w_gate.shape)
    grad_bias = [0.0] * n_ep
    ds_acc = [np.zeros_like(ms[0]) for _ in range(n_writes + 1)]
    db_acc = [np.zeros_like(bs[0]) for _ in range(n_writes + 1)]

    totals = [0.0] * n_ep
    size = targets[0].size
    inv_size = 1.0 / size
    for j in np.unique(stack.reads_after):
        idx = np.flatnonzero(stack.reads_after == j)
        st_m, st_b = ms[j], bs[j]
        fq = _rows(feat_q, idx)
        q_rows = np.swapaxes(_rows(queries, idx), 1, 2)
        g_rows = _rows(g, idx)
        denom = ((fq ** 2) @ st_b[:, :, None])[:, :, 0] + MEM_EPS
        m, resid, work = stack._work_arrays(j, idx.size)
        np.matmul(fq, st_m, out=m)
        np.divide(m, denom[:, :, None], out=m)
        np.multiply(g_rows[:, :, None], m, out=resid)
        np.subtract(_rows(targets, idx), resid, out=resid)
        np.square(resid, out=work)
        for e in range(n_ep):
            totals[e] += float(np.sum(work[e]))

        d_pred = np.multiply(-2.0 * inv_size, resid, out=resid)
        d_g = np.sum(np.multiply(d_pred, m, out=work), axis=2)
        d_m = np.multiply(d_pred, g_rows[:, :, None], out=d_pred)
        d_z = d_g * g_rows * (1.0 - g_rows)
        grad_gate += (q_rows @ d_z[:, :, None])[:, :, 0]
        for e in range(n_ep):
            grad_bias[e] += float(d_z[e].sum())

        d_denom = -np.sum(np.multiply(d_m, m, out=work), axis=2) / denom
        d_num = np.divide(d_m, denom[:, :, None], out=d_m)
        d_fq = (d_num @ np.swapaxes(st_m, 1, 2)
                + 2.0 * fq * st_b[:, None, :] * d_denom[:, :, None])
        grad_phi += q_rows @ d_fq
        if j > 0:
            ds_acc[j] += np.swapaxes(fq, 1, 2) @ d_num
            db_acc[j] += (np.swapaxes(fq ** 2, 1, 2) @ d_denom[:, :, None])[:, :, 0]

    ds = np.zeros_like(ms[0])
    db = np.zeros_like(bs[0])
    for j in range(n_writes, 0, -1):
        ds += ds_acc[j]
        db += db_acc[j]
        fk = feats_k[j - 1]
        d_fk = (eta * (stack.write_values[j - 1] @ np.swapaxes(ds, 1, 2))
                + 2.0 * eta * fk * db[:, None, :])
        grad_phi += np.swapaxes(stack.write_keys[j - 1], 1, 2) @ d_fk
        ds = lam * ds
        db = lam * db

    grads = {"w_phi": grad_phi, "w_gate": grad_gate, "gate_bias": grad_bias}
    return [t / size for t in totals], grads


def memory_loss_and_grads(slow: MemorySlowWeights, episodes,
                          lam: float = 0.95, eta: float = 1.0):
    """Mean episode loss and averaged gradients over a batch of episodes.

    ``episodes`` is an :class:`EpisodeBatch`, or a list of episodes that is
    stacked here. One :func:`episode_loss_and_grads` call per stack gives
    per-episode results, which are then averaged in batch order: scalars by
    a Python loop, arrays by ``(w * G).sum(axis=0)`` over the episode axis,
    which adds the episodes one after another. Both match averaging the
    episodes one at a time, bit for bit.
    """
    batch = (episodes if isinstance(episodes, EpisodeBatch)
             else EpisodeBatch.of(episodes))
    losses = [0.0] * batch.size
    biases = [0.0] * batch.size
    d_model, d_mem = slow.w_phi.shape
    grad_phi = np.empty((batch.size, d_model, d_mem))
    grad_gate = np.empty((batch.size, d_model))
    for stack, idx in zip(batch.stacks, batch.order):
        ls, gs = episode_loss_and_grads(slow, stack, lam, eta)
        grad_phi[idx] = gs["w_phi"]
        grad_gate[idx] = gs["w_gate"]
        for pos, i in enumerate(idx):
            losses[i] = ls[pos]
            biases[i] = gs["gate_bias"][pos]
    weight = 1.0 / batch.size
    loss = 0.0
    for l in losses:
        loss += weight * l
    bias = weight * np.float64(biases[0])
    for b in biases[1:]:
        bias = bias + weight * b
    grads = {"w_phi": (weight * grad_phi).sum(axis=0),
             "w_gate": (weight * grad_gate).sum(axis=0),
             "gate_bias": bias}
    return loss, grads


def train_memory(slow: MemorySlowWeights, episodes, steps: int = 300,
                 lr: float = 0.05, lam: float = 0.95, eta: float = 1.0) -> list:
    """Adagrad descent on the reconstruction loss; updates ``slow`` in place.

    Every step takes the full batch of episodes. The batch is stacked once,
    before the first step, into one :class:`EpisodeStack` per shape, so a
    step makes one :func:`episode_loss_and_grads` call per shape (one in
    the pipeline, where every episode of a layer has the same shape) and
    the loss curve and weights are bit-identical to stepping the episodes
    one by one. Per-parameter step sizes shrink as gradient energy
    accumulates, which this objective needs: the readout is scale-coupled
    through both its numerator and denominator, so raw-gradient steps stall
    on flat directions. Returns the per-step loss curve; raises
    DivergenceError if anything stops being finite.
    """
    if not episodes:
        raise ValueError("no episodes")
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    batch = EpisodeBatch.of(episodes)
    acc_phi = np.zeros_like(slow.w_phi)
    acc_gate = np.zeros_like(slow.w_gate)
    acc_bias = 0.0
    losses = []
    for step in range(steps):
        if not (np.all(np.isfinite(slow.w_phi))
                and np.all(np.isfinite(slow.w_gate))
                and np.isfinite(slow.gate_bias)):
            raise DivergenceError(f"weights diverged at step {step}")
        loss, grads = memory_loss_and_grads(slow, batch, lam, eta)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss diverged at step {step}")
        acc_phi += grads["w_phi"] ** 2
        acc_gate += grads["w_gate"] ** 2
        acc_bias += float(grads["gate_bias"]) ** 2
        slow.w_phi -= lr * grads["w_phi"] / np.sqrt(acc_phi + 1e-12)
        slow.w_gate -= lr * grads["w_gate"] / np.sqrt(acc_gate + 1e-12)
        slow.gate_bias -= lr * float(grads["gate_bias"]) / np.sqrt(acc_bias + 1e-12)
        if not (np.all(np.isfinite(slow.w_phi))
                and np.all(np.isfinite(slow.w_gate))
                and np.isfinite(slow.gate_bias)):
            raise DivergenceError(f"weights diverged at step {step}")
        losses.append(loss)
    return losses
