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
from scipy.special import expit

from .indexer import DivergenceError
from .memory import MEM_EPS, MemorySlowWeights, MemoryState, tokens_from_evicted
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
                              teacher.config.d_model, visible=visible)
                  for lt in trace.layers]
        return cls(trace, eval_start, visible, o_full)


def prefill_episodes(teacher: TeacherModel, x0: np.ndarray, keeps_by_layer,
                     eval_start: int, head_sum: bool = False,
                     full_run: FullRun | None = None) -> list:
    """One episode per layer for a compress-then-continue run.

    The first ``eval_start`` tokens are compressed to each layer's keep set
    (row indices into that prefix, from :func:`kvgate.policies.select`);
    every later token reads the surviving prefix plus the uncompressed tail
    it arrived with. Targets compare against the same token's attention
    over the full cache, so an all-keep set yields exactly zero targets.

    ``full_run`` is ``FullRun.of(teacher, x0, eval_start)``, built here when
    not given; a caller trying several keep sets on one sequence builds it
    once. Per call, only the keep-set attention is computed, and not even
    that when nothing is evicted.
    """
    if full_run is None:
        full_run = FullRun.of(teacher, x0, eval_start)
    if full_run.eval_start != eval_start:
        raise ValueError("full run was built for another eval start")
    if len(keeps_by_layer) != teacher.config.n_layers:
        raise ValueError("need one keep set per layer")
    n_eval = full_run.visible.shape[0]
    episodes = []
    prefix = np.arange(eval_start)
    for li, lt in enumerate(full_run.trace.layers):
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
                                 teacher.config.d_model, visible=kept)
        k_tok, v_tok = tokens_from_evicted(lt.k[:, evicted, :],
                                           lt.v[:, evicted, :],
                                           teacher.config.n_heads,
                                           head_sum=head_sum)
        episodes.append(LayerEpisode(
            queries=flatten_heads(lt.q_pre)[eval_start:],
            targets=o_full - o_kept,
            writes=[WriteEvent(k_tok, v_tok)],
            reads_after=np.ones(n_eval, dtype=np.int64)))
    return episodes


def _replay_states(slow: MemorySlowWeights, episode: LayerEpisode,
                   lam: float, eta: float):
    """Forward pass of the write sequence: per-event features and states."""
    d_mem, d_model = slow.d_mem, slow.d_model
    feats = [ev.keys @ slow.w_phi for ev in episode.writes]
    states = [MemoryState.zeros(d_mem, d_model)]
    for ev, f in zip(episode.writes, feats):
        prev = states[-1]
        states.append(MemoryState(m=lam * prev.m + eta * (f.T @ ev.values),
                                  b=lam * prev.b + eta * (f ** 2).sum(axis=0)))
    return feats, states


def episode_loss(slow: MemorySlowWeights, episode: LayerEpisode,
                 lam: float = 0.95, eta: float = 1.0) -> float:
    """Mean squared residual after the gated readout is subtracted."""
    _, states = _replay_states(slow, episode, lam, eta)
    g = expit(episode.queries @ slow.w_gate + slow.gate_bias)
    feat = episode.queries @ slow.w_phi
    total = 0.0
    for j in np.unique(episode.reads_after):
        rows = episode.reads_after == j
        st = states[j]
        denom = (feat[rows] ** 2) @ st.b + MEM_EPS
        m = (feat[rows] @ st.m) / denom[:, None]
        resid = episode.targets[rows] - g[rows, None] * m
        total += float(np.sum(resid ** 2))
    return total / episode.targets.size


def episode_loss_and_grads(slow: MemorySlowWeights, episode: LayerEpisode,
                           lam: float = 0.95, eta: float = 1.0,
                           stop_write_grad: bool = False):
    """Loss plus analytic gradients for the slow weights.

    The write path is differentiated by running the state recursion
    backwards; ``stop_write_grad`` cuts it and treats the replayed states
    as constants, trading fidelity for speed.
    """
    feats_k, states = _replay_states(slow, episode, lam, eta)
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


def memory_loss_and_grads(slow: MemorySlowWeights, episodes,
                          lam: float = 0.95, eta: float = 1.0,
                          stop_write_grad: bool = False):
    """Mean episode loss and averaged gradients over a batch of episodes."""
    if not episodes:
        raise ValueError("no episodes")
    weight = 1.0 / len(episodes)
    loss = 0.0
    grads = None
    for ep in episodes:
        l, g = episode_loss_and_grads(slow, ep, lam, eta, stop_write_grad)
        loss += weight * l
        if grads is None:
            grads = {k: weight * v for k, v in g.items()}
        else:
            for k in grads:
                grads[k] = grads[k] + weight * g[k]
    return loss, grads


def train_memory(slow: MemorySlowWeights, episodes, steps: int = 300,
                 lr: float = 0.05, lam: float = 0.95, eta: float = 1.0,
                 stop_write_grad: bool = False) -> list:
    """Adagrad descent on the reconstruction loss; updates ``slow`` in place.

    Every step takes the full batch of episodes. Per-parameter step sizes
    shrink as gradient energy accumulates, which this objective needs: the
    readout is scale-coupled through both its numerator and denominator,
    so raw-gradient steps stall on flat directions. Returns the per-step
    loss curve; raises DivergenceError if anything stops being finite.
    """
    if not episodes:
        raise ValueError("no episodes")
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    acc_phi = np.zeros_like(slow.w_phi)
    acc_gate = np.zeros_like(slow.w_gate)
    acc_bias = 0.0
    losses = []
    for step in range(steps):
        if not (np.all(np.isfinite(slow.w_phi))
                and np.all(np.isfinite(slow.w_gate))
                and np.isfinite(slow.gate_bias)):
            raise DivergenceError(f"weights diverged at step {step}")
        loss, grads = memory_loss_and_grads(slow, episodes, lam, eta,
                                            stop_write_grad)
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
