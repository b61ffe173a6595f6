"""Teacher-forced reconstruction episodes for memory training.

An episode freezes, for one layer of one sequence, everything the memory
module needs to learn from: the queries of the tokens that ran against a
compressed cache, the attention output they lost to eviction, and the
evicted rows written to the memory before any of those queries read it.
Training differentiates that write symbolically, so gradients reach the
feature map through both the read and the write path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .numerics import DivergenceError, row_exps
from .teacher import ForwardTrace, LayerTrace, flatten_heads, head_logits


@dataclass
class LayerEpisode:
    """One write into an empty memory, then every query row reads it."""

    queries: np.ndarray       # (n_eval, d_model) flattened pre-RoPE queries
    targets: np.ndarray       # (n_eval, d_model) full minus compressed output
    write_keys: np.ndarray    # (n_write, d_model) evicted token rows
    write_values: np.ndarray  # (n_write, d_model)

    def __post_init__(self):
        self.queries = np.asarray(self.queries, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.queries.shape != self.targets.shape or self.queries.ndim != 2:
            raise ValueError("queries and targets must be matching rows")
        if (self.write_keys.shape != self.write_values.shape
                or self.write_keys.ndim != 2):
            raise ValueError("write rows must be matching (n, d_model)")

    @property
    def n_eval(self) -> int:
        return self.queries.shape[0]


def plain_mse(episode: LayerEpisode) -> float:
    """Reconstruction error left by compression when no memory helps."""
    return float(np.mean(episode.targets ** 2))


def layer_episodes(lt: LayerTrace, eval_start: int, keeps):
    """Yield one episode of the layer traced in ``lt`` per keep set in
    ``keeps``, in order, for a compress-then-continue run.

    The first ``eval_start`` tokens are compressed to the keep set
    (row indices into that prefix, from :func:`kvgate.policies.select`);
    every later token reads the surviving prefix plus the uncompressed tail
    it arrived with. Targets compare against the same token's attention
    over the full cache, so an all-keep set yields exactly zero targets.

    Each head's full-cache softmax numerator ``exp(w - m)`` is computed
    once and serves every keep set. A row whose full-cache argmax key is
    kept has the same row max under the keep set, so its numerator is the
    full one with the evicted columns set to 0; only the other rows are
    recomputed over their kept keys (by :func:`kvgate.numerics.row_exps`,
    as :func:`kvgate.teacher.attend_rows` would). Every row is then
    normalised and multiplied by V as in ``attend_rows``, so each output
    has the bits of ``attend_rows`` under the keep set's mask. A keep set
    that evicts nothing reuses the full-cache output.
    """
    length = lt.k.shape[1]
    if not 0 < eval_start < length:
        raise ValueError("eval start must split the sequence")
    # Row i of the eval rows sees the positions up to eval_start + i.
    visible = np.tri(length - eval_start, length, eval_start, dtype=bool)
    # Per keep set, the columns its rows may read, or None when it evicts
    # nothing.
    columns = []
    for keep in keeps:
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size and (keep.min() < 0 or keep.max() >= eval_start):
            raise ValueError("keep sets must index the compressed prefix")
        cols = np.zeros(length, dtype=bool)
        cols[keep] = True
        cols[eval_start:] = True
        columns.append(None if cols.all() else cols)
    q_rows = lt.q[:, eval_start:, :]
    n_heads, n_eval, d_head = q_rows.shape
    o_full = np.empty((n_eval, n_heads, d_head))
    o_kept = [None if cols is None else np.empty_like(o_full)
              for cols in columns]
    for h, g, logits in head_logits(q_rows, lt.k, visible):
        e_full = row_exps(logits)
        o_full[:, h, :] = (e_full / e_full.sum(axis=-1, keepdims=True)) @ lt.v[g]
        top = np.argmax(logits, axis=-1)
        for cols, out in zip(columns, o_kept):
            if cols is None:
                continue
            e = np.multiply(e_full, cols)
            redo = ~cols[top]
            if redo.any():
                e[redo] = row_exps(np.where(cols, logits[redo], -np.inf))
            np.divide(e, e.sum(axis=-1, keepdims=True), out=e)
            out[:, h, :] = e @ lt.v[g]
    o_full = o_full.reshape(n_eval, n_heads * d_head)
    queries = flatten_heads(lt.q_pre)[eval_start:]
    for j, cols in enumerate(columns):
        if cols is None:
            targets = np.zeros_like(o_full)
            evicted = np.zeros(0, dtype=np.int64)
        else:
            targets = o_full - o_kept[j].reshape(o_full.shape)
            evicted = np.flatnonzero(~cols)
        # Dropped here, so a suspended generator holds no yielded output.
        o_kept[j] = None
        k_tok, v_tok = tokens_from_evicted(lt.k[:, evicted, :],
                                           lt.v[:, evicted, :], n_heads)
        yield LayerEpisode(queries=queries, targets=targets,
                           write_keys=k_tok, write_values=v_tok)


def prefill_episodes(trace: ForwardTrace, eval_start: int,
                     keeps_by_layer) -> list:
    """One episode per layer of ``trace``, each from :func:`layer_episodes`
    on that layer's one keep set."""
    if len(keeps_by_layer) != len(trace.layers):
        raise ValueError("need one keep set per layer")
    return [next(layer_episodes(lt, eval_start, [keep]))
            for lt, keep in zip(trace.layers, keeps_by_layer)]


@dataclass(frozen=True)
class EpisodeStack:
    """Episodes of one shape, stacked along a leading episode axis ``E``.

    ``queries`` and ``targets`` are (E, n_eval, d_model), ``write_keys``
    and ``write_values`` (E, n_write, d_model). The stack also owns
    :func:`episode_loss_and_grads`' work arrays, so a training loop that
    reuses one stack allocates them once; they make a stack unfit for
    concurrent kernel calls.
    """

    queries: np.ndarray
    targets: np.ndarray
    write_keys: np.ndarray
    write_values: np.ndarray

    @cached_property
    def _work(self) -> tuple:
        """Three contiguous (E, n_eval, d_model) arrays, made on first use."""
        return tuple(np.empty(self.queries.shape) for _ in range(3))

    @classmethod
    def of(cls, episodes) -> EpisodeStack:
        if not episodes:
            raise ValueError("no episodes")
        if len({(ep.n_eval, ep.write_keys.shape[0]) for ep in episodes}) > 1:
            raise ValueError("stacked episodes must share rows and write size")
        return cls(
            queries=np.stack([ep.queries for ep in episodes]),
            targets=np.stack([ep.targets for ep in episodes]),
            write_keys=np.stack([ep.write_keys for ep in episodes]),
            write_values=np.stack([ep.write_values for ep in episodes]))


def episode_loss(slow: MemorySlowWeights, episode: LayerEpisode) -> float:
    """Mean squared residual after the gated readout is subtracted, by the
    memory's own forward: one :func:`mem_write` into an empty state, then
    :func:`mem_read` and :func:`gate` over every query row. Raises
    :class:`DivergenceError` when the loss is not finite."""
    state = mem_write(slow, MemoryState.zeros(slow.d_mem, slow.d_model),
                      episode.write_keys, episode.write_values)
    q = episode.queries
    resid = episode.targets - gate(slow, q)[:, None] * mem_read(slow, state, q)
    loss = float(np.sum(resid ** 2)) / episode.targets.size
    if not np.isfinite(loss):
        raise DivergenceError("memory loss non-finite")
    return loss


def episode_loss_and_grads(slow: MemorySlowWeights, stack: EpisodeStack):
    """Per-episode losses plus analytic slow-weight gradients over a stack.

    Every array carries the stack's leading episode axis E: queries and
    targets (E, n, d_model), write rows (E, w, d_model), the state
    (E, d_mem, d_model). Returns ``(losses, grads)``: a list of E losses,
    and ``w_phi`` (E, d_model, d_mem), ``w_gate`` (E, d_model) and
    ``gate_bias`` (a list of E floats), one gradient per episode.

    Each episode's results are byte-identical to running it alone, and its
    loss to :func:`episode_loss` (the memory's own forward, which this one
    fuses with what the backward needs), because the kernel keeps four rules:

    1. every elementwise expression has the single-episode form, with the
       episode axis broadcast (``m = num / denom``, ``resid = t - g * m``,
       ``d_pred = (-2 / size) * resid``);
    2. transposed operands are ``np.swapaxes`` views, never contiguous
       copies, so every per-episode BLAS call sees the same layout;
    3. nothing reduces over the episode axis here; scalars are summed per
       episode in Python (see :func:`memory_loss_and_grads` for the mean);
    4. the (E, n, d_model) work arrays are written with ``out=`` into the
       stack's own contiguous arrays (:attr:`EpisodeStack._work`): a
       strided view of a larger buffer would change ``np.sum``'s pairwise
       order. Nothing returned aliases them, and a stack must not serve
       two calls at once.

    The write path is differentiated through the state the write made.
    """
    queries, targets = stack.queries, stack.targets
    n_ep = queries.shape[0]
    feat_k = phi(slow, stack.write_keys)
    st_m = np.swapaxes(feat_k, 1, 2) @ stack.write_values
    st_b = (feat_k ** 2).sum(axis=1)
    feat_q = phi(slow, queries)
    q_t = np.swapaxes(queries, 1, 2)
    g = gate(slow, queries)

    size = targets[0].size
    inv_size = 1.0 / size
    denom = ((feat_q ** 2) @ st_b[:, :, None])[:, :, 0] + MEM_EPS
    m, resid, work = stack._work
    np.matmul(feat_q, st_m, out=m)
    np.divide(m, denom[:, :, None], out=m)
    np.multiply(g[:, :, None], m, out=resid)
    np.subtract(targets, resid, out=resid)
    np.square(resid, out=work)
    losses = [float(np.sum(work[e])) / size for e in range(n_ep)]

    d_pred = np.multiply(-2.0 * inv_size, resid, out=resid)
    d_g = np.sum(np.multiply(d_pred, m, out=work), axis=2)
    d_m = np.multiply(d_pred, g[:, :, None], out=d_pred)
    d_z = d_g * g * (1.0 - g)
    grad_gate = (q_t @ d_z[:, :, None])[:, :, 0]
    grad_bias = [float(d_z[e].sum()) for e in range(n_ep)]

    d_denom = -np.sum(np.multiply(d_m, m, out=work), axis=2) / denom
    d_num = np.divide(d_m, denom[:, :, None], out=d_m)
    d_fq = (d_num @ np.swapaxes(st_m, 1, 2)
            + 2.0 * feat_q * st_b[:, None, :] * d_denom[:, :, None])
    grad_phi = q_t @ d_fq

    ds = np.swapaxes(feat_q, 1, 2) @ d_num
    db = (np.swapaxes(feat_q ** 2, 1, 2) @ d_denom[:, :, None])[:, :, 0]
    d_fk = (stack.write_values @ np.swapaxes(ds, 1, 2)
            + 2.0 * feat_k * db[:, None, :])
    grad_phi += np.swapaxes(stack.write_keys, 1, 2) @ d_fk

    grads = {"w_phi": grad_phi, "w_gate": grad_gate, "gate_bias": grad_bias}
    return losses, grads


def memory_loss_and_grads(slow: MemorySlowWeights, stack: EpisodeStack):
    """Mean episode loss and averaged gradients over a stack of episodes.

    One :func:`episode_loss_and_grads` call gives per-episode results,
    which are then averaged in stack order: scalars by a Python loop,
    arrays by ``(w * G).sum(axis=0)`` over the episode axis, which adds the
    episodes one after another. Both match averaging the episodes one at a
    time, bit for bit.
    """
    losses, gs = episode_loss_and_grads(slow, stack)
    weight = 1.0 / len(losses)
    loss = 0.0
    for l in losses:
        loss += weight * l
    biases = gs["gate_bias"]
    bias = weight * np.float64(biases[0])
    for b in biases[1:]:
        bias = bias + weight * b
    grads = {"w_phi": (weight * gs["w_phi"]).sum(axis=0),
             "w_gate": (weight * gs["w_gate"]).sum(axis=0),
             "gate_bias": bias}
    return loss, grads


# The Adagrad step size every stage trains the memories at.
MEM_LR = 0.05


def train_memory(slow: MemorySlowWeights, episodes, steps: int = 300,
                 lr: float = MEM_LR) -> list:
    """Adagrad descent on the reconstruction loss; updates ``slow`` in place.

    Every step takes the full batch of episodes, which must share one shape
    (as a layer's pipeline episodes do at one ratio). The batch is stacked
    once, before the first step, into one :class:`EpisodeStack`, so a step
    makes one :func:`episode_loss_and_grads` call, and the loss curve and
    weights are bit-identical to stepping the episodes one by one.
    Per-parameter step sizes shrink as gradient energy accumulates, which
    this objective needs: the readout is scale-coupled through both its
    numerator and denominator, so raw-gradient steps stall on flat
    directions. Returns the per-step loss curve; raises DivergenceError if
    anything stops being finite.
    """
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    stack = EpisodeStack.of(episodes)
    acc_phi = np.zeros_like(slow.w_phi)
    acc_gate = np.zeros_like(slow.w_gate)
    acc_bias = 0.0
    losses = []
    for step in range(steps):
        if not (np.all(np.isfinite(slow.w_phi))
                and np.all(np.isfinite(slow.w_gate))
                and np.isfinite(slow.gate_bias)):
            raise DivergenceError(f"weights diverged at step {step}")
        loss, grads = memory_loss_and_grads(slow, stack)
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
