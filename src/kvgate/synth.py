"""Synthetic sequence generation: isotropic filler plus planted retrieval rows.

A planted sequence is the desk-scale analogue of a retrieval prompt: most
rows are noise, a handful of "needle" rows are constructed so the frozen
teacher genuinely attends to them from the trailing query block, and the
final rows form that query block. Construction notes:

* Tail rows point along fixed per-layer directions that produce unusually
  strong queries (top singular directions of the query projections), so the
  planted logits rise above the max-of-noise floor at every layer.
* Needle rows solve a stacked least-squares problem so that, at each layer,
  their key aligns with the strongest tail query after undoing the relative
  rotary rotation. Their key norms are pinned to the typical key norm, so
  norm-based scoring sees nothing special.
* Needle rows also carry a fixed "beacon" component derived from the teacher
  seed alone. That is the analogue of needles sharing surface wording, and
  it is what lets a learned scorer generalize across sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng
from .teacher import TeacherModel, kv_head_of, rope_apply

# Cosine between each needle row and the direction its keys align with.
NEEDLE_COS = 0.9
# RMS of needle and tail rows relative to filler: large enough that their
# direction survives the residual stream.
NEEDLE_SCALE = 4.0
TAIL_SCALE = 4.0
# Regularizer of the alignment solve: larger values trade a little
# alignment for more ordinary needle key norms.
RIDGE = 64.0
# Rows in the trailing query block.
TAIL_WIDTH = 16
# Fraction of each needle row's off-alignment energy spent on the shared
# beacon direction; the rest is fresh noise.
BEACON_WEIGHT = 0.8


@dataclass
class PlantedSequence:
    x0: np.ndarray          # (L, d_model) input rows
    planted: np.ndarray     # needle positions, ascending (possibly empty)


def retention_recall(kept_positions, planted) -> float:
    """Fraction of planted rows still cached; defined as 1.0 with no needles."""
    planted = np.asarray(planted, dtype=np.int64)
    if planted.size == 0:
        return 1.0
    kept = set(np.asarray(kept_positions, dtype=np.int64).tolist())
    return sum(1 for p in planted.tolist() if p in kept) / planted.size


def beacon_direction(teacher: TeacherModel) -> np.ndarray:
    """Unit direction shared by every needle built against this teacher."""
    vec = Rng(teacher.config.seed).split(777).normal((teacher.config.d_model,))
    return vec / np.linalg.norm(vec)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _orthonormal_to(v: np.ndarray, *basis: np.ndarray) -> np.ndarray:
    out = v.copy()
    for b in basis:
        out = out - (out @ b) * b
    return _unit(out)


def planted_sequence(teacher: TeacherModel, length: int, needle_positions,
                     rng: Rng) -> PlantedSequence:
    """Build a planted-retrieval sequence for ``teacher``.

    Args:
        length: total sequence length (filler + needles + a query tail of
            :data:`TAIL_WIDTH` rows).
        needle_positions: rows to plant; must precede the query tail.
        rng: drives filler, tail noise, and the residual needle noise.

    Returns a :class:`PlantedSequence`. Deterministic in (teacher, args, rng).
    """
    cfg = teacher.config
    needles = np.asarray(sorted(set(np.asarray(needle_positions, dtype=np.int64).tolist())),
                         dtype=np.int64)
    tail_start = length - TAIL_WIDTH
    if tail_start < 1:
        raise ValueError("the query tail must leave room for context")
    if needles.size and (needles[0] < 0 or needles[-1] >= tail_start):
        raise ValueError("needle positions must precede the query tail")

    # Isotropic filler rows with unit RMS per entry.
    x0 = rng.normal((length, cfg.d_model))
    if needles.size == 0:
        return PlantedSequence(x0=x0, planted=needles)

    # Tail rows: per-layer directions that produce oversized queries. The top
    # left-singular vector of one head's query projection maximizes the query
    # norm a unit hidden direction can create at that layer.
    tail_dirs = []
    for layer in teacher.layers:
        block = layer.w_q[:, :cfg.d_head]
        u, _, _ = np.linalg.svd(block, full_matrices=False)
        tail_dirs.append(u[:, 0])
    for i, pos in enumerate(range(tail_start, length)):
        base = tail_dirs[i % cfg.n_layers]
        noise = _orthonormal_to(rng.normal((cfg.d_model,)), _unit(base))
        direction = _unit(0.95 * _unit(base) + 0.05 * noise)
        x0[pos] = TAIL_SCALE * np.sqrt(cfg.d_model) * direction

    # First pass without needles: measure the tail queries each layer actually
    # sees (the residual stream shifts them) and the typical key norm.
    probe = x0.copy()
    trace = teacher.forward(x0=probe)
    anchors = []       # per layer: (position, head, query row)
    key_norm = []      # per layer: median key norm among ordinary rows
    for lt in trace.layers:
        norms = np.linalg.norm(lt.q[:, tail_start:, :], axis=2)  # (heads, tail)
        h, off = np.unravel_index(int(np.argmax(norms)), norms.shape)
        anchors.append((tail_start + int(off), int(h), lt.q[h, tail_start + int(off)]))
        flat_norms = np.linalg.norm(lt.k, axis=2).reshape(-1)
        key_norm.append(float(np.median(flat_norms)))

    beacon = beacon_direction(teacher)
    for t in needles.tolist():
        # Alignment: at every layer, ask the (rmsnorm-ed) needle row's key to
        # reproduce the anchor query direction, scaled to the typical key
        # norm, once the rotary offset between key position t and the anchor
        # position is undone. A ridge-regularized matched-filter solve keeps
        # the solution tame even when the stacked key projections span the
        # whole model dimension, which keeps the needle's own key norms at
        # ordinary magnitudes (norm-based scoring sees nothing special).
        blocks = []
        targets = []
        for li, layer in enumerate(teacher.layers):
            pos_anchor, head, q_anchor = anchors[li]
            g = kv_head_of(head, cfg.n_heads, cfg.n_kv_heads)
            block = layer.w_k[:, g * cfg.d_head:(g + 1) * cfg.d_head]
            k_target = rope_apply(_unit(q_anchor)[None, :], np.array([-t]))[0]
            blocks.append(block * np.sqrt(cfg.d_model))
            targets.append(key_norm[li] * k_target)
        stacked = np.concatenate(blocks, axis=1)
        gram = stacked @ stacked.T + RIDGE * np.eye(cfg.d_model)
        y = np.linalg.solve(gram, stacked @ np.concatenate(targets))
        aligned = _unit(y)
        b_perp = _orthonormal_to(beacon, aligned)
        n_perp = _orthonormal_to(rng.normal((cfg.d_model,)), aligned, b_perp)
        rest = np.sqrt(1.0 - NEEDLE_COS**2)
        w_b = BEACON_WEIGHT * rest
        w_n = np.sqrt(max(0.0, rest**2 - w_b**2))
        direction = NEEDLE_COS * aligned + w_b * b_perp + w_n * n_perp
        x0[t] = NEEDLE_SCALE * np.sqrt(cfg.d_model) * _unit(direction)

    return PlantedSequence(x0=x0, planted=needles)
