"""Cross-layer index reuse.

Per-layer importance scores over the same tokens tend to agree, so a
layer group can share one score computation: the group's first layer is
scored and the other layers reuse its scores.
"""

from __future__ import annotations

import numpy as np


def index_reuse_plan(n_layers: int, group_size: int = 4) -> np.ndarray:
    """Source layer for each layer's scores: the first of its group."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if group_size < 1:
        raise ValueError("group size must be positive")
    return (np.arange(n_layers) // group_size) * group_size


def scores_with_reuse(n_layers: int, group_size: int, compute) -> list:
    """Per-layer scores with one real evaluation per layer group.

    ``compute(layer)`` runs only on group-leading layers; the other layers
    in a group share the leader's array object.
    """
    plan = index_reuse_plan(n_layers, group_size)
    computed: dict = {}
    out = []
    for layer in range(n_layers):
        src = int(plan[layer])
        if src not in computed:
            computed[src] = compute(src)
        out.append(computed[src])
    return out
