"""Self-contained weight files: a JSON manifest plus raw tensor bytes.

Layout: 4-byte magic, little-endian u32 manifest length, UTF-8 JSON
manifest, then the concatenated tensor payloads. All tensors are stored
as little-endian float64 at offsets assigned in sorted name order, so
saving the same weights twice produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .indexer import IndexerParams
from .memory import MemorySlowWeights
from .teacher import TeacherConfig

MAGIC = b"KVGT"
FORMAT_VERSION = 1


def save_weights(path, tensors: dict) -> None:
    """Write name -> array (float64, any shape; scalars allowed)."""
    entries = {}
    chunks = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        raw = arr.tobytes()
        entries[name] = {"dtype": "float64", "shape": list(arr.shape),
                         "offset": offset, "nbytes": len(raw)}
        chunks.append(raw)
        offset += len(raw)
    manifest = json.dumps({"version": FORMAT_VERSION, "tensors": entries},
                          sort_keys=True).encode("utf-8")
    blob = (MAGIC + np.uint32(len(manifest)).tobytes()
            + manifest + b"".join(chunks))
    Path(path).write_bytes(blob)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def load_weights(path) -> dict:
    """Read a weights file; every malformed one raises ``ValueError``."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise ValueError("not a weights file: bad magic")
    if len(blob) < 8:
        raise ValueError("truncated weights file")
    manifest_len = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    manifest_end = 8 + manifest_len
    if len(blob) < manifest_end:
        raise ValueError("truncated weights file")
    try:
        manifest = json.loads(blob[8:manifest_end].decode("utf-8"))
    except RecursionError:
        raise ValueError("weights manifest JSON is nested too deeply") from None
    if not isinstance(manifest, dict):
        raise ValueError("weights manifest must be a JSON object")
    version = manifest.get("version")
    # ``True == 1.0 == 1``, so the type check keeps both out.
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported weights format: {version!r}")
    entries = manifest.get("tensors")
    if not isinstance(entries, dict):
        raise ValueError("weights manifest lacks a tensors table")
    payload = blob[manifest_end:]
    spans = []
    out = {}
    for name, meta in entries.items():
        if not isinstance(meta, dict):
            raise ValueError(f"tensor {name!r} entry must be an object")
        if meta.get("dtype") != "float64":
            raise ValueError(f"unsupported dtype for {name!r}")
        start, nbytes, shape = (meta.get("offset"), meta.get("nbytes"),
                                meta.get("shape"))
        if not (_is_count(start) and _is_count(nbytes) and isinstance(shape, list)
                and all(_is_count(d) for d in shape)):
            raise ValueError(f"tensor {name!r} needs nonnegative integer "
                             "offset, nbytes and shape")
        end = start + nbytes
        if end > len(payload):
            raise ValueError(f"tensor {name!r} lies outside the payload")
        spans.append((start, end))
        arr = np.frombuffer(payload[start:end], dtype="<f8")
        out[name] = arr.reshape(shape).astype(np.float64)
    spans.sort()
    for (_, prev_end), (nxt_start, _) in zip(spans, spans[1:]):
        if nxt_start < prev_end:
            raise ValueError("overlapping tensor payloads")
    if sum(e - s for s, e in spans) != len(payload):
        raise ValueError("payload length disagrees with manifest")
    return out


def _layers(tensors: dict, family: str, shapes: dict,
            teacher: TeacherConfig) -> list:
    """Each layer's ``{field: tensor}`` of one family, checked against a teacher.

    ``shapes`` maps each field to its shape, ``None`` for a free width. A
    missing or misshapen tensor, or one the teacher's layers do not name,
    raises naming it.
    """
    wanted = {f"{family}.{layer}.{field}": shape
              for layer in range(teacher.n_layers)
              for field, shape in shapes.items()}
    for name in sorted(tensors):
        if name.startswith(family + ".") and name not in wanted:
            raise ValueError(f"checkpoint tensor {name!r} does not belong to "
                             f"a {teacher.n_layers}-layer teacher")
    for name, shape in wanted.items():
        if name not in tensors:
            raise ValueError(f"checkpoint lacks tensor {name!r}")
        got = tensors[name].shape
        if len(got) != len(shape) or any(w not in (None, g)
                                         for w, g in zip(shape, got)):
            raise ValueError(f"checkpoint tensor {name!r} has shape "
                             f"{list(got)}, the teacher needs {list(shape)}")
    return [{field: tensors[f"{family}.{layer}.{field}"] for field in shapes}
            for layer in range(teacher.n_layers)]


def indexer_tensors(params_by_layer) -> dict:
    out = {}
    for layer, p in enumerate(params_by_layer):
        out[f"idx.{layer}.u_q"] = p.u_q
        out[f"idx.{layer}.u_k"] = p.u_k
        out[f"idx.{layer}.g"] = p.g
    return out


def unpack_indexer(tensors: dict, teacher: TeacherConfig) -> list:
    d = teacher.d_model
    shapes = {"u_q": (d, None), "u_k": (d, None), "g": (d, None)}
    return [IndexerParams(**t) for t in _layers(tensors, "idx", shapes, teacher)]


def memory_tensors(slow_by_layer) -> dict:
    out = {}
    for layer, s in enumerate(slow_by_layer):
        out[f"mem.{layer}.w_phi"] = s.w_phi
        out[f"mem.{layer}.w_g"] = s.w_gate
        out[f"mem.{layer}.bias"] = np.float64(s.gate_bias)
    return out


def unpack_memory(tensors: dict, teacher: TeacherConfig) -> list:
    d = teacher.d_model
    shapes = {"w_phi": (d, None), "w_g": (d,), "bias": ()}
    return [MemorySlowWeights(t["w_phi"], t["w_g"], float(t["bias"]))
            for t in _layers(tensors, "mem", shapes, teacher)]


def load_checkpoint(path, teacher: TeacherConfig) -> tuple:
    """``(indexer params, memories)`` of a stage's weights file, each
    ``None`` when the file lacks that family's tensors. A tensor outside
    the ``idx.*`` and ``mem.*`` families raises, naming it."""
    tensors = load_weights(path)
    foreign = sorted(name for name in tensors
                     if not name.startswith(("idx.", "mem.")))
    if foreign:
        raise ValueError(f"checkpoint tensor {foreign[0]!r} is neither "
                         "an idx.* nor a mem.* weight")
    families = {name.split(".")[0] for name in tensors}
    return (unpack_indexer(tensors, teacher) if "idx" in families else None,
            unpack_memory(tensors, teacher) if "mem" in families else None)
