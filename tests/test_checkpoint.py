"""Weight file round trips and corruption rejection."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvgate.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    indexer_tensors,
    load_weights,
    memory_tensors,
    save_weights,
    unpack_indexer,
    unpack_memory,
)
from kvgate.indexer import IndexerParams
from kvgate.memory import MemorySlowWeights
from kvgate.numerics import Rng
from kvgate.teacher import TeacherConfig


def sample_tensors():
    rng = Rng(314)
    return {
        "alpha": rng.split(0).normal((3, 4)),
        "beta": rng.split(1).normal((7,)),
        "gamma": np.float64(-2.5),
    }


def craft_blob(manifest: dict, payload: bytes) -> bytes:
    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return MAGIC + np.uint32(len(body)).tobytes() + body + payload


class TestSaveLoad:
    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "w.kvgt"
        tensors = sample_tensors()
        save_weights(path, tensors)
        loaded = load_weights(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == np.shape(arr)
            assert np.array_equal(loaded[name], arr)

    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "w.kvgt"
        save_weights(path, {"bias": np.float64(0.125)})
        loaded = load_weights(path)
        assert loaded["bias"].shape == ()
        assert float(loaded["bias"]) == 0.125

    def test_double_save_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.kvgt", tmp_path / "b.kvgt"
        tensors = sample_tensors()
        save_weights(a, tensors)
        save_weights(b, dict(reversed(list(tensors.items()))))
        assert a.read_bytes() == b.read_bytes()

    def test_load_then_resave_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.kvgt", tmp_path / "b.kvgt"
        save_weights(a, sample_tensors())
        save_weights(b, load_weights(a))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "w.kvgt"
        save_weights(path, sample_tensors())
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_weights(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "w.kvgt"
        save_weights(path, sample_tensors())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_weights(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "w.kvgt"
        path.write_bytes(craft_blob({"version": FORMAT_VERSION + 1,
                                     "tensors": {}}, b""))
        with pytest.raises(ValueError, match="unsupported"):
            load_weights(path)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_version_must_be_the_integer_one(self, tmp_path, version):
        # True == 1 and 1.0 == 1, but neither is the format's version.
        path = tmp_path / "w.kvgt"
        path.write_bytes(craft_blob({"version": version, "tensors": {}}, b""))
        with pytest.raises(ValueError, match="unsupported"):
            load_weights(path)

    def test_rejects_overlapping_tensors(self, tmp_path):
        path = tmp_path / "w.kvgt"
        entries = {
            "a": {"dtype": "float64", "shape": [1], "offset": 0, "nbytes": 8},
            "b": {"dtype": "float64", "shape": [1], "offset": 4, "nbytes": 8},
        }
        path.write_bytes(craft_blob({"version": FORMAT_VERSION,
                                     "tensors": entries}, bytes(12)))
        with pytest.raises(ValueError, match="overlap"):
            load_weights(path)

    def test_rejects_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "w.kvgt"
        entries = {
            "a": {"dtype": "float64", "shape": [1], "offset": 0, "nbytes": 8},
        }
        path.write_bytes(craft_blob({"version": FORMAT_VERSION,
                                     "tensors": entries}, bytes(16)))
        with pytest.raises(ValueError, match="length"):
            load_weights(path)

    def test_rejects_out_of_bounds_tensor(self, tmp_path):
        path = tmp_path / "w.kvgt"
        entries = {
            "a": {"dtype": "float64", "shape": [4], "offset": 0, "nbytes": 32},
        }
        path.write_bytes(craft_blob({"version": FORMAT_VERSION,
                                     "tensors": entries}, bytes(8)))
        with pytest.raises(ValueError, match="outside"):
            load_weights(path)

    def test_rejects_foreign_dtype(self, tmp_path):
        path = tmp_path / "w.kvgt"
        entries = {
            "a": {"dtype": "float32", "shape": [2], "offset": 0, "nbytes": 8},
        }
        path.write_bytes(craft_blob({"version": FORMAT_VERSION,
                                     "tensors": entries}, bytes(8)))
        with pytest.raises(ValueError, match="dtype"):
            load_weights(path)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 64) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

# Entries near the valid form, each field possibly replaced or dropped.
ENTRY = st.fixed_dictionaries(
    {},
    optional={"dtype": st.sampled_from(["float64", "float32"]) | JSON,
              "shape": st.lists(st.integers(-1, 3), max_size=3) | JSON,
              "offset": st.integers(-8, 40) | JSON,
              "nbytes": st.integers(-8, 40) | JSON})
MANIFEST = st.fixed_dictionaries(
    {},
    optional={"version": st.just(FORMAT_VERSION) | JSON,
              "tensors": st.dictionaries(st.text(max_size=3), ENTRY | JSON,
                                         max_size=3) | JSON})

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def loads_or_rejects(path, blob) -> None:
    path.write_bytes(blob)
    try:
        load_weights(path)
    except ValueError:
        pass


class TestMalformedFiles:
    @pytest.mark.parametrize("manifest", [
        {"version": FORMAT_VERSION},
        [FORMAT_VERSION],
        {"version": FORMAT_VERSION, "tensors": {"a": {"shape": [1],
                                                       "offset": 0,
                                                       "nbytes": 8}}},
        {"version": FORMAT_VERSION, "tensors": {"a": {
            "dtype": "float64", "shape": "1", "offset": 0, "nbytes": 8}}},
        {"version": FORMAT_VERSION, "tensors": {"a": {
            "dtype": "float64", "shape": [1], "offset": "0", "nbytes": 8}}},
        {"version": FORMAT_VERSION, "tensors": {"a": [0, 8]}},
    ])
    def test_bad_manifest_is_value_error(self, tmp_path, manifest):
        path = tmp_path / "w.kvgt"
        body = json.dumps(manifest).encode("utf-8")
        path.write_bytes(MAGIC + np.uint32(len(body)).tobytes() + body
                         + bytes(8))
        with pytest.raises(ValueError):
            load_weights(path)

    @FUZZ
    @given(manifest=MANIFEST | JSON, payload=st.binary(max_size=48))
    def test_any_json_manifest_loads_or_raises_value_error(
            self, tmp_path, manifest, payload):
        body = json.dumps(manifest).encode("utf-8")
        loads_or_rejects(tmp_path / "w.kvgt",
                         MAGIC + np.uint32(len(body)).tobytes() + body + payload)

    @FUZZ
    @given(tail=st.binary(max_size=96)
           | (st.binary(max_size=48) | JSON.map(lambda v: json.dumps(v).encode()))
           .map(lambda body: np.uint32(len(body)).tobytes() + body))
    def test_any_bytes_after_magic_load_or_raise_value_error(self, tmp_path,
                                                             tail):
        # half the draws carry a length prefix that matches the bytes after
        # it, and some of those bytes are JSON text
        loads_or_rejects(tmp_path / "w.kvgt", MAGIC + tail)


def teacher(n_layers=2, d_model=16):
    return TeacherConfig(n_layers=n_layers, d_model=d_model, n_heads=4,
                         n_kv_heads=2, d_ffn=32, vocab_size=16, seed=3)


class TestPacking:
    def make_indexer(self, n_layers=2, d_model=16):
        cfg = teacher(n_layers, d_model)
        return [IndexerParams.init(cfg, Rng(40).split(layer), h_index=2,
                                   d_index=3) for layer in range(n_layers)]

    def test_indexer_round_trip(self, tmp_path):
        path = tmp_path / "idx.kvgt"
        params = self.make_indexer()
        save_weights(path, indexer_tensors(params))
        back = unpack_indexer(load_weights(path), teacher(2))
        for orig, got in zip(params, back):
            assert np.array_equal(orig.u_q, got.u_q)
            assert np.array_equal(orig.u_k, got.u_k)
            assert np.array_equal(orig.g, got.g)

    def test_unpack_indexer_missing_layer(self, tmp_path):
        path = tmp_path / "idx.kvgt"
        save_weights(path, indexer_tensors(self.make_indexer(n_layers=1)))
        with pytest.raises(ValueError, match="lacks"):
            unpack_indexer(load_weights(path), teacher(2))

    def test_memory_round_trip(self, tmp_path):
        path = tmp_path / "mem.kvgt"
        mods = [MemorySlowWeights.init(16, Rng(50).split(layer))
                for layer in range(3)]
        mods[1] = MemorySlowWeights(w_phi=mods[1].w_phi,
                                    w_gate=mods[1].w_gate, gate_bias=-1.75)
        save_weights(path, memory_tensors(mods))
        back = unpack_memory(load_weights(path), teacher(3))
        for orig, got in zip(mods, back):
            assert np.array_equal(orig.w_phi, got.w_phi)
            assert np.array_equal(orig.w_gate, got.w_gate)
            assert got.gate_bias == orig.gate_bias
        assert isinstance(back[1].gate_bias, float)
        assert back[1].gate_bias == -1.75

    def test_unpack_memory_missing_layer(self, tmp_path):
        path = tmp_path / "mem.kvgt"
        save_weights(path, memory_tensors(
            [MemorySlowWeights.init(16, Rng(50))]))
        with pytest.raises(ValueError, match="lacks"):
            unpack_memory(load_weights(path), teacher(2))

    def test_joint_file_keeps_both_families(self, tmp_path):
        path = tmp_path / "joint.kvgt"
        params = self.make_indexer()
        mods = [MemorySlowWeights.init(16, Rng(51).split(layer))
                for layer in range(2)]
        tensors = {**indexer_tensors(params), **memory_tensors(mods)}
        save_weights(path, tensors)
        loaded = load_weights(path)
        assert len(unpack_indexer(loaded, teacher(2))) == 2
        assert len(unpack_memory(loaded, teacher(2))) == 2

    def test_indexer_width_must_match_teacher(self):
        tensors = indexer_tensors(self.make_indexer(d_model=8))
        with pytest.raises(ValueError, match=r"'idx\.0\.u_q' has shape \[8, 6\]"):
            unpack_indexer(tensors, teacher(2, d_model=16))

    def test_memory_width_must_match_teacher(self):
        mods = [MemorySlowWeights.init(16, Rng(52).split(layer))
                for layer in range(2)]
        with pytest.raises(ValueError, match=r"'mem\.0\.w_phi'"):
            unpack_memory(memory_tensors(mods), teacher(2, d_model=32))

    def test_memory_bias_must_be_scalar(self):
        mods = [MemorySlowWeights.init(16, Rng(53).split(layer))
                for layer in range(2)]
        tensors = memory_tensors(mods)
        tensors["mem.1.bias"] = np.zeros(1)
        with pytest.raises(ValueError, match=r"'mem\.1\.bias' has shape \[1\]"):
            unpack_memory(tensors, teacher(2))

    @pytest.mark.parametrize("extra", ["idx.2.u_q", "idx.0.w"])
    def test_indexer_tensor_outside_teacher_rejected(self, extra):
        tensors = indexer_tensors(self.make_indexer(n_layers=3))
        tensors = {name: value for name, value in tensors.items()
                   if not name.startswith("idx.2.")}
        tensors[extra] = tensors["idx.0.u_q"]
        with pytest.raises(ValueError, match=f"{extra!r} does not belong "
                                             "to a 2-layer teacher"):
            unpack_indexer(tensors, teacher(2))

    def test_memory_layer_past_teacher_rejected(self):
        mods = [MemorySlowWeights.init(16, Rng(54).split(layer))
                for layer in range(2)]
        with pytest.raises(ValueError, match="'mem.1.bias' does not belong"):
            unpack_memory(memory_tensors(mods), teacher(1))
