"""Strict config parsing, defaults, and the canonical hash."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kvgate.harness as harness
from kvgate.config import (
    _RETIRED,
    _SCHEMA,
    ConfigError,
    load_config,
    parse_config,
)
from kvgate.memory import default_d_mem

ROOT = Path(__file__).resolve().parents[1]


def minimal():
    return {"version": 1}


def load_file_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it is being built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def readme_config() -> dict:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


NON_FINITE = (math.inf, -math.inf, math.nan, 10 ** 400)


def case(n, patch, needle):
    """A bad-values case whose id is fixed by its number ``n``, so deleting
    a case renames no other."""
    return pytest.param(patch, needle, id=f"patch{n}-{needle}")


class TestParsing:
    def test_minimal_gets_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.teacher.d_model == 64
        assert cfg.teacher.n_layers == 4
        assert cfg.plan.ratio == 0.5
        assert cfg.policy_name == "indexer"
        assert cfg.data_length == 128
        assert cfg.eval_start == (2 * 128) // 3
        assert cfg.decode_budgets == (48, 64, 96)

    def test_nested_overrides_apply(self):
        cfg = parse_config({
            "version": 1,
            "seed": 7,
            "plan": {"ratio": 0.25, "sink_count": 2},
            "teacher": {"d_model": 32, "d_ffn": 64},
            "data": {"length": 60},
            "train": {"mem_steps": 7},
        })
        assert cfg.seed == 7
        assert cfg.plan.ratio == 0.25
        assert cfg.plan.sink_count == 2
        assert cfg.plan.local_window == 8
        assert cfg.teacher.d_model == 32
        assert cfg.eval_start == 40
        assert cfg.mem_steps == 7

    def test_version_is_required(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config({})

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config({"version": 2})

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer_one(self, version):
        # True == 1 and 1.0 == 1, but neither is the documented version,
        # and each would hash differently from "version": 1.
        with pytest.raises(ConfigError, match="version"):
            parse_config({"version": version})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config({"version": 1, "plam": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="plan"):
            parse_config({"version": 1, "plan": {"ration": 0.5}})

    def test_unknown_deep_key_names_section(self):
        with pytest.raises(ConfigError, match="decode"):
            parse_config({"version": 1, "decode": {"stepz": 2}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config({"version": 1, "plan": 3})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="root"):
            parse_config([1, 2])

    @pytest.mark.parametrize("patch,needle", [
        case(0, {"seed": -1}, "seed"),
        case(1, {"seed": True}, "seed"),
        case(2, {"seed": "0"}, "seed"),
        case(4, {"teacher": {"n_layers": 0}}, "n_layers"),
        case(5, {"teacher": {"d_model": 1.5}}, "d_model"),
        case(6, {"plan": {"ratio": 1.5}}, "ratio"),
        case(7, {"plan": {"budget": 0}}, "budget"),
        case(8, {"policy": {"name": "oracle"}}, "policy.name"),
        # Retired knobs are unknown keys, even at their old defaults.
        case(9, {"policy": {"head_pool": "mean"}}, "head_pool"),
        case(10, {"agg": {"mode": "none"}}, "agg"),
        case(11, {"agg": {}}, "agg"),
        case(12, {"train": {"head_sum": False, "stop_write_grad": False}},
             "head_sum"),
        case(13, {"reuse": {"group_size": 0}}, "reuse"),
        case(14, {"data": {"kind": "text"}}, "data.kind"),
        case(15, {"data": {"length": 1}}, "length"),
        case(16, {"decode": {"budgets": []}}, "budgets"),
        case(17, {"decode": {"budgets": [64, 0]}}, "budgets"),
        case(18, {"decode": {"budgets": 64}}, "budgets"),
        # Retired: the memory and indexer step sizes, the memory width and
        # the teacher seed, constants every program ran; unknown at any
        # value, their old defaults included (23 and 65-70 too).
        case(19, {"train": {"mem_lr": 0}}, "mem_lr"),
        # Retired with the multi-write memory replay: unknown at any value.
        case(20, {"train": {"lam": 0.95}}, "lam"),
        case(21, {"train": {"lam": 1.2}}, "lam"),
        # Retired: the memory write rate, which only rescaled MEM_EPS;
        # unknown at any value, its old default included (below too).
        case(22, {"train": {"eta": -1}}, "eta"),
        case(23, {"train": {"indexer_peak": 0}}, "indexer_peak"),
        # A retired flag is refused whatever its value.
        *[case(24 + 5 * k + v, {"train": {key: value}}, key)
          for k, key in enumerate(("head_sum", "stop_write_grad"))
          for v, value in enumerate((False, True, "false", 0, None))],
        # A non-finite number is refused as one, by its path, before any
        # key is read, so a retired key at one is refused as non-finite.
        *[case(34 + i, {"train": {"mem_lr": value}}, "mem_lr must be finite")
          for i, value in enumerate(NON_FINITE)],
        *[case(38 + i, {"train": {"eta": value}}, "eta")
          for i, value in enumerate(NON_FINITE)],
        *[case(42 + i, {"train": {"indexer_peak": value}},
               "indexer_peak must be finite")
          for i, value in enumerate(NON_FINITE)],
        *[case(46 + i, {"train": {"lam": value}}, "lam")
          for i, value in enumerate(NON_FINITE)],
        case(50, {"agg": {"gamma": 0.5}}, "agg"),
        *[case(n, {"plan": {"ratio": value}}, "ratio must be finite")
          for n, value in zip((51, 62, 63, 64), NON_FINITE)],
        case(52, {"train": {"eta": 1.0}}, "eta"),
        # Retired: gaussian inputs, which no workload used.
        case(53, {"data": {"kind": "gauss"}}, "data.kind"),
        # Retired: a budget cap on the prefill keep rule, which no workload
        # set; unknown at any value, its old default included.
        case(54, {"plan": {"budget": 48}}, "budget"),
        case(55, {"plan": {"budget": None}}, "budget"),
        # Retired: constants every program used; unknown at any value,
        # their old defaults included.
        case(56, {"policy": {"window": 8}}, "window"),
        case(57, {"policy": {"seed": 0}}, "seed"),
        case(58, {"train": {"param_seed": 42}}, "param_seed"),
        case(59, {"data": {"eval_start": 85}}, "eval_start"),
        case(60, {"data": {"eval_start": None}}, "eval_start"),
        # Retired: layer-group score reuse, which every program ran at
        # group size 1; unknown at any value, its old default included.
        case(61, {"reuse": {"group_size": 1}}, "reuse"),
        case(65, {"teacher": {"seed": 0}}, "seed"),
        case(66, {"teacher": {"seed": 7}}, "seed"),
        case(67, {"train": {"d_mem": None}}, "d_mem"),
        case(68, {"train": {"d_mem": 8}}, "d_mem"),
        case(69, {"train": {"mem_lr": 0.05}}, "mem_lr"),
        case(70, {"train": {"indexer_peak": 1e-3}}, "indexer_peak"),
    ])
    def test_bad_values_rejected(self, patch, needle):
        raw = {**minimal(), **patch}
        with pytest.raises(ConfigError, match=needle.split(".")[-1]):
            parse_config(raw)

    @pytest.mark.parametrize("patch,needle", [
        ({"budgets": [True]}, "budgets"),
        ({"budgets": [48, False]}, "budgets"),
        ({"interval": True}, "interval"),
    ])
    def test_decode_booleans_rejected(self, patch, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config({"version": 1, "decode": patch})

    def test_budgets_cover_the_sinks_and_window(self):
        # A compaction keeps the sinks and the window whatever the budget,
        # so a smaller budget could never hold; only decode-sim refused it.
        plan = {"sink_count": 2, "local_window": 4}
        cfg = parse_config({"version": 1, "plan": plan,
                            "decode": {"budgets": [6, 9]}})
        assert cfg.decode_budgets == (6, 9)
        with pytest.raises(ConfigError, match="sink_count plus plan.local"):
            parse_config({"version": 1, "plan": plan,
                          "decode": {"budgets": [9, 5]}})

    def test_plan_carries_decode_interval(self):
        assert parse_config(minimal()).plan.decode_interval == 128
        cfg = parse_config({"version": 1, "decode": {"interval": 16}})
        assert cfg.plan.decode_interval == 16
        assert cfg.canonical["decode"]["interval"] == 16

    def test_eval_start_must_be_inside(self):
        # eval_start is two thirds of the length, so it always is.
        for length in range(2, 40):
            cfg = parse_config({"version": 1, "plan": {"sink_count": 0},
                                "data": {"length": length}})
            assert 0 < cfg.eval_start < length
            assert cfg.eval_start == (2 * length) // 3

    def test_eval_start_must_pass_the_sinks(self):
        # A prefix of sinks alone leaves the eval nothing to evict or score.
        for length in (4, 5):  # eval_start 2 and 3
            with pytest.raises(ConfigError, match="eval_start.*sink_count"):
                parse_config({"version": 1, "plan": {"sink_count": 3},
                              "data": {"length": length}})
        cfg = parse_config({"version": 1, "plan": {"sink_count": 3},
                            "data": {"length": 6}})
        assert cfg.eval_start == 4

    def test_planted_slots_precede_the_query_tail(self):
        # Length 36: needles are drawn below eval_start 24 minus the
        # 2-row window, but the 16-row query tail starts at 20, so the
        # config fails at parse time whatever the seed draws.
        for seed in range(12):
            with pytest.raises(ConfigError, match="query tail"):
                parse_config({"version": 1, "seed": seed,
                              "plan": {"sink_count": 2, "local_window": 2},
                              "data": {"kind": "planted", "length": 36}})
        # The last slot may sit right before the tail.
        parse_config({"version": 1, "plan": {"local_window": 0},
                      "data": {"kind": "planted", "length": 48}})
        workloads = load_file_module("perfbench_workloads",
                                     ROOT / "perfbench" / "workloads.py")
        for size in workloads.SIZES:
            parse_config(workloads.workload("sweep-planted", size).config)

    def test_teacher_head_mismatch_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_config({"version": 1, "teacher": {"n_heads": 6,
                                                    "n_kv_heads": 4}})

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


# The config's one seed; the teacher's is the constant TeacherConfig.seed.
SEED_PLACES = ("seed",)


class TestSeedRange:
    """Seeds are 64-bit words, so the config stops at 2**64 - 1."""

    @pytest.mark.parametrize("place", SEED_PLACES)
    def test_largest_seed_accepted(self, place):
        parse_config({"version": 1, place: 2**64 - 1})

    @pytest.mark.parametrize("place", SEED_PLACES)
    @pytest.mark.parametrize("value", [2**64, 2**64 + 5, 2**70])
    def test_seed_from_two_to_the_64_rejected(self, place, value):
        with pytest.raises(ConfigError, match="2\\*\\*64"):
            parse_config({"version": 1, place: value})

    def test_override_seed_checked(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"version": 1, "seed": 3}))
        assert load_config(path, seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ConfigError, match="seed"):
            load_config(path, seed=2**64 + 5)

    def test_valid_seeds_keep_their_hash(self):
        top = 2**64 - 1
        assert parse_config(minimal()).config_hash == "53f848eecbe3e2eb"
        assert parse_config({
            "version": 1, "seed": top,
        }).config_hash == "ed2d1a5477b4a2f2"


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 300)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=6))
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)


def schema_section(defaults: dict):
    """Any subset of a section's keys, each at its default or any value."""
    return st.fixed_dictionaries({}, optional={
        key: (schema_section(value) if isinstance(value, dict)
              else st.just(value) | JSON_VALUES)
        for key, value in defaults.items()})


def parsed_fields(cfg):
    """Every field of a parsed config but its canonical form, budgets included."""
    for part in (cfg, cfg.teacher, cfg.plan):
        for f in dataclasses.fields(part):
            if f.name != "canonical":
                yield f.name, getattr(part, f.name)
    for budget in cfg.decode_budgets:
        yield "budget", budget


class TestAnyJsonObject:
    @settings(max_examples=300, deadline=None)
    @example(raw={"version": 1, "decode": {"budgets": [True]}})
    @example(raw={"version": 1, "plan": {"ratio": math.inf}})
    @example(raw={"version": True})
    @given(raw=schema_section(_SCHEMA).map(lambda raw: {"version": 1, **raw})
           | st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4))
    def test_parses_or_raises_config_error(self, raw):
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
        assert type(cfg.canonical["version"]) is int
        for name, value in parsed_fields(cfg):
            assert not isinstance(value, bool), name
            if isinstance(value, float):
                assert math.isfinite(value), name


class TestHash:
    def test_hash_is_short_hex(self):
        h = parse_config(minimal()).config_hash
        assert len(h) == 16
        int(h, 16)

    def test_explicit_default_does_not_change_hash(self):
        a = parse_config(minimal())
        b = parse_config({"version": 1, "seed": 0,
                          "plan": {"ratio": 0.5},
                          "policy": {"name": "indexer"},
                          "train": {"mem_steps": 300}})
        assert a.config_hash == b.config_hash

    def test_value_change_changes_hash(self):
        a = parse_config(minimal())
        b = parse_config({"version": 1, "plan": {"ratio": 0.25}})
        assert a.config_hash != b.config_hash

    def test_computed_eval_start_matches_explicit(self):
        # The hash a config had when it spelled out eval_start 60, which
        # the computed value now writes into the hashed form.
        cfg = parse_config({"version": 1, "data": {"length": 90}})
        assert cfg.canonical["data"]["eval_start"] == 60
        assert cfg.config_hash == "c58131a1eb009476"

    # Every record's ``config`` field and the benchmark's reference files
    # carry these, so they must not move; they were measured while the
    # retired knobs were still settable.
    @pytest.mark.parametrize("name,size,expected", [
        ("pipeline", "full", "1f1df511e3f77795"),
        ("sweep-planted", "full", "f36a12e9bed96d6b"),
        ("decode-long", "full", "d110ec88e788d383"),
        ("pipeline", "smoke", "cda60085c03bc278"),
        ("sweep-planted", "smoke", "9ff3dbd8bc6ebc94"),
        ("decode-long", "smoke", "909a2f15edb0b88a"),
    ])
    def test_benchmark_config_hashes_are_pinned(self, name, size, expected):
        workloads = load_file_module("perfbench_workloads",
                                     ROOT / "perfbench" / "workloads.py")
        config = workloads.workload(name, size).config
        assert config["seed"] == 0
        assert parse_config(config).config_hash == expected

    def test_readme_config_hash_is_pinned(self):
        assert parse_config(readme_config()).config_hash == "8c3768e5c67ceb9f"


# Keys no program sets, each with the reason it stays settable.
UNSET_BY_ANY_PROGRAM = {}


def leaf_keys(tree: dict, prefix: str = ""):
    """Dotted paths of a config tree's non-section keys."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def program_configs():
    """Every config a program runs: the README example, the benchmark's
    workloads at both sizes, the same-bytes cases and demo 07's."""
    yield readme_config()
    workloads = load_file_module("perfbench_workloads",
                                 ROOT / "perfbench" / "workloads.py")
    for size in workloads.SIZES:
        for name in workloads.NAMES:
            yield workloads.workload(name, size).config
    same_bytes = load_file_module("same_bytes", ROOT / "tools" / "same_bytes.py")
    for case in same_bytes.cases().values():
        yield case.config
    # The demo runs its pipeline when imported, so its CONFIG is read
    # from the source instead.
    demo = ast.parse((ROOT / "demos" / "07_cli_pipeline.py").read_text())
    (config,) = [node.value for node in demo.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CONFIG"]]
    yield ast.literal_eval(config)


class TestRetiredValuesRun:
    def test_each_retired_value_is_the_value_a_stage_runs(self, monkeypatch):
        # The hash names the retired values from _RETIRED, so the stages
        # must run those values: a literal edited on one side only fails.
        seen = {"peak": set(), "lr": set(), "teacher_seed": set()}

        def record(name, param):
            real = getattr(harness, name)
            signature = inspect.signature(real)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                seen[param].add(bound.arguments[param])
                return real(*args, **kwargs)
            monkeypatch.setattr(harness, name, wrapper)

        class Teacher(harness.TeacherModel):
            def __init__(self, config):
                seen["teacher_seed"].add(config.seed)
                super().__init__(config)

        record("train_indexer", "peak")
        record("train_memory", "lr")
        monkeypatch.setattr(harness, "TeacherModel", Teacher)
        raw = readme_config()
        raw["data"].update(n_train=2, n_eval=1)
        raw["train"].update(indexer_steps=2, mem_steps=2)
        cfg = parse_config(raw)
        stage_one = harness.train_indexer_run(cfg)
        stage_two = harness.train_memory_run(cfg, stage_one["params"])
        retired = _RETIRED["train"]
        assert seen == {"peak": {retired["indexer_peak"]},
                        "lr": {retired["mem_lr"]},
                        "teacher_seed": {_RETIRED["teacher"]["seed"]}}
        width = retired["d_mem"] or default_d_mem(cfg.teacher.d_model)
        assert {m.d_mem for m in stage_two["memories"]} == {width}


class TestEveryKeyHasAProgram:
    def test_each_key_is_set_by_a_program_or_allowlisted(self):
        configs = list(program_configs())
        for config in configs:
            parse_config(config)
        set_keys = {key for config in configs for key in leaf_keys(config)}
        assert set(leaf_keys(_SCHEMA)) - set_keys == set(UNSET_BY_ANY_PROGRAM)


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"version": 1, "seed": 3}))
        cfg = load_config(path)
        assert cfg.seed == 3

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_seed_override_replaces_file_seed(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"version": 1, "seed": 3}))
        cfg = load_config(path, seed=9)
        assert cfg.seed == 9
        assert cfg.config_hash == parse_config({"version": 1,
                                                "seed": 9}).config_hash

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")
