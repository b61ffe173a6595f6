"""Metrics record serialization and CSV report generation."""

import json

import numpy as np
import pytest

from kvgate.metrics import (
    SCHEMA_VERSION,
    dump_record,
    make_record,
    read_records,
    report_tables,
    write_records,
    write_report,
)


def sweep_like(policy, ratio, value):
    return make_record("sweep", "abc123", 0,
                       {"policy": policy, "ratio": ratio, "recall": value})


class TestRecords:
    def test_envelope_fields_present(self):
        record = make_record("sweep", "deadbeef", 7, {"ratio": 0.5})
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "sweep"
        assert record["config"] == "deadbeef"
        assert record["seed"] == 7
        assert record["ratio"] == 0.5

    def test_envelope_collision_rejected(self):
        with pytest.raises(ValueError, match="envelope"):
            make_record("sweep", "x", 0, {"seed": 3})

    @pytest.mark.parametrize("value", [np.int64(4), np.bool_(True),
                                       np.arange(3), [1, np.int64(2)]])
    def test_numpy_values_rejected(self, value):
        # Callers pass Python scalars; a numpy integer, bool or array is a
        # caller's mistake, not something to coerce.
        with pytest.raises(TypeError):
            make_record("sweep", "x", 0, {"bad": value})

    def test_unserializable_value_rejected(self):
        with pytest.raises(TypeError):
            make_record("sweep", "x", 0, {"bad": object()})

    def test_dump_is_sorted_and_compact(self):
        text = dump_record({"b": 1, "a": 2, "schema": 1})
        assert text == '{"a":2,"b":1,"schema":1}'

    def test_nan_rejected_at_dump(self):
        with pytest.raises(ValueError):
            dump_record({"schema": 1, "x": float("nan")})

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = [sweep_like("knorm", r, r / 2) for r in (0.0, 0.5)]
        write_records(path, records)
        assert read_records(path) == records

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION + 1,
                                    "kind": "sweep"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_records(path)


class TestReports:
    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="no metrics"):
            report_tables([])

    def test_row_count_matches_points(self):
        records = [sweep_like("knorm", r, 1.0 - r)
                   for r in (0.0, 0.25, 0.5, 0.75)]
        tables, _ = report_tables(records)
        csv = tables["sweep.knorm.recall.csv"]
        lines = csv.strip().splitlines()
        assert lines[0] == "ratio,recall"
        assert len(lines) == 1 + len(records)

    def test_rows_sorted_by_x(self):
        records = [sweep_like("knorm", r, r) for r in (0.5, 0.0, 0.25)]
        tables, _ = report_tables(records)
        body = tables["sweep.knorm.recall.csv"].strip().splitlines()[1:]
        xs = [float(line.split(",")[0]) for line in body]
        assert xs == sorted(xs)

    def test_policies_split_into_tables(self):
        records = [sweep_like("knorm", 0.5, 0.7),
                   sweep_like("random", 0.5, 0.4)]
        tables, summary = report_tables(records)
        assert "sweep.knorm.recall.csv" in tables
        assert "sweep.random.recall.csv" in tables
        assert summary["groups"]["sweep/knorm"]["recall"]["mean"] == 0.7

    def test_step_records_group_per_budget(self):
        records = [make_record("decode", "x", 0,
                               {"policy": "knorm", "budget": b, "step": t,
                                "kept": b + t})
                   for b in (8, 16) for t in (1, 2, 3)]
        tables, _ = report_tables(records)
        assert "decode.knorm.b8.kept.csv" in tables
        assert "decode.knorm.b16.kept.csv" in tables
        body = tables["decode.knorm.b8.kept.csv"].strip().splitlines()
        assert body[0] == "step,kept"
        assert len(body) == 4

    def test_bool_cells_render_as_ints(self):
        records = [make_record("decode", "x", 0,
                               {"policy": "p", "budget": 8, "within": True})]
        tables, _ = report_tables(records)
        assert tables["decode.p.within.csv"].strip().splitlines()[1] == "8,1"

    def test_write_report_is_deterministic(self, tmp_path):
        records = [sweep_like("knorm", r, 1.0 - r) for r in (0.0, 0.5)]
        a, b = tmp_path / "a", tmp_path / "b"
        paths_a = write_report(a, records)
        write_report(b, records)
        for path in paths_a:
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_summary_counts_records(self, tmp_path):
        records = [sweep_like("knorm", r, r) for r in (0.0, 0.5, 0.9)]
        write_report(tmp_path, records)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["records"] == 3
        assert summary["schema"] == SCHEMA_VERSION
