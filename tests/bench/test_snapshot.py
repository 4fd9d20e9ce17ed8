"""Tests for benchmark snapshots and the regression gate."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    DEFAULT_TOLERANCE,
    compare_snapshots,
    diff_snapshots,
    load_snapshot,
    run_snapshot,
    write_snapshot,
)
from repro.bench.snapshot import (
    DELTA_FORMAT,
    SMOKE_BASELINES,
    SNAPSHOT_FORMAT,
    calibration_seconds,
)


def make_snapshot():
    """A hand-built snapshot document (no simulation needed)."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": 1,
        "calibration_seconds": 0.01,
        "platform": {"python": "3.12.0"},
        "workloads": [
            {
                "workload": "w1",
                "strategy": "exact",
                "peak_nodes": 100,
                "normalized_time": 10.0,
            },
            {
                "workload": "w1",
                "strategy": "memory",
                "peak_nodes": 40,
                "normalized_time": 6.0,
            },
        ],
    }


class TestCompareSnapshots:
    def test_identical_snapshots_pass(self):
        base = make_snapshot()
        assert compare_snapshots(copy.deepcopy(base), base) == []

    def test_within_tolerance_passes(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        current["workloads"][0]["peak_nodes"] = 120  # +20% < 25%
        current["workloads"][0]["normalized_time"] = 12.0
        assert compare_snapshots(current, base, tolerance=0.25) == []

    def test_peak_nodes_regression_is_flagged(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        current["workloads"][0]["peak_nodes"] = 130  # +30% > 25%
        violations = compare_snapshots(current, base, tolerance=0.25)
        assert len(violations) == 1
        assert "w1/exact" in violations[0]
        assert "peak_nodes" in violations[0]

    def test_normalized_time_regression_is_flagged(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        current["workloads"][1]["normalized_time"] = 9.0  # +50%
        violations = compare_snapshots(current, base, tolerance=0.25)
        assert len(violations) == 1
        assert "w1/memory" in violations[0]
        assert "normalized time" in violations[0]

    def test_missing_row_is_flagged(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        del current["workloads"][1]
        violations = compare_snapshots(current, base)
        assert violations == ["w1/memory: missing from current snapshot"]

    def test_extra_current_rows_are_allowed(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        current["workloads"].append(
            {
                "workload": "w2",
                "strategy": "exact",
                "peak_nodes": 9,
                "normalized_time": 1.0,
            }
        )
        assert compare_snapshots(current, base) == []

    def test_tolerance_widens_the_band(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        current["workloads"][0]["peak_nodes"] = 180  # +80%
        assert compare_snapshots(current, base, tolerance=1.0) == []
        assert compare_snapshots(current, base, tolerance=0.25)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_snapshots(make_snapshot(), make_snapshot(), -0.1)

    def test_default_tolerance_is_25_percent(self):
        assert DEFAULT_TOLERANCE == 0.25

    def test_backend_mismatch_names_the_fix(self):
        base = make_snapshot()
        base["backend"] = "reference"
        current = copy.deepcopy(base)
        current["backend"] = "arena"
        (message,) = compare_snapshots(current, base)
        assert message.startswith("backend mismatch")
        assert "--backend reference" in message
        assert SMOKE_BASELINES["arena"] in message

    @pytest.mark.parametrize("backend", sorted(SMOKE_BASELINES))
    def test_smoke_baseline_declares_its_backend(self, backend):
        root = Path(__file__).resolve().parents[2]
        baseline = load_snapshot(str(root / SMOKE_BASELINES[backend]))
        assert baseline["backend"] == backend


class TestDiffSnapshots:
    """The delta report agrees with the gate and explains every row."""

    def test_identical_snapshots_report_passes(self):
        base = make_snapshot()
        report = diff_snapshots(copy.deepcopy(base), base)
        assert report["format"] == DELTA_FORMAT
        assert report["passed"] is True
        assert report["violations"] == []
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert row["in_baseline"] and row["in_current"]
            assert row["normalized_time"]["ratio"] == 1.0
            assert row["normalized_time"]["delta"] == 0.0
            assert row["normalized_time"]["within_tolerance"] is True
            assert row["peak_nodes"]["within_tolerance"] is True

    def test_regression_row_is_explained(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        current["workloads"][0]["normalized_time"] = 15.0  # +50% > 25%
        report = diff_snapshots(current, base, tolerance=0.25)
        assert report["passed"] is False
        assert report["violations"] == compare_snapshots(
            current, base, tolerance=0.25
        )
        row = next(
            r for r in report["rows"] if r["key"] == "w1/exact"
        )
        detail = row["normalized_time"]
        assert detail["baseline"] == 10.0
        assert detail["current"] == 15.0
        assert detail["delta"] == 5.0
        assert detail["ratio"] == 1.5
        assert detail["within_tolerance"] is False
        # The untouched metric on the same row still reads as clean.
        assert row["peak_nodes"]["within_tolerance"] is True

    def test_missing_and_extra_rows_are_marked(self):
        base = make_snapshot()
        current = copy.deepcopy(base)
        del current["workloads"][1]
        current["workloads"].append(
            {
                "workload": "w2",
                "strategy": "exact",
                "peak_nodes": 5,
                "normalized_time": 1.0,
            }
        )
        report = diff_snapshots(current, base)
        by_key = {row["key"]: row for row in report["rows"]}
        assert by_key["w1/memory"]["in_current"] is False
        assert by_key["w1/memory"]["in_baseline"] is True
        assert by_key["w2/exact"]["in_baseline"] is False
        assert by_key["w2/exact"]["in_current"] is True
        # Missing coverage fails the gate; the new row does not.
        assert report["passed"] is False

    def test_report_round_trips_as_json(self, tmp_path):
        report = diff_snapshots(make_snapshot(), make_snapshot())
        path = tmp_path / "delta.json"
        write_snapshot(report, str(path))
        assert json.loads(path.read_text()) == report


class TestSnapshotIO:
    def test_write_then_load_round_trips(self, tmp_path):
        snapshot = make_snapshot()
        path = tmp_path / "nested" / "BENCH_x.json"
        write_snapshot(snapshot, str(path))
        assert load_snapshot(str(path)) == snapshot

    def test_load_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a"):
            load_snapshot(str(path))


class TestRunSnapshot:
    def test_calibration_is_positive(self):
        assert calibration_seconds(repeats=1) > 0.0

    def test_small_workload_snapshot(self):
        entries = [{"workload": "qsup_2x2_4_0", "strategy": "exact"}]
        snapshot = run_snapshot(
            entries, calibration_repeats=1, workload_repeats=1
        )
        assert snapshot["format"] == SNAPSHOT_FORMAT
        assert len(snapshot["workloads"]) == 1
        row = snapshot["workloads"][0]
        assert row["workload"] == "qsup_2x2_4_0"
        assert row["peak_nodes"] > 0
        assert row["normalized_time"] > 0.0
        assert set(row["cache_hit_rates"]) == {
            "vadd",
            "madd",
            "mv",
            "mm",
            "inner",
        }
        # Self-comparison passes the gate.
        assert compare_snapshots(snapshot, snapshot) == []
