"""Benchmark records: each BENCH_*.json at the repository root compares a
parent commit with a change, row by row, on workloads and metrics that
BENCHMARK.json declares."""
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return workloads, units


def _check_side(values, where):
    runs = values["runs"]
    assert runs and all(isinstance(v, (int, float)) for v in runs), where
    assert values["median"] == pytest.approx(statistics.median(runs)), where
    assert min(runs) <= values["q1"] <= values["median"] <= values["q3"] <= max(runs), where


@pytest.mark.parametrize("record", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_rows_are_declared(record):
    workloads, units = _declared()
    rows = json.loads(record.read_text())["rows"]
    assert rows, record.name
    for row in rows:
        where = f"{record.name}: {row.get('workload')} {row.get('metric')}"
        assert row["workload"] in workloads, where
        assert row["metric"] in units, where
        assert row["unit"] == units[row["metric"]], where
        for side in ("parent", "change"):
            _check_side(row[side], f"{where} {side}")
