"""Every committed benchmark record (``BENCH_<pr>.json``) names its change and
carries the gated numbers in the layout the first records set: the claim,
and per gated workload the failure counts and every end-to-end metric of
``BENCHMARK.json`` with parent and change medians."""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    for key in ("pr", "change", "layer", "hardware", "method"):
        assert record.get(key), f"{path.name}: no {key}"
    assert path.name == f"BENCH_{record['pr']}.json"

    claim = record["claim"]
    assert claim["workload"] in WORKLOADS and claim["metric"] in METRICS
    result = claim["result"]
    for key in ("parent_median", "change_median", "parent_iqr", "pairs_won", "pairs"):
        assert isinstance(result[key], Real), f"{path.name}: claim.result.{key}"
    assert 0 <= result["pairs_won"] <= result["pairs"]

    for workload in WORKLOADS:
        row = record["end_to_end"][workload]
        for side in ("parent", "change"):
            for count in ("failed", "attempted"):
                assert isinstance(row[count][side], int), f"{path.name}: {workload}.{count}"
            for metric in METRICS:
                assert isinstance(row["metrics"][metric][side]["median"], Real), \
                    f"{path.name}: {workload}.{metric}.{side}"
