"""BENCHMARK.json names exactly the metrics and workloads run.py reports."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.common import E2E_METRICS, LAYER_METRICS
from perfbench.run import WORKLOADS
from perfbench.serve import latency_limit_ms

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metrics_match_the_spec():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert latency_limit_ms(ROOT) == 50.0
