"""BENCHMARK.json names exactly what the benchmark reports."""

import json
from pathlib import Path

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmarked_workloads_are_defined_here():
    for workload in BENCHMARK["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
