import json
from pathlib import Path

import layers
import run

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_declared_metrics_are_the_reported_ones():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == layers.PER_LAYER


def test_declared_workloads_are_the_run_ones():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS
    import workloads

    assert run.WORKLOADS == workloads.WORKLOADS
