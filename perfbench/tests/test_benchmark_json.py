"""BENCHMARK.json declares exactly the metrics the runs report."""

import json
from pathlib import Path

from perfbench import layers

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_metric_lists_match():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


def test_workloads_are_the_runnable_ones():
    from perfbench.run import WORKLOADS

    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
