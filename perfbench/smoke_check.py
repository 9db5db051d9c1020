"""Fast smoke test of the benchmark at minimal sizes.

    python3 -m pytest -q perfbench/smoke_check.py

Each workload runs one untraced and one traced pass on small inputs; the
test checks that every metric BENCHMARK.json names is reported, that every
correctness check passes and that traced self times account for their
parent spans.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "planted-p31": workloads.PlantedConfig(
        p=7, n_pub=3, n_sec=3, total_degree=3, extra_terms=4, target_seed=1,
    ),
    "toy-p7-r3": workloads.ToyConfig(
        p=5, rounds=1, width=3, n_pub=2, n_sec=2, instance_seeds=(0,), keys=3,
    ),
    "ext-duality": workloads.ExtConfig(
        shapes=(((2, 3), (1, 2)), ((3, 3), (2, 1))), rounds=1, terms=10,
    ),
}


def test_workload_names_match_declaration():
    declared = {w["name"] for w in DECLARED["workloads"]}
    assert declared == set(bench.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"] for m in DECLARED["per_layer"]} == set(bench.LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_smoke(name, trace):
    result, report = bench.run(name, seed=1, seconds=0, trace=bool(trace), config=SMALL[name])
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        assert report["trace_accounting_error_s"] <= 1e-6
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if name != "ext-duality":
            parts = (
                metrics["attack.grid_self_s"] + metrics["attack.preprocess_self_s"]
            )
            assert 0 < parts < metrics["attack.preprocess_s"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
