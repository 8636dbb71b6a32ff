"""Golden result for Algorithm 1 on the Opteron characterization cluster.

``run_algorithm1`` on the paper's Opteron cluster (``DEFAULT_SEED``), cut
to 2 machines x 2 runs of every paper workload, is pinned to a committed
JSON fixture: the step-1 and step-2 kept counts, every (machine,
workload) pair's significant and marginal counters from steps 3-4, the
step-5 occurrence histogram and the step-6 feature set.  It is the
cluster the ``characterize`` workload of ``perfbench/`` selects on.

Every value is a count, a counter name or a sum of 1.0/0.5 weights, so
``==`` against the JSON round-trip is exact.

Run ``pytest tests/golden --regen-golden`` to refresh the fixture after
an intentional numerics change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.cluster import DEFAULT_SEED, Cluster
from repro.framework.chaos import collect_workload_runs
from repro.platforms import get_platform
from repro.selection.algorithm1 import Algorithm1Result, run_algorithm1

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "opteron_algorithm1.json"

SCENARIO = {
    "platform": "opteron",
    "n_machines": 2,
    "n_runs": 2,
    "cluster_seed": DEFAULT_SEED,
}


def _summary(result: Algorithm1Result) -> dict:
    """Everything the fixture pins, in JSON-native types."""
    return {
        "step1_kept": len(result.step1_survivors),
        "step2_kept": len(result.step2.kept),
        "machine_selections": [
            {
                "machine_id": selection.machine_id,
                "workload": selection.workload_name,
                "significant": list(selection.significant),
                "marginal": list(selection.marginal),
            }
            for selection in result.machine_selections
        ],
        "histogram": dict(result.histogram),
        "selected": list(result.selected),
    }


@pytest.fixture(scope="module")
def summary() -> dict:
    cluster = Cluster.homogeneous(
        get_platform(SCENARIO["platform"]),
        n_machines=SCENARIO["n_machines"],
        seed=SCENARIO["cluster_seed"],
    )
    runs = collect_workload_runs(cluster, n_runs=SCENARIO["n_runs"])
    return _summary(run_algorithm1(cluster, runs))


@pytest.fixture(scope="module")
def golden(summary, regen_golden) -> dict:
    """The committed fixture — or a freshly regenerated one."""
    if regen_golden:
        payload = {
            "description": (
                "Golden Algorithm 1 result: regenerate with "
                "`pytest tests/golden --regen-golden` after an "
                "intentional numerics change."
            ),
            "scenario": SCENARIO,
            "result": summary,
        }
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"golden fixture missing at {FIXTURE_PATH}; "
            "run `pytest tests/golden --regen-golden` to create it"
        )
    payload = json.loads(FIXTURE_PATH.read_text())
    assert payload["scenario"] == SCENARIO, (
        "fixture was generated for a different scenario; regenerate it"
    )
    return payload["result"]


def test_funnel_counts(summary, golden):
    assert summary["step1_kept"] == golden["step1_kept"]
    assert summary["step2_kept"] == golden["step2_kept"]


def test_machine_selections(summary, golden):
    """Steps 3-4: every (machine, workload) pair, in pipeline order."""
    assert summary["machine_selections"] == golden["machine_selections"]


def test_occurrence_histogram(summary, golden):
    assert summary["histogram"] == golden["histogram"]


def test_selected_feature_set(summary, golden):
    assert summary["selected"] == golden["selected"]
    assert 1 <= len(golden["selected"]) <= 20
