"""Golden-result suite for the experiment engine.

A small but complete sweep campaign (atom cluster, sort workload, two
feature sets) is pinned to a committed JSON fixture.  The tests assert
the engine's core determinism contract bit-for-bit:

* a serial run reproduces the fixture exactly;
* ``jobs=4`` reproduces it exactly (scheduling never leaks into results);
* a warm-cache rerun reproduces it exactly AND skips >= 90% of tasks.

Floats survive the JSON round-trip losslessly (``json`` emits the
shortest repr that round-trips), so ``==`` here means bit-identical.

Run ``pytest tests/golden --regen-golden`` to refresh the fixture after
an intentional numerics change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import Cluster, execute_runs
from repro.engine import ArtifactCache
from repro.framework.sweep import SweepResult, sweep_models
from repro.models.featuresets import (
    CPU_UTILIZATION_COUNTER,
    FREQUENCY_COUNTER,
    cluster_set,
    cpu_only_set,
)
from repro.platforms import get_platform
from repro.telemetry.engine_stats import EngineTelemetry
from repro.workloads import SortWorkload

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "atom_sort_grid.json"

SCENARIO = {
    "platform": "atom",
    "n_machines": 2,
    "n_runs": 3,
    "workload": "sort",
    "cluster_seed": 123,
    "sweep_seed": 5,
}


def _build_runs():
    cluster = Cluster.homogeneous(
        get_platform(SCENARIO["platform"]),
        n_machines=SCENARIO["n_machines"],
        seed=SCENARIO["cluster_seed"],
    )
    return execute_runs(
        cluster, SortWorkload(), n_runs=SCENARIO["n_runs"], jobs=1
    )


def _feature_sets():
    # Algorithm 1 has its own fixture (test_golden_algorithm1.py); pin the
    # cluster set to the two counters it reliably picks on atom, so this
    # fixture tracks the engine alone.
    return [
        cpu_only_set(),
        cluster_set((CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER)),
    ]


def _cell_metrics(sweep: SweepResult) -> dict:
    """Every per-cell metric the repo reports, keyed by cell label."""
    return {
        e.label: {
            "mean_machine_dre": e.mean_machine_dre,
            "mean_cluster_dre": e.mean_cluster_dre,
            "mean_machine_rmse": e.machine_reports.mean_rmse,
            "mean_machine_percent_error": (
                e.machine_reports.mean_percent_error
            ),
            "mean_cluster_rmse": e.cluster_reports.mean_rmse,
            "n_models_built": e.n_models_built,
        }
        for e in sweep.evaluations
    }


def _run_sweep(runs, **engine_kwargs) -> dict:
    sweep = sweep_models(
        runs,
        _feature_sets(),
        seed=SCENARIO["sweep_seed"],
        **engine_kwargs,
    )
    return _cell_metrics(sweep)


@pytest.fixture(scope="module")
def runs():
    return _build_runs()


@pytest.fixture(scope="module")
def serial_metrics(runs):
    """The serial, cache-free reference run (computed once per module)."""
    return _run_sweep(runs, jobs=1, cache=False)


@pytest.fixture(scope="module")
def golden(runs, regen_golden, serial_metrics):
    """The committed fixture — or a freshly regenerated one."""
    if regen_golden:
        payload = {
            "description": (
                "Golden sweep metrics: regenerate with "
                "`pytest tests/golden --regen-golden` after an "
                "intentional numerics change."
            ),
            "scenario": SCENARIO,
            "cells": serial_metrics,
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
    return payload["cells"]


def test_serial_reproduces_golden(serial_metrics, golden):
    assert serial_metrics == golden


def test_parallel_jobs4_bit_identical(runs, golden):
    """Scheduling must never leak into results: jobs=4 == fixture."""
    assert _run_sweep(runs, jobs=4, cache=False) == golden


def test_cold_then_warm_cache_bit_identical(runs, golden, tmp_path):
    """Cold parallel run and warm rerun both match the fixture, and the
    warm rerun is served (almost) entirely from the artifact cache."""
    cache = ArtifactCache(tmp_path / "cache")

    cold_telemetry = EngineTelemetry()
    cold = _run_sweep(runs, jobs=2, cache=cache, telemetry=cold_telemetry)
    assert cold == golden
    assert cold_telemetry.n_computed == cold_telemetry.n_tasks

    warm_telemetry = EngineTelemetry()
    warm = _run_sweep(runs, jobs=1, cache=cache, telemetry=warm_telemetry)
    assert warm == golden
    assert warm_telemetry.n_tasks == cold_telemetry.n_tasks
    assert warm_telemetry.hit_rate >= 0.9


def test_golden_covers_every_cell(golden):
    """The fixture pins every valid cell of the U/C grid (L and P run on
    both sets; Q and S need the two-counter cluster set)."""
    assert set(golden) == {"LU", "LC", "PU", "PC", "QC", "SC"}
    for metrics in golden.values():
        assert metrics["n_models_built"] == SCENARIO["n_runs"]
