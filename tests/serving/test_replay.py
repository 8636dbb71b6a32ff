"""Replay: golden fixture, zero drops, online == offline bit-for-bit.

The committed fixture pins the serving scenario's Q bundle plus the
held-out run's machine logs.  Regenerate with
``pytest tests/serving --regen-golden`` after an intentional numerics
change (the golden sweep fixture will need the same).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    ReplayMachine,
    load_replay_fixture,
    max_deviation_w,
    offline_reference,
    replay,
    save_replay_fixture,
)

FIXTURE_PATH = (
    Path(__file__).parent / "fixtures" / "atom_sort_replay.json"
)


def _fixture_machines(scenario):
    """Holdout-run machines, logs trimmed to the model's counters.

    The committed fixture only needs the columns the bundle's feature
    set reads; dropping the rest of the catalog keeps it small.
    """
    from repro.telemetry.perfmon import PerfmonLog

    wanted = list(scenario.feature_set.counters)
    machines = []
    for machine_id in scenario.holdout_run.machine_ids:
        log = scenario.holdout_run.logs[machine_id]
        machines.append(
            ReplayMachine(
                machine_id=machine_id,
                platform_key=scenario.platform_key,
                log=PerfmonLog(
                    machine_id=machine_id,
                    counter_names=wanted,
                    counters=log.select(wanted),
                    power_w=log.power_w,
                ),
            )
        )
    return machines


@pytest.fixture(scope="module")
def golden_fixture(scenario, regen_golden):
    if regen_golden:
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        save_replay_fixture(
            FIXTURE_PATH, scenario.bundle("Q"), _fixture_machines(scenario)
        )
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"replay fixture missing at {FIXTURE_PATH}; run "
            "`pytest tests/serving --regen-golden` to create it"
        )
    return load_replay_fixture(FIXTURE_PATH)


def test_fixture_matches_the_generating_scenario(scenario, golden_fixture):
    """The committed fixture is exactly what the scenario produces —
    guards against the fixture silently drifting from the code."""
    bundle, machines = golden_fixture
    assert bundle.digest() == scenario.bundle("Q").digest()
    expected = {
        machine.machine_id: machine.log
        for machine in _fixture_machines(scenario)
    }
    assert {m.machine_id for m in machines} == set(expected)
    for machine in machines:
        np.testing.assert_array_equal(
            machine.log.counters, expected[machine.machine_id].counters
        )
        np.testing.assert_array_equal(
            machine.log.power_w, expected[machine.machine_id].power_w
        )


def test_replay_is_bit_identical_and_lossless(golden_fixture):
    """The acceptance gate: >= 10x replay, zero drops, every non-patched
    online prediction bit-identical to the offline reference."""
    bundle, machines = golden_fixture
    result = replay(
        machines,
        static_bundles={bundle.platform_key: ("golden@v1", bundle)},
        speed=50.0,
    )
    assert result.total_dropped == 0
    logs = {machine.machine_id: machine.log for machine in machines}
    for machine_id, machine_result in result.machines.items():
        log = logs[machine_id]
        assert len(machine_result.predictions) == log.n_seconds
        assert not machine_result.patched.any()
        assert max_deviation_w(machine_result, bundle, log) == 0.0
        np.testing.assert_array_equal(
            machine_result.power_w, offline_reference(bundle, log)
        )

    telemetry = result.telemetry
    json.dumps(telemetry)
    assert telemetry["dropped_samples"] == 0
    assert telemetry["samples_scored"] == sum(
        log.n_seconds for log in logs.values()
    )
    assert telemetry["cluster"] is not None
    # Meters were attached, so every session reports a rolling DRE.
    assert telemetry["mean_online_dre"] is not None
    for row in telemetry["sessions"]:
        assert row["online_dre"] is not None


def test_sanitized_replay_is_contract_clean_and_bit_identical(
    golden_fixture,
):
    """Acceptance gate for the array sanitizer: the golden
    replay under ``--sanitize`` reports zero array-contract violations
    while staying bit-identical to the offline reference — the
    sanitizer observes, it never touches."""
    bundle, machines = golden_fixture
    result = replay(
        machines,
        static_bundles={bundle.platform_key: ("golden@v1", bundle)},
        speed=50.0,
        sanitize=True,
    )
    assert result.total_dropped == 0
    logs = {machine.machine_id: machine.log for machine in machines}
    for machine_id, machine_result in result.machines.items():
        np.testing.assert_array_equal(
            machine_result.power_w,
            offline_reference(bundle, logs[machine_id]),
        )

    report = result.telemetry["array_sanitizer"]
    json.dumps(report)
    assert report["ok"] is True, report["violations"]
    assert report["n_violations"] == 0
    # The hot scoring path actually ran through contracted kernels.
    assert report["functions"]["matvec"]["calls"] > 0
    assert report["functions"]["prepare_row"]["calls"] > 0
    assert report["functions"]["observe_rows"]["calls"] > 0
    # And every observed operand arrived C-contiguous.
    for stats in report["functions"].values():
        assert stats["noncontiguous_args"] == 0


def test_replay_rejects_oversized_flow_window(golden_fixture):
    bundle, machines = golden_fixture
    with pytest.raises(ValueError, match="flow-control window"):
        replay(
            machines,
            static_bundles={bundle.platform_key: ("v1", bundle)},
            speed=50.0,
            window=10_000,
        )


def test_failed_sanitized_replay_leaves_nothing_armed(golden_fixture):
    """A sanitized replay that fails before or while starting its
    server disarms both sanitizers: no armed array sanitizer or bound
    wrapper, no loop-sanitizer warning hook or asyncio log handler."""
    import logging
    import warnings

    from repro.analysis.arraysan import active_array_sanitizer
    from repro.regression import kernels

    bundle, machines = golden_fixture
    asyncio_logger = logging.getLogger("asyncio")
    handlers = list(asyncio_logger.handlers)
    showwarning = warnings.showwarning
    matvec = kernels.matvec
    for bad, message in (
        ({"window": 10_000}, "flow-control window"),  # argument check
        ({"shards": 0}, "at least one shard"),  # server construction
        ({"shard_backend": "bogus"}, "unknown shard backend"),  # start()
    ):
        with pytest.raises(ValueError, match=message):
            replay(
                machines,
                static_bundles={bundle.platform_key: ("v1", bundle)},
                speed=50.0,
                sanitize=True,
                **bad,
            )
        assert active_array_sanitizer() is None
        assert kernels.matvec is matvec
        assert warnings.showwarning is showwarning
        assert asyncio_logger.handlers == handlers


def test_sanitized_replay_refuses_process_shards(golden_fixture):
    """Regression: a sanitized replay over process shards scored in the
    workers, where no sanitizer is armed, and passed with "0 violation(s)
    over 0 contracted call(s)".  It is now refused before anything is
    armed or any worker is spawned."""
    import multiprocessing

    from repro.analysis.arraysan import active_array_sanitizer
    from repro.regression import kernels

    bundle, machines = golden_fixture
    matvec = kernels.matvec
    for shards in (1, 2):
        with pytest.raises(ValueError, match="only inline shards"):
            replay(
                machines,
                static_bundles={bundle.platform_key: ("v1", bundle)},
                speed=50.0,
                sanitize=True,
                shards=shards,
                shard_backend="process",
            )
        assert active_array_sanitizer() is None
        assert kernels.matvec is matvec
        assert multiprocessing.active_children() == []


def test_fixture_round_trip(scenario, tmp_path):
    path = tmp_path / "fixture.json"
    machines = _fixture_machines(scenario)
    save_replay_fixture(path, scenario.bundle("S"), machines)
    bundle, restored = load_replay_fixture(path)
    assert bundle.digest() == scenario.bundle("S").digest()
    assert len(restored) == len(machines)
    payload = json.loads(path.read_text())
    payload["format_version"] = 42
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported fixture version"):
        load_replay_fixture(path)
