"""Shard-tier units: the hash ring, the worker core, the swap barrier.

Everything here runs without a router or a socket — the worker's
command surface is exercised exactly as the router drives it
(``dispatch(command, payload)``), and one test pushes the same commands
through a real spawned :class:`ProcessShardHost` to pin the pipe
protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    MachineContribution,
    MachineSession,
    ModelRegistry,
    ScoredSample,
    ShardError,
    ShardWorker,
    worker_config,
)
from repro.serving.router import HashRing
from repro.serving.shard import (
    InlineShardHost,
    ProcessShardHost,
    static_bundle_payloads,
)


def _counter_rows(scenario, log, n, code="Q"):
    probe = MachineSession("probe", "v", scenario.bundle(code))
    required = probe.predictor.required_counters
    columns = log.select(list(required))
    return [
        {name: columns[t, i] for i, name in enumerate(required)}
        for t in range(n)
    ]


def _static_config(scenario, code="Q", **kwargs):
    return worker_config(
        static_bundles=static_bundle_payloads(
            {
                scenario.platform_key: (
                    f"{code}@v1",
                    scenario.bundle(code),
                )
            }
        ),
        **kwargs,
    )


def _submits(machine_id, rows, start=0):
    return [
        (machine_id, start + i, counters, None)
        for i, counters in enumerate(rows)
    ]


# -- HashRing ----------------------------------------------------------


def test_ring_is_deterministic_across_instances():
    ring_a = HashRing(4)
    ring_b = HashRing(4)
    ids = [f"machine-{i}" for i in range(200)]
    assert [ring_a.owner(m) for m in ids] == [
        ring_b.owner(m) for m in ids
    ]


def test_ring_spreads_keys_across_all_shards():
    ring = HashRing(4)
    parts = ring.partition(f"machine-{i}" for i in range(1000))
    sizes = [len(part) for part in parts]
    assert sum(sizes) == 1000
    # Consistent hashing is not perfectly even, but with 64 vnodes per
    # shard no shard should be starved or dominate.
    assert min(sizes) > 100
    assert max(sizes) < 500


def test_ring_partition_agrees_with_owner():
    ring = HashRing(3)
    ids = [f"m{i}" for i in range(50)]
    parts = ring.partition(ids)
    for shard, members in enumerate(parts):
        for machine_id in members:
            assert ring.owner(machine_id) == shard


def test_ring_single_shard_owns_everything():
    ring = HashRing(1)
    assert {ring.owner(f"m{i}") for i in range(100)} == {0}


def test_ring_resize_moves_some_keys():
    """Growing the fleet remaps some machine IDs onto new owners — the
    shard-boundary case the reconnect tests exercise end to end."""
    small = HashRing(2)
    large = HashRing(3)
    ids = [f"machine-{i}" for i in range(300)]
    moved = [m for m in ids if small.owner(m) != large.owner(m)]
    stayed = [
        m
        for m in ids
        if small.owner(m) == large.owner(m)
    ]
    # Consistent hashing: some keys move to the new shard, but most
    # stay put (an ordinary modulo hash would remap ~everything).
    assert moved
    assert len(stayed) > len(ids) // 2


def test_ring_validates_arguments():
    with pytest.raises(ValueError, match="at least one shard"):
        HashRing(0)
    with pytest.raises(ValueError, match="replica"):
        HashRing(2, replicas=0)


# -- ShardWorker: sessions and scoring ---------------------------------


def test_worker_config_needs_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        worker_config()
    with pytest.raises(ValueError, match="exactly one"):
        worker_config(registry_root="x", static_bundles={})


def test_worker_scores_bit_identical_to_offline(scenario, holdout_log):
    worker = ShardWorker(_static_config(scenario))
    info = worker.open_session(
        {"machine_id": "m0", "platform": scenario.platform_key}
    )
    assert info["model_version"] == "Q@v1"
    assert info["required_counters"]
    rows = _counter_rows(scenario, holdout_log, 20)
    result = worker.tick_batch({"submits": _submits("m0", rows)})
    assert [s.t for s in result.scored] == list(range(20))
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    np.testing.assert_array_equal(
        [s.power_w for s in result.scored], offline[:20]
    )
    # The Eq. 5 partial covers exactly this worker's sessions.
    assert result.partial.n_machines == 1
    assert worker.stats.n_samples_scored == 20
    assert worker.busy_seconds > 0.0


def test_worker_rejects_duplicate_and_unknown(scenario):
    worker = ShardWorker(_static_config(scenario))
    worker.open_session(
        {"machine_id": "m0", "platform": scenario.platform_key}
    )
    with pytest.raises(ShardError, match="already has a session"):
        worker.open_session(
            {"machine_id": "m0", "platform": scenario.platform_key}
        )
    with pytest.raises(ShardError, match="no live model"):
        worker.open_session(
            {"machine_id": "m1", "platform": "no-such-platform"}
        )
    with pytest.raises(ShardError, match="unknown shard command"):
        worker.dispatch("reboot")


def test_worker_skips_submits_for_machines_it_no_longer_owns(
    scenario, holdout_log
):
    """Buffered submits racing a close are skipped, not misrouted."""
    worker = ShardWorker(_static_config(scenario))
    worker.open_session(
        {"machine_id": "m0", "platform": scenario.platform_key}
    )
    rows = _counter_rows(scenario, holdout_log, 3)
    result = worker.tick_batch(
        {"submits": _submits("ghost", rows) + _submits("m0", rows)}
    )
    assert {s.machine_id for s in result.scored} == {"m0"}
    assert worker.stats.n_samples_scored == 3


def test_worker_drain_flow_returns_final_snapshot(scenario, holdout_log):
    worker = ShardWorker(_static_config(scenario))
    worker.open_session(
        {"machine_id": "m0", "platform": scenario.platform_key}
    )
    rows = _counter_rows(scenario, holdout_log, 5)
    result = worker.tick_batch(
        {"submits": _submits("m0", rows), "drains": ["m0"]}
    )
    assert len(result.scored) == 5
    assert [mid for mid, _ in result.drained] == ["m0"]
    snapshot = result.drained[0][1]
    assert snapshot["scored"] == 5
    assert worker.sessions == {}
    assert worker.stats.n_sessions_closed == 1


def test_worker_close_session_is_abrupt_and_idempotent(scenario):
    worker = ShardWorker(_static_config(scenario))
    worker.open_session(
        {"machine_id": "m0", "platform": scenario.platform_key}
    )
    snapshot = worker.close_session({"machine_id": "m0"})
    assert snapshot is not None and snapshot["machine_id"] == "m0"
    assert worker.close_session({"machine_id": "m0"}) is None
    assert worker.stats.n_sessions_closed == 1


# -- ShardWorker: the two-phase swap barrier ---------------------------


def test_stage_commit_swaps_sessions_exactly_once(
    scenario, holdout_log, tmp_path
):
    registry = ModelRegistry(tmp_path / "registry")
    v1, _ = registry.publish(scenario.bundle("Q"))
    worker = ShardWorker(
        worker_config(registry_root=str(tmp_path / "registry"))
    )
    worker.open_session(
        {"machine_id": "m0", "platform": scenario.platform_key}
    )
    session = worker.sessions["m0"]
    assert session.model_version == v1.label

    v2, _ = registry.publish(scenario.bundle("L"))
    generation = worker.stage_swap()
    assert generation == registry.generation
    # Staging installs nothing.
    assert session.model_version == v1.label
    assert worker.commit_swap(generation) == 1
    assert session.model_version == v2.label
    assert worker.committed_generation == generation
    assert worker.stats.n_hot_swaps == 1
    # Re-committing the same generation requires a fresh stage.
    with pytest.raises(ShardError, match="without a staged"):
        worker.commit_swap(generation)


def test_commit_refuses_a_generation_it_did_not_stage(
    scenario, tmp_path
):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(scenario.bundle("Q"))
    worker = ShardWorker(
        worker_config(registry_root=str(tmp_path / "registry"))
    )
    staged = worker.stage_swap()
    with pytest.raises(ShardError, match="!= commit request"):
        worker.commit_swap(staged + 1)
    # The failed commit left the stage intact for a correct retry.
    assert worker.commit_swap(staged) == 0


def test_session_opened_between_stage_and_commit_swaps_at_commit(
    scenario, tmp_path
):
    """The staged bundle map covers late-joining sessions, so the
    barrier's exactly-once guarantee holds for them too."""
    registry = ModelRegistry(tmp_path / "registry")
    v1, _ = registry.publish(scenario.bundle("Q"))
    worker = ShardWorker(
        worker_config(registry_root=str(tmp_path / "registry"))
    )
    v2, _ = registry.publish(scenario.bundle("L"))
    generation = worker.stage_swap()
    # A hello lands after stage, before commit: it opens on the still
    # committed (v1) map, then flips at commit with everyone else.
    worker.open_session(
        {"machine_id": "late", "platform": scenario.platform_key}
    )
    assert worker.sessions["late"].model_version == v1.label
    assert worker.commit_swap(generation) == 1
    assert worker.sessions["late"].model_version == v2.label


def test_static_worker_has_nothing_to_swap(scenario):
    worker = ShardWorker(_static_config(scenario))
    with pytest.raises(ShardError, match="nothing to swap"):
        worker.stage_swap()


# -- hosts -------------------------------------------------------------


def test_inline_host_runs_the_full_command_surface(
    scenario, holdout_log
):
    host = InlineShardHost(_static_config(scenario))
    host.call(
        "open_session",
        {"machine_id": "m0", "platform": scenario.platform_key},
    )
    rows = _counter_rows(scenario, holdout_log, 4)
    result = host.call(
        "tick_batch", {"submits": _submits("m0", rows)}
    )
    assert len(result.scored) == 4
    snap = host.call("snapshot")
    assert snap["samples_scored"] == 4
    host.close()


def test_process_host_round_trips_commands_and_errors(
    scenario, holdout_log
):
    """The spawned worker speaks the same command surface over the
    pipe, returns picklable results, and surfaces ShardError."""
    host = ProcessShardHost(_static_config(scenario))
    try:
        info = host.call(
            "open_session",
            {"machine_id": "m0", "platform": scenario.platform_key},
        )
        assert info["model_version"] == "Q@v1"
        with pytest.raises(ShardError, match="already has a session"):
            host.call(
                "open_session",
                {
                    "machine_id": "m0",
                    "platform": scenario.platform_key,
                },
            )
        rows = _counter_rows(scenario, holdout_log, 6)
        result = host.call(
            "tick_batch",
            {"submits": _submits("m0", rows), "drains": ["m0"]},
        )
        assert [s.t for s in result.scored] == list(range(6))
        offline = scenario.bundle("Q").platform_model.predict_log(
            holdout_log
        )
        np.testing.assert_array_equal(
            [s.power_w for s in result.scored], offline[:6]
        )
        # The delivery records come back through the pipe as themselves.
        assert {type(s) for s in result.scored} == {ScoredSample}
        assert [
            type(c) for c in result.partial.contributions
        ] == [MachineContribution]
        assert [mid for mid, _ in result.drained] == ["m0"]
        snap = host.call("snapshot")
        assert snap["samples_scored"] == 6
        assert snap["sessions_closed"] == 1
    finally:
        host.close()
    # close() is idempotent and leaves the process dead.
    host.close()
    assert not host._process.is_alive()


def test_drain_after_hot_swap_returns_the_snapshot(
    scenario, holdout_log, tmp_path
):
    """Score a sample, commit a swap, then drain with nothing pending:
    the tick hands back the drained snapshot (drift restarted with the
    new envelope) instead of raising on the swapped-in empty window."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(scenario.bundle("Q"))
    host = InlineShardHost(
        worker_config(registry_root=str(tmp_path / "registry"))
    )
    for machine_id in ("m0", "m1"):
        host.call(
            "open_session",
            {"machine_id": machine_id, "platform": scenario.platform_key},
        )
    rows = _counter_rows(scenario, holdout_log, 1)
    result = host.call(
        "tick_batch",
        {"submits": _submits("m0", rows) + _submits("m1", rows)},
    )
    assert len(result.scored) == 2
    v2, _ = registry.publish(scenario.bundle("L"))
    assert host.call("commit_swap", host.call("stage_swap")) == 2

    snap = host.call("snapshot")
    assert {row["drift_fraction"] for row in snap["sessions"]} == {0.0}
    result = host.call("tick_batch", {"submits": [], "drains": ["m0"]})
    assert [mid for mid, _ in result.drained] == ["m0"]
    drained = result.drained[0][1]
    assert drained["scored"] == 1
    assert drained["model_version"] == v2.label
    assert drained["drift_fraction"] == 0.0
    assert drained["drifting"] is False
    closed = host.call("close_session", {"machine_id": "m1"})
    assert closed["scored"] == 1 and closed["drifting"] is False
    host.close()


def test_drift_slots_follow_sessions_through_churn_and_swaps(
    scenario, holdout_log, tmp_path
):
    """Opens, abrupt closes, ``bye`` drains and hot swaps each hand the
    drift slot back: a bundle's block holds exactly its open sessions'
    slots and does not grow with churn, and a swapped session scores
    in its new bundle's block from an empty window."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(scenario.bundle("Q"))
    host = InlineShardHost(
        worker_config(registry_root=str(tmp_path / "registry"))
    )
    worker = host.worker
    rows = _counter_rows(scenario, holdout_log, 40)

    def assert_blocks_hold_the_open_sessions():
        by_block: dict = {}
        for session in worker.sessions.values():
            by_block.setdefault(session.drift.block, set()).add(
                session.drift.slot
            )
        for block, slots in by_block.items():
            assert block.live_slots() == slots
        return by_block

    cursor = {}

    def tick(drains=()):
        submits = []
        for machine_id in worker.sessions:
            t = cursor.get(machine_id, 0)
            submits.append((machine_id, t, rows[t % len(rows)], None))
            cursor[machine_id] = t + 1
        return host.call(
            "tick_batch", {"submits": submits, "drains": list(drains)}
        )

    serial = 0
    for _ in range(8):
        for _ in range(5):
            host.call(
                "open_session",
                {"machine_id": f"m{serial}", "platform": scenario.platform_key},
            )
            serial += 1
        tick()
        assert_blocks_hold_the_open_sessions()
        oldest = sorted(worker.sessions, key=lambda m: int(m[1:]))
        for machine_id in oldest[:2]:
            host.call("close_session", {"machine_id": machine_id})
        result = tick(drains=oldest[2:4])
        assert sorted(mid for mid, _ in result.drained) == sorted(oldest[2:4])
        assert_blocks_hold_the_open_sessions()
    (q_block,) = assert_blocks_hold_the_open_sessions()
    # Each round opens 5 sessions and ends 4, so 40 sessions came and
    # went with at most 12 open at once: the block kept to 16 slots.
    assert len(worker.sessions) == 8
    assert q_block.capacity == 16

    v2, _ = registry.publish(scenario.bundle("L"))
    assert host.call("commit_swap", host.call("stage_swap")) == 8
    (l_block,) = assert_blocks_hold_the_open_sessions()
    assert l_block is not q_block
    assert q_block.live_slots() == frozenset()
    for session in worker.sessions.values():
        assert session.model_version == v2.label
        assert not session.drift.has_observations
    tick()
    for session in worker.sessions.values():
        assert l_block.fill(session.drift.slot) == 1
    host.close()
