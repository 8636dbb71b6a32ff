"""The server end to end over real localhost TCP.

The tick loop runs fast (10 ms) so these stay well under a second each;
tests drive raw protocol lines through asyncio streams, exactly like a
production agent would.  The server regressions run at one shard (the
default) and at two; the router's own gates follow: the golden replay's
pinned message stream, reconnects across ring boundaries, the
exactly-once hot-swap barrier under a racing publish, and a clean
``stop()`` after the tick dies.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    ModelRegistry,
    SessionConfig,
    ShardError,
    ShardedPowerServer,
    load_replay_fixture,
    offline_reference,
    protocol,
    replay,
)
from repro.serving.router import HashRing

TICK_S = 0.01

FIXTURE_PATH = (
    Path(__file__).parent / "fixtures" / "atom_sort_replay.json"
)


@pytest.fixture(scope="module")
def golden_fixture():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"replay fixture missing at {FIXTURE_PATH}; run "
            "`pytest tests/serving --regen-golden` to create it"
        )
    return load_replay_fixture(FIXTURE_PATH)


def _run(coroutine):
    return asyncio.run(coroutine)


async def _connect(server):
    return await asyncio.open_connection(
        server.host, server.port, limit=protocol.MAX_LINE_BYTES
    )


async def _send(writer, message):
    writer.write(protocol.encode_message(message))
    await writer.drain()


async def _recv(reader):
    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
    assert line, "server closed the connection unexpectedly"
    return protocol.decode_line(line)


async def _hello(server, machine_id, platform_key):
    reader, writer = await _connect(server)
    await _send(writer, {
        "type": protocol.HELLO,
        "machine_id": machine_id,
        "platform": platform_key,
    })
    welcome = await _recv(reader)
    return reader, writer, welcome


def _sharded_server(scenario, code="Q", n_shards=2, **kwargs):
    return ShardedPowerServer(
        static_bundles={
            scenario.platform_key: (f"{code}@v1", scenario.bundle(code))
        },
        n_shards=n_shards,
        shard_backend="inline",
        tick_interval_s=TICK_S,
        **kwargs,
    )


def _sample_messages(scenario, log, n, code="Q"):
    from repro.serving import MachineSession

    probe = MachineSession("probe", "v", scenario.bundle(code))
    required = probe.predictor.required_counters
    columns = log.select(list(required))
    return [
        {
            "type": protocol.SAMPLE,
            "t": t,
            "counters": {
                name: columns[t, i] for i, name in enumerate(required)
            },
        }
        for t in range(n)
    ]


def _ids_per_shard(ring, n_wanted):
    """One machine ID owned by each shard (probing a candidate pool)."""
    chosen = {}
    for i in range(10_000):
        machine_id = f"machine-{i}"
        shard = ring.owner(machine_id)
        if shard not in chosen:
            chosen[shard] = machine_id
        if len(chosen) == n_wanted:
            return [chosen[s] for s in range(n_wanted)]
    raise AssertionError("ring never covered every shard")


async def _stream_to_drained(reader, writer, messages):
    for message in messages:
        await _send(writer, message)
    await _send(writer, {"type": protocol.BYE})
    predictions = []
    while True:
        message = await _recv(reader)
        if message["type"] == protocol.PREDICTION:
            predictions.append(message)
        elif message["type"] == protocol.DRAINED:
            return predictions, message["session"]


@pytest.mark.parametrize("n_shards", [1, 2])
def test_hello_samples_predictions_bye(scenario, holdout_log, n_shards):
    async def scenario_run():
        server = _sharded_server(scenario, n_shards=n_shards)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            welcome = await _recv(reader)
            assert welcome["type"] == protocol.WELCOME
            assert welcome["model_version"] == "Q@v1"
            assert welcome["required_counters"]

            for message in _sample_messages(scenario, holdout_log, 15):
                await _send(writer, message)
            await _send(writer, {"type": protocol.BYE})

            predictions = []
            while True:
                message = await _recv(reader)
                if message["type"] == protocol.PREDICTION:
                    predictions.append(message)
                elif message["type"] == protocol.DRAINED:
                    final = message["session"]
                    break
            writer.close()
            return predictions, final
        finally:
            await server.stop()

    predictions, final = _run(scenario_run())
    assert [p["t"] for p in predictions] == list(range(15))
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    np.testing.assert_array_equal(
        [p["power_w"] for p in predictions], offline[:15]
    )
    assert final["scored"] == 15
    assert final["late_dropped"] == 0 and final["shed_dropped"] == 0


@pytest.mark.parametrize("n_shards", [1, 2])
def test_stats_request_returns_full_telemetry(
    scenario, holdout_log, n_shards
):
    async def scenario_run():
        server = _sharded_server(scenario, n_shards=n_shards)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            for message in _sample_messages(scenario, holdout_log, 5):
                await _send(writer, message)
            # Let at least one tick score before asking.
            await asyncio.sleep(TICK_S * 5)
            await _send(writer, {"type": protocol.STATS})
            while True:
                message = await _recv(reader)
                if message["type"] == protocol.STATS:
                    writer.close()
                    return message["stats"]
        finally:
            await server.stop()

    stats = _run(scenario_run())
    json.dumps(stats)
    assert stats["sessions_opened"] == 1
    assert stats["samples_scored"] == 5
    assert stats["cluster"] is not None
    assert stats["cluster"]["n_machines"] == 1
    assert stats["sessions"][0]["machine_id"] == "m0"


@pytest.mark.parametrize("n_shards", [1, 2])
def test_protocol_violations_are_rejected(scenario, n_shards):
    async def scenario_run():
        server = _sharded_server(scenario, n_shards=n_shards)
        await server.start()
        outcomes = {}
        try:
            # Not a hello first.
            reader, writer = await _connect(server)
            await _send(writer, {"type": protocol.STATS})
            outcomes["not_hello"] = await _recv(reader)
            writer.close()

            # Unknown platform.
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m1",
                "platform": "no-such-platform",
            })
            outcomes["bad_platform"] = await _recv(reader)
            writer.close()

            # Malformed JSON after a valid hello.
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m2",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            writer.write(b"this is not json\n")
            await writer.drain()
            outcomes["bad_json"] = await _recv(reader)
            writer.close()

            # Duplicate machine_id.
            r1, w1 = await _connect(server)
            await _send(w1, {
                "type": protocol.HELLO,
                "machine_id": "dup",
                "platform": scenario.platform_key,
            })
            await _recv(r1)
            r2, w2 = await _connect(server)
            await _send(w2, {
                "type": protocol.HELLO,
                "machine_id": "dup",
                "platform": scenario.platform_key,
            })
            outcomes["duplicate"] = await _recv(r2)
            w1.close()
            w2.close()
            outcomes["n_errors"] = server.stats.n_protocol_errors
            return outcomes
        finally:
            await server.stop()

    outcomes = _run(scenario_run())
    assert outcomes["not_hello"]["type"] == protocol.ERROR
    assert "hello" in outcomes["not_hello"]["error"]
    assert outcomes["bad_platform"]["type"] == protocol.ERROR
    assert "no live model" in outcomes["bad_platform"]["error"]
    assert outcomes["bad_json"]["type"] == protocol.ERROR
    assert outcomes["duplicate"]["type"] == protocol.ERROR
    assert "already has a session" in outcomes["duplicate"]["error"]
    assert outcomes["n_errors"] == 4


@pytest.mark.parametrize("n_shards", [1, 2])
def test_registry_publish_hot_swaps_live_sessions(
    scenario, holdout_log, tmp_path, n_shards
):
    """A publish while a machine streams swaps its model mid-stream
    without dropping or double-scoring any sample."""
    registry = ModelRegistry(tmp_path / "registry")
    v1, _ = registry.publish(scenario.bundle("Q"))

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=n_shards,
            tick_interval_s=TICK_S,
            session_config=SessionConfig(queue_limit=256, gap_tolerance=8),
        )
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            welcome = await _recv(reader)
            assert welcome["model_version"] == v1.label

            messages = _sample_messages(scenario, holdout_log, 60)
            for message in messages[:30]:
                await _send(writer, message)
            # Wait until at least one sample is scored under v1...
            predictions = [await _recv(reader)]
            assert predictions[0]["type"] == protocol.PREDICTION
            # ...then publish v2 while samples are still in flight.
            v2, _ = registry.publish(scenario.bundle("L"))
            for message in messages[30:]:
                await _send(writer, message)
            await _send(writer, {"type": protocol.BYE})

            while True:
                message = await _recv(reader)
                if message["type"] == protocol.PREDICTION:
                    predictions.append(message)
                elif message["type"] == protocol.DRAINED:
                    final = message["session"]
                    break
            writer.close()
            return predictions, final, v2
        finally:
            await server.stop()

    predictions, final, v2 = _run(scenario_run())
    # Exactly once: every t delivered once, none dropped or duplicated.
    assert [p["t"] for p in predictions] == list(range(60))
    assert final["scored"] == 60
    assert final["late_dropped"] == 0 and final["shed_dropped"] == 0
    versions = [p["model_version"] for p in predictions]
    assert versions[0] == v1.label
    assert versions[-1] == v2.label
    assert final["model_swaps"] == 1
    # The version sequence flips exactly once (no flapping).
    flips = sum(
        1 for a, b in zip(versions, versions[1:]) if a != b
    )
    assert flips == 1
    # Every sample's watts match the model that scored it.
    offline = {
        v1.label: scenario.bundle("Q").platform_model.predict_log(
            holdout_log
        ),
        v2.label: scenario.bundle("L").platform_model.predict_log(
            holdout_log
        ),
    }
    for prediction in predictions:
        expected = offline[prediction["model_version"]][prediction["t"]]
        assert prediction["power_w"] == expected


@pytest.mark.parametrize("n_shards", [1, 2])
def test_abrupt_disconnect_closes_the_session(
    scenario, holdout_log, n_shards
):
    async def scenario_run():
        server = _sharded_server(scenario, n_shards=n_shards)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            await _recv(reader)
            writer.close()  # no bye
            await asyncio.sleep(TICK_S * 5)
            telemetry = await server.telemetry_async()
            return telemetry["sessions_closed"], len(telemetry["sessions"])
        finally:
            await server.stop()

    closed, remaining = _run(scenario_run())
    assert closed == 1
    assert remaining == 0


@pytest.mark.parametrize("n_shards", [1, 2])
def test_oversized_line_mid_stream_counts_a_protocol_error(
    scenario, n_shards
):
    """Regression: an oversized line *after* the hello used to be
    swallowed silently (no error reply, no counter). It must account
    identically to the oversized-hello path."""
    async def scenario_run():
        server = _sharded_server(scenario, n_shards=n_shards)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            writer.write(
                b'{"type": "sample", "pad": "'
                + b"x" * (protocol.MAX_LINE_BYTES + 1024)
                + b'"}\n'
            )
            await writer.drain()
            error = await _recv(reader)
            tail = await reader.read()  # server closes the connection
            writer.close()
            await asyncio.sleep(TICK_S * 2)
            telemetry = await server.telemetry_async()
            return (
                error,
                tail,
                server.stats.n_protocol_errors,
                len(telemetry["sessions"]),
            )
        finally:
            await server.stop()

    error, tail, n_errors, remaining = _run(scenario_run())
    assert error["type"] == protocol.ERROR
    assert "oversized" in error["error"]
    assert tail == b""
    assert n_errors == 1
    assert remaining == 0


@pytest.mark.parametrize("n_shards", [1, 2])
def test_stalled_consumer_is_closed_without_blocking_the_tick(
    scenario, holdout_log, n_shards
):
    """Regression: ``run_tick`` used to drain after every prediction
    write, so one stalled peer head-of-line blocked the whole fleet.
    Writes are now buffered per client and drained once per tick with
    a deadline; the stalled peer is closed and counted, and healthy
    clients keep receiving predictions."""

    async def scenario_run():
        server = _sharded_server(
            scenario, n_shards=n_shards, drain_timeout_s=0.05
        )
        await server.start()
        try:
            slow_reader, slow_writer = await _connect(server)
            await _send(slow_writer, {
                "type": protocol.HELLO,
                "machine_id": "slow",
                "platform": scenario.platform_key,
            })
            await _recv(slow_reader)
            fast_reader, fast_writer = await _connect(server)
            await _send(fast_writer, {
                "type": protocol.HELLO,
                "machine_id": "fast",
                "platform": scenario.platform_key,
            })
            await _recv(fast_reader)

            # Simulate a peer that never reads: pause the stream
            # protocol's flow control, exactly what the transport does
            # when the socket buffer to that peer is full. drain()
            # then blocks until the deadline.
            server._clients["slow"].writer._protocol.pause_writing()

            messages = _sample_messages(scenario, holdout_log, 10)
            for message in messages[:5]:
                await _send(slow_writer, message)
            for message in messages[:5]:
                await _send(fast_writer, message)
            fast_predictions = [await _recv(fast_reader) for _ in range(5)]
            for _ in range(200):
                if server.stats.n_stalled_closed:
                    break
                await asyncio.sleep(TICK_S)
            # The fast client is still live end to end.
            for message in messages[5:]:
                await _send(fast_writer, message)
            await _send(fast_writer, {"type": protocol.BYE})
            while True:
                message = await _recv(fast_reader)
                if message["type"] == protocol.DRAINED:
                    final = message["session"]
                    break
                fast_predictions.append(message)
            fast_writer.close()
            slow_writer.close()
            return (
                server.stats.n_stalled_closed,
                "slow" in server._clients,
                [p["t"] for p in fast_predictions],
                final,
            )
        finally:
            await server.stop()

    n_stalled, slow_live, fast_ts, final = _run(scenario_run())
    assert n_stalled == 1
    assert not slow_live
    assert fast_ts == list(range(10))
    assert final["scored"] == 10


@pytest.mark.parametrize("n_shards", [1, 2])
def test_hello_waits_for_the_barrier_to_commit_a_new_platform(
    scenario, tmp_path, n_shards
):
    """A hello is answered from the shard's committed generation: a
    platform first published while the server runs is rejected until
    the barrier commits it, and welcomed from the next tick on."""
    registry = ModelRegistry(tmp_path / "registry")

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=n_shards,
            tick_interval_s=60.0,  # ticks driven manually below
        )
        await server.start()
        try:
            version, _ = registry.publish(scenario.bundle("Q"))
            _, writer, before = await _hello(
                server, "m0", scenario.platform_key
            )
            writer.close()
            swaps_before = server.n_barrier_swaps
            await server.run_tick()
            _, writer, after = await _hello(
                server, "m0", scenario.platform_key
            )
            writer.close()
            return version, before, swaps_before, after, server
        finally:
            await server.stop()

    version, before, swaps_before, after, server = _run(scenario_run())
    assert before["type"] == protocol.ERROR
    assert "no live model for platform" in before["error"]
    assert swaps_before == 0
    assert server.n_barrier_swaps == 1
    assert after["type"] == protocol.WELCOME
    assert after["model_version"] == version.label


def test_fleet_scores_bit_identical_across_shards(
    scenario, holdout_log
):
    """Machines on both shards: every prediction matches the offline
    reference and the merged telemetry adds up fleet-wide."""
    ids = _ids_per_shard(HashRing(2), 2)

    async def scenario_run():
        server = _sharded_server(scenario, n_shards=2)
        await server.start()
        try:
            messages = _sample_messages(scenario, holdout_log, 15)
            outcomes = {}
            for machine_id in ids:
                reader, writer, welcome = await _hello(
                    server, machine_id, scenario.platform_key
                )
                assert welcome["type"] == protocol.WELCOME
                assert welcome["model_version"] == "Q@v1"
                outcomes[machine_id] = await _stream_to_drained(
                    reader, writer, messages
                )
                writer.close()
            telemetry = await server.telemetry_async(
                extra_session_rows=[
                    final for _, final in outcomes.values()
                ]
            )
            return outcomes, telemetry
        finally:
            await server.stop()

    outcomes, telemetry = _run(scenario_run())
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    for machine_id, (predictions, final) in outcomes.items():
        assert [p["t"] for p in predictions] == list(range(15))
        np.testing.assert_array_equal(
            [p["power_w"] for p in predictions], offline[:15]
        )
        assert final["scored"] == 15
        assert final["shed_dropped"] == 0

    json.dumps(telemetry)
    assert telemetry["samples_scored"] == 30
    assert telemetry["sessions_opened"] == 2
    assert telemetry["sessions_closed"] == 2
    assert telemetry["dropped_samples"] == 0
    assert telemetry["router"]["shards"] == 2
    assert telemetry["router"]["ticks"] > 0
    # Both shards actually scored work (the IDs were chosen per shard).
    assert all(b > 0 for b in telemetry["router"]["busy_seconds"])


def test_golden_replay_delivers_the_pinned_message_stream(
    golden_fixture,
):
    """The acceptance gate: the golden fixture replayed through one
    shard (the default) and through two delivers exactly the
    prediction messages built from the offline reference, byte for
    byte, and a fleet total that is exactly their Eq. 5 sum."""
    bundle, machines = golden_fixture
    static = {bundle.platform_key: ("golden@v1", bundle)}
    expected = {
        machine.machine_id: [
            {
                "type": protocol.PREDICTION,
                "t": t,
                "power_w": float(power_w),
                "patched": False,
                "drifting": False,
                "model_version": "golden@v1",
            }
            for t, power_w in enumerate(
                offline_reference(bundle, machine.log)
            )
        ]
        for machine in machines
    }
    last_power_w = {
        machine_id: messages[-1]["power_w"]
        for machine_id, messages in expected.items()
    }
    results = {
        1: replay(machines, static_bundles=static, speed=50.0),
        2: replay(machines, static_bundles=static, speed=50.0, shards=2),
    }
    for shards, result in results.items():
        assert result.telemetry["router"]["shards"] == shards
        assert result.total_dropped == 0
        assert result.telemetry["samples_scored"] == 420
        assert set(result.machines) == set(expected)
        for machine_id, messages in expected.items():
            assert json.dumps(
                result.machines[machine_id].predictions, sort_keys=True
            ) == json.dumps(messages, sort_keys=True)
        # The final estimate is the last tick's, so it holds only the
        # machines that had not drained before that tick, which depends
        # on timing.  Each holds exactly its last prediction and the
        # total is exactly their sum, so both shard counts report
        # bit-equal totals whenever they end on the same machines.
        cluster = result.telemetry["cluster"]
        assert cluster["total_power_w"] == sum(
            last_power_w[row["machine_id"]] for row in cluster["machines"]
        )


def test_reconnect_same_ring_reuses_the_same_shard(
    scenario, holdout_log
):
    """Abrupt disconnect, then a reconnect of the same machine ID: the
    ring maps it to the same shard, and a fresh session scores."""
    machine_id = _ids_per_shard(HashRing(2), 2)[0]

    async def scenario_run():
        server = _sharded_server(scenario, n_shards=2)
        await server.start()
        try:
            shard = server.ring.owner(machine_id)
            reader, writer, welcome = await _hello(
                server, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            for message in _sample_messages(scenario, holdout_log, 5):
                await _send(writer, message)
            writer.close()  # abrupt: no bye
            worker = server._hosts[shard].worker
            for _ in range(500):
                if machine_id not in worker.sessions:
                    break
                await asyncio.sleep(TICK_S)
            assert machine_id not in worker.sessions

            reader, writer, welcome = await _hello(
                server, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            predictions, final = await _stream_to_drained(
                reader,
                writer,
                _sample_messages(scenario, holdout_log, 10),
            )
            writer.close()
            telemetry = await server.telemetry_async(
                extra_session_rows=[final]
            )
            return server.ring.owner(machine_id) == shard, final, telemetry
        finally:
            await server.stop()

    same_shard, final, telemetry = _run(scenario_run())
    assert same_shard
    assert final["scored"] == 10
    assert telemetry["sessions_opened"] == 2
    assert telemetry["sessions_closed"] == 2


def test_reconnect_lands_on_a_different_shard_after_reshard(
    scenario, holdout_log
):
    """A machine that disconnects from a 2-shard fleet and reconnects
    to a 3-shard fleet is owned by a *different* shard — the stream
    completes cleanly there (sessions are shared-nothing, so nothing
    about the machine lives on the old owner)."""
    small, large = HashRing(2), HashRing(3)
    machine_id = next(
        f"machine-{i}"
        for i in range(10_000)
        if small.owner(f"machine-{i}") != large.owner(f"machine-{i}")
    )

    async def scenario_run():
        before = _sharded_server(scenario, n_shards=2)
        await before.start()
        try:
            reader, writer, welcome = await _hello(
                before, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            for message in _sample_messages(scenario, holdout_log, 5):
                await _send(writer, message)
            writer.close()  # abrupt mid-stream
        finally:
            await before.stop()

        after = _sharded_server(scenario, n_shards=3)
        await after.start()
        try:
            reader, writer, welcome = await _hello(
                after, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            predictions, final = await _stream_to_drained(
                reader,
                writer,
                _sample_messages(scenario, holdout_log, 10),
            )
            writer.close()
            owner_after = after.ring.owner(machine_id)
            worker_snapshot = after._hosts[owner_after].worker.stats
            return predictions, final, worker_snapshot.n_samples_scored
        finally:
            await after.stop()

    assert small.owner(machine_id) != large.owner(machine_id)
    predictions, final, owner_scored = _run(scenario_run())
    assert [p["t"] for p in predictions] == list(range(10))
    assert final["scored"] == 10
    assert final["shed_dropped"] == 0
    # The new owner did the scoring.
    assert owner_scored == 10


def test_registry_publish_swaps_the_whole_fleet_exactly_once(
    scenario, holdout_log, tmp_path
):
    """The barrier gate: a publish mid-stream flips every session in
    the fleet exactly once, in one coordinated barrier round."""
    registry = ModelRegistry(tmp_path / "registry")
    v1, _ = registry.publish(scenario.bundle("Q"))
    ids = _ids_per_shard(HashRing(2), 2)

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=2,
            shard_backend="inline",
            tick_interval_s=TICK_S,
        )
        await server.start()
        try:
            messages = _sample_messages(scenario, holdout_log, 60)
            streams = {}
            for machine_id in ids:
                reader, writer, welcome = await _hello(
                    server, machine_id, scenario.platform_key
                )
                assert welcome["model_version"] == v1.label
                streams[machine_id] = (reader, writer)
                for message in messages[:30]:
                    await _send(writer, message)
            # Wait until each machine has at least one v1 prediction.
            first = {}
            for machine_id, (reader, _) in streams.items():
                first[machine_id] = await _recv(reader)
                assert first[machine_id]["type"] == protocol.PREDICTION
            v2, _ = registry.publish(scenario.bundle("L"))
            outcomes = {}
            for machine_id, (reader, writer) in streams.items():
                predictions, final = await _stream_to_drained(
                    reader, writer, messages[30:]
                )
                outcomes[machine_id] = (
                    [first[machine_id]] + predictions,
                    final,
                )
                writer.close()
            telemetry = await server.telemetry_async(
                extra_session_rows=[
                    final for _, final in outcomes.values()
                ]
            )
            return outcomes, telemetry, v2
        finally:
            await server.stop()

    outcomes, telemetry, v2 = _run(scenario_run())
    for machine_id, (predictions, final) in outcomes.items():
        assert [p["t"] for p in predictions] == list(range(60))
        versions = [p["model_version"] for p in predictions]
        assert versions[0] == v1.label
        assert versions[-1] == v2.label
        flips = sum(1 for a, b in zip(versions, versions[1:]) if a != b)
        assert flips == 1
        assert final["model_swaps"] == 1
        assert final["shed_dropped"] == 0
    # One barrier round swapped both shards; both committed the same
    # generation — no tick anywhere scored two versions per platform.
    assert telemetry["hot_swaps"] == 2
    assert telemetry["router"]["barrier_swaps"] == 1
    generations = telemetry["router"]["committed_generations"]
    assert len(set(generations)) == 1


def test_barrier_aborts_when_shards_observe_different_generations(
    scenario, tmp_path
):
    """A publish racing the stage fan-out makes shards disagree: the
    round commits nowhere and the next tick converges."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(scenario.bundle("Q"))

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=2,
            shard_backend="inline",
            tick_interval_s=60.0,  # ticks driven manually below
        )
        await server.start()
        try:
            worker_0 = server._hosts[0].worker
            baseline = worker_0.committed_generation
            original_stage = worker_0.stage_swap
            state = {"lagged": False}

            def lagging_stage(payload=None):
                # First stage answers with the *previous* generation,
                # as if this shard's manifest read raced the publish.
                generation = original_stage(payload)
                if not state["lagged"]:
                    state["lagged"] = True
                    return generation - 1
                return generation

            worker_0.stage_swap = lagging_stage
            registry.publish(scenario.bundle("L"))

            await server.run_tick()
            aborted = (
                server.n_barrier_aborts,
                server.n_barrier_swaps,
                worker_0.committed_generation,
                server._hosts[1].worker.committed_generation,
            )
            await server.run_tick()
            converged = (
                server.n_barrier_swaps,
                worker_0.committed_generation,
                server._hosts[1].worker.committed_generation,
            )
            return baseline, aborted, converged
        finally:
            await server.stop()

    baseline, aborted, converged = _run(scenario_run())
    n_aborts, n_swaps, gen_0, gen_1 = aborted
    assert n_aborts == 1 and n_swaps == 0
    # Nothing committed anywhere on the aborted round.
    assert gen_0 == baseline and gen_1 == baseline
    n_swaps, gen_0, gen_1 = converged
    assert n_swaps == 1
    assert gen_0 == gen_1 == baseline + 1


def test_sharded_server_validates_arguments(scenario):
    with pytest.raises(ValueError, match="exactly one"):
        ShardedPowerServer()
    with pytest.raises(ValueError, match="tick_interval_s"):
        ShardedPowerServer(
            static_bundles={}, n_shards=1, tick_interval_s=0
        )
    with pytest.raises(ValueError, match="unknown shard backend"):
        server = ShardedPowerServer(
            static_bundles={}, shard_backend="quantum"
        )
        _run(server.start())


def test_stop_closes_everything_after_the_tick_dies(scenario):
    """Regression: once the tick task had died, ``stop()`` re-raised its
    exception before closing anything, so the port kept accepting, the
    clients stayed connected and the shard hosts leaked.  It now closes
    all three, then raises the tick's exception."""

    async def scenario_run():
        server = _sharded_server(scenario, n_shards=1)

        async def failing_tick():
            raise RuntimeError("tick failed")

        server.run_tick = failing_tick
        await server.start()
        reader, writer, welcome = await _hello(
            server, "m0", scenario.platform_key
        )
        assert welcome["type"] == protocol.WELCOME
        done, _ = await asyncio.wait({server._tick_task}, timeout=5.0)
        assert done, "the tick task never ended"
        with pytest.raises(RuntimeError, match="tick failed"):
            await server.stop()
        try:
            _, probe = await _connect(server)
        except OSError:
            refused = True
        else:
            probe.close()
            refused = False
        tail = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        return refused, tail, server._clients, server._hosts

    refused, tail, clients, hosts = _run(scenario_run())
    assert refused
    assert tail == b""
    assert clients == {}
    assert hosts == []


def test_stop_closes_the_surviving_process_shard_after_one_dies(scenario):
    """Regression: killing one of two process shards ends the tick with
    ``ShardError``, and ``stop()`` used to re-raise it before closing
    anything, so the surviving shard process stayed alive.  The failed
    fan-out now waits for the survivor's in-flight tick, and ``stop()``
    closes both hosts before raising the ``ShardError``."""

    async def scenario_run():
        server = ShardedPowerServer(
            static_bundles={
                scenario.platform_key: ("Q@v1", scenario.bundle("Q"))
            },
            n_shards=2,
            shard_backend="process",
            tick_interval_s=TICK_S,
        )
        await server.start()
        processes = [host._process for host in server._hosts]
        processes[0].kill()
        done, _ = await asyncio.wait({server._tick_task}, timeout=30.0)
        assert done, "the tick task never ended"
        with pytest.raises(ShardError, match="died mid-command"):
            await server.stop()
        for process in processes:
            process.join(timeout=10.0)
        return [process.is_alive() for process in processes], server._hosts

    alive, hosts = _run(scenario_run())
    assert alive == [False, False]
    assert hosts == []


def test_failed_process_fan_out_waits_for_every_call(scenario):
    """A process fan-out raises one shard's error only after every
    other shard's call has returned: otherwise ``stop()`` could close a
    pipe whose reply another thread is still reading."""
    release = threading.Event()
    finished = []

    class DeadHost:
        def call(self, command, payload=None):
            raise ShardError("shard process died mid-command")

    class SlowHost:
        def call(self, command, payload=None):
            release.wait(timeout=10.0)
            finished.append(command)

    async def scenario_run():
        server = ShardedPowerServer(
            static_bundles={}, n_shards=2, shard_backend="process"
        )
        server._hosts = [DeadHost(), SlowHost()]
        server._host_locks = [asyncio.Lock(), asyncio.Lock()]
        fan_out = asyncio.ensure_future(
            server._call_shards("tick_batch", {0: None, 1: None})
        )
        await asyncio.sleep(0.05)
        pending = not fan_out.done()
        release.set()
        with pytest.raises(ShardError, match="died mid-command"):
            await fan_out
        return pending

    assert _run(scenario_run())
    assert finished == ["tick_batch"]
