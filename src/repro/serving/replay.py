"""Replay recorded telemetry through a live server, faster than life.

``replay`` spins up a real :class:`ShardedPowerServer` on localhost
(one inline shard unless asked for more), connects one TCP client per
recorded machine, and streams each machine's :class:`PerfmonLog` as
1 Hz protocol samples at ``speed`` times real time.  It exercises the
entire production path — wire protocol, routing, session reorder
buffers, micro-batched scoring, hot-swap polling — and returns every
delivered prediction plus the server's final merged telemetry.

Clients keep a bounded flow-control window (fewer outstanding samples
than the session queue limit), so a replay never sheds samples no matter
the speed multiple: the CI smoke test asserts exactly that, and the
bit-identical guarantee (online == ``PlatformModel.predict_log``) is
checked sample for sample against the offline reference.

Replay fixtures (a bundle plus machine logs) serialize to one JSON file
so CI can drive a committed golden scenario without regenerating data.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.arraysan import contracted
from repro.engine.cache import atomic_write_json
from repro.serving import protocol
from repro.serving.bundle import (
    ServingBundle,
    bundle_from_payload,
)
from repro.serving.router import ShardedPowerServer
from repro.serving.session import SessionConfig
from repro.telemetry.perfmon import PerfmonLog

FIXTURE_FORMAT_VERSION = 1

DEFAULT_WINDOW = 32
"""Max un-acknowledged samples per client; must stay below the session
queue limit so backpressure is exerted by the client, never by shedding."""


@dataclass(frozen=True)
class ReplayMachine:
    """One machine's recorded stream to replay."""

    machine_id: str
    platform_key: str
    log: PerfmonLog
    attach_meter: bool = True
    """Send the recorded metered watts with each sample so the server
    tracks rolling online DRE."""


@dataclass
class ReplayMachineResult:
    """Everything one machine got back from the server."""

    machine_id: str
    model_version: str
    predictions: list = field(default_factory=list)
    """``prediction`` messages in delivery (= ``t``) order."""

    session: Optional[dict] = None
    """The session's final snapshot from the ``drained`` reply."""

    @property
    def power_w(self) -> np.ndarray:
        return np.asarray(
            [message["power_w"] for message in self.predictions]
        )

    @property
    def patched(self) -> np.ndarray:
        return np.asarray(
            [message["patched"] for message in self.predictions],
            dtype=bool,
        )


@dataclass
class ReplayResult:
    """A full replay: per-machine deliveries + server telemetry."""

    machines: dict
    telemetry: dict
    speed: float

    @property
    def total_scored(self) -> int:
        return sum(
            len(result.predictions) for result in self.machines.values()
        )

    @property
    def total_dropped(self) -> int:
        return int(self.telemetry["dropped_samples"])


async def _read_message(reader: asyncio.StreamReader) -> dict:
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    message = protocol.decode_line(line)
    if message["type"] == protocol.ERROR:
        raise RuntimeError(f"server error: {message.get('error')}")
    return message


async def _stream_machine(
    host: str,
    port: int,
    machine: ReplayMachine,
    interval_s: float,
    window: int,
) -> ReplayMachineResult:
    """Stream one machine's log; returns its deliveries and final state."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_LINE_BYTES
    )
    try:
        writer.write(
            protocol.encode_message(
                {
                    "type": protocol.HELLO,
                    "machine_id": machine.machine_id,
                    "platform": machine.platform_key,
                }
            )
        )
        await writer.drain()
        welcome = await _read_message(reader)
        if welcome["type"] != protocol.WELCOME:
            raise RuntimeError(
                f"expected welcome, got {welcome['type']!r}"
            )
        result = ReplayMachineResult(
            machine_id=machine.machine_id,
            model_version=welcome["model_version"],
        )
        required = welcome["required_counters"]
        columns = machine.log.select(list(required))

        outstanding = 0
        for t in range(machine.log.n_seconds):
            sample = {
                "type": protocol.SAMPLE,
                "t": t,
                "counters": {
                    name: columns[t, i]
                    for i, name in enumerate(required)
                },
            }
            if machine.attach_meter:
                sample["meter_w"] = float(machine.log.power_w[t])
            writer.write(protocol.encode_message(sample))
            await writer.drain()
            outstanding += 1
            while outstanding >= window:
                message = await _read_message(reader)
                if message["type"] == protocol.PREDICTION:
                    result.predictions.append(message)
                    outstanding -= 1
            if interval_s > 0:
                await asyncio.sleep(interval_s)

        writer.write(protocol.encode_message({"type": protocol.BYE}))
        await writer.drain()
        while True:
            message = await _read_message(reader)
            if message["type"] == protocol.PREDICTION:
                result.predictions.append(message)
            elif message["type"] == protocol.DRAINED:
                result.session = message["session"]
                return result
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def replay_async(
    machines: list,
    static_bundles: Optional[dict] = None,
    registry=None,
    speed: float = 10.0,
    session_config: Optional[SessionConfig] = None,
    window: int = DEFAULT_WINDOW,
    sanitize: bool = False,
    shards: int = 1,
    shard_backend: str = "inline",
) -> ReplayResult:
    """Run a full replay inside an existing event loop.

    ``sanitize=True`` arms the chaos-race runtime sanitizer (event-loop
    debug mode, slow-callback capture, unawaited-coroutine promotion,
    stall heartbeat) and the chaos-shape array sanitizer (observed
    shapes/dtypes/contiguity at every contracted kernel boundary) for
    the duration of the replay, attaching their reports under
    ``telemetry["sanitizer"]`` and ``telemetry["array_sanitizer"]``.
    Scoring is unaffected — the CI golden replay asserts bit-identity
    with both sanitizers armed.

    ``shards`` and ``shard_backend`` set the server's topology.
    Scoring is bit-identical at any shard count because the predict
    kernels are batch-size-invariant, so every topology reproduces the
    golden fixture byte for byte.
    """
    if not machines:
        raise ValueError("need at least one machine to replay")
    if speed <= 0:
        raise ValueError("speed must be positive")
    sanitizer = None
    array_sanitizer = None
    if sanitize:
        from repro.analysis.arraysan import install_array_sanitizer
        from repro.analysis.sanitizer import install_sanitizer

        sanitizer = install_sanitizer(asyncio.get_running_loop())
        array_sanitizer = install_array_sanitizer()
    config = session_config or SessionConfig()
    if window >= config.queue_limit:
        raise ValueError(
            f"flow-control window {window} must stay below the session "
            f"queue limit {config.queue_limit} (or shedding is possible)"
        )
    interval_s = 1.0 / speed
    server = ShardedPowerServer(
        registry=registry,
        static_bundles=static_bundles,
        n_shards=shards,
        shard_backend=shard_backend,
        tick_interval_s=interval_s,
        session_config=config,
    )
    await server.start()
    try:
        results = await asyncio.gather(
            *(
                _stream_machine(
                    server.host,
                    server.port,
                    machine,
                    interval_s=interval_s,
                    window=window,
                )
                for machine in machines
            )
        )
        telemetry = await server.telemetry_async(
            extra_session_rows=[
                result.session
                for result in results
                if result.session is not None
            ]
        )
    finally:
        await server.stop()
        if sanitizer is not None:
            sanitizer.uninstall()
        if array_sanitizer is not None:
            array_sanitizer.uninstall()
    telemetry["speed"] = speed
    if sanitizer is not None:
        telemetry["sanitizer"] = sanitizer.report()
    if array_sanitizer is not None:
        telemetry["array_sanitizer"] = array_sanitizer.report()
    return ReplayResult(
        machines={result.machine_id: result for result in results},
        telemetry=telemetry,
        speed=speed,
    )


def replay(
    machines: list,
    static_bundles: Optional[dict] = None,
    registry=None,
    speed: float = 10.0,
    session_config: Optional[SessionConfig] = None,
    window: int = DEFAULT_WINDOW,
    sanitize: bool = False,
    shards: int = 1,
    shard_backend: str = "inline",
) -> ReplayResult:
    """Synchronous wrapper: replay a recorded cluster through a server."""
    return asyncio.run(
        replay_async(
            machines,
            static_bundles=static_bundles,
            registry=registry,
            speed=speed,
            session_config=session_config,
            window=window,
            sanitize=sanitize,
            shards=shards,
            shard_backend=shard_backend,
        )
    )


@contracted
def offline_reference(
    bundle: ServingBundle, log: PerfmonLog
) -> np.ndarray:
    """The offline batch prediction replay must reproduce bit-for-bit."""
    return bundle.platform_model.predict_log(log)


def max_deviation_w(
    result: ReplayMachineResult,
    bundle: ServingBundle,
    log: PerfmonLog,
) -> float:
    """Largest |online - offline| watts over non-patched samples.

    Patched samples are excluded: the online path deliberately reuses
    stale counters there, so the offline reference does not apply.
    """
    online = result.power_w
    offline = offline_reference(bundle, log)
    if online.size != offline.size:
        raise ValueError(
            f"replay delivered {online.size} predictions for "
            f"{offline.size} recorded seconds"
        )
    clean = ~result.patched
    if not np.any(clean):
        return 0.0
    return float(np.max(np.abs(online[clean] - offline[clean])))


# -- fixtures ----------------------------------------------------------

def save_replay_fixture(
    path, bundle: ServingBundle, machines: list
) -> None:
    """Write a self-contained replay fixture (bundle + machine logs).

    Logs are stored as raw JSON arrays, not the Perfmon CSV export: the
    CSV format quantizes floats, and the fixture underpins bit-identity
    assertions, so the round-trip must be lossless.
    """
    payload = {
        "format_version": FIXTURE_FORMAT_VERSION,
        "bundle": bundle.to_payload(),
        "machines": [
            {
                "machine_id": machine.machine_id,
                "platform": machine.platform_key,
                "counter_names": list(machine.log.counter_names),
                "counters": machine.log.counters.tolist(),
                "power_w": machine.log.power_w.tolist(),
            }
            for machine in machines
        ],
    }
    atomic_write_json(path, payload)


def load_replay_fixture(path) -> "tuple[ServingBundle, list]":
    """Read a fixture written by :func:`save_replay_fixture`."""
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version != FIXTURE_FORMAT_VERSION:
        raise ValueError(f"unsupported fixture version {version!r}")
    bundle = bundle_from_payload(payload["bundle"])
    machines = [
        ReplayMachine(
            machine_id=entry["machine_id"],
            platform_key=entry["platform"],
            log=PerfmonLog(
                machine_id=entry["machine_id"],
                counter_names=list(entry["counter_names"]),
                counters=np.asarray(entry["counters"], dtype=float),
                power_w=np.asarray(entry["power_w"], dtype=float),
            ),
        )
        for entry in payload["machines"]
    ]
    return bundle, machines
