"""The chaos-serve TCP server: one router in front of N shards.

:class:`ShardedPowerServer` hosts many machine sessions over
newline-delimited JSON (``serving/protocol.py``) but owns no sessions
itself: a consistent-hash ring (SHA-256, virtual nodes) maps each
machine ID to one :class:`~repro.serving.shard.ShardWorker`, which holds
that machine's session, reorder buffer and scoring state exclusively.
By default there is one shard, called in place in the router's process;
``n_shards=N, shard_backend="process"`` spreads the fleet over N worker
processes.  Adding shards moves only the keys between ring neighbours;
everything else stays put.

Connection coroutines only *ingest*: they validate messages and buffer
samples per shard.  All scoring happens on the tick loop.  Per tick the
router:

1. runs the **two-phase hot-swap barrier** when its registry generation
   poll moved — every shard stages the new generation (loads bundles,
   installs nothing), and only when *all* shards staged the same
   generation does the router commit it on all of them, between ticks,
   so no tick anywhere in the fleet scores two versions of one
   platform; a racing publish aborts the round and retries next tick;
2. flushes its buffered ingest to every shard in one
   ``tick_batch`` call per shard (submits, drain marks, then scoring)
   — inline shards are called in place, so the tick never yields to
   the event loop between scoring and writing; process shards tick
   concurrently;
3. merges the per-shard Eq. 5 partials into one fleet
   :class:`ClusterEstimate` (:func:`merge_estimates` — exact, because
   Eq. 5 is a plain sum over machines);
4. writes predictions back, buffered, then drains every recipient once
   under a bounded deadline: a stalled consumer is closed and counted,
   never allowed to head-of-line-block the fleet;
5. replies ``drained`` to each machine whose ``bye`` drain completed.

A ``hello`` is answered from its shard's *committed* generation: a
platform first published while the server runs is rejected until the
barrier commits it, and accepted from the next tick on.

Models come either from a :class:`ModelRegistry` (live, hot-swappable)
or from a static ``{platform: (version, bundle)}`` mapping (replay and
tests).  Overload shows up as per-session shed/late counters, surfaced
through the *merged* ``ServingStats`` (:func:`merge_snapshots`).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.serving import protocol
from repro.serving.aggregate import ClusterEstimate, merge_estimates
from repro.serving.bundle import ServingBundle
from repro.serving.registry import ModelRegistry
from repro.serving.session import SessionConfig
from repro.serving.shard import (
    ShardError,
    make_host,
    static_bundle_payloads,
    worker_config,
)
from repro.serving.stats import ServingStats, merge_snapshots

DEFAULT_RING_REPLICAS = 64
"""Virtual nodes per shard: enough to keep the key split within a few
percent of even for realistic fleet sizes, cheap enough to build at
start-up."""


class HashRing:
    """Consistent hashing of machine IDs onto shard indices.

    SHA-256 end to end — stable across processes, runs and Python
    hash-seed randomization, which the reconnect-lands-on-the-same-shard
    guarantee (and the tests) depend on.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = DEFAULT_RING_REPLICAS,
        salt: str = "chaos-shard",
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one replica per shard")
        self.n_shards = n_shards
        points = []
        for shard in range(n_shards):
            for replica in range(replicas):
                token = f"{salt}/{shard}/{replica}".encode()
                digest = hashlib.sha256(token).digest()
                points.append(
                    (int.from_bytes(digest[:8], "big"), shard)
                )
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def owner(self, machine_id: str) -> int:
        """The shard index owning one machine ID."""
        digest = hashlib.sha256(machine_id.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect.bisect_right(self._hashes, point)
        return self._owners[index % len(self._owners)]

    def partition(self, machine_ids: Iterable[str]) -> list[list[str]]:
        """Split machine IDs into per-shard ownership lists."""
        parts: list[list[str]] = [[] for _ in range(self.n_shards)]
        for machine_id in machine_ids:
            parts[self.owner(machine_id)].append(machine_id)
        return parts


@dataclass(eq=False)
class _RouterClient:
    """One connected machine: its write half and its owning shard."""

    machine_id: str
    shard_index: int
    writer: asyncio.StreamWriter
    closed: bool = False


class ShardedPowerServer:
    """Scores counter streams from a fleet of machines, over shards."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        static_bundles: Optional[
            dict[str, tuple[str, ServingBundle]]
        ] = None,
        n_shards: int = 1,
        shard_backend: str = "inline",
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = 1.0,
        session_config: Optional[SessionConfig] = None,
        max_samples_per_session: Optional[int] = None,
        drain_timeout_s: float = 2.0,
        ring_replicas: int = DEFAULT_RING_REPLICAS,
    ):
        if (registry is None) == (static_bundles is None):
            raise ValueError(
                "provide exactly one of registry or static_bundles"
            )
        if tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        self.registry = registry
        self.static_bundles = static_bundles
        self.host = host
        self.port = port
        self.n_shards = n_shards
        self.shard_backend = shard_backend
        self.tick_interval_s = tick_interval_s
        self.drain_timeout_s = drain_timeout_s
        self.session_config = session_config or SessionConfig()
        self.max_samples_per_session = max_samples_per_session
        self.ring = HashRing(n_shards, replicas=ring_replicas)
        # Router-local telemetry: transport/protocol counters only; all
        # scoring counters live in the shards and merge on demand.
        self.stats = ServingStats()
        self.last_estimate: Optional[ClusterEstimate] = None
        self.n_ticks = 0
        self.n_barrier_swaps = 0
        self.n_barrier_aborts = 0
        self._clients: dict[str, _RouterClient] = {}
        self._hosts: list = []
        self._host_locks: list = []
        self._pending_submits: list[list[tuple]] = []
        self._pending_drains: list[list[str]] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._registry_generation = (
            registry.generation if registry is not None else 0
        )

    def _worker_config(self) -> dict:
        if self.registry is not None:
            return worker_config(
                registry_root=str(self.registry.root),
                session_config=self.session_config,
                max_samples_per_session=self.max_samples_per_session,
            )
        assert self.static_bundles is not None
        return worker_config(
            static_bundles=static_bundle_payloads(self.static_bundles),
            session_config=self.session_config,
            max_samples_per_session=self.max_samples_per_session,
        )

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spin up the shard fleet, bind, and start ticking."""
        config = self._worker_config()
        self._hosts = [
            make_host(self.shard_backend, config)
            for _ in range(self.n_shards)
        ]
        # Created here (inside the running loop), not in __init__, so
        # every lock binds to the loop that will actually use it.
        self._host_locks = [asyncio.Lock() for _ in self._hosts]
        self._pending_submits = [[] for _ in self._hosts]
        self._pending_drains = [[] for _ in self._hosts]
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def stop(self) -> None:
        """Close the listener, every client and every shard host.

        This runs to the end however the tick task ended.  If the tick
        died of an exception, that exception is raised once everything
        is closed, so the fault stays visible.
        """
        # Swap shared handles into locals *before* awaiting: a second
        # stop() (or a restart) interleaving at the await must see the
        # attribute already cleared, not clobber its update afterwards.
        tick_task, self._tick_task = self._tick_task, None
        tick_error: Optional[Exception] = None
        if tick_task is not None:
            tick_task.cancel()
            try:
                await tick_task
            except asyncio.CancelledError:
                pass
            except Exception as error:
                tick_error = error
        try:
            server, self._server = self._server, None
            if server is not None:
                server.close()
                await server.wait_closed()
            for client in list(self._clients.values()):
                await self._close_client(client)
        finally:
            hosts, self._hosts = self._hosts, []
            for host in hosts:
                host.close()
        if tick_error is not None:
            raise tick_error

    # -- shard access --------------------------------------------------
    async def _call_shards(
        self, command: str, payloads: dict[int, Any]
    ) -> list:
        """``command`` on each shard in ``payloads`` (shard index ->
        payload); the results come back in the same order.

        Inline hosts are called in place, one after another, with no
        Task: a tick over inline shards never yields to the event loop
        between scoring and writing.  Process hosts are gathered, each
        call in the default executor under its shard's lock.  The lock
        keeps exactly one command in flight per pipe (the process
        host's request/reply framing needs it); calls to *different*
        shards run concurrently, which is the scaling axis.  A failed
        call is raised only once every call has returned, so no
        command is left in flight on a pipe that ``stop()`` closes.
        """
        hosts = self._hosts
        if self.shard_backend == "inline":
            return [
                hosts[index].call(command, payload)
                for index, payload in payloads.items()
            ]
        loop = asyncio.get_running_loop()

        async def call(index: int, payload: Any) -> Any:
            async with self._host_locks[index]:
                return await loop.run_in_executor(
                    None, hosts[index].call, command, payload
                )

        results = await asyncio.gather(
            *(call(index, payload) for index, payload in payloads.items()),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    async def _all_shards(self, command: str, payload: Any = None) -> list:
        return await self._call_shards(
            command, dict.fromkeys(range(len(self._hosts)), payload)
        )

    # -- the hot-swap barrier ------------------------------------------
    async def _coordinate_swap(self) -> None:
        """Two-phase exactly-once swap, driven off the generation poll."""
        if self.registry is None:
            return
        observed = self.registry.generation
        if observed == self._registry_generation:
            return
        # Claim the observed generation before the first await; an
        # aborted barrier rolls the claim back and retries next tick.
        previous, self._registry_generation = (
            self._registry_generation,
            observed,
        )
        try:
            staged = await self._all_shards("stage_swap")
        except ShardError:
            self._registry_generation = previous
            self.n_barrier_aborts += 1
            return
        target = staged[0]
        if any(generation != target for generation in staged):
            # A publish raced the stage fan-out: shards disagree, so
            # nothing is committed anywhere.  Next tick restages.
            self._registry_generation = previous
            self.n_barrier_aborts += 1
            return
        await self._all_shards("commit_swap", target)
        self._registry_generation = target
        self.n_barrier_swaps += 1

    # -- tick loop -----------------------------------------------------
    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval_s)
            await self.run_tick()

    async def run_tick(self) -> None:
        """One coordinated fleet tick (public so tests can drive it)."""
        await self._coordinate_swap()
        # Swap the ingest buffers to locals before the first await so
        # samples arriving mid-tick land cleanly in the next tick.
        submits, self._pending_submits = (
            self._pending_submits,
            [[] for _ in self._hosts],
        )
        drains, self._pending_drains = (
            self._pending_drains,
            [[] for _ in self._hosts],
        )
        results = await self._call_shards(
            "tick_batch",
            {
                index: {"submits": submits[index], "drains": drains[index]}
                for index in range(len(self._hosts))
            },
        )
        self.n_ticks += 1
        recipients: dict[str, _RouterClient] = {}
        for result in results:
            for sample in result.scored:
                client = self._clients.get(sample.machine_id)
                if client is None or client.closed:
                    continue
                if self._buffer_send(
                    client,
                    {
                        "type": protocol.PREDICTION,
                        "t": sample.t,
                        "power_w": sample.power_w,
                        "patched": sample.patched,
                        "drifting": sample.drifting,
                        "model_version": sample.model_version,
                    },
                ):
                    recipients[sample.machine_id] = client
                else:
                    await self._close_client(client, close_shard=True)
        await self._drain_clients(recipients.values())
        self.last_estimate = merge_estimates(
            self.n_ticks, [result.partial for result in results]
        )
        for result in results:
            for machine_id, session_snapshot in result.drained:
                client = self._clients.get(machine_id)
                if client is None or client.closed:
                    continue
                if self._buffer_send(
                    client,
                    {
                        "type": protocol.DRAINED,
                        "session": session_snapshot,
                    },
                ):
                    await self._drain_one(client)
                # The shard already dropped the session; only the
                # transport is left to close.
                await self._close_client(client, close_shard=False)

    # -- writes (buffered, deadline-drained) ---------------------------
    def _buffer_send(
        self, client: _RouterClient, message: dict
    ) -> bool:
        if client.closed:
            return False
        try:
            client.writer.write(protocol.encode_message(message))
        except (ConnectionError, RuntimeError):
            return False
        return True

    async def _drain_one(self, client: _RouterClient) -> None:
        try:
            await asyncio.wait_for(
                client.writer.drain(), timeout=self.drain_timeout_s
            )
        except asyncio.TimeoutError:
            self.stats.n_stalled_closed += 1
            await self._close_client(client, close_shard=True)
        except (ConnectionError, RuntimeError):
            await self._close_client(client, close_shard=True)

    async def _drain_clients(
        self, clients: "Iterable[_RouterClient]"
    ) -> None:
        pending = [client for client in clients if not client.closed]
        if not pending:
            return
        await asyncio.gather(
            *(self._drain_one(client) for client in pending)
        )

    # -- connection handling -------------------------------------------
    async def _send(self, client: _RouterClient, message: dict) -> None:
        if client.closed:
            return
        try:
            client.writer.write(protocol.encode_message(message))
            await client.writer.drain()
        except (ConnectionError, RuntimeError):
            await self._close_client(client, close_shard=True)

    async def _close_client(
        self, client: _RouterClient, close_shard: bool = True
    ) -> None:
        if client.closed:
            return
        client.closed = True
        self._clients.pop(client.machine_id, None)
        if close_shard:
            try:
                await self._call_shards(
                    "close_session",
                    {client.shard_index: {"machine_id": client.machine_id}},
                )
            except ShardError:
                pass
        try:
            client.writer.close()
            await client.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def _reject(
        self, writer: asyncio.StreamWriter, error: str
    ) -> None:
        self.stats.n_protocol_errors += 1
        try:
            writer.write(
                protocol.encode_message(
                    {"type": protocol.ERROR, "error": error}
                )
            )
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            line = await reader.readline()
        except ValueError:
            await self._reject(writer, "oversized hello line")
            return
        if not line:
            writer.close()
            return
        try:
            message = protocol.decode_line(line)
            if message["type"] != protocol.HELLO:
                raise protocol.ProtocolError(
                    "the first message must be a hello"
                )
            machine_id, platform_key = protocol.parse_hello(message)
        except protocol.ProtocolError as error:
            await self._reject(writer, str(error))
            return
        if machine_id in self._clients:
            await self._reject(
                writer, f"machine {machine_id!r} already has a session"
            )
            return
        shard_index = self.ring.owner(machine_id)
        client = _RouterClient(machine_id, shard_index, writer)
        # Reserve the slot before the shard round-trip: a second hello
        # for the same machine interleaving at the await must already
        # see the ID taken.
        self._clients[machine_id] = client
        try:
            (info,) = await self._call_shards(
                "open_session",
                {
                    shard_index: {
                        "machine_id": machine_id,
                        "platform": platform_key,
                    }
                },
            )
        except ShardError as error:
            self._clients.pop(machine_id, None)
            client.closed = True
            await self._reject(writer, str(error))
            return
        await self._send(
            client,
            {
                "type": protocol.WELCOME,
                "protocol_version": protocol.PROTOCOL_VERSION,
                "machine_id": machine_id,
                "model_version": info["model_version"],
                "required_counters": info["required_counters"],
            },
        )
        await self._read_loop(reader, client)

    async def _read_loop(
        self, reader: asyncio.StreamReader, client: _RouterClient
    ) -> None:
        while not client.closed:
            try:
                line = await reader.readline()
            except ValueError:
                # Oversized mid-stream line: same accounting as the
                # hello path (error counted and sent, then closed).
                self.stats.n_protocol_errors += 1
                await self._send(
                    client,
                    {
                        "type": protocol.ERROR,
                        "error": "oversized line",
                    },
                )
                await self._close_client(client, close_shard=True)
                return
            except ConnectionError:
                break
            if not line:
                break
            try:
                message = protocol.decode_line(line)
                kind = message["type"]
                if kind == protocol.SAMPLE:
                    t, counters, meter_w = protocol.parse_sample(message)
                    self._pending_submits[client.shard_index].append(
                        (client.machine_id, t, counters, meter_w)
                    )
                elif kind == protocol.STATS:
                    stats_payload = await self.telemetry_async()
                    await self._send(
                        client,
                        {
                            "type": protocol.STATS,
                            "stats": stats_payload,
                        },
                    )
                elif kind == protocol.BYE:
                    self._pending_drains[client.shard_index].append(
                        client.machine_id
                    )
                    # Stop reading; the tick loop delivers `drained`
                    # once the shard's queue empties.
                    return
                else:
                    raise protocol.ProtocolError(
                        f"unexpected message type {kind!r}"
                    )
            except protocol.ProtocolError as error:
                self.stats.n_protocol_errors += 1
                await self._send(
                    client,
                    {"type": protocol.ERROR, "error": str(error)},
                )
                await self._close_client(client, close_shard=True)
                return
        # EOF without bye: abrupt disconnect — drop the transport and
        # the shard-side session; a reconnect rehashes onto the ring.
        await self._close_client(client, close_shard=True)

    # -- telemetry -----------------------------------------------------
    async def shard_snapshots(self) -> list:
        return await self._all_shards("snapshot")

    async def telemetry_async(
        self, extra_session_rows: Iterable[dict] = ()
    ) -> dict:
        """The merged fleet snapshot, same shape as one shard's.

        The router's own snapshot contributes the transport counters
        (protocol errors, stalled closes); each shard contributes its
        scoring counters and live session rows.
        """
        shard_snaps = await self.shard_snapshots()
        router_snap = self.stats.snapshot(
            extra_session_rows=extra_session_rows
        )
        merged = merge_snapshots([router_snap] + list(shard_snaps))
        merged["cluster"] = (
            self.last_estimate.to_payload()
            if self.last_estimate is not None
            else None
        )
        if self.registry is not None:
            merged["registry"] = self.registry.snapshot()
        merged["router"] = {
            "shards": self.n_shards,
            "backend": self.shard_backend,
            "ticks": self.n_ticks,
            "barrier_swaps": self.n_barrier_swaps,
            "barrier_aborts": self.n_barrier_aborts,
            "committed_generations": [
                snap["committed_generation"] for snap in shard_snaps
            ],
            "busy_seconds": [
                snap["busy_seconds"] for snap in shard_snaps
            ],
        }
        return merged
