"""Shared-nothing shard workers for the fleet-scale serving tier.

A :class:`ShardWorker` is one shard's complete scoring core — its own
:class:`MachineSession` map, :class:`MicroBatchScorer`,
:class:`ClusterAggregator` and :class:`ServingStats` — with **no state
shared** with any other shard.  The router (``serving/router.py``) owns
every TCP connection and consistent-hashes machine IDs onto shards; a
worker only ever sees the sessions it owns, so scaling out is adding
workers, never adding locks.

Workers run behind one of two hosts with a uniform blocking
``call(command, payload)`` interface:

* :class:`InlineShardHost` — the worker lives in the router's process.
  Deterministic and cheap; what tests, ``repro replay --shards`` and
  the scaling benchmark use.
* :class:`ProcessShardHost` — the worker runs in its own spawned
  process behind a pipe, one command in flight at a time (the router
  serializes calls per shard).  Spawned, not forked, so the worker
  inherits no event loop, socket, or registry handle from the router.

Model versions are **barrier-gated**: a worker never installs a new
registry generation on its own.  The router drives a two-phase
exactly-once swap — ``stage_swap`` loads the live bundles a worker's
sessions need and reports the observed generation; ``commit_swap``
installs a previously staged generation between ticks.  Only when every
shard staged the *same* generation does the router commit, so no tick
anywhere in the fleet scores two versions of one platform.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.serving.aggregate import ClusterAggregator, ClusterEstimate
from repro.serving.batcher import MicroBatchScorer
from repro.serving.bundle import (
    ServingBundle,
    bundle_from_payload,
)
from repro.serving.registry import ModelRegistry
from repro.serving.session import MachineSession, ScoredSample, SessionConfig
from repro.serving.stats import ServingStats


class ShardError(RuntimeError):
    """A shard command that cannot proceed (unknown machine, bad swap)."""


@dataclass(frozen=True)
class ShardTickResult:
    """Everything one shard produced in one coordinated tick."""

    scored: tuple[ScoredSample, ...]
    partial: ClusterEstimate
    """This shard's Eq. 5 partial sum (its own sessions only)."""

    drained: tuple[tuple[str, dict], ...]
    """``(machine_id, final session snapshot)`` for sessions whose
    ``bye`` drain completed this tick."""


def worker_config(
    registry_root: Optional[str] = None,
    static_bundles: Optional[dict[str, tuple[str, dict]]] = None,
    session_config: Optional[SessionConfig] = None,
    max_samples_per_session: Optional[int] = None,
) -> dict:
    """A picklable worker recipe, safe to ship across a spawn boundary.

    Static bundles travel as their JSON payloads (``bundle.to_payload``
    form) so the child process rebuilds them from plain data instead of
    pickling live model objects.
    """
    if (registry_root is None) == (static_bundles is None):
        raise ValueError(
            "provide exactly one of registry_root or static_bundles"
        )
    return {
        "registry_root": registry_root,
        "static_bundles": static_bundles,
        "session_config": session_config or SessionConfig(),
        "max_samples_per_session": max_samples_per_session,
    }


def static_bundle_payloads(
    static_bundles: dict[str, tuple[str, ServingBundle]]
) -> dict[str, tuple[str, dict]]:
    """Serialize a live static-bundle map for :func:`worker_config`."""
    return {
        platform: (version, bundle.to_payload())
        for platform, (version, bundle) in static_bundles.items()
    }


class ShardWorker:
    """One shard's sessions, scorer, aggregator and telemetry."""

    def __init__(self, config: dict):
        self.registry: Optional[ModelRegistry] = None
        if config["registry_root"] is not None:
            self.registry = ModelRegistry(config["registry_root"])
        self._static: Optional[dict[str, tuple[str, ServingBundle]]] = None
        if config["static_bundles"] is not None:
            self._static = {
                platform: (version, bundle_from_payload(payload))
                for platform, (version, payload) in config[
                    "static_bundles"
                ].items()
            }
        self.session_config: SessionConfig = config["session_config"]
        self.stats = ServingStats()
        self.batcher = MicroBatchScorer(
            stats=self.stats,
            max_samples_per_session=config["max_samples_per_session"],
        )
        self.aggregator = ClusterAggregator()
        self.sessions: dict[str, MachineSession] = {}
        self._draining: set = set()
        self.busy_seconds = 0.0
        """Cumulative wall-clock spent inside ``tick_batch`` — the
        scaling benchmark's per-shard cost meter."""

        # Committed (barrier-installed) live bundles by platform.  The
        # initial load is this worker's own registry poll; afterwards
        # the map only moves via stage_swap/commit_swap.
        self.committed_generation = 0
        self._live: dict[str, tuple[str, ServingBundle]] = {}
        self._staged: Optional[
            tuple[int, dict[str, tuple[str, ServingBundle]]]
        ] = None
        if self.registry is not None:
            self.committed_generation, self._live = self._load_live()

    # -- model resolution ----------------------------------------------
    def _load_live(
        self,
    ) -> tuple[int, dict[str, tuple[str, ServingBundle]]]:
        """One registry poll: the generation and every live bundle.

        Loading all platforms (not just those with open sessions) keeps
        a staged generation valid for sessions that open between stage
        and commit.
        """
        assert self.registry is not None
        generation = self.registry.generation
        live: dict[str, tuple[str, ServingBundle]] = {}
        for platform_key in self.registry.platforms():
            resolved = self.registry.live_bundle(platform_key)
            if resolved is not None:
                version, bundle = resolved
                live[platform_key] = (version.label, bundle)
        return generation, live

    def resolve_bundle(
        self, platform_key: str
    ) -> Optional[tuple[str, ServingBundle]]:
        if self._static is not None:
            return self._static.get(platform_key)
        return self._live.get(platform_key)

    # -- two-phase hot swap --------------------------------------------
    def stage_swap(self, payload: Any = None) -> int:
        """Phase 1: load live bundles, install nothing; returns the
        generation this worker observed."""
        if self.registry is None:
            raise ShardError("static-bundle shards have nothing to swap")
        generation, live = self._load_live()
        self._staged = (generation, live)
        return generation

    def commit_swap(self, payload: Any) -> int:
        """Phase 2: install a staged generation; returns sessions swapped.

        Refuses any generation other than the one staged — the router
        only commits when every shard staged the same one, which is the
        exactly-once barrier.
        """
        generation = int(payload)
        if self._staged is None:
            raise ShardError("commit_swap without a staged generation")
        staged_generation, live = self._staged
        if staged_generation != generation:
            raise ShardError(
                f"staged generation {staged_generation} != commit "
                f"request {generation}"
            )
        self._staged = None
        self._live = live
        self.committed_generation = generation
        n_swapped = 0
        for session in self.sessions.values():
            resolved = live.get(session.platform_key)
            if resolved is None:
                continue
            version, bundle = resolved
            if version != session.model_version:
                session.adopt_bundle(version, bundle)
                self.stats.n_hot_swaps += 1
                n_swapped += 1
        return n_swapped

    # -- session lifecycle ---------------------------------------------
    def open_session(self, payload: dict) -> dict:
        machine_id = payload["machine_id"]
        platform_key = payload["platform"]
        if machine_id in self.sessions:
            raise ShardError(
                f"machine {machine_id!r} already has a session"
            )
        resolved = self.resolve_bundle(platform_key)
        if resolved is None:
            raise ShardError(
                f"no live model for platform {platform_key!r}"
            )
        version, bundle = resolved
        session = MachineSession(
            machine_id=machine_id,
            bundle_version=version,
            bundle=bundle,
            config=self.session_config,
        )
        self.sessions[machine_id] = session
        self.stats.n_sessions_opened += 1
        return {
            "model_version": version,
            "required_counters": session.predictor.required_counters,
        }

    def close_session(self, payload: dict) -> Optional[dict]:
        """Abrupt close: drop the session, return its final snapshot."""
        machine_id = payload["machine_id"]
        session = self.sessions.pop(machine_id, None)
        self._draining.discard(machine_id)
        if session is None:
            return None
        self.stats.n_sessions_closed += 1
        snapshot = session.snapshot()
        session.close()
        return snapshot

    # -- the coordinated tick ------------------------------------------
    def tick_batch(self, payload: dict) -> ShardTickResult:
        """Apply one router tick: ingest, drain marks, then score.

        ``payload["submits"]`` is ``(machine_id, t, counters, meter_w)``
        tuples; ``payload["drains"]`` the machines whose client said
        ``bye``.  Submits for a machine this worker no longer owns
        (closed a moment ago) are skipped — the machine is gone, there
        is no session to misroute them into.
        """
        start_s = time.perf_counter()
        for machine_id, t, counters, meter_w in payload.get(
            "submits", ()
        ):
            session = self.sessions.get(machine_id)
            if session is not None:
                session.submit(t, counters, meter_w)
        for machine_id in payload.get("drains", ()):
            session = self.sessions.get(machine_id)
            if session is not None:
                session.begin_drain()
                self._draining.add(machine_id)
        sessions = list(self.sessions.values())
        scored = self.batcher.tick(sessions)
        partial = self.aggregator.tick(sessions)
        drained: list[tuple[str, dict]] = []
        for machine_id in sorted(self._draining):
            session = self.sessions.get(machine_id)
            if session is None:
                self._draining.discard(machine_id)
                continue
            if session.pending_count == 0:
                drained.append((machine_id, session.snapshot()))
                session.close()
                del self.sessions[machine_id]
                self._draining.discard(machine_id)
                self.stats.n_sessions_closed += 1
        self.busy_seconds += time.perf_counter() - start_s
        return ShardTickResult(
            scored=tuple(scored),
            partial=partial,
            drained=tuple(drained),
        )

    # -- telemetry -----------------------------------------------------
    def snapshot(self, payload: Any = None) -> dict:
        """This shard's ``ServingStats`` snapshot, sessions folded in."""
        snap = self.stats.snapshot(self.sessions.values())
        snap["committed_generation"] = self.committed_generation
        snap["busy_seconds"] = self.busy_seconds
        return snap

    # -- command dispatch ----------------------------------------------
    _COMMANDS = frozenset({
        "open_session",
        "close_session",
        "tick_batch",
        "stage_swap",
        "commit_swap",
        "snapshot",
    })

    def dispatch(self, command: str, payload: Any = None) -> Any:
        if command not in self._COMMANDS:
            raise ShardError(f"unknown shard command {command!r}")
        return getattr(self, command)(payload)


def _shard_main(
    conn: "multiprocessing.connection.Connection", config: dict
) -> None:
    """Process-backend entry: serve shard commands over one pipe.

    One request, one reply, strictly in order — the router holds a
    per-shard lock, so there is never more than one command in flight.
    """
    worker = ShardWorker(config)
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            return
        if command == "shutdown":
            conn.send(("ok", None))
            return
        try:
            result = worker.dispatch(command, payload)
        except ShardError as error:
            conn.send(("error", str(error)))
        else:
            conn.send(("ok", result))


class InlineShardHost:
    """A worker in the router's own process: direct, deterministic."""

    backend = "inline"

    def __init__(self, config: dict):
        self.worker = ShardWorker(config)

    def call(self, command: str, payload: Any = None) -> Any:
        return self.worker.dispatch(command, payload)

    def close(self) -> None:
        pass


class ProcessShardHost:
    """A worker in its own spawned process behind a command pipe."""

    backend = "process"

    def __init__(self, config: dict):
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_main, args=(child_conn, config), daemon=True
        )
        self._process.start()
        child_conn.close()

    def call(self, command: str, payload: Any = None) -> Any:
        try:
            self._conn.send((command, payload))
            status, result = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as error:
            raise ShardError(
                f"shard process died mid-command {command!r}: {error}"
            )
        if status == "error":
            raise ShardError(result)
        return result

    def close(self) -> None:
        try:
            self._conn.send(("shutdown", None))
            self._conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            pass
        self._conn.close()
        self._process.join(timeout=5)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)


def make_host(backend: str, config: dict):
    """Build one shard host; ``backend`` is ``inline`` or ``process``."""
    if backend == "inline":
        return InlineShardHost(config)
    if backend == "process":
        return ProcessShardHost(config)
    raise ValueError(f"unknown shard backend {backend!r}")
