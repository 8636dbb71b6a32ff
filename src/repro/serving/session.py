"""Per-machine scoring sessions: ordering, backpressure, drift.

A :class:`MachineSession` owns everything the server keeps per connected
machine: the streaming predictor (lag state + patch bookkeeping), a
drift detector whose window is a slot in its bundle's shared drift
block, a bounded reorder buffer for the inbound counter stream, and the
rolling (meter, prediction) window that yields online DRE when a meter
stream is attached.

Ordering and loss semantics are explicit and deterministic:

* samples carry the machine's own sequence index ``t``; the session
  scores strictly in ``t`` order (lagged features require it);
* an out-of-order sample waits in the reorder buffer; once the buffer
  holds ``gap_tolerance`` samples that are all ahead of a missing ``t``,
  the missing second is *synthesized* as a fully-patched sample (the
  predictor reuses the last values and counts the patch) so one lost
  packet cannot stall the stream;
* a sample older than the scoring cursor is counted and dropped
  (``late_dropped``) — it was already given up on;
* when the buffer is full the **oldest** pending sample is shed and
  counted (``shed_dropped``) — bounded memory with explicit
  backpressure, never unbounded growth.

The per-sample records are cheap to build: a buffered sample is a
slotted object, and each delivery is a :class:`ScoredSample` named
tuple (a frozen dataclass sets every field through
``object.__setattr__``, which made each record cost nearly three times
as much).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.framework.drift import InputDriftDetector
from repro.framework.online import OnlinePowerPredictor, StaleSampleError
from repro.metrics.errors import dynamic_range_error
from repro.serving.bundle import ServingBundle


@dataclass(frozen=True)
class SessionConfig:
    """Tunables shared by every session of one server."""

    queue_limit: int = 64
    """Max buffered samples per session before shed-oldest kicks in."""

    gap_tolerance: int = 3
    """How many newer samples must be waiting before a missing ``t`` is
    synthesized as fully patched instead of waited for."""

    max_consecutive_patches: int = 30
    """Predictor hard cap: consecutive fully/partially patched samples
    tolerated before the source is flagged dead (samples are then
    rejected, not silently frozen)."""

    history_seconds: int = 300
    drift_window_seconds: int = 120
    dre_window_seconds: int = 120

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.gap_tolerance < 1:
            raise ValueError("gap_tolerance must be positive")


class ScoredSample(NamedTuple):
    """One delivered prediction.

    A named tuple, built once per scored sample: immutable, compared
    field by field, and iterable and indexable like any tuple.
    """

    machine_id: str
    t: int
    power_w: float
    patched: bool
    drifting: bool
    model_version: str


class _PendingSample:
    """One buffered sample; ``synthesized`` marks a patched-in gap."""

    __slots__ = ("counters", "meter_w", "synthesized")

    def __init__(
        self,
        counters: dict[str, float],
        meter_w: float | None,
        synthesized: bool = False,
    ):
        self.counters = counters
        self.meter_w = meter_w
        self.synthesized = synthesized


class MachineSession:
    """One machine's live scoring state."""

    def __init__(
        self,
        machine_id: str,
        bundle_version: str,
        bundle: ServingBundle,
        config: SessionConfig | None = None,
    ):
        self.machine_id = machine_id
        self.config = config or SessionConfig()
        self.platform_key = bundle.platform_key
        self._pending: dict[int, _PendingSample] = {}
        self._next_t = 0
        self._started = False
        self._draining = False
        self._n_dispatched = 0
        self.n_received = 0
        self.n_scored = 0
        self.n_late_dropped = 0
        self.n_shed_dropped = 0
        self.n_duplicates = 0
        self.n_synthesized = 0
        self.n_stale_rejected = 0
        self.n_model_swaps = 0
        self._meter_window: deque = deque(
            maxlen=self.config.dre_window_seconds
        )
        self._last_power_w: float | None = None
        self.model_version = ""
        self.bundle: ServingBundle = bundle
        self.predictor: OnlinePowerPredictor
        self.drift: InputDriftDetector
        self._install_bundle(bundle_version, bundle, carry_state=False)

    # -- model hot-swap ------------------------------------------------
    def _install_bundle(
        self, version: str, bundle: ServingBundle, carry_state: bool
    ) -> None:
        predictor = OnlinePowerPredictor(
            bundle.platform_model,
            history_seconds=self.config.history_seconds,
            allow_missing=True,
            max_consecutive_patches=self.config.max_consecutive_patches,
        )
        if carry_state:
            predictor.carry_state_from(self.predictor)
        self.predictor = predictor
        self.drift = bundle.open_drift_window(
            window_seconds=self.config.drift_window_seconds
        )
        self.bundle = bundle
        self.model_version = version

    def adopt_bundle(self, version: str, bundle: ServingBundle) -> None:
        """Hot-swap to a new model version without losing stream state.

        Queued (in-flight) samples are untouched: each will be scored
        exactly once, by whichever model is installed when its turn in
        the micro-batch comes.  Lag state and rolling history carry over
        so the stream stays continuous across the swap.
        """
        if bundle.platform_key != self.platform_key:
            raise ValueError(
                f"session is bound to platform {self.platform_key!r}, "
                f"bundle is for {bundle.platform_key!r}"
            )
        if version == self.model_version:
            return
        # The old window was judged against the old envelope: the new
        # model starts an empty one in its own bundle's block.
        self.drift.release()
        self._install_bundle(version, bundle, carry_state=True)
        self.n_model_swaps += 1

    def close(self) -> None:
        """End the session: its drift window's slot goes back to the
        bundle's block.  Take the final :meth:`snapshot` first; a
        closed session is not scored again."""
        self.drift.release()

    # -- ingest --------------------------------------------------------
    @property
    def next_t(self) -> int:
        """The scoring cursor: the next sequence index to be scored."""
        return self._next_t

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def submit(
        self,
        t: int,
        counters: dict[str, float],
        meter_w: float | None = None,
    ) -> bool:
        """Buffer one sample; returns False when it was dropped.

        The first accepted sample anchors the scoring cursor, so a
        machine may join mid-stream with any starting index.  The anchor
        stays tentative until the first sample is handed to the scorer:
        a stream whose opening packets arrive swapped re-anchors to the
        older index instead of dropping it forever.
        """
        self.n_received += 1
        if not self._started:
            self._next_t = t
            self._started = True
        if t < self._next_t:
            if self._n_dispatched == 0:
                self._next_t = t
            else:
                self.n_late_dropped += 1
                return False
        if t in self._pending:
            # First-write-wins: the buffered sample (and its meter_w)
            # is the one the machine sent first; a duplicate index is
            # counted and discarded, never silently overwritten.
            self.n_duplicates += 1
            return False
        self._pending[t] = _PendingSample(counters, meter_w)
        if len(self._pending) > self.config.queue_limit:
            oldest = min(self._pending)
            del self._pending[oldest]
            self.n_shed_dropped += 1
            if oldest == self._next_t:
                # The cursor's own slot was shed; move past it or the
                # stream would wait forever for a sample that is gone.
                self._advance_cursor()
            return oldest != t
        return True

    def _advance_cursor(self) -> None:
        self._next_t = (
            min(self._pending) if self._pending else self._next_t + 1
        )

    def begin_drain(self) -> None:
        """Stop waiting for stragglers: score every queued sample now.

        Used on a clean ``bye`` — remaining gaps are synthesized
        immediately instead of waiting for ``gap_tolerance`` newer
        samples that will never come.
        """
        self._draining = True

    def take_ready(
        self, limit: int | None = None
    ) -> list[tuple[int, "_PendingSample"]]:
        """Pop samples ready to score, in strict ``t`` order.

        A missing index is synthesized as a fully-patched sample once
        ``gap_tolerance`` newer samples are queued behind it; otherwise
        the stream waits for the straggler (unless draining).
        """
        ready: list[tuple[int, _PendingSample]] = []
        while self._pending and (limit is None or len(ready) < limit):
            item = self._pending.pop(self._next_t, None)
            if item is None:
                ahead = len(self._pending)
                if ahead < self.config.gap_tolerance and not self._draining:
                    break
                item = _PendingSample({}, None, synthesized=True)
                self.n_synthesized += 1
            ready.append((self._next_t, item))
            self._next_t += 1
        self._n_dispatched += len(ready)
        return ready

    # -- scoring hooks (driven by the micro-batcher) -------------------
    def prepare(
        self, item: "_PendingSample", out: np.ndarray
    ) -> bool | None:
        """Resolve one ready sample into ``out`` (its row of the group
        matrix); returns whether it was patched.

        Patched-ness must be captured here, not at completion time: the
        micro-batcher prepares a session's whole ready run before any
        prediction comes back, and the predictor's consecutive-patch
        state has moved on by then.

        Returns None when the predictor rejects the sample (dead counter
        source past the consecutive-patch cap, or a cold start without
        the full counter set, so nothing to patch from yet); the sample
        is counted and skipped, and scoring resumes with the next clean
        sample.
        """
        try:
            self.predictor.prepare_row(item.counters, out)
        except (StaleSampleError, KeyError):
            self.n_stale_rejected += 1
            return None
        return item.synthesized or self.predictor.consecutive_patched > 0

    def complete(
        self,
        t: int,
        item: "_PendingSample",
        patched: bool,
        power_w: float,
        drifting: bool,
    ) -> ScoredSample:
        """Record one scored sample and produce its delivery record.

        ``drifting`` is the drift block's flag for this sample, whose
        row the batcher has already added to this session's window.
        """
        self.predictor.commit(power_w)
        if item.meter_w is not None:
            self._meter_window.append((item.meter_w, power_w))
        self._last_power_w = power_w
        self.n_scored += 1
        # Positional: keyword arguments cost a third more per sample.
        return ScoredSample(
            self.machine_id, t, power_w, patched, drifting,
            self.model_version,
        )

    # -- telemetry -----------------------------------------------------
    @property
    def last_power_w(self) -> float | None:
        return self._last_power_w

    @property
    def idle_floor_w(self) -> float:
        return self.bundle.idle_power_w

    def online_dre(self) -> float | None:
        """Rolling DRE over the attached meter window, if computable."""
        if len(self._meter_window) < 2:
            return None
        metered = np.asarray([m for m, _ in self._meter_window])
        predicted = np.asarray([p for _, p in self._meter_window])
        try:
            return dynamic_range_error(
                metered, predicted, idle_power=self.idle_floor_w
            )
        except ValueError:
            return None

    def snapshot(self) -> dict:
        """JSON-safe per-session telemetry.

        The drift fields read 0.0 / False until the installed model has
        scored a sample: a hot swap starts a fresh window against the new
        bundle's envelope.
        """
        drift_fraction = 0.0
        drifting = False
        if self.drift.has_observations:
            verdict = self.drift.verdict()
            drift_fraction = verdict.out_of_envelope_fraction
            drifting = verdict.drifting
        return {
            "machine_id": self.machine_id,
            "platform": self.platform_key,
            "model_version": self.model_version,
            "received": self.n_received,
            "scored": self.n_scored,
            "pending": self.pending_count,
            "late_dropped": self.n_late_dropped,
            "shed_dropped": self.n_shed_dropped,
            "duplicates": self.n_duplicates,
            "synthesized": self.n_synthesized,
            "stale_rejected": self.n_stale_rejected,
            "model_swaps": self.n_model_swaps,
            "patched_samples": self.predictor.n_patched_samples,
            "patched_fraction": self.predictor.patched_fraction,
            "drift_fraction": drift_fraction,
            "drifting": drifting,
            "online_dre": self.online_dre(),
            "last_power_w": self._last_power_w,
        }
