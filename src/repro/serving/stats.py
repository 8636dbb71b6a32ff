"""Serving telemetry: throughput, batch shapes, latency, drift, DRE.

The server keeps one :class:`ServingStats`; the micro-batcher feeds it
per-tick batch records and the server adds connection/session lifecycle
counters.  ``snapshot`` folds in per-session state (drops, patches,
drift fractions, rolling online DRE) and returns one JSON-safe dict —
the payload behind the ``stats`` protocol message, ``repro replay``'s
``--stats-out``, and the CI smoke gate.

Histograms use fixed log-spaced bucket bounds so two snapshots are
mergeable and quantile estimates never require storing raw samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.serving.session import MachineSession


def _log_bounds(low: float, high: float, per_decade: int) -> list[float]:
    bounds = []
    value = low
    factor = 10.0 ** (1.0 / per_decade)
    while value < high:
        bounds.append(value)
        value *= factor
    return bounds


@dataclass
class Histogram:
    """Fixed-bucket histogram with approximate quantiles.

    ``bounds`` are upper bucket edges; a value lands in the first bucket
    whose bound is >= value, with one implicit overflow bucket at the
    end.
    """

    bounds: Sequence[float]
    counts: list[int] = field(init=False)
    n_observed: int = field(default=0, init=False)
    total: float = field(default=0.0, init=False)

    def __post_init__(self):
        bounds = list(self.bounds)
        if not bounds or sorted(bounds) != bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        index = 0
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            index = len(self.bounds)
        self.counts[index] += 1
        self.n_observed += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.n_observed if self.n_observed else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return _quantile(self.bounds, self.counts, q)

    def to_dict(self) -> dict:
        return _histogram_dict(self.bounds, self.counts, self.total)


def _quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """The upper edge of the bucket holding rank ``q`` (0.0 if empty);
    the overflow bucket reports the last bound."""
    n_observed = sum(counts)
    if n_observed == 0:
        return 0.0
    rank = q * n_observed
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank and count > 0:
            if index < len(bounds):
                return float(bounds[index])
            return float(bounds[-1])
    return float(bounds[-1])


def _histogram_dict(
    bounds: Sequence[float], counts: Sequence[int], total: float
) -> dict:
    """The serialized histogram, live or merged: one shape for both."""
    n_observed = sum(counts)
    return {
        "bounds": [float(b) for b in bounds],
        "counts": list(counts),
        "count": n_observed,
        "total": total,
        "mean": total / n_observed if n_observed else 0.0,
        "p50": _quantile(bounds, counts, 0.50),
        "p99": _quantile(bounds, counts, 0.99),
    }


def latency_histogram() -> Histogram:
    """5 us .. ~10 s, five buckets per decade."""
    return Histogram(_log_bounds(5e-6, 10.0, per_decade=5))


def batch_size_histogram() -> Histogram:
    """1 .. ~100k samples per tick, five buckets per decade."""
    return Histogram(_log_bounds(1.0, 1e5, per_decade=5))


@dataclass
class ServingStats:
    """Accumulated server-wide telemetry."""

    batch_latency_s: Histogram = field(default_factory=latency_histogram)
    batch_size: Histogram = field(default_factory=batch_size_histogram)
    n_ticks: int = 0
    n_samples_scored: int = 0
    n_groups_scored: int = 0
    n_sessions_opened: int = 0
    n_sessions_closed: int = 0
    n_protocol_errors: int = 0
    n_hot_swaps: int = 0
    n_stalled_closed: int = 0
    """Peers closed because their transport stayed stalled past the
    per-tick drain deadline (slow-consumer protection)."""

    def record_batch(
        self, n_samples: int, n_groups: int, latency_s: float
    ) -> None:
        self.n_ticks += 1
        self.n_samples_scored += n_samples
        self.n_groups_scored += n_groups
        self.batch_size.observe(float(n_samples))
        self.batch_latency_s.observe(latency_s)

    def snapshot(
        self,
        sessions: Iterable[MachineSession] = (),
        extra_session_rows: Iterable[dict] = (),
    ) -> dict:
        """One JSON-safe telemetry payload, sessions folded in.

        ``extra_session_rows`` takes already-captured session snapshots
        (e.g. from ``drained`` replies for sessions that have closed).
        """
        session_rows = [session.snapshot() for session in sessions]
        session_rows.extend(extra_session_rows)
        return {
            "ticks": self.n_ticks,
            "samples_scored": self.n_samples_scored,
            "model_groups_scored": self.n_groups_scored,
            "sessions_opened": self.n_sessions_opened,
            "sessions_closed": self.n_sessions_closed,
            "protocol_errors": self.n_protocol_errors,
            "hot_swaps": self.n_hot_swaps,
            "stalled_closed": self.n_stalled_closed,
            "batch_latency_s": self.batch_latency_s.to_dict(),
            "batch_size": self.batch_size.to_dict(),
            "sessions": session_rows,
            **_fleet_aggregates(session_rows),
        }


_DROP_KEYS = ("late_dropped", "shed_dropped", "duplicates", "stale_rejected")
"""Per-session counts of samples that were never scored: late behind
the cursor, shed from a full buffer, a repeated ``t``, or rejected by
the predictor (cold start, dead counter source)."""


def _fleet_aggregates(session_rows: Sequence[dict]) -> dict:
    """The fleet-wide figures derived from per-session snapshots.

    ``dropped_samples`` sums every :data:`_DROP_KEYS` count, so for every
    session received + synthesized = scored + dropped + pending.
    """
    dre_values = [
        row["online_dre"]
        for row in session_rows
        if row["online_dre"] is not None
    ]
    return {
        "dropped_samples": sum(
            row[key] for row in session_rows for key in _DROP_KEYS
        ),
        "drifting_sessions": sum(1 for row in session_rows if row["drifting"]),
        "mean_online_dre": (
            sum(dre_values) / len(dre_values) if dre_values else None
        ),
    }


_COUNTER_KEYS = (
    "ticks",
    "samples_scored",
    "model_groups_scored",
    "sessions_opened",
    "sessions_closed",
    "protocol_errors",
    "hot_swaps",
    "stalled_closed",
)


def _merge_histogram_dicts(dicts: Sequence[dict]) -> dict:
    """Merge serialized histograms by adding bucket counts.

    All snapshots share the fixed log-spaced bounds (the module
    guarantee that makes shard telemetry mergeable); mismatched bounds
    mean the snapshots came from different builds and cannot be merged.
    """
    bounds = dicts[0]["bounds"]
    for other in dicts[1:]:
        if other["bounds"] != bounds:
            raise ValueError("cannot merge histograms with differing bounds")
    counts = [0] * len(dicts[0]["counts"])
    total = 0.0
    for entry in dicts:
        for index, count in enumerate(entry["counts"]):
            counts[index] += count
        total += entry.get("total", entry["mean"] * entry["count"])
    return _histogram_dict(bounds, counts, total)


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold per-shard ``ServingStats`` snapshots into one fleet view.

    Counters add, histograms merge bucket-wise, session rows
    concatenate, and the derived aggregates (dropped samples, drifting
    sessions, mean online DRE) are recomputed over the combined fleet —
    identical in shape to a single server's snapshot.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot to merge")
    session_rows: list[dict] = []
    for snap in snapshots:
        session_rows.extend(snap["sessions"])
    merged: dict = {
        key: sum(snap[key] for snap in snapshots) for key in _COUNTER_KEYS
    }
    merged["batch_latency_s"] = _merge_histogram_dicts(
        [snap["batch_latency_s"] for snap in snapshots]
    )
    merged["batch_size"] = _merge_histogram_dicts(
        [snap["batch_size"] for snap in snapshots]
    )
    merged["sessions"] = session_rows
    merged.update(_fleet_aggregates(session_rows))
    return merged
