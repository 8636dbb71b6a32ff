"""Per-task telemetry for the experiment engine.

The executor records one :class:`TaskRecord` per task — how long it took
and whether it was computed, served from the artifact cache, or failed —
and :class:`EngineTelemetry` aggregates them into the hit-rate and
timing summary the CLI prints after a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OUTCOME_COMPUTED = "computed"
OUTCOME_CACHE_HIT = "cache-hit"
OUTCOME_FAILED = "failed"


@dataclass(frozen=True)
class TaskRecord:
    """What happened to one task."""

    key: str
    fn: str
    seconds: float
    outcome: str


@dataclass
class EngineTelemetry:
    """Accumulated task records for one engine run (or several)."""

    records: list[TaskRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    def record(self, key: str, fn: str, seconds: float, outcome: str) -> None:
        self.records.append(
            TaskRecord(key=key, fn=fn, seconds=seconds, outcome=outcome)
        )

    # -- aggregates ----------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.records)

    def _count(self, outcome: str) -> int:
        return sum(1 for r in self.records if r.outcome == outcome)

    @property
    def n_cache_hits(self) -> int:
        return self._count(OUTCOME_CACHE_HIT)

    @property
    def n_computed(self) -> int:
        return self._count(OUTCOME_COMPUTED)

    @property
    def n_failed(self) -> int:
        return self._count(OUTCOME_FAILED)

    @property
    def hit_rate(self) -> float:
        """Fraction of tasks served from the cache (0.0 with no tasks)."""
        if not self.records:
            return 0.0
        return self.n_cache_hits / len(self.records)

    @property
    def busy_seconds(self) -> float:
        """Total task time (sums across workers, so can exceed wall)."""
        return float(sum(r.seconds for r in self.records))

    def merge(self, other: "EngineTelemetry") -> None:
        """Fold another engine run's records into this accumulator.

        Campaign drivers run one task list per GA generation; merging
        each generation's telemetry yields the campaign-level rollup
        (total tasks, overall hit rate, busy vs wall seconds).
        """
        self.records.extend(other.records)
        self.wall_seconds += other.wall_seconds

    def to_summary(self) -> dict:
        """JSON-safe rollup for campaign reports and ``--telemetry``."""
        return {
            "tasks": self.n_tasks,
            "computed": self.n_computed,
            "cache_hits": self.n_cache_hits,
            "hit_rate": self.hit_rate,
            "failed": self.n_failed,
            "busy_seconds": self.busy_seconds,
            "wall_seconds": self.wall_seconds,
        }

    def slowest(self, n: int = 5) -> list[TaskRecord]:
        return sorted(
            self.records, key=lambda r: r.seconds, reverse=True
        )[:n]

    def render(self) -> str:
        """A short, human-readable run summary."""
        lines = [
            f"engine: {self.n_tasks} tasks "
            f"({self.n_computed} computed, {self.n_cache_hits} cache hits, "
            f"hit rate {self.hit_rate:.0%})",
            f"  task time {self.busy_seconds:.2f}s, "
            f"wall {self.wall_seconds:.2f}s",
        ]
        if self.n_failed:
            lines.append(f"  {self.n_failed} failed")
        for record in self.slowest(3):
            lines.append(
                f"  {record.seconds:7.3f}s  {record.outcome:<9}  "
                f"{record.key}"
            )
        return "\n".join(lines)
