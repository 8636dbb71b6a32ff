"""The two-pass Eq. 5 aggregator, kept as a test oracle.

``repro.serving.aggregate.ClusterAggregator`` sums a tick in one pass:
it looks each machine's freshness entry up before inserting one, counts
the decaying contributions inside the loop, and sweeps departed
machines only when its map holds more entries than there are live
sessions.  ``PlainClusterAggregator`` is the aggregator it replaced,
verbatim with the frozen-dataclass records it built: a ``setdefault``
per session, a ``seen`` set, a sweep of every entry on every tick and a
second pass to count the decaying terms.  The property tests require
the two to return the same ``ClusterEstimate`` field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.serving.session import MachineSession


@dataclass(frozen=True)
class MachineContribution:
    """One machine's term in the Eq. 5 sum for one tick."""

    machine_id: str
    power_w: float
    staleness_ticks: int
    decayed: bool
    """True once the contribution is no longer the raw last prediction."""

    def to_payload(self) -> dict:
        return {
            "machine_id": self.machine_id,
            "power_w": self.power_w,
            "staleness_ticks": self.staleness_ticks,
            "decayed": self.decayed,
        }


@dataclass(frozen=True)
class ClusterEstimate:
    """The Eq. 5 cluster sum for one aggregator tick."""

    tick: int
    total_power_w: float
    n_machines: int
    n_fresh: int
    n_decaying: int
    contributions: tuple[MachineContribution, ...]

    def to_payload(self) -> dict:
        return {
            "tick": self.tick,
            "total_power_w": self.total_power_w,
            "n_machines": self.n_machines,
            "n_fresh": self.n_fresh,
            "n_decaying": self.n_decaying,
            "machines": [c.to_payload() for c in self.contributions],
        }


@dataclass
class _Freshness:
    n_scored_seen: int = -1
    staleness_ticks: int = 0


@dataclass
class PlainClusterAggregator:
    """Sums session predictions with per-machine staleness decay."""

    fresh_ticks: int = 5
    """A contribution is the raw last prediction for this many silent
    ticks before decay begins (covers ordinary scheduling jitter)."""

    decay_ticks: int = 30
    """Silent ticks over which a stale contribution ramps linearly from
    the last prediction down to the platform's idle-power floor."""

    _tick: int = field(default=0, init=False)
    _freshness: dict[str, _Freshness] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        if self.fresh_ticks < 0:
            raise ValueError("fresh_ticks must be non-negative")
        if self.decay_ticks < 1:
            raise ValueError("decay_ticks must be positive")

    def _contribution(self, session: MachineSession) -> MachineContribution:
        state = self._freshness.setdefault(
            session.machine_id, _Freshness()
        )
        if session.n_scored != state.n_scored_seen:
            state.n_scored_seen = session.n_scored
            state.staleness_ticks = 0
        else:
            state.staleness_ticks += 1

        floor_w = session.idle_floor_w
        last_w = session.last_power_w
        if last_w is None:
            # Never scored: all we know about the machine is its floor.
            return MachineContribution(
                machine_id=session.machine_id,
                power_w=floor_w,
                staleness_ticks=state.staleness_ticks,
                decayed=True,
            )
        silent = state.staleness_ticks - self.fresh_ticks
        if silent <= 0:
            return MachineContribution(
                machine_id=session.machine_id,
                power_w=last_w,
                staleness_ticks=state.staleness_ticks,
                decayed=False,
            )
        ramp = min(1.0, silent / self.decay_ticks)
        power_w = last_w + (floor_w - last_w) * ramp
        return MachineContribution(
            machine_id=session.machine_id,
            power_w=power_w,
            staleness_ticks=state.staleness_ticks,
            decayed=True,
        )

    def tick(self, sessions: Iterable[MachineSession]) -> ClusterEstimate:
        """Advance one tick and sum the fleet (Eq. 5)."""
        self._tick += 1
        contributions = []
        seen = set()
        for session in sessions:
            contributions.append(self._contribution(session))
            seen.add(session.machine_id)
        # Sessions that disconnected leave the sum entirely; drop their
        # freshness state so a reconnect starts clean.
        for machine_id in list(self._freshness):
            if machine_id not in seen:
                del self._freshness[machine_id]
        n_decaying = sum(1 for c in contributions if c.decayed)
        return ClusterEstimate(
            tick=self._tick,
            total_power_w=sum(c.power_w for c in contributions),
            n_machines=len(contributions),
            n_fresh=len(contributions) - n_decaying,
            n_decaying=n_decaying,
            contributions=tuple(contributions),
        )
