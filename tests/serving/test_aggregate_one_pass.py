"""The one-pass Eq. 5 aggregator against the two-pass one it replaced.

``ClusterAggregator.tick`` builds each contribution in one loop, counts
the decaying terms on the way and sweeps departed machines only when
its freshness map holds more entries than there are live sessions;
``PlainClusterAggregator`` is the aggregator it replaced.  Driven over
the same tick sequences, where machines score, stay silent past
``fresh_ticks`` and past ``decay_ticks``, are never scored, leave and
rejoin, the two must return the same ``ClusterEstimate``: every field
equal, floats as exact hex, contributions field by field, and the same
JSON payload.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import ClusterAggregator
from tests.serving.plain_aggregate import PlainClusterAggregator

ESTIMATE_FIELDS = ("tick", "total_power_w", "n_machines", "n_fresh", "n_decaying")
CONTRIBUTION_FIELDS = ("machine_id", "power_w", "staleness_ticks", "decayed")
EVENTS = ("score", "silent", "absent", "rejoin")


class _Machine:
    """What the aggregator reads of a ``MachineSession``."""

    def __init__(self, machine_id: str, idle_floor_w: float):
        self.machine_id = machine_id
        self.idle_floor_w = idle_floor_w
        self.n_scored = 0
        self.last_power_w: float | None = None


def _exact(record, names) -> tuple:
    """The named fields with their types; floats as exact hex."""
    return tuple(
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in (getattr(record, name) for name in names)
    )


def _assert_same(estimate, oracle) -> None:
    assert _exact(estimate, ESTIMATE_FIELDS) == _exact(oracle, ESTIMATE_FIELDS)
    assert type(estimate.contributions) is tuple
    assert len(estimate.contributions) == len(oracle.contributions)
    for ours, theirs in zip(estimate.contributions, oracle.contributions):
        assert _exact(ours, CONTRIBUTION_FIELDS) == _exact(
            theirs, CONTRIBUTION_FIELDS
        )
    assert json.dumps(estimate.to_payload()) == json.dumps(oracle.to_payload())


@st.composite
def _plans(draw):
    """Aggregator settings and each machine's event per tick.

    Events come in runs, so a machine stays silent or away long enough
    to pass ``fresh_ticks`` and ``decay_ticks``; a machine with no
    ``score`` run is never scored.
    """
    fresh_ticks = draw(st.integers(0, 6))
    decay_ticks = draw(st.integers(1, 8))
    n_machines = draw(st.integers(1, 5))
    n_ticks = draw(st.integers(1, 40))
    timelines = []
    for _ in range(n_machines):
        runs = draw(
            st.lists(
                st.tuples(st.sampled_from(EVENTS), st.integers(1, 16)),
                min_size=1,
                max_size=6,
            )
        )
        events = [event for event, length in runs for _ in range(length)]
        events += ["silent"] * (n_ticks - len(events))
        timelines.append(events[:n_ticks])
    orders = [draw(st.permutations(range(n_machines))) for _ in range(n_ticks)]
    one_shot = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return fresh_ticks, decay_ticks, timelines, orders, one_shot, seed


@settings(max_examples=200, deadline=None)
@given(_plans())
# Machine 1 leaves on the tick machine 2 joins, so the map outgrows the
# live count by the departed entry alone; machine 1 then returns with
# nothing newly scored and must start clean, not carry its staleness.
@example(
    (
        0,
        4,
        [
            ["score", "silent", "silent", "silent", "silent"],
            ["score", "silent", "absent", "absent", "silent"],
            ["absent", "absent", "score", "silent", "absent"],
        ],
        [(0, 1, 2)] * 5,
        False,
        0,
    )
)
def test_one_pass_tick_matches_the_two_pass_oracle(plan):
    fresh_ticks, decay_ticks, timelines, orders, one_shot, seed = plan
    rng = np.random.default_rng(seed)
    floors = rng.uniform(0.0, 150.0, len(timelines))
    machines = [
        _Machine(f"m{i}", float(floor)) for i, floor in enumerate(floors)
    ]
    aggregator = ClusterAggregator(fresh_ticks, decay_ticks)
    oracle = PlainClusterAggregator(fresh_ticks, decay_ticks)
    for tick, order in enumerate(orders):
        live = []
        for index in order:
            event = timelines[index][tick]
            if event == "absent":
                continue
            if event == "rejoin":
                # The machine reconnects as a new session: nothing scored.
                machines[index] = _Machine(
                    machines[index].machine_id, machines[index].idle_floor_w
                )
            machine = machines[index]
            if event == "score":
                machine.n_scored += int(rng.integers(1, 3))
                machine.last_power_w = float(
                    machine.idle_floor_w + rng.uniform(-20.0, 300.0)
                )
            live.append(machine)
        sessions = iter(live) if one_shot else live
        _assert_same(aggregator.tick(sessions), oracle.tick(live))

