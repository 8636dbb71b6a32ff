"""Eq. 5 aggregation with staleness decay to the idle floor."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.serving import (
    ClusterAggregator,
    MachineContribution,
    MachineSession,
    MicroBatchScorer,
    ScoredSample,
)
from tests.serving.plain_aggregate import PlainClusterAggregator


def _scored_session(scenario, machine_id, log, n=5):
    session = MachineSession(
        machine_id, "Q@v1", scenario.bundle("Q")
    )
    required = session.predictor.required_counters
    columns = log.select(list(required))
    for t in range(n):
        session.submit(
            t, {name: columns[t, i] for i, name in enumerate(required)}
        )
    MicroBatchScorer().tick([session])
    return session


def test_fresh_sessions_sum_their_last_predictions(scenario, holdout_log):
    sessions = [
        _scored_session(scenario, f"m{i}", holdout_log) for i in range(3)
    ]
    aggregator = ClusterAggregator()
    estimate = aggregator.tick(sessions)
    assert estimate.n_machines == 3
    assert estimate.n_fresh == 3
    assert estimate.n_decaying == 0
    expected = sum(s.last_power_w for s in sessions)
    assert estimate.total_power_w == pytest.approx(expected)


def test_silent_machine_decays_to_idle_floor(scenario, holdout_log):
    session = _scored_session(scenario, "m0", holdout_log)
    aggregator = ClusterAggregator(fresh_ticks=2, decay_ticks=4)
    last_w = session.last_power_w
    floor_w = session.idle_floor_w
    assert last_w != floor_w

    # Ticks 1-3: within the fresh window (+1 for the scoring tick seen
    # first), the raw prediction holds.
    values = [aggregator.tick([session]).total_power_w for _ in range(3)]
    assert values == [last_w] * 3
    # Then a linear ramp down...
    ramp = [aggregator.tick([session]).total_power_w for _ in range(4)]
    assert ramp[0] == pytest.approx(last_w + (floor_w - last_w) * 0.25)
    assert ramp[-1] == pytest.approx(floor_w)
    # ...and the floor holds forever after.
    assert aggregator.tick([session]).total_power_w == pytest.approx(
        floor_w
    )
    assert aggregator.tick([session]).n_decaying == 1


def test_new_sample_resets_staleness(scenario, holdout_log):
    session = _scored_session(scenario, "m0", holdout_log, n=5)
    aggregator = ClusterAggregator(fresh_ticks=1, decay_ticks=2)
    for _ in range(4):
        aggregator.tick([session])
    assert aggregator.tick([session]).n_decaying == 1

    required = session.predictor.required_counters
    columns = holdout_log.select(list(required))
    session.submit(
        5, {name: columns[5, i] for i, name in enumerate(required)}
    )
    MicroBatchScorer().tick([session])
    estimate = aggregator.tick([session])
    assert estimate.n_decaying == 0
    assert estimate.total_power_w == session.last_power_w


def test_never_scored_session_contributes_the_floor(scenario):
    session = MachineSession("cold", "Q@v1", scenario.bundle("Q"))
    estimate = ClusterAggregator().tick([session])
    assert estimate.total_power_w == session.idle_floor_w
    assert estimate.n_decaying == 1


def test_disconnected_machine_leaves_the_sum(scenario, holdout_log):
    a = _scored_session(scenario, "a", holdout_log)
    b = _scored_session(scenario, "b", holdout_log)
    aggregator = ClusterAggregator(fresh_ticks=5, decay_ticks=2)
    assert aggregator.tick([a, b]).n_machines == 2
    estimate = aggregator.tick([a])
    assert estimate.n_machines == 1
    assert estimate.total_power_w == pytest.approx(a.last_power_w)
    # A reconnect starts with clean freshness state.
    estimate = aggregator.tick([a, b])
    b_contribution = [
        c for c in estimate.contributions if c.machine_id == "b"
    ][0]
    assert b_contribution.staleness_ticks == 0


def test_estimate_payload_is_json_safe(scenario, holdout_log):
    session = _scored_session(scenario, "m0", holdout_log)
    cold = MachineSession("cold", "Q@v1", scenario.bundle("Q"))
    estimate = ClusterAggregator().tick([session, cold])
    payload = estimate.to_payload()
    assert payload["machines"][0]["machine_id"] == "m0"
    # The same JSON the dataclass records serialized to.
    oracle = PlainClusterAggregator().tick([session, cold])
    assert json.dumps(payload) == json.dumps(oracle.to_payload())


@pytest.mark.parametrize(
    "record, fields",
    [
        (
            ScoredSample("m0", 7, 81.5, False, True, "Q@v1"),
            ("machine_id", "t", "power_w", "patched", "drifting",
             "model_version"),
        ),
        (
            MachineContribution("m0", 81.5, 3, True),
            ("machine_id", "power_w", "staleness_ticks", "decayed"),
        ),
    ],
)
def test_delivery_records_keep_their_contract(record, fields):
    """Each record is a named tuple with the dataclass record's fields,
    in the same order; it stays immutable and pickles across a process
    shard's pipe."""
    assert type(record)._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert restored == record
    assert repr(restored) == repr(record)
