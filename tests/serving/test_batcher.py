"""Micro-batcher: grouping, vectorization, hot-swap exactly-once."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    MachineSession,
    MicroBatchScorer,
    ServingStats,
    SessionConfig,
)


class _CountingModel:
    """Wraps a PowerModel, counting predict calls and row totals."""

    def __init__(self, inner):
        self._inner = inner
        self.n_calls = 0
        self.n_rows = 0

    def predict(self, design):
        self.n_calls += 1
        self.n_rows += design.shape[0]
        return self._inner.predict(design)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counting_bundle(scenario, code="Q"):
    """A bundle whose model counts its predict invocations."""
    bundle = scenario.bundle(code)
    counter = _CountingModel(bundle.platform_model.model)
    model = type(bundle.platform_model)(
        platform_key=bundle.platform_model.platform_key,
        model=counter,
        feature_set=bundle.platform_model.feature_set,
    )
    patched = type(bundle)(
        platform_model=model,
        envelope_low=bundle.envelope_low,
        envelope_high=bundle.envelope_high,
        envelope_quantile=bundle.envelope_quantile,
        idle_power_w=bundle.idle_power_w,
        meta=dict(bundle.meta),
    )
    return patched, counter


def _feed(scenario, session, log, start, stop, t_offset=0):
    required = session.predictor.required_counters
    columns = log.select(list(required))
    for t in range(start, stop):
        session.submit(
            t + t_offset,
            {name: columns[t, i] for i, name in enumerate(required)},
        )


def test_sessions_sharing_a_model_score_in_one_predict(scenario):
    bundle, counter = _counting_bundle(scenario)
    log = scenario.holdout_run.logs[scenario.holdout_run.machine_ids[0]]
    sessions = [
        MachineSession(f"m{i}", "Q@v1", bundle) for i in range(5)
    ]
    for session in sessions:
        _feed(scenario, session, log, 0, 10)
    scored = MicroBatchScorer().tick(sessions)
    assert len(scored) == 50
    assert counter.n_calls == 1
    assert counter.n_rows == 50


def test_different_versions_get_separate_groups(scenario):
    bundle_a, counter_a = _counting_bundle(scenario, "Q")
    bundle_b, counter_b = _counting_bundle(scenario, "L")
    log = scenario.holdout_run.logs[scenario.holdout_run.machine_ids[0]]
    sessions = [
        MachineSession("m0", "Q@v1", bundle_a),
        MachineSession("m1", "Q@v1", bundle_a),
        MachineSession("m2", "L@v1", bundle_b),
    ]
    for session in sessions:
        _feed(scenario, session, log, 0, 6)
    stats = ServingStats()
    scored = MicroBatchScorer(stats=stats).tick(sessions)
    assert len(scored) == 18
    assert counter_a.n_calls == 1 and counter_a.n_rows == 12
    assert counter_b.n_calls == 1 and counter_b.n_rows == 6
    assert stats.n_ticks == 1
    assert stats.n_samples_scored == 18
    assert stats.n_groups_scored == 2


def test_batched_scores_match_solo_scores_bitwise(scenario, holdout_log):
    """Batch composition never changes the numbers: a fleet-wide batch
    and a one-machine batch produce bit-identical watts."""
    fleet = [
        MachineSession(f"m{i}", "Q@v1", scenario.bundle("Q"))
        for i in range(7)
    ]
    solo = MachineSession("solo", "Q@v1", scenario.bundle("Q"))
    for session in fleet:
        _feed(scenario, session, holdout_log, 0, 25)
    _feed(scenario, solo, holdout_log, 0, 25)
    fleet_scored = MicroBatchScorer().tick(fleet)
    solo_scored = MicroBatchScorer().tick([solo])
    solo_by_t = {s.t: s.power_w for s in solo_scored}
    for sample in fleet_scored:
        assert sample.power_w == solo_by_t[sample.t]
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    np.testing.assert_array_equal(
        [s.power_w for s in solo_scored], offline[:25]
    )


def test_hot_swap_scores_every_inflight_sample_exactly_once(
    scenario, holdout_log
):
    """Samples queued across a swap are neither dropped nor re-scored:
    each t is delivered once, by whichever model held its turn."""
    session = MachineSession(
        "m0", "Q@v1", scenario.bundle("Q"),
        config=SessionConfig(queue_limit=128, gap_tolerance=128),
    )
    scorer = MicroBatchScorer(max_samples_per_session=10)
    _feed(scenario, session, holdout_log, 0, 40)

    first = scorer.tick([session])  # scores t=0..9 under Q@v1
    session.adopt_bundle("L@v2", scenario.bundle("L"))
    rest = []
    while session.pending_count:
        rest.extend(scorer.tick([session]))

    delivered = first + rest
    assert sorted(s.t for s in delivered) == list(range(40))
    assert len(delivered) == 40  # exactly once, no duplicates
    versions = {s.t: s.model_version for s in delivered}
    assert all(versions[t] == "Q@v1" for t in range(10))
    assert all(versions[t] == "L@v2" for t in range(10, 40))
    # Post-swap watts match the new model's offline reference.
    offline_l = scenario.bundle("L").platform_model.predict_log(holdout_log)
    by_t = {s.t: s.power_w for s in rest}
    np.testing.assert_array_equal(
        [by_t[t] for t in range(10, 40)], offline_l[10:40]
    )
    assert session.n_model_swaps == 1


def test_per_session_drain_cap_bounds_a_backlogged_machine(scenario):
    log = scenario.holdout_run.logs[scenario.holdout_run.machine_ids[0]]
    backlogged = MachineSession(
        "big", "Q@v1", scenario.bundle("Q"),
        config=SessionConfig(queue_limit=128, gap_tolerance=128),
    )
    fresh = MachineSession("small", "Q@v1", scenario.bundle("Q"))
    _feed(scenario, backlogged, log, 0, 60)
    _feed(scenario, fresh, log, 0, 2)
    scored = MicroBatchScorer(max_samples_per_session=5).tick(
        [backlogged, fresh]
    )
    by_machine = {}
    for sample in scored:
        by_machine.setdefault(sample.machine_id, []).append(sample.t)
    assert by_machine["big"] == list(range(5))
    assert by_machine["small"] == [0, 1]


@pytest.mark.parametrize("window, backlog", [(4, 10), (30, 75)])
def test_a_run_longer_than_the_drift_window_flags_each_sample_in_order(
    scenario, holdout_log, window, backlog
):
    """One tick scores backlogs of different lengths, the longest past
    the drift window: every delivered ``drifting`` and each session's
    final verdict equal a per-sample detector fed the same rows."""
    from repro.framework.online import OnlinePowerPredictor

    bundle = scenario.bundle("Q")
    config = SessionConfig(
        queue_limit=128, gap_tolerance=128, drift_window_seconds=window
    )
    required = MachineSession("probe", "Q@v1", bundle).predictor.required_counters
    columns = holdout_log.select(list(required))
    rows = []
    for t in range(backlog):
        counters = {name: columns[t, i] for i, name in enumerate(required)}
        if t >= backlog // 2:
            # Far outside the envelope: the window fills with drift.
            counters = {name: value * 40.0 for name, value in counters.items()}
        rows.append(counters)
    sessions = [
        MachineSession(f"m{n}", "Q@v1", bundle, config=config)
        for n in (backlog, 3, 1)
    ]
    for session, n in zip(sessions, (backlog, 3, 1)):
        for t in range(n):
            session.submit(t, rows[t])
    scored = MicroBatchScorer().tick(sessions)
    assert len(scored) == backlog + 4

    for session, n in zip(sessions, (backlog, 3, 1)):
        predictor = OnlinePowerPredictor(bundle.platform_model)
        detector = bundle.build_drift_detector(window_seconds=window)
        expected = [
            detector.observe(predictor.prepare_row(rows[t])).drifting
            for t in range(n)
        ]
        delivered = [
            sample.drifting
            for sample in scored
            if sample.machine_id == session.machine_id
        ]
        assert delivered == expected
        assert session.drift.verdict() == detector.verdict()
        if n == backlog == 75:
            # The flags really change inside the run.
            assert any(expected) and not all(expected)
