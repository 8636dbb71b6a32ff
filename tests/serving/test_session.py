"""Session semantics: ordering, loss, patching, hot-swap, telemetry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serving import MachineSession, MicroBatchScorer, SessionConfig


def _counter_rows(scenario, log, n=None):
    """The per-second counter dicts a machine agent would send."""
    session = MachineSession("probe", "v", scenario.bundle("Q"))
    required = session.predictor.required_counters
    columns = log.select(list(required))
    n = log.n_seconds if n is None else n
    return [
        {name: columns[t, i] for i, name in enumerate(required)}
        for t in range(n)
    ]


def _make_session(scenario, code="Q", **config_kwargs):
    config = SessionConfig(**config_kwargs)
    return MachineSession(
        "m0", f"{code}@v1", scenario.bundle(code), config=config
    )


def _drain(session):
    """Score everything currently ready; returns the ScoredSamples."""
    return MicroBatchScorer().tick([session])


def test_in_order_stream_scores_every_sample(scenario, holdout_log):
    session = _make_session(scenario)
    rows = _counter_rows(scenario, holdout_log, n=30)
    for t, counters in enumerate(rows):
        session.submit(t, counters)
    scored = _drain(session)
    assert [s.t for s in scored] == list(range(30))
    assert session.n_scored == 30
    assert session.pending_count == 0
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    np.testing.assert_array_equal(
        [s.power_w for s in scored], offline[:30]
    )


def test_out_of_order_arrival_scores_in_t_order(scenario, holdout_log):
    session = _make_session(scenario, queue_limit=64, gap_tolerance=64)
    rows = _counter_rows(scenario, holdout_log, n=20)
    order = [1, 0, 3, 2, 7, 4, 6, 5] + list(range(8, 20))[::-1]
    for t in order:
        session.submit(t, rows[t])
    scored = _drain(session)
    assert [s.t for s in scored] == list(range(20))
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    np.testing.assert_array_equal(
        [s.power_w for s in scored], offline[:20]
    )


def test_late_sample_dropped_after_cursor_passed(scenario, holdout_log):
    session = _make_session(scenario)
    rows = _counter_rows(scenario, holdout_log, n=5)
    for t in range(3):
        session.submit(t, rows[t])
    _drain(session)
    assert session.submit(1, rows[1]) is False
    assert session.n_late_dropped == 1
    assert session.n_scored == 3


def test_duplicate_submission_keeps_first_write(scenario, holdout_log):
    """First-write-wins: a duplicate ``t`` is counted and discarded —
    the sample (and its meter_w) the machine sent first is what gets
    scored, never a silent last-write-wins overwrite."""
    session = _make_session(scenario)
    rows = _counter_rows(scenario, holdout_log, n=2)
    meter_w = float(holdout_log.power_w[0])
    session.submit(0, rows[0], meter_w=meter_w)
    assert session.submit(0, {name: 0.0 for name in rows[0]}) is False
    assert session.n_duplicates == 1
    assert session.pending_count == 1
    scored = _drain(session)
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    # The original sample's counters were scored...
    assert scored[0].power_w == offline[0]
    # ...and its attached meter reading survived the duplicate.
    assert session._meter_window[-1] == (meter_w, offline[0])


def test_reanchor_before_first_dispatch_accepts_older_sample(
    scenario, holdout_log
):
    """A stream whose opening packets arrive swapped re-anchors to the
    older index instead of dropping it forever (`session.py` anchors on
    the first sample, tentatively until the first dispatch)."""
    session = _make_session(scenario, gap_tolerance=64)
    rows = _counter_rows(scenario, holdout_log, n=6)
    assert session.submit(3, rows[3]) is True  # tentative anchor at 3
    assert session.submit(0, rows[0]) is True  # re-anchor to 0
    assert session.next_t == 0
    assert session.n_late_dropped == 0
    for t in (1, 2):
        session.submit(t, rows[t])
    scored = _drain(session)
    assert [s.t for s in scored] == [0, 1, 2, 3]
    # Once anything has been dispatched, older samples are late-dropped.
    assert session.submit(1, rows[1]) is False
    assert session.n_late_dropped == 1


def test_reanchor_then_shed_oldest_interplay(scenario, holdout_log):
    """Shed-oldest under a re-anchored cursor, all before first
    dispatch: the cursor slot itself is shed, so the cursor must move
    to the oldest surviving sample rather than wait forever."""
    session = _make_session(scenario, queue_limit=4, gap_tolerance=64)
    rows = _counter_rows(scenario, holdout_log, n=10)
    session.submit(5, rows[5])  # tentative anchor at 5
    session.submit(2, rows[2])  # re-anchor to 2
    assert session.next_t == 2
    for t in (3, 4, 6):
        session.submit(t, rows[t])
    # Queue is over the limit: the oldest pending (t=2, the cursor's own
    # slot) is shed and the cursor advances to the oldest survivor.
    assert session.n_shed_dropped == 1
    assert session.pending_count == 4
    assert session.next_t == 3
    scored = _drain(session)
    assert [s.t for s in scored] == [3, 4, 5, 6]
    # submit() reports the fate of the *submitted* sample: an older
    # packet that re-anchors a full queue becomes the oldest pending
    # and is itself shed — the cursor snaps back to the survivors.
    session2 = _make_session(scenario, queue_limit=2, gap_tolerance=64)
    assert session2.submit(7, rows[7]) is True
    assert session2.submit(8, rows[8]) is True
    assert session2.submit(5, rows[5]) is False  # re-anchored, then shed
    assert session2.next_t == 7
    assert session2.n_shed_dropped == 1
    assert [s.t for s in _drain(session2)] == [7, 8]


def test_backpressure_sheds_oldest_and_counts(scenario, holdout_log):
    session = _make_session(scenario, queue_limit=4, gap_tolerance=64)
    rows = _counter_rows(scenario, holdout_log, n=10)
    for t in range(6):
        session.submit(t, rows[t])
    assert session.pending_count == 4
    assert session.n_shed_dropped == 2
    # The shed slots were the cursor's own; it moved past them so the
    # stream keeps flowing instead of waiting on dropped samples.
    scored = _drain(session)
    assert [s.t for s in scored] == [2, 3, 4, 5]


def test_gap_synthesized_as_fully_patched(scenario, holdout_log):
    session = _make_session(scenario, gap_tolerance=3)
    rows = _counter_rows(scenario, holdout_log, n=8)
    for t in [0, 1]:
        session.submit(t, rows[t])
    session.submit(3, rows[3])
    session.submit(4, rows[4])
    # Only two samples queued past the missing t=2: still waiting.
    scored = _drain(session)
    assert [s.t for s in scored] == [0, 1]
    session.submit(5, rows[5])
    scored = _drain(session)
    assert [s.t for s in scored] == [2, 3, 4, 5]
    by_t = {s.t: s for s in scored}
    assert by_t[2].patched
    assert not by_t[3].patched
    assert session.n_synthesized == 1
    assert session.predictor.n_patched_samples == 1


def test_begin_drain_flushes_below_gap_tolerance(scenario, holdout_log):
    session = _make_session(scenario, gap_tolerance=10)
    rows = _counter_rows(scenario, holdout_log, n=4)
    session.submit(0, rows[0])
    session.submit(2, rows[2])
    assert [s.t for s in _drain(session)] == [0]
    session.begin_drain()
    scored = _drain(session)
    assert [s.t for s in scored] == [1, 2]
    assert scored[0].patched
    assert session.pending_count == 0


def test_consecutive_patch_cap_rejects_dead_source(scenario, holdout_log):
    session = _make_session(
        scenario, gap_tolerance=1, max_consecutive_patches=3
    )
    rows = _counter_rows(scenario, holdout_log, n=1)
    session.submit(0, rows[0])
    _drain(session)
    # A dead agent: only gaps from here on.  Each tick the next index is
    # synthesized; past the cap the predictor refuses to extrapolate.
    for t in range(1, 7):
        session.submit(t, {})
    scored = _drain(session)
    assert all(s.patched for s in scored)
    assert len(scored) == 3  # t=1..3 patched, t=4.. rejected
    assert session.n_stale_rejected == 3
    # The run counter keeps counting rejected attempts; only a clean
    # sample resets it.
    assert session.predictor.consecutive_patched == 6
    snapshot = session.snapshot()
    assert snapshot["stale_rejected"] == session.n_stale_rejected


def test_adopt_bundle_checks_platform_and_is_idempotent(scenario):
    session = _make_session(scenario)
    other = scenario.bundle("L")
    session.adopt_bundle("L@v2", other)
    assert session.n_model_swaps == 1
    session.adopt_bundle("L@v2", other)
    assert session.n_model_swaps == 1

    class FakeBundle:
        platform_key = "not-this-platform"

    with pytest.raises(ValueError, match="bound to platform"):
        session.adopt_bundle("x@v9", FakeBundle())


def test_online_dre_tracks_attached_meter(scenario, holdout_log):
    session = _make_session(scenario)
    rows = _counter_rows(scenario, holdout_log, n=60)
    for t, counters in enumerate(rows):
        session.submit(t, counters, meter_w=float(holdout_log.power_w[t]))
    _drain(session)
    dre = session.online_dre()
    assert dre is not None
    assert 0.0 <= dre < 0.5  # a real model on its own platform
    assert session.snapshot()["online_dre"] == dre


def test_snapshot_is_json_safe_and_complete(scenario, holdout_log):
    session = _make_session(scenario)
    rows = _counter_rows(scenario, holdout_log, n=10)
    for t, counters in enumerate(rows):
        session.submit(t, counters)
    _drain(session)
    snapshot = session.snapshot()
    json.dumps(snapshot)
    for key in (
        "machine_id", "platform", "model_version", "received", "scored",
        "pending", "late_dropped", "shed_dropped", "duplicates",
        "synthesized", "stale_rejected", "model_swaps",
        "patched_samples", "patched_fraction", "drift_fraction",
        "drifting", "online_dre", "last_power_w",
    ):
        assert key in snapshot
    assert snapshot["scored"] == 10
    assert snapshot["online_dre"] is None  # no meter attached


def test_snapshot_after_hot_swap_restarts_the_drift_window(
    scenario, holdout_log
):
    """A swap installs a detector with an empty window over the new
    envelope; the snapshot reports no drift until the new model scores,
    instead of asking the empty window for a verdict."""
    session = _make_session(scenario)
    rows = _counter_rows(scenario, holdout_log, n=2)
    session.submit(0, rows[0])
    _drain(session)
    session.adopt_bundle("L@v2", scenario.bundle("L"))
    snapshot = session.snapshot()
    assert snapshot["scored"] == 1
    assert snapshot["model_version"] == "L@v2"
    assert snapshot["drift_fraction"] == 0.0
    assert snapshot["drifting"] is False
    assert not session.drift.has_observations
    # The new model's first scored sample opens its own window.
    session.submit(1, rows[1])
    _drain(session)
    verdict = session.drift.verdict()
    snapshot = session.snapshot()
    assert snapshot["scored"] == 2
    assert snapshot["drift_fraction"] == verdict.out_of_envelope_fraction
    assert snapshot["drifting"] == verdict.drifting
