"""Telemetry surface: histograms and the JSON snapshot."""

from __future__ import annotations

import json

import pytest

from repro.serving import Histogram, ServingStats
from repro.serving.stats import batch_size_histogram, latency_histogram


def test_histogram_buckets_and_quantiles():
    histogram = Histogram([1.0, 2.0, 4.0, 8.0])
    for value in [0.5, 1.5, 1.7, 3.0, 9.0]:
        histogram.observe(value)
    assert histogram.n_observed == 5
    assert histogram.counts == [1, 2, 1, 0, 1]
    assert histogram.mean == pytest.approx(3.14)
    # p50 lands in the (1, 2] bucket; its upper edge is the estimate.
    assert histogram.quantile(0.5) == 2.0
    # The overflow bucket reports the largest finite bound.
    assert histogram.quantile(1.0) == 8.0
    assert histogram.quantile(0.0) == 0.0 or histogram.quantile(0.0) >= 0


def test_histogram_validates_inputs():
    with pytest.raises(ValueError, match="sorted"):
        Histogram([2.0, 1.0])
    with pytest.raises(ValueError, match="sorted"):
        Histogram([])
    histogram = Histogram([1.0])
    with pytest.raises(ValueError, match="quantile"):
        histogram.quantile(1.5)


def test_empty_histogram_is_well_defined():
    histogram = latency_histogram()
    assert histogram.quantile(0.99) == 0.0
    assert histogram.mean == 0.0
    payload = histogram.to_dict()
    assert payload["count"] == 0
    json.dumps(payload)


def test_default_histograms_cover_expected_ranges():
    latency = latency_histogram()
    assert latency.bounds[0] <= 1e-5
    assert latency.bounds[-1] >= 1.0
    size = batch_size_histogram()
    assert size.bounds[0] <= 1.0
    assert size.bounds[-1] >= 1e4


def test_record_batch_accumulates():
    stats = ServingStats()
    stats.record_batch(n_samples=100, n_groups=2, latency_s=0.001)
    stats.record_batch(n_samples=50, n_groups=1, latency_s=0.002)
    assert stats.n_ticks == 2
    assert stats.n_samples_scored == 150
    assert stats.n_groups_scored == 3
    assert stats.batch_size.n_observed == 2
    assert stats.batch_latency_s.quantile(0.99) > 0


def test_snapshot_folds_sessions_and_serializes(scenario, holdout_log):
    from repro.serving import MachineSession, MicroBatchScorer

    stats = ServingStats()
    session = MachineSession("m0", "Q@v1", scenario.bundle("Q"))
    required = session.predictor.required_counters
    columns = holdout_log.select(list(required))
    for t in range(20):
        session.submit(
            t,
            {name: columns[t, i] for i, name in enumerate(required)},
            meter_w=float(holdout_log.power_w[t]),
        )
    MicroBatchScorer(stats=stats).tick([session])
    extra = {**session.snapshot(), "machine_id": "gone"}
    snapshot = stats.snapshot([session], extra_session_rows=[extra])
    json.dumps(snapshot)
    assert snapshot["samples_scored"] == 20
    assert len(snapshot["sessions"]) == 2
    assert snapshot["dropped_samples"] == 0
    assert snapshot["mean_online_dre"] is not None
    assert snapshot["batch_size"]["count"] == 1


def test_merge_histograms_adds_buckets_and_recomputes_quantiles():
    from repro.serving.stats import merge_snapshots

    left = ServingStats()
    right = ServingStats()
    left.record_batch(n_samples=100, n_groups=1, latency_s=0.001)
    left.record_batch(n_samples=10, n_groups=1, latency_s=0.002)
    right.record_batch(n_samples=50, n_groups=2, latency_s=0.004)
    combined = ServingStats()
    for n, g, s in [(100, 1, 0.001), (10, 1, 0.002), (50, 2, 0.004)]:
        combined.record_batch(n_samples=n, n_groups=g, latency_s=s)

    merged = merge_snapshots([left.snapshot([]), right.snapshot([])])
    reference = combined.snapshot([])
    assert merged["ticks"] == 3
    assert merged["samples_scored"] == 160
    assert merged["model_groups_scored"] == 4
    # Histogram merge is exact: same buckets, same derived stats as if
    # one server had observed every batch.
    for key in ("batch_latency_s", "batch_size"):
        assert merged[key]["counts"] == reference[key]["counts"]
        assert merged[key]["total"] == pytest.approx(
            reference[key]["total"]
        )
        assert merged[key]["mean"] == pytest.approx(
            reference[key]["mean"]
        )
        assert merged[key]["p50"] == reference[key]["p50"]
        assert merged[key]["p99"] == reference[key]["p99"]
    json.dumps(merged)


def test_merge_snapshots_concatenates_sessions_and_recomputes(
    scenario, holdout_log
):
    from repro.serving import MachineSession, MicroBatchScorer
    from repro.serving.stats import merge_snapshots

    snapshots = []
    for shard, machine_id in enumerate(["m0", "m1"]):
        stats = ServingStats()
        session = MachineSession(
            machine_id, "Q@v1", scenario.bundle("Q")
        )
        required = session.predictor.required_counters
        columns = holdout_log.select(list(required))
        for t in range(10):
            session.submit(
                t,
                {name: columns[t, i] for i, name in enumerate(required)},
                meter_w=float(holdout_log.power_w[t]),
            )
        MicroBatchScorer(stats=stats).tick([session])
        snapshots.append(stats.snapshot([session]))

    merged = merge_snapshots(snapshots)
    assert merged["samples_scored"] == 20
    assert [row["machine_id"] for row in merged["sessions"]] == [
        "m0",
        "m1",
    ]
    assert merged["dropped_samples"] == 0
    assert merged["mean_online_dre"] == pytest.approx(
        sum(
            row["online_dre"]
            for snap in snapshots
            for row in snap["sessions"]
        )
        / 2
    )


def test_merge_snapshots_rejects_bad_input():
    from repro.serving.stats import merge_snapshots

    with pytest.raises(ValueError, match="at least one"):
        merge_snapshots([])
    snap = ServingStats().snapshot([])
    other = ServingStats().snapshot([])
    other["batch_size"]["bounds"] = [1.0, 2.0]
    other["batch_size"]["counts"] = [0, 0, 0]
    with pytest.raises(ValueError, match="differing bounds"):
        merge_snapshots([snap, other])


def test_merge_of_one_snapshot_is_identity_on_counters():
    from repro.serving.stats import merge_snapshots

    stats = ServingStats()
    stats.record_batch(n_samples=7, n_groups=1, latency_s=0.003)
    stats.n_protocol_errors += 2
    stats.n_stalled_closed += 1
    snap = stats.snapshot([])
    merged = merge_snapshots([snap])
    for key in (
        "ticks",
        "samples_scored",
        "protocol_errors",
        "stalled_closed",
    ):
        assert merged[key] == snap[key]


def test_dropped_samples_counts_duplicates_and_rejects(
    scenario, holdout_log
):
    """A cold-start sample the predictor rejects and a duplicate ``t``
    are lost samples too: the fleet total counts late, shed, duplicate
    and rejected samples alike, in one snapshot and in a merge."""
    from repro.serving import MachineSession, MicroBatchScorer
    from repro.serving.stats import merge_snapshots

    stats = ServingStats()
    session = MachineSession("m0", "Q@v1", scenario.bundle("Q"))
    required = session.predictor.required_counters
    columns = holdout_log.select(list(required))
    counters = {name: columns[1, i] for i, name in enumerate(required)}
    session.submit(0, {})  # cold start: nothing to patch from yet
    session.submit(1, counters)
    session.submit(1, counters)  # duplicate index
    MicroBatchScorer(stats=stats).tick([session])

    snapshot = stats.snapshot([session])
    (row,) = snapshot["sessions"]
    assert (row["received"], row["scored"], row["pending"]) == (3, 1, 0)
    assert (row["duplicates"], row["stale_rejected"]) == (1, 1)
    assert (row["late_dropped"], row["shed_dropped"]) == (0, 0)
    assert snapshot["dropped_samples"] == 2
    assert merge_snapshots([snapshot, snapshot])["dropped_samples"] == 4
