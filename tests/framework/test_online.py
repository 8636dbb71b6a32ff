"""Tests for the streaming online power predictor."""

import numpy as np
import pytest

from repro.framework import OnlinePowerPredictor, StaleSampleError
from repro.models import (
    PlatformModel,
    QuadraticPowerModel,
    cluster_plus_lagged_frequency,
    cluster_set,
    pool_features,
)
from repro.models.featuresets import CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER
from repro.cluster import Cluster, execute_runs
from repro.platforms import CORE2
from repro.workloads import SortWorkload


@pytest.fixture(scope="module")
def trained():
    cluster = Cluster.homogeneous(CORE2, n_machines=2, seed=88)
    runs = execute_runs(cluster, SortWorkload(), n_runs=2)
    feature_set = cluster_plus_lagged_frequency(
        (CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER)
    )
    design, power = pool_features(runs, feature_set)
    model = QuadraticPowerModel(feature_set.feature_names).fit(design, power)
    platform_model = PlatformModel(
        platform_key="core2", model=model, feature_set=feature_set
    )
    return platform_model, runs


class TestOnlinePowerPredictor:
    def test_streaming_matches_batch(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        batch = platform_model.predict_log(log)

        predictor = OnlinePowerPredictor(platform_model)
        streamed = []
        for t in range(log.n_seconds):
            sample = {
                name: float(log.column(name)[t])
                for name in predictor.required_counters
            }
            streamed.append(predictor.observe(sample))
        assert np.asarray(streamed) == pytest.approx(batch)

    def test_required_counters_exclude_lag_duplicates(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        required = predictor.required_counters
        assert CPU_UTILIZATION_COUNTER in required
        assert FREQUENCY_COUNTER in required
        assert len(required) == 2  # the lagged copy reuses FREQUENCY_COUNTER

    def test_missing_counter_rejected(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(KeyError, match="missing"):
            predictor.observe({CPU_UTILIZATION_COUNTER: 50.0})

    def test_rolling_statistics(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        predictor = OnlinePowerPredictor(platform_model, history_seconds=50)
        for t in range(60):
            sample = {
                name: float(log.column(name)[t])
                for name in predictor.required_counters
            }
            predictor.observe(sample)
        assert predictor.n_observed == 60
        assert predictor.peak_w() >= predictor.rolling_mean_w()
        assert predictor.rolling_mean_w(window_seconds=10) > 0

    def test_reset_clears_state(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        predictor.observe({
            CPU_UTILIZATION_COUNTER: 50.0, FREQUENCY_COUNTER: 2260.0
        })
        predictor.reset()
        assert predictor.n_observed == 0
        with pytest.raises(ValueError):
            predictor.rolling_mean_w()

    def test_empty_history_errors(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(ValueError, match="no samples"):
            predictor.peak_w()

    def test_bad_history_size_rejected(self, trained):
        platform_model, _ = trained
        with pytest.raises(ValueError):
            OnlinePowerPredictor(platform_model, history_seconds=0)


class TestMissingCounterHandling:
    def _sample(self, util=50.0, freq=2260.0):
        return {
            CPU_UTILIZATION_COUNTER: util,
            FREQUENCY_COUNTER: freq,
        }

    def test_strict_mode_raises_on_nan(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(KeyError):
            predictor.observe(self._sample(util=float("nan")))

    def test_allow_missing_patches_from_last_sample(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        first = predictor.observe(self._sample(util=60.0))
        # Second sample drops the utilization counter entirely.
        patched = predictor.observe({FREQUENCY_COUNTER: 2260.0})
        assert np.isfinite(patched)
        assert predictor.n_patched == 1
        # Patching reuses the previous utilization, so the prediction
        # matches a fully-populated repeat of the first sample.
        repeat = predictor.observe(self._sample(util=60.0))
        assert patched == pytest.approx(repeat, rel=1e-6)
        del first

    def test_allow_missing_still_raises_with_no_history(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        with pytest.raises(KeyError):
            predictor.observe({FREQUENCY_COUNTER: 2260.0})

    def test_reset_clears_patch_count(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        predictor.observe(self._sample())
        predictor.observe({FREQUENCY_COUNTER: 2260.0})
        predictor.reset()
        assert predictor.n_patched == 0
        assert predictor.n_patched_samples == 0
        assert predictor.patched_fraction == 0.0
        assert predictor.consecutive_patched == 0

    def test_patched_fraction_counts_samples_not_values(self, trained):
        """One sample missing both counters is one patched sample, even
        though two values were patched."""
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        predictor.observe(self._sample())
        predictor.observe({})  # both counters patched
        predictor.observe(self._sample())
        predictor.observe({FREQUENCY_COUNTER: 2260.0})
        assert predictor.n_patched == 3
        assert predictor.n_patched_samples == 2
        assert predictor.patched_fraction == pytest.approx(0.5)

    def test_patched_fraction_is_zero_before_any_sample(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        assert predictor.patched_fraction == 0.0

    def test_consecutive_cap_raises_then_recovers(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(
            platform_model, allow_missing=True, max_consecutive_patches=2
        )
        predictor.observe(self._sample())
        predictor.observe({})
        predictor.observe({})
        assert predictor.consecutive_patched == 2
        with pytest.raises(StaleSampleError, match="consecutive"):
            predictor.observe({})
        # A rejected sample is not recorded as observed.
        assert predictor.n_observed == 3
        # A clean sample resets the run and prediction resumes.
        clean = predictor.observe(self._sample())
        assert np.isfinite(clean)
        assert predictor.consecutive_patched == 0
        predictor.observe({})  # tolerated again after recovery
        assert predictor.n_observed == 5

    def test_cap_validation(self, trained):
        platform_model, _ = trained
        with pytest.raises(ValueError, match="max_consecutive_patches"):
            OnlinePowerPredictor(
                platform_model,
                allow_missing=True,
                max_consecutive_patches=0,
            )


class TestPrepareCommitSplit:
    """The two-phase API the serving micro-batcher drives."""

    def test_prepare_then_commit_equals_observe(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        one_shot = OnlinePowerPredictor(platform_model)
        two_phase = OnlinePowerPredictor(platform_model)
        rows = []
        for t in range(20):
            sample = {
                name: float(log.column(name)[t])
                for name in one_shot.required_counters
            }
            expected = one_shot.observe(sample)
            row = two_phase.prepare_row(sample)
            rows.append(row)
            prediction = float(
                platform_model.model.predict(row[None, :])[0]
            )
            assert two_phase.commit(prediction) == expected
        assert two_phase.n_observed == one_shot.n_observed
        # The prepared rows are exactly the batch design matrix.
        batch = platform_model.feature_set.extract(log)
        np.testing.assert_array_equal(np.vstack(rows), batch[:20])

    def test_carry_state_preserves_lag_and_history(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        reference = OnlinePowerPredictor(platform_model)
        swapped = OnlinePowerPredictor(platform_model)
        replacement = OnlinePowerPredictor(platform_model)
        for t in range(10):
            sample = {
                name: float(log.column(name)[t])
                for name in reference.required_counters
            }
            reference.observe(sample)
            swapped.observe(sample)
        replacement.carry_state_from(swapped)
        assert replacement.n_observed == 10
        assert replacement.rolling_mean_w() == reference.rolling_mean_w()
        # The lagged MHz(t-1) feature survives the swap: the next
        # prediction is identical to an un-swapped predictor's.
        sample = {
            name: float(log.column(name)[10])
            for name in reference.required_counters
        }
        assert replacement.observe(sample) == reference.observe(sample)

    def test_carry_state_onto_a_model_lagging_a_new_counter(self, trained):
        """A swap onto a model that lags a counter the old model never
        read starts the lag state afresh, as a stream's first sample
        does, instead of failing every later sample on the missing
        lagged value."""
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        util_only = cluster_set((CPU_UTILIZATION_COUNTER,))
        design, power = pool_features(runs, util_only)
        old = OnlinePowerPredictor(
            PlatformModel(
                platform_key="core2",
                model=QuadraticPowerModel(util_only.feature_names).fit(
                    design, power
                ),
                feature_set=util_only,
            )
        )

        def sample(t):
            return {
                name: float(log.column(name)[t])
                for name in (CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER)
            }

        for t in range(5):
            old.observe(sample(t))
        swapped = OnlinePowerPredictor(platform_model)
        swapped.carry_state_from(old)
        fresh = OnlinePowerPredictor(platform_model)
        for t in range(5, 10):
            assert swapped.observe(sample(t)) == fresh.observe(sample(t))
        assert swapped.n_observed == 10
