"""Tests for cross-validation and the model sweep."""

import pytest

from repro.cluster import Cluster, execute_runs
from repro.engine import ArtifactCache
from repro.framework import cross_validate, sweep_models
from repro.models import cluster_set, cpu_only_set
from repro.models.featuresets import CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER
from repro.platforms import CORE2
from repro.telemetry.engine_stats import EngineTelemetry
from repro.workloads import PrimeWorkload


@pytest.fixture(scope="module")
def runs():
    cluster = Cluster.homogeneous(CORE2, n_machines=3, seed=71)
    return execute_runs(cluster, PrimeWorkload(), n_runs=3)


@pytest.fixture(scope="module")
def small_cluster_set():
    return cluster_set((CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER))


class TestCrossValidate:
    def test_report_counts(self, runs, small_cluster_set):
        result = cross_validate(runs, "L", small_cluster_set, seed=1)
        # 3 folds x 2 test runs x 3 machines.
        assert len(result.machine_reports) == 18
        # 3 folds x 2 test runs at cluster level.
        assert len(result.cluster_reports) == 6
        assert result.n_models_built == 3

    def test_label(self, runs, small_cluster_set):
        result = cross_validate(runs, "Q", small_cluster_set, seed=1)
        assert result.label == "QC"

    def test_dre_is_sane(self, runs, small_cluster_set):
        result = cross_validate(runs, "L", small_cluster_set, seed=1)
        assert 0.0 < result.mean_machine_dre < 0.5
        assert result.mean_cluster_dre < result.mean_machine_dre * 1.5

    def test_train_fraction_validation(self, runs, small_cluster_set):
        with pytest.raises(ValueError, match="train_fraction"):
            cross_validate(
                runs, "L", small_cluster_set, train_fraction=0.0
            )

    def test_empty_runs_rejected(self, small_cluster_set):
        with pytest.raises(ValueError, match="need runs"):
            cross_validate([], "L", small_cluster_set)


class TestSweep:
    def test_grid_skips_invalid_combinations(self, runs, small_cluster_set):
        sweep = sweep_models(
            runs, [cpu_only_set(), small_cluster_set], seed=1
        )
        labels = {e.label for e in sweep.evaluations}
        assert "LU" in labels
        assert "PU" in labels
        assert "QU" not in labels  # quadratic cannot use CPU-only
        assert "SU" not in labels
        assert "QC" in labels and "SC" in labels

    def test_best_has_lowest_dre(self, runs, small_cluster_set):
        sweep = sweep_models(
            runs, [cpu_only_set(), small_cluster_set], seed=1
        )
        best = sweep.best()
        assert all(
            best.mean_machine_dre <= e.mean_machine_dre
            for e in sweep.evaluations
        )

    def test_cell_lookup(self, runs, small_cluster_set):
        sweep = sweep_models(runs, [small_cluster_set], seed=1)
        assert sweep.cell("L", "C").model_code == "L"
        with pytest.raises(KeyError):
            sweep.cell("L", "Z")

    def test_model_count_accumulates(self, runs, small_cluster_set):
        sweep = sweep_models(
            runs, [cpu_only_set(), small_cluster_set], seed=1
        )
        # 6 valid cells x 3 folds each.
        assert sweep.n_models_built == 18

    def test_seeds_share_no_cache_entry_and_a_rerun_is_all_hits(
        self, runs, tmp_path
    ):
        """Each fold task's config carries the sweep seed, so the seed
        keys the artifact cache: seed 1 reuses nothing seed 0 stored, and
        rerunning seed 0 serves every fold warm with the same grid."""
        cache = ArtifactCache(tmp_path / "cache")

        def sweep(seed):
            stats = EngineTelemetry()
            result = sweep_models(
                runs, [cpu_only_set()], seed=seed, jobs=1, cache=cache,
                telemetry=stats,
            )
            return result, stats

        cold, cold_stats = sweep(0)
        _, other_stats = sweep(1)
        assert other_stats.n_cache_hits == 0
        assert cache.stats().n_entries == (
            cold_stats.n_tasks + other_stats.n_tasks
        )
        warm, warm_stats = sweep(0)
        assert warm_stats.hit_rate == 1.0
        assert [e.mean_machine_dre for e in warm.evaluations] == [
            e.mean_machine_dre for e in cold.evaluations
        ]
