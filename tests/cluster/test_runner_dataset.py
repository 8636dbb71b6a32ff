"""Tests for run execution and dataset pooling."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    Dataset,
    execute_runs,
    pool_runs,
    runwise_folds,
)
from repro.engine import TaskError
from repro.engine import executor as engine_executor
from repro.platforms import CORE2
from repro.workloads import WordCountWorkload


class FailingRunWorkload(WordCountWorkload):
    """Word count whose run 1 raises (module level: pool workers unpickle
    it by reference)."""

    def generate_run(self, machines, run_index, seed):
        if run_index == 1:
            raise RuntimeError("injected run failure")
        return super().generate_run(machines, run_index=run_index, seed=seed)


@pytest.fixture(scope="module")
def cluster():
    return Cluster.homogeneous(CORE2, n_machines=3, seed=21)


@pytest.fixture(scope="module")
def runs(cluster):
    return execute_runs(cluster, WordCountWorkload(), n_runs=3)


class TestExecuteRuns:
    def test_run_count_and_indices(self, runs):
        assert [run.run_index for run in runs] == [0, 1, 2]

    def test_logs_per_machine(self, runs, cluster):
        for run in runs:
            assert set(run.machine_ids) == {
                machine.machine_id for machine in cluster.machines
            }

    def test_cluster_power_is_sum(self, runs):
        run = runs[0]
        manual = sum(log.power_w for log in run.logs.values())
        assert run.cluster_power() == pytest.approx(manual)

    def test_runs_differ(self, runs):
        first = runs[0].logs[runs[0].machine_ids[0]].power_w
        second = runs[1].logs[runs[1].machine_ids[0]].power_w
        assert first.shape != second.shape or not np.array_equal(first, second)

    def test_deterministic(self, cluster, runs):
        again = execute_runs(cluster, WordCountWorkload(), n_runs=1)
        machine_id = runs[0].machine_ids[0]
        assert np.array_equal(
            again[0].logs[machine_id].power_w,
            runs[0].logs[machine_id].power_w,
        )

    def test_bad_run_count_rejected(self, cluster):
        with pytest.raises(ValueError):
            execute_runs(cluster, WordCountWorkload(), n_runs=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_run_raises_task_error_naming_it(self, cluster, jobs):
        workload = FailingRunWorkload()
        with pytest.raises(TaskError) as excinfo:
            execute_runs(cluster, workload, n_runs=2, jobs=jobs)
        assert excinfo.value.key == f"{cluster.name}/{workload.name}/run1"
        assert "injected run failure" in excinfo.value.detail

    def test_single_run_never_starts_a_process_pool(
        self, cluster, runs, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single run started a process pool")

        monkeypatch.setattr(engine_executor, "ProcessPoolExecutor", no_pool)
        again = execute_runs(cluster, WordCountWorkload(), n_runs=1, jobs=2)
        machine_id = runs[0].machine_ids[0]
        assert np.array_equal(
            again[0].logs[machine_id].power_w,
            runs[0].logs[machine_id].power_w,
        )


class TestPooling:
    def test_pool_all_machines(self, runs, cluster):
        names = cluster.catalogs["core2"].names[:5]
        dataset = pool_runs(runs, names)
        expected_rows = sum(
            run.n_seconds * len(run.machine_ids) for run in runs
        )
        assert dataset.design.shape == (expected_rows, 5)
        assert dataset.power.shape == (expected_rows,)

    def test_pool_machine_subset(self, runs, cluster):
        names = cluster.catalogs["core2"].names[:3]
        machine_id = runs[0].machine_ids[0]
        dataset = pool_runs(runs, names, machine_ids=[machine_id])
        expected_rows = sum(run.n_seconds for run in runs)
        assert dataset.n_samples == expected_rows

    def test_unknown_machine_rejected(self, runs, cluster):
        names = cluster.catalogs["core2"].names[:3]
        with pytest.raises(KeyError):
            pool_runs(runs, names, machine_ids=["ghost"])

    def test_subsample(self, runs, cluster):
        names = cluster.catalogs["core2"].names[:3]
        dataset = pool_runs(runs, names)
        small = dataset.subsample(0.1, np.random.default_rng(0))
        assert small.n_samples == round(dataset.n_samples * 0.1)
        with pytest.raises(ValueError):
            dataset.subsample(0.0, np.random.default_rng(0))


class TestFolds:
    def test_five_runs_five_folds(self):
        folds = runwise_folds(5)
        assert len(folds) == 5
        for index, fold in enumerate(folds):
            assert fold.train_runs == (index,)
            assert index not in fold.test_runs
            assert len(fold.test_runs) == 4

    def test_too_few_runs_rejected(self):
        with pytest.raises(ValueError):
            runwise_folds(1)


class TestDatasetValidation:
    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset(
                design=np.zeros((5, 2)),
                power=np.zeros(4),
                feature_names=["a", "b"],
            )

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError, match="feature_names"):
            Dataset(
                design=np.zeros((5, 2)),
                power=np.zeros(5),
                feature_names=["a"],
            )
