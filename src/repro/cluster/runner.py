"""Execute workload runs on a cluster and collect telemetry.

``execute_runs`` is the data-collection campaign of Section III: run each
workload several times on the instrumented cluster, logging every
machine's counters and metered power at 1 Hz.  Different runs get
different scheduler partitionings (and different noise), which is what
makes the paper's train-on-one-run / test-on-others protocol meaningful.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.telemetry.perfmon import PerfmonLog
from repro.telemetry.sampler import sample_machine_run
from repro.workloads.base import Workload


@dataclass
class ClusterRun:
    """All machine logs from one execution of one workload."""

    cluster_name: str
    workload_name: str
    run_index: int
    logs: dict[str, PerfmonLog]

    def __post_init__(self):
        if not self.logs:
            raise ValueError("a run must contain at least one machine log")
        lengths = {log.n_seconds for log in self.logs.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"machine logs disagree on run length: {sorted(lengths)}"
            )

    @property
    def n_seconds(self) -> int:
        return next(iter(self.logs.values())).n_seconds

    @property
    def machine_ids(self) -> list[str]:
        return list(self.logs)

    def cluster_power(self) -> np.ndarray:
        """(T,) total metered AC power across all machines."""
        return np.sum([log.power_w for log in self.logs.values()], axis=0)

    def content_digest(self) -> str:
        """SHA-256 over every log's counters and power (cache identity)."""
        digest = hashlib.sha256()
        digest.update(
            f"{self.cluster_name}/{self.workload_name}/"
            f"{self.run_index}".encode()
        )
        for machine_id in self.machine_ids:
            log = self.logs[machine_id]
            digest.update(machine_id.encode())
            digest.update("\x00".join(log.counter_names).encode())
            digest.update(np.ascontiguousarray(log.counters).tobytes())
            digest.update(np.ascontiguousarray(log.power_w).tobytes())
        return digest.hexdigest()


def runs_content_digest(runs: list[ClusterRun]) -> str:
    """One digest covering a whole measurement campaign, in run order."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(run.content_digest().encode())
    return digest.hexdigest()


def generate_run(
    cluster: Cluster,
    workload: Workload,
    run_index: int,
    base_seed: int,
) -> ClusterRun:
    """Generate one run's telemetry; self-contained and order-independent.

    Every machine's sampling seed derives from ``(base_seed, machine
    index)`` and the workload trace from ``(base_seed, run_index)``, so
    runs compute bit-identical logs whether generated serially or as
    parallel engine tasks.
    """
    traces = workload.generate_run(
        cluster.machines, run_index=run_index, seed=base_seed
    )
    logs: dict[str, PerfmonLog] = {}
    for machine_index, machine in enumerate(cluster.machines):
        catalog = cluster.catalog_for(machine.spec.key)
        meter = cluster.meters[machine.machine_id]
        machine_seed = _machine_sampling_seed(base_seed, machine_index)
        logs[machine.machine_id] = sample_machine_run(
            machine=machine,
            catalog=catalog,
            activity=traces[machine.machine_id],
            meter=meter,
            machine_seed=machine_seed,
            run_index=run_index,
        )
    return ClusterRun(
        cluster_name=cluster.name,
        workload_name=workload.name,
        run_index=run_index,
        logs=logs,
    )


def run_task(config: dict, payload) -> ClusterRun:
    """Engine task: generate one cluster run.

    Not cacheable (the result is an in-memory dataclass, and generation
    is cheap relative to model fitting); determinism comes from the
    explicit seeds in ``config``.
    """
    cluster, workload = payload
    return generate_run(
        cluster, workload, config["run_index"], config["base_seed"]
    )


def execute_runs(
    cluster: Cluster,
    workload: Workload,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> list[ClusterRun]:
    """Run a workload ``n_runs`` times on a cluster, collecting telemetry.

    Each run is one engine task, bit-identical at every ``jobs`` value;
    ``jobs=None`` follows the process-wide engine options.  No more
    workers than runs are asked for, so a single run never starts a
    process pool.  A run that raises surfaces as a
    :class:`~repro.engine.TaskError` naming it.
    """
    from repro.engine import TaskSpec, resolve_jobs, run_graph

    if n_runs < 1:
        raise ValueError("need at least one run")
    base_seed = cluster.seed if seed is None else seed
    keys = [
        f"{cluster.name}/{workload.name}/run{run_index}"
        for run_index in range(n_runs)
    ]
    tasks = [
        TaskSpec(
            key=key,
            fn="repro.cluster.runner:run_task",
            config={"run_index": run_index, "base_seed": base_seed},
            payload=(cluster, workload),
            cacheable=False,
        )
        for run_index, key in enumerate(keys)
    ]
    results = run_graph(tasks, jobs=min(resolve_jobs(jobs), n_runs))
    return [results[key] for key in keys]


def _machine_sampling_seed(base_seed: int, machine_index: int) -> int:
    """Distinct, stable sampling seed per machine."""
    return base_seed * 1000 + machine_index
