"""Inputs shared by the ``fleet`` and ``wire`` workloads.

Both score the same kind of model: Q on a pinned Opteron CP feature set
(the 11 counters Algorithm 1 selects for Opteron at the paper's seed,
``repro select --platform opteron``, plus lagged MHz).  Pinning the set
keeps the serving workloads independent of selection: a change to the
lasso cannot change what the server scores.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import runner
from repro.cluster.cluster import Cluster
from repro.models.composition import PlatformModel
from repro.models.featuresets import (
    cluster_plus_lagged_frequency,
    pool_features,
)
from repro.models.registry import build_model
from repro.platforms import get_platform
from repro.serving import make_bundle
from repro.telemetry.perfmon import PerfmonLog
from repro.workloads.suite import default_suite

PLATFORM = "opteron"

PINNED_COUNTERS = (
    r"\Processor(_Total)\% Processor Time",
    r"\Processor(_Total)\% Privileged Time",
    r"\Processor(_Total)\% Interrupt Time",
    r"\Processor Performance(0)\Frequency MHz",
    r"\Memory\Page Faults/sec",
    r"\Memory\Cache Faults/sec",
    r"\Memory\Cache Bytes Peak",
    r"\TCPv4\Segments Sent/sec",
    r"\Process(explorer)\% Processor Time",
    r"\Job Object Details(DryadJob/_Total)\Process Count",
    r"\System\Processor Queue Length",
)

FEATURE_SET = cluster_plus_lagged_frequency(PINNED_COUNTERS)


def simulate_and_fit(seed: int, n_machines: int = 3):
    """Simulate one run of each paper workload and fit the served model.

    Returns ``(bundle, stream)``: the serving bundle and one long log of
    every machine's samples back to back, which the load generators
    replay from per-machine offsets.
    """
    spec = get_platform(PLATFORM)
    cluster = Cluster.homogeneous(spec, n_machines=n_machines, seed=seed)
    runs = [
        runner.execute_runs(cluster, workload, n_runs=1, jobs=1)[0]
        for workload in default_suite().values()
    ]
    design, power = pool_features(runs, FEATURE_SET)
    model = build_model("Q", FEATURE_SET).fit(design, power)
    platform_model = PlatformModel(
        platform_key=spec.key, model=model, feature_set=FEATURE_SET
    )
    bundle = make_bundle(
        platform_model,
        design,
        idle_power_w=spec.idle_power_w,
        meta={"scenario": "perfbench", "seed": seed},
    )
    logs = [run.logs[machine_id] for run in runs for machine_id in run.machine_ids]
    names = list(PINNED_COUNTERS)
    stream = PerfmonLog(
        machine_id="stream",
        counter_names=names,
        counters=np.vstack([log.select(names) for log in logs]),
        power_w=np.concatenate([log.power_w for log in logs]),
    )
    return bundle, stream


def sequence_log(stream: PerfmonLog, rows: np.ndarray) -> PerfmonLog:
    """The log a machine produces when it sends ``stream`` rows in order."""
    return PerfmonLog(
        machine_id="reference",
        counter_names=list(stream.counter_names),
        counters=stream.counters[rows],
        power_w=stream.power_w[rows],
    )
