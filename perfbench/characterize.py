"""``characterize``: the offline path a user runs once per platform.

``repro select`` then ``repro sweep`` for every paper workload: simulate
the runs, run Algorithm 1, then cross-validate every valid L/P/Q/S x
U/C/CP cell on each workload.  Serial (``jobs=1``), artifact cache off,
so every pass does all the work.  Its two phases lean on different
layers (the lasso in selection, MARS in the grid); serving does nothing
here.

Opteron is the Figure 3-4 platform.  The cluster is the paper's
(``DEFAULT_SEED``) cut to 2 machines x 2 runs, so that one pass takes
12-16 s on a 2-core box and a run holds two of them; ``--seed`` drives
the cross-validation subsampling.  The simulated data stays pinned
because Algorithm 1's cost moves with it far more than any bound could
absorb (21.9 s and 27.8 s for cluster seeds 1 and 2 at 3 machines x
3 runs).
"""

from __future__ import annotations

import contextlib
import time

from speed import Speedometer
from stats import median, peak_rss_mb_self

from repro.cluster.cluster import DEFAULT_SEED, Cluster
from repro.framework import chaos
from repro.framework.sweep import sweep_models
from repro.models.featuresets import (
    cluster_plus_lagged_frequency,
    cluster_set,
    cpu_only_set,
)
from repro.platforms import get_platform
from repro.selection.algorithm1 import run_algorithm1

PLATFORM = "opteron"
N_MACHINES = 2
N_RUNS = 2
MIN_PASSES = 2
MAX_DRE = 0.12  # the paper's claim for the best cell of each workload
MAX_SELECTED = 20


def set_up():
    """The instrumented cluster and its measurement campaign."""
    cluster = Cluster.homogeneous(
        get_platform(PLATFORM), n_machines=N_MACHINES, seed=DEFAULT_SEED
    )
    runs_by_workload = chaos.collect_workload_runs(cluster, n_runs=N_RUNS)
    return cluster, runs_by_workload


def select(cluster, runs_by_workload):
    return run_algorithm1(cluster, runs_by_workload)


def sweep(runs_by_workload, selection, seed: int) -> dict:
    """``repro sweep`` on every workload."""
    feature_sets = [
        cpu_only_set(),
        cluster_set(selection.selected),
        cluster_plus_lagged_frequency(selection.selected),
    ]
    results = {}
    for name, runs in runs_by_workload.items():
        results[name] = sweep_models(
            runs, feature_sets, seed=seed, jobs=1, cache=False
        )
    return results


def check(selection, sweeps) -> tuple[int, int, list[str]]:
    """One operation per workload sweep plus the selection itself."""
    problems = []
    if not 1 <= len(selection.selected) <= MAX_SELECTED:
        problems.append(f"selected {len(selection.selected)} counters")
    for name, result in sweeps.items():
        if result.incomplete_cells or not result.evaluations:
            problems.append(f"{name}: incomplete grid")
            continue
        best = result.best()
        if not best.mean_machine_dre < MAX_DRE:
            problems.append(
                f"{name}: best cell {best.label} DRE {best.mean_machine_dre:.3f}"
            )
    return 1 + len(sweeps), len(problems), problems


def run(seed: int, seconds: float, n_setups: int, probes=None) -> dict:
    """Set up ``n_setups`` times, then characterize until ``seconds``
    have passed (at least ``MIN_PASSES`` times, or once when traced).
    Untraced, every set-up and pass is timed at the reference host speed
    (``speed.py``).  With ``probes`` every layer is traced and the grid
    is run once more untraced to measure the overhead."""
    tracer = probes.tracer if probes is not None else None
    if probes is not None:
        probes.install()
    meter = Speedometer()

    def ticking():
        if probes is not None:
            return contextlib.nullcontext()
        return meter.ticking()

    setup_spans = []

    def timed_set_ups():
        # A set-up takes a fraction of a second; a block of them also
        # follows every pass, so they spread over the run.
        for _ in range(n_setups):
            with ticking():
                started = time.perf_counter()
                made = set_up()
                setup_spans.append((started, time.perf_counter()))
        return made

    cluster, runs_by_workload = timed_set_ups()
    n_rows = sum(
        log.n_seconds
        for runs in runs_by_workload.values()
        for run in runs
        for log in run.logs.values()
    )

    def phase(name):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(f"pipeline.{name}", bench=True)

    passes = []
    attempted = failed = 0
    problems: list[str] = []
    min_passes = 1 if probes is not None else MIN_PASSES
    while (
        len(passes) < min_passes
        or sum(p["t2"] - p["t0"] for p in passes) < seconds
    ):
        with ticking():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with phase("select"):
                selection = select(cluster, runs_by_workload)
            t1 = time.perf_counter()
            with phase("sweep"):
                sweeps = sweep(runs_by_workload, selection, seed)
            t2 = time.perf_counter()
            cpu_s = time.process_time() - cpu0
        n_ops, n_failed, found = check(selection, sweeps)
        attempted += n_ops
        failed += n_failed
        problems += found
        best = [result.best().mean_machine_dre for result in sweeps.values()]
        passes.append({
            "t0": t0,
            "t1": t1,
            "t2": t2,
            "cpu_s": cpu_s,
            "sweep_dre": sum(best) / len(best),
            "selected": len(selection.selected),
            "kept_into_lasso": len(selection.step2.kept),
            "cells": sum(len(r.evaluations) for r in sweeps.values()),
        })
        if probes is None:
            timed_set_ups()

    out = {}
    if probes is not None:
        # Tracing overhead, measured on the grid phase: the same sweep
        # untraced, then traced, both after the pass warmed everything.
        out["snapshots"] = [tracer.snapshot()]
        timings = []
        for install in (probes.remove, probes.install):
            install()
            t0 = time.perf_counter()
            sweep(runs_by_workload, selection, seed)
            timings.append(time.perf_counter() - t0)
        probes.remove()
        out["overhead_share"] = timings[1] / timings[0] - 1.0
        norm = raw = lambda t0, t1: t1 - t0  # noqa: E731
    else:
        norm = meter.normalized

        def raw(t0, t1):
            return t1 - t0 - meter.probe_s(t0, t1)

    pass_s = [norm(p["t0"], p["t2"]) for p in passes]
    # Process CPU of a pass without its probes, scaled like its wall time.
    cpu_s = [
        (p["cpu_s"] - (p["t2"] - p["t0"] - raw(p["t0"], p["t2"])))
        * norm(p["t0"], p["t2"]) / raw(p["t0"], p["t2"])
        for p in passes
    ]
    out.update({
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "setup_s": median(norm(*span) for span in setup_spans),
            "peak_rss_mb": peak_rss_mb_self(),
            "op_ms": median(pass_s) * 1e3,
            "cpu_us_per_sample": median(cpu_s) / n_rows * 1e6,
        },
        "report": {
            "setup_s each (reference speed)": [
                round(norm(*span), 3) for span in setup_spans
            ],
            "passes": len(passes),
            "pass_s each (reference speed)": [round(s, 3) for s in pass_s],
            "pass_s each (wall, without probes)": [
                round(raw(p["t0"], p["t2"]), 3) for p in passes
            ],
            "counter samples per pass": n_rows,
            "select_s (s, reference speed)": median(
                norm(p["t0"], p["t1"]) for p in passes
            ),
            "sweep_s (s, reference speed)": median(
                norm(p["t1"], p["t2"]) for p in passes
            ),
            "sweep_dre (fraction)": median(p["sweep_dre"] for p in passes),
            "selected counters": passes[-1]["selected"],
            "grid cells per pass": passes[-1]["cells"],
            "host speed probes": len(meter.speeds),
        },
        "layer_values": {
            "selection.eliminate_codependent.kept": passes[-1]["kept_into_lasso"],
        },
    })
    return out
