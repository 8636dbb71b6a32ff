"""Fault-injection suite: failure policies, worker death, abort, resume.

The engine's failure contract (one attempt per task), enforced at
``jobs=1`` and on the pool path:

* ``failure_policy="continue"`` finishes every other task and reports
  the failed ones in a ``RunReport``;
* a worker death fails only the task that killed it: bystanders on the
  broken pool are quarantined and still succeed;
* a ``fail_fast`` abort kills every pool worker, a running one included,
  before the run ends;
* after a simulated crash, a rerun against the warm cache recomputes
  only the missing/failed tasks (resume).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import (
    ArtifactCache,
    RunReport,
    TaskError,
    TaskSpec,
    run_graph,
    run_graph_report,
)
from repro.telemetry.engine_stats import OUTCOME_COMPUTED, EngineTelemetry
from tests.engine import tasklib


def flaky_spec(scratch, fail_times, key="flaky", scale=2.0):
    return TaskSpec(
        key=key,
        fn=tasklib.FLAKY_DRAW,
        config={
            "scratch": str(scratch), "fail_times": fail_times,
            "seed": 3, "scale": scale,
        },
    )


def clean_draw_spec(key="flaky", scale=2.0):
    """The never-failing twin of ``flaky_spec`` (same seed and scale)."""
    return TaskSpec(
        key=key, fn=tasklib.DRAW, config={"seed": 3, "scale": scale}
    )


# ----------------------------------------------------------------------
# failure_policy="continue": every other task finishes, report tells all
# ----------------------------------------------------------------------

def mixed_tasks(message="injected failure"):
    """A failing task between healthy ones, one of them seeded."""
    return [
        TaskSpec(key="healthy/a", fn=tasklib.ADD, config={"a": 1, "b": 1}),
        TaskSpec(key="boom", fn=tasklib.BOOM, config={"message": message}),
        TaskSpec(key="healthy/b", fn=tasklib.DRAW,
                 config={"seed": 5, "scale": 4.0}),
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_continue_policy_finishes_independent_subgraph(jobs):
    report = run_graph_report(
        mixed_tasks(), jobs=jobs, failure_policy="continue"
    )
    assert isinstance(report, RunReport)
    assert not report.ok
    assert report.results == run_graph(
        [mixed_tasks()[0], mixed_tasks()[2]], jobs=1
    )
    assert sorted(report.succeeded) == ["healthy/a", "healthy/b"]
    assert report.failed_keys == ["boom"]
    assert "RuntimeError" in report.failed[0].detail


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_graph_raises_even_under_continue_after_finishing(jobs):
    with pytest.raises(TaskError, match="boom"):
        run_graph(mixed_tasks(), jobs=jobs, failure_policy="continue")


def test_continue_report_renders_failures():
    report = run_graph_report(mixed_tasks(), failure_policy="continue")
    rendered = report.render()
    assert "2 succeeded, 1 failed" in rendered
    assert "FAILED  boom" in rendered
    assert "injected failure" in rendered


def test_invalid_failure_policy_rejected():
    tasks = [TaskSpec(key="t", fn=tasklib.ADD, config={"a": 1, "b": 1})]
    with pytest.raises(ValueError, match="failure_policy"):
        run_graph(tasks, failure_policy="best_effort")


@pytest.mark.parametrize("jobs", [1, 2])
def test_continue_policy_caches_survivors_for_resume(tmp_path, jobs):
    cache = ArtifactCache(tmp_path / f"cache{jobs}")
    report = run_graph_report(
        mixed_tasks(), jobs=jobs, cache=cache,
        failure_policy="continue",
    )
    assert not report.ok
    # Survivors are cached; the failed task wrote nothing.
    assert cache.stats().n_entries == 2
    stats = EngineTelemetry()
    warm = run_graph_report(
        mixed_tasks(), jobs=jobs, cache=cache,
        failure_policy="continue", telemetry=stats,
    )
    assert warm.results == report.results
    assert stats.n_cache_hits == 2


# ----------------------------------------------------------------------
# Prompt failure surfacing: a slow sibling never delays the TaskError,
# and an abort leaves no worker behind
# ----------------------------------------------------------------------

def test_failure_surfaces_promptly_despite_slow_sibling():
    tasks = [
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 0, "seconds": 5.0}),
        TaskSpec(key="doomed", fn=tasklib.BOOM),
    ]
    started = time.monotonic()
    with pytest.raises(TaskError, match="doomed"):
        run_graph(tasks, jobs=2)
    # Before cancel_futures + no-wait shutdown, the raise waited ~5s for
    # the sleeping sibling; now it must surface well inside that window.
    assert time.monotonic() - started < 3.0


_ABORT_PROBE = """
import multiprocessing

from repro.engine import TaskError, TaskSpec, run_graph
from tests.engine import tasklib

tasks = [
    TaskSpec(key="hung", fn=tasklib.HANG, config={"seconds": 30.0}),
    TaskSpec(key="doomed", fn=tasklib.BOOM),
]
try:
    run_graph(tasks, jobs=2, failure_policy="fail_fast")
    outcome = "returned"
except TaskError as error:
    outcome = "raised:" + error.key
print(outcome, len(multiprocessing.active_children()))
"""


def test_fail_fast_abort_kills_the_running_sibling_worker():
    """The hung sibling's worker does not sleep out its 30 s: the abort
    raises the doomed task's ``TaskError``, no child process is alive
    once ``run_graph`` raises, and the interpreter exits at once instead
    of waiting for the worker."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", _ABORT_PROBE],
        cwd=root, env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert time.monotonic() - started < 10.0
    assert probe.stdout.split() == ["raised:doomed", "0"]


# ----------------------------------------------------------------------
# Worker-process death: only the killer fails
# ----------------------------------------------------------------------

def test_worker_crash_fails_loudly_by_default():
    tasks = [TaskSpec(key="crash", fn=tasklib.CRASH)]
    with pytest.raises(TaskError, match="crash"):
        run_graph(tasks, jobs=2)


def test_worker_crash_under_continue_spares_other_tasks():
    tasks = [
        TaskSpec(key="crash", fn=tasklib.CRASH),
        TaskSpec(key="ok", fn=tasklib.ADD, config={"a": 2, "b": 2}),
    ]
    report = run_graph_report(tasks, jobs=2, failure_policy="continue")
    assert report.results["ok"] == 4
    assert "crash" in report.failed_keys


def test_worker_crash_does_not_charge_innocent_in_flight_siblings():
    """A dead worker poisons every in-flight future; the swept sibling
    is quarantined and re-run, so it still succeeds, while the crasher
    alone is reported failed."""
    tasks = [
        TaskSpec(key="crash", fn=tasklib.CRASH),
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 5, "seconds": 0.5}),
    ]
    stats = EngineTelemetry()
    report = run_graph_report(
        tasks, jobs=2, failure_policy="continue", telemetry=stats
    )
    assert report.results["slow"] == 5
    assert report.failed_keys == ["crash"]
    assert "worker process died" in report.failed[0].detail
    record = next(r for r in stats.records if r.key == "slow")
    assert record.outcome == OUTCOME_COMPUTED


def test_worker_crash_fail_fast_names_the_crasher_not_a_bystander():
    """Under fail_fast the TaskError must name the worker-killer, never
    an innocent sibling that happened to share the broken pool."""
    tasks = [
        TaskSpec(key="crash", fn=tasklib.CRASH),
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 1, "seconds": 0.5}),
    ]
    with pytest.raises(TaskError) as excinfo:
        run_graph(tasks, jobs=2)
    assert excinfo.value.key == "crash"


# ----------------------------------------------------------------------
# Resume: a crashed run's rerun recomputes only what is missing
# ----------------------------------------------------------------------

def grid_like_tasks(scratch, fail_times):
    """Ten independent tasks; one is flaky — a miniature sweep."""
    tasks = [
        TaskSpec(key=f"cell/{i}", fn=tasklib.DRAW,
                 config={"seed": 3, "scale": float(i + 1)})
        for i in range(9)
    ]
    tasks.append(flaky_spec(scratch, fail_times, key="cell/9"))
    return tasks


@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_after_crash_recomputes_only_missing_tasks(tmp_path, jobs):
    cache = ArtifactCache(tmp_path / f"cache{jobs}")
    scratch = tmp_path / f"scratch{jobs}"

    # "Crash": the flaky task fails its one attempt, but under the
    # continue policy the other nine tasks complete and are cached.
    first = run_graph_report(
        grid_like_tasks(scratch, fail_times=1),
        jobs=jobs, cache=cache, failure_policy="continue",
    )
    assert first.failed_keys == ["cell/9"]
    assert len(first.succeeded) == 9

    # Resume: replay the same tasks against the warm cache.  The flaky
    # task's injected failure is spent, so it now succeeds; everything
    # untouched is served warm (hit rate 0.9 of 10 tasks).
    stats = EngineTelemetry()
    resumed = run_graph(
        grid_like_tasks(scratch, fail_times=1),
        jobs=jobs, cache=cache, telemetry=stats,
    )
    assert stats.n_cache_hits == 9
    assert stats.n_computed == 1
    assert stats.hit_rate >= 0.9

    # And the resumed results are bit-identical to a clean, uncached run
    # where the task never failed at all.
    clean_tasks = [
        TaskSpec(key=f"cell/{i}", fn=tasklib.DRAW,
                 config={"seed": 3, "scale": float(i + 1)})
        for i in range(9)
    ] + [clean_draw_spec(key="cell/9")]
    clean = run_graph(clean_tasks, jobs=1)
    assert resumed == clean
