"""Fault-injection suite: retries, timeouts, failure policies, resume.

The engine's hardened failure contract, enforced at ``jobs=1`` and on
the pool path:

* a flaky task (fails, then succeeds) completes under retry with results
  bit-identical to a never-failing run;
* retry schedules are deterministic (exponential backoff + seeded
  jitter);
* a hanging task trips its wall-clock timeout on the pool path, and its
  worker is killed rather than left running; ``jobs=1`` never enforces
  a timeout;
* ``failure_policy="continue"`` finishes every independent task, skips
  the failed subgraph transitively, and reports it in a ``RunReport``;
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
    TaskGraph,
    TaskSpec,
    TaskTimeout,
    derive_task_seeds,
    retry_delay,
    run_graph,
    run_graph_report,
)
from repro.telemetry.engine_stats import (
    OUTCOME_CACHE_HIT,
    OUTCOME_COMPUTED,
    EngineTelemetry,
)
from tests.engine import tasklib


def flaky_spec(scratch, fail_times, max_retries, key="flaky", scale=2.0):
    return TaskSpec(
        key=key,
        fn=tasklib.FLAKY_DRAW,
        config={
            "scratch": str(scratch), "fail_times": fail_times,
            "scale": scale,
        },
        max_retries=max_retries,
        retry_delay=0.001,
    )


def clean_draw_spec(key="flaky", scale=2.0):
    """The never-failing twin of ``flaky_spec`` (same key -> same seed)."""
    return TaskSpec(key=key, fn=tasklib.DRAW, config={"scale": scale})


# ----------------------------------------------------------------------
# Retries: flaky tasks succeed, bit-identical to a clean run
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_flaky_task_succeeds_under_retry_bit_identical(tmp_path, jobs):
    stats = EngineTelemetry()
    flaky = run_graph(
        TaskGraph([
            flaky_spec(tmp_path / f"scratch{jobs}", 2, 3),
            TaskSpec(key="sum", fn=tasklib.TOTAL, deps=("flaky",)),
        ]),
        jobs=jobs, root_seed=7, telemetry=stats,
    )
    clean = run_graph(
        TaskGraph([
            clean_draw_spec(),
            TaskSpec(key="sum", fn=tasklib.TOTAL, deps=("flaky",)),
        ]),
        jobs=1, root_seed=7,
    )
    # Two failures, then success on the third attempt — and the result
    # is exactly what a never-failing task computes from the same seed.
    assert flaky == clean
    record = next(r for r in stats.records if r.key == "flaky")
    assert record.outcome == OUTCOME_COMPUTED
    assert record.retries == 2
    assert stats.total_retries == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_retries_exhausted_raises_task_error_with_attempts(tmp_path, jobs):
    graph = TaskGraph([flaky_spec(tmp_path / f"s{jobs}", fail_times=5,
                                  max_retries=2)])
    with pytest.raises(TaskError) as excinfo:
        run_graph(graph, jobs=jobs, root_seed=7)
    assert excinfo.value.key == "flaky"
    assert excinfo.value.attempts == 3
    assert "flaky failure 3/5" in excinfo.value.detail


def test_jobs1_runs_other_ready_tasks_while_one_backs_off(tmp_path):
    """At ``jobs=1`` a retrying task does not hold up its siblings: the
    task declared after it runs during its backoff, and the retried
    result is still bit-identical to a never-failing run."""
    visits: list[str] = []
    flaky = TaskSpec(
        key="flaky", fn=tasklib.FLAKY_DRAW,
        config={"scratch": str(tmp_path), "fail_times": 1, "scale": 2.0},
        max_retries=1, retry_delay=0.2,
    )
    other = TaskSpec(key="other", fn=tasklib.VISIT,
                     config={"key": "other"}, payload=visits)
    report = run_graph_report(TaskGraph([flaky, other]), jobs=1,
                              root_seed=7)
    assert report.succeeded == ["other", "flaky"]
    assert visits == ["other"]
    clean = run_graph(TaskGraph([clean_draw_spec(), other]), jobs=1,
                      root_seed=7)
    assert report.results["flaky"] == clean["flaky"]


def test_retried_success_is_cached_and_warm_replay_matches(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    graph = [flaky_spec(tmp_path / "scratch", 1, 2)]
    cold = run_graph(TaskGraph(graph), jobs=1, cache=cache, root_seed=7)
    stats = EngineTelemetry()
    warm = run_graph(
        TaskGraph(graph), jobs=1, cache=cache, root_seed=7, telemetry=stats
    )
    assert warm == cold
    assert stats.n_cache_hits == 1


def test_retry_delays_are_deterministic_and_exponential():
    spec = TaskSpec(key="t", fn=tasklib.ADD, max_retries=5,
                    retry_delay=0.1)
    seed = derive_task_seeds(0, ["t"])["t"]
    delays = [retry_delay(spec, seed, attempt) for attempt in range(4)]
    again = [retry_delay(spec, seed, attempt) for attempt in range(4)]
    assert delays == again  # reproducible schedule
    for attempt, delay in enumerate(delays):
        base = 0.1 * 2 ** attempt
        assert 0.5 * base <= delay < 1.5 * base  # jitter stays bounded
    other = derive_task_seeds(0, ["t", "u"])["u"]
    assert retry_delay(spec, other, 0) != delays[0]  # de-synchronized


# ----------------------------------------------------------------------
# Timeouts: hung tasks are bounded on the pool path
# ----------------------------------------------------------------------

def test_hanging_task_trips_timeout_promptly():
    graph = TaskGraph([
        TaskSpec(key="hung", fn=tasklib.HANG,
                 config={"seconds": 30.0}, timeout=0.3),
        TaskSpec(key="ok", fn=tasklib.ADD, config={"a": 1, "b": 2}),
    ])
    started = time.monotonic()
    with pytest.raises(TaskTimeout) as excinfo:
        run_graph(graph, jobs=2, root_seed=0)
    elapsed = time.monotonic() - started
    assert excinfo.value.key == "hung"
    assert "timeout" in excinfo.value.detail
    assert elapsed < 10.0  # far below the 30s hang


_HUNG_WORKER_PROBE = """
import multiprocessing
import sys

from repro.engine import TaskGraph, TaskSpec, TaskTimeout, run_graph_report
from tests.engine import tasklib

graph = TaskGraph([TaskSpec(key="hung", fn=tasklib.HANG,
                            config={"seconds": 30.0}, timeout=0.3)])
try:
    outcome = run_graph_report(
        graph, jobs=2, failure_policy=sys.argv[1]
    ).failed[0].kind
except TaskTimeout:
    outcome = "raised"
print(outcome, len(multiprocessing.active_children()))
"""


@pytest.mark.parametrize(
    "policy, outcome", [("fail_fast", "raised"), ("continue", "timeout")]
)
def test_timed_out_worker_is_killed_before_the_run_ends(policy, outcome):
    """The hung worker does not sleep out its 30 s: no child process is
    alive once ``run_graph_report`` returns or raises, and the
    interpreter exits at once instead of waiting for the worker."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", _HUNG_WORKER_PROBE, policy],
        cwd=root, env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert time.monotonic() - started < 10.0
    assert probe.stdout.split() == [outcome, "0"]


def test_jobs1_never_enforces_timeouts():
    """The in-process executor cannot interrupt a call, so a task that
    outlives its budget at ``jobs=1`` still completes."""
    graph = TaskGraph([
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 4, "seconds": 0.5}, timeout=0.2),
    ])
    stats = EngineTelemetry()
    assert run_graph(graph, jobs=1, telemetry=stats) == {"slow": 4}
    assert stats.n_timeouts == 0


def test_timeout_under_continue_finishes_independent_tasks():
    graph = TaskGraph([
        TaskSpec(key="hung", fn=tasklib.HANG,
                 config={"seconds": 30.0}, timeout=0.3),
        TaskSpec(key="after-hung", fn=tasklib.TOTAL, deps=("hung",)),
        TaskSpec(key="ok/0", fn=tasklib.ADD, config={"a": 1, "b": 2}),
        TaskSpec(key="ok/1", fn=tasklib.ADD, config={"a": 2, "b": 3}),
    ])
    stats = EngineTelemetry()
    report = run_graph_report(
        graph, jobs=2, root_seed=0, failure_policy="continue",
        telemetry=stats,
    )
    assert report.results["ok/0"] == 3
    assert report.results["ok/1"] == 5
    assert report.failed_keys == ["hung"]
    assert report.failed[0].kind == "timeout"
    assert report.skipped_keys == ["after-hung"]
    assert stats.n_timeouts == 1
    assert stats.n_skipped == 1


def test_fast_tasks_with_timeouts_never_trip_them():
    graph = TaskGraph([
        TaskSpec(key=f"quick/{i}", fn=tasklib.ADD,
                 config={"a": i, "b": 1}, timeout=30.0)
        for i in range(6)
    ])
    results = run_graph(graph, jobs=2)
    assert results == {f"quick/{i}": i + 1 for i in range(6)}


def test_queued_tasks_never_burn_timeout_budget_while_waiting():
    """Six 0.4s tasks, two workers, 1.0s timeout each: the last pair
    only *starts* ~0.8s in.  The deadline must start when the attempt
    reaches a free worker (submissions are throttled to ``jobs``
    in-flight futures), so queue-wait is never billed against the
    task's wall-clock budget and nothing falsely times out."""
    graph = TaskGraph([
        TaskSpec(key=f"busy/{i}", fn=tasklib.SLEEPY,
                 config={"value": i, "seconds": 0.4}, timeout=1.0)
        for i in range(6)
    ])
    results = run_graph(graph, jobs=2, root_seed=0)
    assert results == {f"busy/{i}": i for i in range(6)}


def test_timeout_harvest_charges_completed_sibling_failures(
    tmp_path, monkeypatch
):
    """A sibling that *finished failing* while a timeout was being
    processed is charged its attempt in the harvest — not requeued for
    a free extra retry (which would also re-execute it)."""
    from repro.engine import executor as executor_mod

    real_wait = executor_mod.wait

    def stalling_wait(fs, timeout=None, return_when=None):
        outcome = real_wait(fs, timeout=timeout, return_when=return_when)
        if not outcome.done:
            # Hold the scheduler through the timeout expiry long enough
            # for the delayed failer to finish, so the harvest sees a
            # done-with-exception future.
            time.sleep(1.5)
        return outcome

    monkeypatch.setattr(executor_mod, "wait", stalling_wait)
    scratch = tmp_path / "failer-runs"
    graph = TaskGraph([
        TaskSpec(key="hung", fn=tasklib.HANG,
                 config={"seconds": 30.0}, timeout=0.3),
        TaskSpec(key="failer", fn=tasklib.DELAYED_BOOM,
                 config={"seconds": 0.5, "scratch": str(scratch)}),
    ])
    report = run_graph_report(
        graph, jobs=2, root_seed=0, failure_policy="continue"
    )
    failures = {failure.key: failure for failure in report.failed}
    assert failures["hung"].kind == "timeout"
    assert failures["failer"].kind == "error"
    assert failures["failer"].attempts == 1
    # Exactly one execution: the completed failure was settled by the
    # harvest, not silently rerun on the fresh pool.
    assert len(list(scratch.iterdir())) == 1


# ----------------------------------------------------------------------
# failure_policy="continue": independent subgraphs finish, report tells all
# ----------------------------------------------------------------------

def branchy_graph(message="injected failure"):
    """A failing branch (boom -> mid -> leaf) beside a healthy one."""
    return TaskGraph([
        TaskSpec(key="boom", fn=tasklib.BOOM, config={"message": message}),
        TaskSpec(key="mid", fn=tasklib.TOTAL, deps=("boom",)),
        TaskSpec(key="leaf", fn=tasklib.TOTAL, deps=("mid",)),
        TaskSpec(key="healthy/a", fn=tasklib.ADD, config={"a": 1, "b": 1}),
        TaskSpec(key="healthy/b", fn=tasklib.TOTAL, deps=("healthy/a",)),
    ])


@pytest.mark.parametrize("jobs", [1, 2])
def test_continue_policy_finishes_independent_subgraph(jobs):
    report = run_graph_report(
        branchy_graph(), jobs=jobs, failure_policy="continue"
    )
    assert isinstance(report, RunReport)
    assert not report.ok
    assert report.results == {"healthy/a": 2, "healthy/b": 2}
    assert sorted(report.succeeded) == ["healthy/a", "healthy/b"]
    assert report.failed_keys == ["boom"]
    assert report.failed[0].attempts == 1
    assert "RuntimeError" in report.failed[0].detail
    assert sorted(report.skipped_keys) == ["leaf", "mid"]
    for skip in report.skipped:
        assert skip.detail == "upstream task 'boom' error"


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_graph_raises_even_under_continue_after_finishing(jobs):
    with pytest.raises(TaskError, match="boom"):
        run_graph(branchy_graph(), jobs=jobs, failure_policy="continue")


def test_continue_report_renders_failures_and_skips():
    report = run_graph_report(branchy_graph(), failure_policy="continue")
    rendered = report.render()
    assert "2 succeeded, 1 failed, 2 skipped" in rendered
    assert "FAILED  boom" in rendered
    assert "injected failure" in rendered
    assert "skipped mid" in rendered


def test_invalid_failure_policy_rejected():
    graph = TaskGraph([TaskSpec(key="t", fn=tasklib.ADD,
                                config={"a": 1, "b": 1})])
    with pytest.raises(ValueError, match="failure_policy"):
        run_graph(graph, failure_policy="best_effort")


@pytest.mark.parametrize("jobs", [1, 2])
def test_skipped_dependent_with_one_live_parent_never_executes(
    tmp_path, jobs
):
    """Diamond bottom under ``continue``: one parent dies instantly (the
    dependent is reported skipped right then), the other finishes later
    and decrements the dependent's dependency countdown.  The dead-key
    launch filter is the only guard against re-running an
    already-reported-skipped task: it must execute zero times and appear
    exactly once in ``report.skipped``."""
    scratch = tmp_path / f"bottom-runs-{jobs}"
    graph = TaskGraph([
        TaskSpec(key="boom", fn=tasklib.BOOM),
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 3, "seconds": 0.4}),
        TaskSpec(key="bottom", fn=tasklib.RECORD_RUN,
                 config={"scratch": str(scratch)},
                 deps=("boom", "slow")),
    ])
    report = run_graph_report(graph, jobs=jobs, failure_policy="continue")
    assert report.results["slow"] == 3
    assert report.failed_keys == ["boom"]
    assert report.skipped_keys == ["bottom"]
    assert not scratch.exists()  # zero executions recorded


@pytest.mark.parametrize("jobs", [1, 2])
def test_continue_policy_caches_survivors_for_resume(tmp_path, jobs):
    cache = ArtifactCache(tmp_path / f"cache{jobs}")
    report = run_graph_report(
        branchy_graph(), jobs=jobs, cache=cache,
        failure_policy="continue",
    )
    assert not report.ok
    # Survivors are cached; the dead subgraph wrote nothing.
    assert cache.stats().n_entries == 2


# ----------------------------------------------------------------------
# Prompt failure surfacing: a slow sibling never delays the TaskError
# ----------------------------------------------------------------------

def test_failure_surfaces_promptly_despite_slow_sibling():
    graph = TaskGraph([
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 0, "seconds": 5.0}),
        TaskSpec(key="doomed", fn=tasklib.BOOM),
    ])
    started = time.monotonic()
    with pytest.raises(TaskError, match="doomed"):
        run_graph(graph, jobs=2)
    # Before cancel_futures + no-wait shutdown, the raise waited ~5s for
    # the sleeping sibling; now it must surface well inside that window.
    assert time.monotonic() - started < 3.0


# ----------------------------------------------------------------------
# Worker-process death: BrokenProcessPool is survivable under retry
# ----------------------------------------------------------------------

def test_worker_crash_fails_loudly_by_default():
    graph = TaskGraph([TaskSpec(key="crash", fn=tasklib.CRASH)])
    with pytest.raises(TaskError, match="crash"):
        run_graph(graph, jobs=2, root_seed=0)


def test_worker_crash_under_continue_spares_other_tasks():
    graph = TaskGraph([
        TaskSpec(key="crash", fn=tasklib.CRASH),
        TaskSpec(key="ok", fn=tasklib.ADD, config={"a": 2, "b": 2}),
    ])
    report = run_graph_report(
        graph, jobs=2, root_seed=0, failure_policy="continue"
    )
    assert report.results["ok"] == 4
    assert "crash" in report.failed_keys


def test_worker_crash_does_not_charge_innocent_in_flight_siblings():
    """A dead worker poisons every in-flight future; the swept sibling
    must be requeued *uncharged* — with max_retries=0 it still succeeds
    — while the crasher alone is charged and reported."""
    graph = TaskGraph([
        TaskSpec(key="crash", fn=tasklib.CRASH),
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 5, "seconds": 0.5}),
    ])
    stats = EngineTelemetry()
    report = run_graph_report(
        graph, jobs=2, root_seed=0, failure_policy="continue",
        telemetry=stats,
    )
    assert report.results["slow"] == 5
    assert report.failed_keys == ["crash"]
    assert report.failed[0].attempts == 1
    assert "worker process died" in report.failed[0].detail
    record = next(r for r in stats.records if r.key == "slow")
    assert record.outcome == OUTCOME_COMPUTED
    assert record.retries == 0


def test_worker_crash_fail_fast_names_the_crasher_not_a_bystander():
    """Under fail_fast the TaskError must name the worker-killer, never
    an innocent sibling that happened to share the broken pool."""
    graph = TaskGraph([
        TaskSpec(key="crash", fn=tasklib.CRASH),
        TaskSpec(key="slow", fn=tasklib.SLEEPY,
                 config={"value": 1, "seconds": 0.5}),
    ])
    with pytest.raises(TaskError) as excinfo:
        run_graph(graph, jobs=2, root_seed=0)
    assert excinfo.value.key == "crash"


def test_worker_crash_recovers_under_retry_bit_identical(tmp_path):
    """A task that kills its worker twice then succeeds completes under
    retry, bit-identical to a never-crashing run with the same seed."""
    stats = EngineTelemetry()
    crashing = run_graph(
        TaskGraph([TaskSpec(
            key="flaky", fn=tasklib.FLAKY_CRASH,
            config={
                "scratch": str(tmp_path / "crashes"),
                "fail_times": 2, "scale": 2.0,
            },
            max_retries=2, retry_delay=0.001,
        )]),
        jobs=2, root_seed=7, telemetry=stats,
    )
    clean = run_graph(
        TaskGraph([clean_draw_spec()]), jobs=1, root_seed=7
    )
    assert crashing == clean
    record = next(r for r in stats.records if r.key == "flaky")
    assert record.outcome == OUTCOME_COMPUTED
    assert record.retries == 2


# ----------------------------------------------------------------------
# Resume: a crashed run's rerun recomputes only what is missing
# ----------------------------------------------------------------------

def grid_like_graph(scratch, fail_times, max_retries):
    """Ten independent tasks; one is flaky — a miniature sweep."""
    tasks = [
        TaskSpec(key=f"cell/{i}", fn=tasklib.DRAW,
                 config={"scale": float(i + 1)})
        for i in range(9)
    ]
    tasks.append(flaky_spec(scratch, fail_times, max_retries, key="cell/9"))
    return TaskGraph(tasks)


@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_after_crash_recomputes_only_missing_tasks(tmp_path, jobs):
    cache = ArtifactCache(tmp_path / f"cache{jobs}")
    scratch = tmp_path / f"scratch{jobs}"

    # "Crash": the flaky task fails with no retry budget, but under the
    # continue policy the other nine tasks complete and are cached.
    first = run_graph_report(
        grid_like_graph(scratch, fail_times=1, max_retries=0),
        jobs=jobs, cache=cache, root_seed=3, failure_policy="continue",
    )
    assert first.failed_keys == ["cell/9"]
    assert len(first.succeeded) == 9

    # Resume: replay the same graph against the warm cache.  The flaky
    # task's failure budget is spent, so it now succeeds; everything
    # untouched is served warm (hit rate 0.9 of 10 tasks).
    stats = EngineTelemetry()
    resumed = run_graph(
        grid_like_graph(scratch, fail_times=1, max_retries=0),
        jobs=jobs, cache=cache, root_seed=3, telemetry=stats,
    )
    assert stats.n_cache_hits == 9
    assert stats.n_computed == 1
    assert stats.hit_rate >= 0.9

    # And the resumed results are bit-identical to a clean, uncached run
    # where the task never failed at all.
    clean_tasks = [
        TaskSpec(key=f"cell/{i}", fn=tasklib.DRAW,
                 config={"scale": float(i + 1)})
        for i in range(9)
    ] + [clean_draw_spec(key="cell/9")]
    clean = run_graph(TaskGraph(clean_tasks), jobs=1, root_seed=3)
    assert resumed == clean
