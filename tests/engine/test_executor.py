"""Executor contract: serial == parallel, faults fail loudly and cleanly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    MISS,
    ArtifactCache,
    TaskError,
    TaskSpec,
    cache_key,
    run_graph,
    run_graph_report,
)
from repro.engine.codeversion import code_version
from repro.telemetry.engine_stats import (
    OUTCOME_CACHE_HIT,
    OUTCOME_COMPUTED,
    OUTCOME_FAILED,
    EngineTelemetry,
)
from tests.engine import tasklib


def seeded_tasks() -> list[TaskSpec]:
    """Four draws, each seeded by its own config, beside a pure task."""
    return [
        TaskSpec(key="draw/a", fn=tasklib.DRAW,
                 config={"seed": 7, "scale": 2.0}),
        TaskSpec(key="draw/b", fn=tasklib.DRAW,
                 config={"seed": 8, "scale": 3.0}),
        TaskSpec(key="leaf", fn=tasklib.ADD, config={"a": 1, "b": 2}),
        TaskSpec(key="draw/c", fn=tasklib.DRAW, config={"seed": 9}),
        TaskSpec(key="draw/d", fn=tasklib.DRAW,
                 config={"seed": 7, "scale": 5.0}),
    ]


# ----------------------------------------------------------------------
# Determinism: scheduling never leaks into results
# ----------------------------------------------------------------------

def test_serial_and_parallel_results_bit_identical():
    serial = run_graph(seeded_tasks(), jobs=1)
    pooled = run_graph(seeded_tasks(), jobs=3)
    assert serial == pooled
    assert serial["leaf"] == 3
    first = float(np.random.default_rng(7).random())
    assert serial["draw/a"] == first * 2.0
    assert serial["draw/d"] == first * 5.0


def wide_tasks(width=40) -> list[TaskSpec]:
    """Many seeded draws — wide enough that the ready-queue discipline
    (FIFO deque) and the in-flight throttle actually matter."""
    return [
        TaskSpec(key=f"draw/{i:02d}", fn=tasklib.DRAW,
                 config={"seed": 11 + i, "scale": float(i % 7 + 1)})
        for i in range(width)
    ]


def test_ready_queue_order_never_leaks_into_results():
    """Results are invariant to scheduling: serial, and pools of several
    widths, all produce bit-identical values on a wide task list
    (pins the deque-based ready queue's FIFO behavior)."""
    serial = run_graph(wide_tasks(), jobs=1)
    for jobs in (2, 3, 5):
        assert run_graph(wide_tasks(), jobs=jobs) == serial


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(
    st.text(min_size=1, max_size=8), min_size=1, max_size=12, unique=True,
))
def test_jobs1_visits_tasks_in_list_order(keys):
    """Property: ``jobs=1`` runs any list of tasks exactly in list order,
    and reports and records them in that order."""
    visits: list[str] = []
    tasks = [
        TaskSpec(key=key, fn=tasklib.VISIT, config={"key": key},
                 payload=visits)
        for key in keys
    ]
    stats = EngineTelemetry()
    report = run_graph_report(tasks, jobs=1, telemetry=stats)
    assert visits == keys
    assert report.succeeded == keys
    assert [record.key for record in stats.records] == keys


def test_payload_is_shipped_to_workers_not_hashed():
    tasks = [
        TaskSpec(key="p", fn=tasklib.PAYLOAD_SIZE, payload=[10, 20, 30]),
    ]
    assert run_graph(tasks, jobs=2) == {"p": 3}


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_graph(seeded_tasks(), jobs=0)


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------

def test_warm_cache_rerun_hits_every_cacheable_task(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cold_stats = EngineTelemetry()
    cold = run_graph(
        seeded_tasks(), jobs=1, cache=cache, telemetry=cold_stats
    )
    assert cold_stats.n_computed == 5
    assert cold_stats.hit_rate == 0.0

    warm_stats = EngineTelemetry()
    warm = run_graph(
        seeded_tasks(), jobs=1, cache=cache, telemetry=warm_stats
    )
    assert warm == cold
    assert warm_stats.n_cache_hits == 5
    assert warm_stats.hit_rate == 1.0


def test_warm_cache_hits_short_circuit_the_pool(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cold = run_graph(seeded_tasks(), jobs=2, cache=cache)
    warm_stats = EngineTelemetry()
    warm = run_graph(
        seeded_tasks(), jobs=2, cache=cache, telemetry=warm_stats
    )
    assert warm == cold
    assert {r.outcome for r in warm_stats.records} == {OUTCOME_CACHE_HIT}


def test_non_cacheable_tasks_are_always_recomputed(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    tasks = [
        TaskSpec(
            key="t", fn=tasklib.ADD, config={"a": 1, "b": 1},
            cacheable=False,
        ),
    ]
    run_graph(tasks, jobs=1, cache=cache)
    stats = EngineTelemetry()
    run_graph(tasks, jobs=1, cache=cache, telemetry=stats)
    assert stats.n_computed == 1
    assert cache.stats().n_entries == 0


def test_corrupted_cache_entry_is_recomputed_transparently(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cold = run_graph(seeded_tasks(), jobs=1, cache=cache)
    # Damage every entry on disk.
    for path in cache.root.glob("*/*.json"):
        path.write_text(path.read_text()[:-8])
    stats = EngineTelemetry()
    warm = run_graph(seeded_tasks(), jobs=1, cache=cache, telemetry=stats)
    assert warm == cold
    assert stats.n_computed == 5
    assert cache.stats().n_entries == 5  # repopulated


# ----------------------------------------------------------------------
# Fault injection: failures are loud, attributed, and leave no debris
# ----------------------------------------------------------------------

def failing_tasks() -> list[TaskSpec]:
    """One doomed task after two busy siblings."""
    return [
        TaskSpec(
            key="ok/0", fn=tasklib.SLEEPY,
            config={"value": 0, "seconds": 0.02},
        ),
        TaskSpec(
            key="ok/1", fn=tasklib.SLEEPY,
            config={"value": 1, "seconds": 0.02},
        ),
        TaskSpec(
            key="doomed", fn=tasklib.BOOM,
            config={"message": "injected failure"},
        ),
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failure_raises_task_error_naming_the_task(jobs):
    with pytest.raises(TaskError) as excinfo:
        run_graph(failing_tasks(), jobs=jobs)
    assert excinfo.value.key == "doomed"
    assert excinfo.value.fn == tasklib.BOOM
    assert "injected failure" in excinfo.value.detail
    # The worker traceback is preserved for debugging.
    assert "RuntimeError" in excinfo.value.detail


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_task_writes_nothing_to_the_cache(tmp_path, jobs):
    cache = ArtifactCache(tmp_path / "cache")
    with pytest.raises(TaskError):
        run_graph(failing_tasks(), jobs=jobs, cache=cache)
    # Only tasks that *succeeded before the failure surfaced* may have
    # entries; the doomed task never appears, and no temp files are left
    # behind by interrupted writes.
    entries = [p.name for p in cache.root.glob("*/*.json")]
    assert len(entries) <= 2
    assert list(cache.root.rglob("*.tmp")) == []
    doomed = failing_tasks()[-1]
    artifact = cache_key(
        fn=doomed.fn, config=doomed.config, code_version=code_version()
    )
    assert cache.get(artifact) is MISS
    # Re-running against the same cache still fails (nothing poisoned
    # the cache into serving a result for the doomed task).
    with pytest.raises(TaskError):
        run_graph(failing_tasks(), jobs=jobs, cache=cache)


def test_failure_cancels_pending_work_and_does_not_hang():
    """A failing task among slow siblings aborts promptly at jobs=2;
    completing at all (under the suite timeout) is the no-hang check."""
    tasks = [
        TaskSpec(
            key=f"slow/{i}", fn=tasklib.SLEEPY,
            config={"value": i, "seconds": 0.05},
        )
        for i in range(6)
    ] + [TaskSpec(key="doomed", fn=tasklib.BOOM)]
    with pytest.raises(TaskError, match="doomed"):
        run_graph(tasks, jobs=2)


@pytest.mark.parametrize("policy", ["fail_fast", "continue"])
def test_keyboard_interrupt_in_a_task_propagates_at_jobs1(policy):
    """Ctrl-C inside an in-process task is not a task failure: it leaves
    ``run_graph`` as ``KeyboardInterrupt``, never as ``TaskError``, and
    no later task runs."""
    visits: list[str] = []
    tasks = [
        TaskSpec(key="ctrl-c", fn=tasklib.INTERRUPT),
        TaskSpec(key="later", fn=tasklib.VISIT, config={"key": "later"},
                 payload=visits),
    ]
    with pytest.raises(KeyboardInterrupt):
        run_graph(tasks, jobs=1, failure_policy=policy)
    assert visits == []


def test_telemetry_still_counts_tasks_finished_before_the_failure():
    stats = EngineTelemetry()
    with pytest.raises(TaskError):
        run_graph(failing_tasks(), jobs=1, telemetry=stats)
    # Serial order: ok/0 and ok/1 complete before doomed raises, and the
    # doomed task itself gets a 'failed' record.
    assert stats.n_computed == 2
    assert stats.n_failed == 1
    assert {r.outcome for r in stats.records} == {
        OUTCOME_COMPUTED, OUTCOME_FAILED,
    }


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------

def test_telemetry_records_outcomes_timings_and_render(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    run_graph(seeded_tasks(), jobs=1, cache=cache)
    stats = EngineTelemetry()
    run_graph(seeded_tasks(), jobs=2, cache=cache, telemetry=stats)
    assert stats.n_tasks == 5
    assert stats.n_cache_hits == 5
    assert stats.busy_seconds >= 0.0
    assert stats.wall_seconds > 0.0
    assert len(stats.slowest(3)) == 3
    rendered = stats.render()
    assert "cache" in rendered
