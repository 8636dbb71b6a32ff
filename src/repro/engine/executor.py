"""The executor: one scheduler runs a list of tasks at every ``jobs`` value.

Tasks are independent: each is a pure function ``fn(config, payload)``.
The scheduler launches them in list order and keeps at most ``jobs`` in
flight.  Only the executor it submits to depends on ``jobs``: at
``jobs=1`` an in-process executor runs each task in the calling process
at submit time and returns an already settled future, so tasks run in
list order; at ``jobs>1`` a ``ProcessPoolExecutor`` runs each task in a
worker.

Determinism contract: a task's result depends only on its (config,
payload) — never on scheduling.  A task that draws random numbers seeds
them from ``config``, so adding workers, reordering completions, or
resuming from a warm cache cannot change any task's random stream.  Both
executors run the identical task function, and every cacheable result is
normalized through the canonical JSON round-trip *inside the task run
itself*, so cold computes and warm-cache replays are bit-identical —
which is what the golden-result suite pins — and a cacheable task that
returns a non-JSON-serializable value fails like any other task (the
failure policy applies; mark the task ``cacheable=False`` to return
arbitrary objects).

Failure contract: each task gets exactly one attempt and no wall-clock
budget.  By the determinism contract a second attempt would re-run the
same inputs and raise again, so a retry cannot help.  When a worker
*dies* (``BrokenProcessPool``) every in-flight future is poisoned and
the scheduler cannot tell the killer from bystanders: the pool is
rebuilt and all victims are quarantined to re-run one at a time, so a
repeat crash happens with exactly one task in flight and only that task
fails.  The in-process executor never breaks,
so at ``jobs=1`` no task is quarantined and no pool is rebuilt.  What
happens after a task fails is the run's ``failure_policy``:

* ``"fail_fast"`` (default, the historical behavior): abort immediately
  with a :class:`TaskError` naming the task and carrying the worker
  traceback.  Queued siblings are cancelled and running ones killed, so
  the error surfaces promptly even behind a slow task (a sibling's
  result would be discarded anyway).
* ``"continue"``: record the failure and run every other task.
  :func:`run_graph_report` then returns a :class:`RunReport` listing
  succeeded and failed tasks with per-task tracebacks.

No worker outlives :func:`run_graph_report`, whether it returns or
raises.  Either way a failed task writes nothing to the cache (writes
happen only after success, atomically), so ``repro sweep --resume`` can
replay the tasks against the warm cache and recompute only missing or
failed tasks.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine.cache import MISS, ArtifactCache
from repro.engine.codeversion import code_version
from repro.engine.hashing import cache_key, canonical_result
from repro.engine.spec import TaskSpec, resolve_callable
from repro.telemetry.engine_stats import (
    OUTCOME_CACHE_HIT,
    OUTCOME_COMPUTED,
    OUTCOME_FAILED,
    EngineTelemetry,
)

FAIL_FAST = "fail_fast"
CONTINUE = "continue"
FAILURE_POLICIES = (FAIL_FAST, CONTINUE)


def check_jobs(jobs: int) -> int:
    """Return ``jobs`` if it is a worker count of at least 1, else raise.

    The one check behind every entry point's ``jobs`` argument, the
    CLI's ``--jobs`` and :class:`~repro.engine.options.EngineOptions`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def check_failure_policy(failure_policy: str) -> str:
    """Return ``failure_policy`` if it names a policy, else raise."""
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {FAILURE_POLICIES}, "
            f"got {failure_policy!r}"
        )
    return failure_policy


class TaskError(RuntimeError):
    """A task failed; carries the task key and the worker's traceback."""

    def __init__(self, key: str, fn: str, detail: str):
        self.key = key
        self.fn = fn
        self.detail = detail
        super().__init__(f"task {key!r} ({fn}) failed:\n{detail}")


@dataclass(frozen=True)
class TaskFailure:
    """One task that raised, or whose worker died."""

    key: str
    fn: str
    detail: str
    """The task's traceback, or how its worker died."""


@dataclass
class RunReport:
    """The full outcome of one run.

    ``results`` holds every produced result (cache hits included);
    ``failed`` carries a :class:`TaskFailure` per failed task.
    ``succeeded + failed`` covers every task (unless a ``fail_fast``
    abort cut the run short).
    """

    succeeded: list[str] = field(default_factory=list)
    failed: list[TaskFailure] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def failed_keys(self) -> list[str]:
        return [failure.key for failure in self.failed]

    def raise_if_failed(self) -> None:
        """Re-raise the first failure as a :class:`TaskError`."""
        if not self.failed:
            return
        first = self.failed[0]
        raise TaskError(first.key, first.fn, first.detail)

    def render(self) -> str:
        """Human-readable summary with one line per failed task."""
        lines = [
            f"run report: {len(self.succeeded)} succeeded, "
            f"{len(self.failed)} failed"
        ]
        for failure in self.failed:
            last = failure.detail.strip().splitlines()[-1:]
            lines.append(
                f"  FAILED  {failure.key} ({failure.fn}): "
                f"{last[0] if last else ''}"
            )
        return "\n".join(lines)


def _execute(
    fn_path: str,
    config: dict,
    payload: Any,
    canonicalize: bool = False,
) -> tuple[Any, float]:
    """Run one task (in a worker or inline); returns (result, seconds).

    ``canonicalize`` (set for cacheable tasks) round-trips the result
    through the canonical JSON encoding *inside* the task run, so a
    non-serializable result is an ordinary task failure — captured and
    subject to the run's failure policy like any exception the task body
    raises — at every ``jobs`` value, whether or not a cache is attached.
    """
    started = time.perf_counter()
    fn = resolve_callable(fn_path)
    result = fn(config=config, payload=payload)
    if canonicalize:
        result = canonical_result(result)
    return result, time.perf_counter() - started


def _format_error(error: BaseException) -> str:
    """The full traceback string for an exception object."""
    return "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def run_graph(
    tasks: Sequence[TaskSpec],
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    telemetry: EngineTelemetry | None = None,
    failure_policy: str = FAIL_FAST,
) -> dict[str, Any]:
    """Execute every task; returns ``{task key: result}``.

    Raises :class:`TaskError` if any task failed — under
    ``failure_policy="continue"`` only after every other task has
    finished (and cached its result, which is what makes a subsequent
    ``--resume`` cheap).  Callers that need the partial results and the
    failure breakdown use :func:`run_graph_report`.
    """
    report = run_graph_report(
        tasks,
        jobs=jobs,
        cache=cache,
        telemetry=telemetry,
        failure_policy=failure_policy,
    )
    report.raise_if_failed()
    return report.results


def run_graph_report(
    tasks: Sequence[TaskSpec],
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    telemetry: EngineTelemetry | None = None,
    failure_policy: str = FAIL_FAST,
) -> RunReport:
    """Execute the tasks and report per-task outcomes.

    Every ``jobs`` value runs on the same scheduler: ``jobs=1`` runs each
    task in the calling process (never starting a process pool);
    ``jobs>1`` runs tasks on a ``ProcessPoolExecutor``.  Either way,
    cacheable tasks are first looked up in ``cache`` (missing/corrupt
    entries are recomputed) and stored after success.  Under
    ``failure_policy="fail_fast"`` the first failure raises; under
    ``"continue"`` failures land in the returned :class:`RunReport`
    instead.  A key that appears twice raises ``ValueError`` before any
    task runs.
    """
    check_jobs(jobs)
    check_failure_policy(failure_policy)
    specs: dict[str, TaskSpec] = {}
    for task in tasks:
        if task.key in specs:
            raise ValueError(f"duplicate task key {task.key!r}")
        specs[task.key] = task
    version = code_version() if cache is not None else ""
    telemetry = telemetry if telemetry is not None else EngineTelemetry()
    report = RunReport()
    started = time.perf_counter()
    try:
        _schedule(
            specs, cache, version, report, telemetry, jobs, failure_policy
        )
    finally:
        telemetry.wall_seconds += time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _try_cache(
    task: TaskSpec, cache: ArtifactCache | None, version: str
) -> tuple[str | None, Any]:
    """(artifact key or None, cached result or MISS)."""
    if cache is None or not task.cacheable:
        return None, MISS
    key = cache_key(fn=task.fn, config=task.config, code_version=version)
    return key, cache.get(key)


class _InProcessExecutor:
    """The ``jobs=1`` executor: ``submit`` runs the call right away.

    It returns an already-settled future, so the scheduler never waits
    on it and never sees a broken pool.  Only ``Exception`` is captured:
    ``KeyboardInterrupt`` propagates out of ``submit`` as it would from
    any inline call.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        del wait, cancel_futures


def _new_executor(jobs: int) -> _InProcessExecutor | ProcessPoolExecutor:
    if jobs == 1:
        return _InProcessExecutor()
    return ProcessPoolExecutor(max_workers=jobs)


def _shutdown_now(pool: _InProcessExecutor | ProcessPoolExecutor) -> None:
    """Kill every worker process of ``pool``, then shut it down.

    Killing is what stops a running task: ``shutdown`` alone lets a
    running call finish, so a live worker would outlive the run and hold
    up interpreter exit.  The workers are read before ``shutdown``, which
    drops the pool's worker table; once it returns, the pool's manager
    thread has reaped every killed worker.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)


def _schedule(
    specs, cache, version, report, telemetry, jobs, failure_policy
) -> None:
    ready = deque(specs)
    results = report.results
    artifact_keys: dict[str, str] = {}
    # Tasks swept off a broken pool (worker death poisons every in-flight
    # future, so guilt is unattributable).  They re-run strictly one at a
    # time: a repeat crash then has a single possible culprit.
    quarantine: deque[str] = deque()

    def _settle_failure(key: str, detail: str, error: BaseException) -> None:
        """Settle a failed task, whatever failed it, per the policy."""
        task = specs[key]
        telemetry.record(key, task.fn, 0.0, OUTCOME_FAILED)
        if failure_policy == FAIL_FAST:
            raise TaskError(key, task.fn, detail) from error
        report.failed.append(TaskFailure(key, task.fn, detail))

    def _finish_success(key: str, result: Any, seconds: float) -> None:
        task = specs[key]
        results[key] = result
        if task.cacheable and cache is not None:
            cache.put(artifact_keys[key], result)
        report.succeeded.append(key)
        telemetry.record(key, task.fn, seconds, OUTCOME_COMPUTED)

    def _launch(key: str) -> None:
        """Cache-check ``key`` and submit it to the pool on a miss."""
        task = specs[key]
        artifact_key, cached = _try_cache(task, cache, version)
        if artifact_key is not None:
            artifact_keys[key] = artifact_key
        if cached is not MISS:
            results[key] = cached
            report.succeeded.append(key)
            telemetry.record(key, task.fn, 0.0, OUTCOME_CACHE_HIT)
            return
        future = pool.submit(
            _execute, task.fn, task.config, task.payload, task.cacheable
        )
        futures[future] = key

    pool = _new_executor(jobs)
    futures: dict[Future, str] = {}
    try:
        while ready or quarantine or futures:
            # Launch work.  Quarantined suspects run strictly alone so
            # the next worker death has a single possible culprit; while
            # any are pending, nothing else is submitted.  Normal
            # launches are throttled to at most ``jobs`` in-flight
            # futures, so a worker death poisons only tasks that were
            # running and ``jobs=1`` settles each task before launching
            # the next.  Cache hits short-circuit without touching the
            # pool.
            while quarantine and not futures:
                _launch(quarantine.popleft())
            if not quarantine:
                while ready and len(futures) < jobs:
                    _launch(ready.popleft())
            if not futures:
                continue

            # An in-process future is settled at submit, so it is done
            # here at once.
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            broken: list[tuple[str, BaseException]] = []
            for future in done:
                key = futures.pop(future)
                error = future.exception()
                if error is None:
                    result, seconds = future.result()
                    _finish_success(key, result, seconds)
                elif isinstance(error, BrokenProcessPool):
                    broken.append((key, error))
                else:
                    _settle_failure(key, _format_error(error), error)
            if broken:
                # A dead worker poisons every in-flight future with
                # BrokenProcessPool, so the scheduler cannot tell the
                # worker-killer from innocent bystanders.  With several
                # victims, sweep them all off the dead pool and
                # quarantine them: the launch loop re-runs suspects one
                # at a time, so a repeat crash lands in the single-victim
                # branch below and fails only the killer, while each
                # bystander still gets its one complete run.
                victims = [key for key, _ in broken]
                victims.extend(futures.values())
                futures.clear()
                _shutdown_now(pool)
                pool = _new_executor(jobs)
                if len(victims) == 1:
                    # Alone in flight when the worker died: it is the
                    # killer.
                    key, error = broken[0]
                    _settle_failure(
                        key, f"worker process died: {error}", error
                    )
                else:
                    quarantine.extend(victims)
    except BaseException:
        # Surface the error promptly and leave no worker behind: queued
        # siblings are cancelled and running ones killed (a fail_fast
        # abort discards their results anyway).
        _shutdown_now(pool)
        raise
    else:
        pool.shutdown(wait=True)
