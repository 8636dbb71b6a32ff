"""Out-of-program tracing: wrap each layer's public functions from here.

The program carries no instrumentation of its own, so the traced run
patches the functions and methods named in :data:`PROBES` at the places
the program looks them up (module attributes at their call sites, class
attributes for methods) and records one span per call.

Spans live in memory.  Each keeps its name, start, end and parent; the
parent comes from a :class:`contextvars.ContextVar`, so every asyncio
task has its own span stack and interleaved coroutines never become each
other's children.  A span's self time is its duration minus the time of
its direct children.  Totals per name are kept exactly; individual
spans are kept only up to ``max_events`` for the Chrome trace.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time


class _Frame:
    __slots__ = ("name", "span_id", "start_ns", "parent", "child_ns", "bench")

    def __init__(self, name, span_id, start_ns, parent, bench):
        self.name = name
        self.span_id = span_id
        self.start_ns = start_ns
        self.parent = parent
        self.child_ns = 0
        self.bench = bench


class Tracer:
    """Span recorder with exact per-name totals and counters."""

    def __init__(self, max_events: int = 20000, clock=time.perf_counter_ns):
        self._clock = clock
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench_span_{id(self)}", default=None
        )
        self._ids = itertools.count(1)
        self.max_events = max_events
        self.reset()

    def reset(self) -> None:
        """Forget every span and count; restart the wall clock."""
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self.events: list[tuple] = []
        self.n_spans = 0
        self.bench_ns = 0
        self.covered_ns = 0
        self.top_ns = 0
        self.origin_ns = self._clock()

    def enter(self, name: str, bench: bool = False):
        """Open a span; ``bench`` marks one the benchmark itself owns
        (a phase around calls into the program) rather than a layer."""
        parent = self._current.get()
        frame = _Frame(name, next(self._ids), self._clock(), parent, bench)
        return frame, self._current.set(frame)

    def exit(self, frame: _Frame, token) -> None:
        end_ns = self._clock()
        self._current.reset(token)
        duration = end_ns - frame.start_ns
        parent = frame.parent
        if parent is not None:
            parent.child_ns += duration
        # Coverage: time inside outermost program-layer spans, within
        # the benchmark's phases (or anywhere, when there are none).
        if frame.bench:
            if parent is None:
                self.bench_ns += duration
        elif parent is None:
            self.top_ns += duration
        elif parent.bench:
            self.covered_ns += duration
        totals = self.totals.get(frame.name)
        if totals is None:
            totals = self.totals[frame.name] = [0, 0, 0]
        totals[0] += 1
        totals[2] += duration - frame.child_ns
        # Busy time counts only the outermost span of a name, so a
        # recursive call is not billed twice.
        ancestor = parent
        while ancestor is not None and ancestor.name != frame.name:
            ancestor = ancestor.parent
        if ancestor is None:
            totals[1] += duration
        self.n_spans += 1
        if len(self.events) < self.max_events:
            self.events.append((
                frame.name,
                frame.span_id,
                parent.span_id if parent is not None else 0,
                frame.start_ns,
                end_ns,
            ))

    @contextlib.contextmanager
    def span(self, name: str, bench: bool = False):
        frame, token = self.enter(name, bench)
        try:
            yield frame
        finally:
            self.exit(frame, token)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wall_s(self) -> float:
        return (self._clock() - self.origin_ns) / 1e9

    def table(self) -> dict[str, dict[str, float]]:
        """``{span name: {calls, busy_s, self_s}}``."""
        return {
            name: {
                "calls": calls,
                "busy_s": busy_ns / 1e9,
                "self_s": self_ns / 1e9,
            }
            for name, (calls, busy_ns, self_ns) in sorted(self.totals.items())
        }

    def snapshot(self) -> dict:
        """Everything recorded, as plain JSON-safe data."""
        return {
            "pid": os.getpid(),
            "wall_s": self.wall_s(),
            "origin_ns": self.origin_ns,
            "n_spans": self.n_spans,
            "bench_s": self.bench_ns / 1e9,
            "covered_s": self.covered_ns / 1e9,
            "top_s": self.top_ns / 1e9,
            "table": self.table(),
            "counts": dict(self.counts),
            "events": [list(event) for event in self.events],
        }


def chrome_trace(snapshots: list[dict]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events) for snapshots of
    one or more processes; timestamps are microseconds on the shared
    monotonic clock, so processes line up."""
    origin = min(snap["origin_ns"] for snap in snapshots)
    events = []
    kept = 0
    for snap in snapshots:
        for name, span_id, parent_id, start_ns, end_ns in snap["events"]:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start_ns - origin) / 1e3,
                "dur": (end_ns - start_ns) / 1e3,
                "pid": snap["pid"],
                "tid": snap["pid"],
                "args": {"span": span_id, "parent": parent_id},
            })
        kept += len(snap["events"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans_recorded": sum(snap["n_spans"] for snap in snapshots),
            "spans_in_file": kept,
        },
    }


def write_json(path: str, payload) -> None:
    """Write JSON via a temporary file and rename, so readers never see
    half a file."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


# -- probes ------------------------------------------------------------


def _model_code(args, kwargs) -> str:
    return getattr(args[0], "code", "?")


def _post_lasso(tracer, result, args, kwargs):
    tracer.count(
        "regression.fit_lasso_path.cd_sweeps",
        sum(fit.n_iterations for fit in result.fits),
    )
    tracer.count(
        "regression.fit_lasso_path.unconverged",
        sum(1 for fit in result.fits if not fit.converged),
    )


def _post_mars(tracer, result, args, kwargs):
    tracer.count("regression.fit_mars.terms", result.n_terms)


def _post_kept(key):
    def post(tracer, result, args, kwargs):
        tracer.count(key, len(result.kept))

    return post


def _post_pooled(tracer, result, args, kwargs):
    tracer.count("selection.pool_and_refine.selected", len(result.selected))


def _post_predict(tracer, result, args, kwargs):
    tracer.count("models.predict.rows", len(result))


def _post_encode(tracer, result, args, kwargs):
    tracer.count("serving.protocol.encode_message.bytes", len(result))


def _post_batcher(tracer, result, args, kwargs):
    if result:
        tracer.count("serving.batcher.rows", len(result))
        tracer.count("serving.batcher.ticks_with_rows")


PROBES = (
    # (span name or name prefix, "module:attribute", post hook, by code)
    ("cluster.execute_runs", "repro.framework.chaos:execute_runs"),
    ("cluster.execute_runs", "repro.cluster.runner:execute_runs"),
    ("counters.derive_counters", "repro.telemetry.sampler:derive_counters"),
    (
        "selection.prune_correlated",
        "repro.selection.algorithm1:prune_correlated",
        _post_kept("selection.prune_correlated.kept"),
    ),
    (
        "selection.eliminate_codependent",
        "repro.selection.algorithm1:eliminate_codependent",
        _post_kept("selection.eliminate_codependent.kept"),
    ),
    (
        "selection.select_machine_features",
        "repro.selection.algorithm1:select_machine_features",
    ),
    (
        "selection.pool_and_refine",
        "repro.selection.algorithm1:pool_and_refine",
        _post_pooled,
    ),
    (
        "regression.fit_lasso_path",
        "repro.selection.machine_selection:fit_lasso_path",
        _post_lasso,
    ),
    (
        "regression.backward_eliminate",
        "repro.selection.machine_selection:backward_eliminate",
    ),
    (
        "regression.backward_eliminate",
        "repro.selection.pooling:backward_eliminate",
    ),
    ("regression.fit_mars", "repro.models.piecewise:fit_mars", _post_mars),
    ("regression.fit_ols", "repro.models.linear:fit_ols"),
    ("regression.fit_ols", "repro.models.switching:fit_ols"),
    ("models.fit", "repro.models.base:PowerModel.fit", None, True),
    (
        "models.predict",
        "repro.models.base:PowerModel.predict",
        _post_predict,
        True,
    ),
    ("framework.evaluate_fold", "repro.framework.crossval:evaluate_fold"),
    ("engine.run_graph_report", "repro.framework.sweep:run_graph_report"),
    (
        "framework.online.prepare_row",
        "repro.framework.online:OnlinePowerPredictor.prepare_row",
    ),
    (
        "framework.drift.observe",
        "repro.framework.drift:InputDriftDetector.observe",
    ),
    ("serving.session.submit", "repro.serving.session:MachineSession.submit"),
    (
        "serving.session.complete",
        "repro.serving.session:MachineSession.complete",
    ),
    (
        "serving.batcher.tick",
        "repro.serving.batcher:MicroBatchScorer.tick",
        _post_batcher,
    ),
    (
        "serving.aggregate.tick",
        "repro.serving.aggregate:ClusterAggregator.tick",
    ),
    ("serving.shard.tick_batch", "repro.serving.shard:ShardWorker.tick_batch"),
    ("serving.run_tick", "repro.serving.server:PowerServer.run_tick"),
    (
        "serving.run_tick",
        "repro.serving.router:ShardedPowerServer.run_tick",
    ),
    (
        "serving.registry.generation",
        "repro.serving.registry:ModelRegistry.generation",
    ),
    ("serving.protocol.decode_line", "repro.serving.protocol:decode_line"),
    ("serving.protocol.parse_sample", "repro.serving.protocol:parse_sample"),
    (
        "serving.protocol.encode_message",
        "repro.serving.protocol:encode_message",
        _post_encode,
    ),
)


def wrap(tracer: Tracer, name: str, fn, post=None, by_code: bool = False):
    """A traced stand-in for ``fn`` (sync or async)."""

    def span_name(args, kwargs):
        return f"{name}.{_model_code(args, kwargs)}" if by_code else name

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            frame, token = tracer.enter(span_name(args, kwargs))
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.exit(frame, token)
            if post is not None:
                post(tracer, result, args, kwargs)
            return result

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame, token = tracer.enter(span_name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, token)
        if post is not None:
            post(tracer, result, args, kwargs)
        return result

    return traced


class Probes:
    """Installs :data:`PROBES` around a tracer; ``remove`` undoes it."""

    def __init__(self, tracer: Tracer, probes=PROBES):
        self.tracer = tracer
        self.probes = probes
        self._undo: list[tuple] = []

    def install(self) -> None:
        if self._undo:
            return
        for probe in self.probes:
            name, target = probe[0], probe[1]
            post = probe[2] if len(probe) > 2 else None
            by_code = probe[3] if len(probe) > 3 else False
            self._install(name, target, post, by_code)

    def _install(self, name, target, post, by_code) -> None:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        # Read the raw attribute: a class's __dict__ holds the plain
        # function or property, not a bound method.
        original = vars(owner)[attr]
        if isinstance(original, property):
            replacement = property(
                wrap(self.tracer, name, original.fget, post, by_code)
            )
        else:
            replacement = wrap(self.tracer, name, original, post, by_code)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
