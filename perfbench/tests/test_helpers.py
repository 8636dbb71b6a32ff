"""Tests for the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from spans import Tracer, chrome_trace  # noqa: E402
from stats import (  # noqa: E402
    check_metric_name,
    conservation_failures,
    percentile_at,
    proc_cpu_s,
    tail_percentile,
)


class ManualClock:
    """A nanosecond clock that only moves when a test moves it."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


# -- tail percentile ---------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert tail_percentile(values) == (90.0, 90.0)
    percent, value = tail_percentile(list(range(1, 12)))
    assert value == 1.0 and percent == pytest.approx(100 / 11)
    # Exactly ten samples lie above the reported value.
    shuffled = np.random.default_rng(0).permutation(1000).tolist()
    _, value = tail_percentile(shuffled)
    assert sum(v > value for v in shuffled) == 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_fixed_percentile_needs_ten_beyond():
    assert percentile_at(list(range(1, 101)), 90) == 90.0
    assert percentile_at(list(range(1, 1001)), 99) == 990.0
    with pytest.raises(ValueError):
        percentile_at(list(range(1, 51)), 90)


def test_process_cpu_counts_this_process():
    before = proc_cpu_s(os.getpid())
    sum(i * i for i in range(200_000))
    assert proc_cpu_s(os.getpid()) > before


# -- host-speed normalization ------------------------------------------


class FakeHost:
    """A clock in seconds and a probe whose length the test sets."""

    def __init__(self):
        self.now = 0.0
        self.probe_ms = speed.REFERENCE_MS

    def clock(self) -> float:
        return self.now

    def work(self) -> None:
        self.now += self.probe_ms / 1e3


def test_work_between_probes_counts_at_their_mean_speed():
    host = FakeHost()
    meter = speed.Speedometer(clock=host.clock, work=host.work)
    meter.probe()  # full speed
    t0 = host.now
    host.now += 1.0
    host.probe_ms = 2 * speed.REFERENCE_MS  # half speed
    meter.probe()
    host.now += 2.0
    t1 = host.now
    # One second at the mean of 1 and 0.5; two seconds after the last
    # probe at its 0.5.  The probe between is not work.
    assert meter.normalized(t0, t1) == pytest.approx(0.75 + 1.0)
    assert meter.probe_s(t0, t1) == pytest.approx(2 * speed.REFERENCE_MS / 1e3)
    # Part of a stretch counts in proportion.
    assert meter.normalized(t0, t0 + 0.5) == pytest.approx(0.375)


def test_a_steady_host_gives_wall_time_at_reference_speed():
    host = FakeHost()
    host.probe_ms = 1.5 * speed.REFERENCE_MS  # uniformly slowed 1.5x
    meter = speed.Speedometer(clock=host.clock, work=host.work)
    starts = []
    for _ in range(5):
        meter.probe()
        starts.append(host.now)
        host.now += 0.03
    meter.probe()
    assert meter.normalized(starts[0], host.now) == pytest.approx(5 * 0.03 / 1.5)


def test_timer_probes_inside_a_block():
    meter = speed.Speedometer()
    with meter.ticking(interval_s=0.005):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
        t1 = time.perf_counter()
    # Entry, exit, and about one per interval in between.
    assert len(meter.speeds) >= 6
    assert meter.starts == sorted(meter.starts)
    assert 0 < meter.probe_s(t0, t1) < t1 - t0
    assert meter.normalized(t0, t1) > 0


def test_the_probe_does_fixed_work():
    assert speed.probe_work() == speed.probe_work()


# -- spans -------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now += 10
        with tracer.span("inner"):
            clock.now += 5
            with tracer.span("leaf"):
                clock.now += 2
        clock.now += 3
        with tracer.span("inner"):
            clock.now += 4
    table = tracer.table()
    assert table["outer"] == {"calls": 1, "busy_s": 24e-9, "self_s": 13e-9}
    assert table["inner"]["calls"] == 2
    assert table["inner"]["busy_s"] == pytest.approx(11e-9)
    assert table["inner"]["self_s"] == pytest.approx(9e-9)
    assert table["leaf"]["self_s"] == pytest.approx(2e-9)


def test_recursive_span_is_busy_once():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("f"):
        clock.now += 1
        with tracer.span("f"):
            clock.now += 2
    row = tracer.table()["f"]
    assert row["busy_s"] == pytest.approx(3e-9)
    assert row["self_s"] == pytest.approx(3e-9)


def test_self_time_of_interleaved_async_spans():
    """Two tasks interleave at awaits; each span's children are only
    the spans of its own task."""
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    a_in_child = asyncio.Event()
    b_in_child = asyncio.Event()

    async def task_a():
        with tracer.span("a"):
            clock.now += 1
            with tracer.span("a.child"):
                clock.now += 4
                a_in_child.set()
                await b_in_child.wait()
            clock.now += 2

    async def task_b():
        await a_in_child.wait()
        with tracer.span("b"):
            clock.now += 8
            with tracer.span("b.child"):
                clock.now += 16
                b_in_child.set()
            clock.now += 32

    async def both():
        await asyncio.gather(task_a(), task_b())

    asyncio.run(both())
    table = tracer.table()
    assert table["b"]["self_s"] == pytest.approx(40e-9)
    assert table["b.child"]["self_s"] == pytest.approx(16e-9)
    # b ran entirely inside a.child's wall interval while a.child waited,
    # but is not its child: a.child's self time is its whole interval.
    assert table["a.child"]["busy_s"] == pytest.approx(60e-9)
    assert table["a.child"]["self_s"] == pytest.approx(60e-9)
    assert table["a"]["self_s"] == pytest.approx(3e-9)


def test_chrome_trace_has_one_complete_event_per_span():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("x"):
        clock.now += 1000
        with tracer.span("y"):
            clock.now += 1000
    trace = chrome_trace([tracer.snapshot()])
    json.dumps(trace)
    events = {event["name"]: event for event in trace["traceEvents"]}
    assert events["x"]["ph"] == "X" and events["x"]["dur"] == 2.0
    assert events["y"]["args"]["parent"] == events["x"]["args"]["span"]


# -- metric names ------------------------------------------------------


def test_metric_names_follow_the_rule():
    names = list(run.END_TO_END) + [row[0] for row in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert check_metric_name(name) == name
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(declared) == sorted(names)


@pytest.mark.parametrize("bad", ["", "has space", "a/b", "_lead", "é", "x" * 65])
def test_bad_metric_names_are_refused(bad):
    with pytest.raises(ValueError):
        check_metric_name(bad)


# -- conservation ------------------------------------------------------


def test_conservation_balances():
    expected = np.ones((2, 5), dtype=int)
    assert conservation_failures(expected, expected.copy(), 0) == []


def test_conservation_catches_an_uncounted_drop():
    expected = np.ones((2, 5), dtype=int)
    scored = expected.copy()
    scored[1, 3] = 0
    assert conservation_failures(expected, scored, 0)
    # The same loss is fine once the program counted it.
    assert conservation_failures(expected, scored, 1) == []


def test_conservation_catches_a_double_score():
    expected = np.ones((2, 5), dtype=int)
    scored = expected.copy()
    scored[0, 0] = 2
    assert conservation_failures(expected, scored, 0)


def test_conservation_catches_a_score_nobody_sent():
    expected = np.ones((2, 5), dtype=int)
    expected[0, 4] = 0
    assert conservation_failures(expected, np.ones((2, 5), dtype=int), 0)
