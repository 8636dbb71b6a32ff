"""``fleet``: ~300 long-lived machine sessions on one shard worker.

The scoring core with no socket and no JSON: a closed loop calls
``ShardWorker.tick_batch`` through the inline host, one sample per
session per tick, and sends the next tick only when the last returns.
Every session is warmed past the 120-sample drift and DRE windows during
set-up, because a session's per-sample cost roughly triples as those
windows fill, so the timed region must be steady state.  A seeded ~2% of
samples arrive one tick late, behind their successor, and ~0.5% never
arrive, which exercises the reorder buffer and gap synthesis; neither
may end in a drop.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from common import PLATFORM, sequence_log, simulate_and_fit
from speed import Speedometer
from stats import (
    conservation_failures,
    median,
    peak_rss_mb_self,
    percentile_at,
    tail_percentile,
)

from repro.serving import InlineShardHost, worker_config
from repro.serving.shard import static_bundle_payloads

N_SESSIONS = 300
WARM_TICKS = 130
WINDOW = 120
MIN_TIMED_TICKS = 100
UNTRACED_TICKS = 40
P_MISSING = 0.005
P_LATE = 0.02
VERSION = "Q@perfbench"


class Fleet:
    """One set-up: the worker, its sessions, and every sample's fate.

    Per-sample bookkeeping lives in session-by-``t`` arrays so that the
    benchmark's own memory stays small next to the program's.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.bundle, self.stream = simulate_and_fit(seed)
        self.host = InlineShardHost(
            worker_config(
                static_bundles=static_bundle_payloads(
                    {PLATFORM: (VERSION, self.bundle)}
                )
            )
        )
        self.ids = [f"m{i:03d}" for i in range(N_SESSIONS)]
        self.index = {machine_id: i for i, machine_id in enumerate(self.ids)}
        for machine_id in self.ids:
            self.host.call(
                "open_session", {"machine_id": machine_id, "platform": PLATFORM}
            )
        rng = np.random.default_rng([seed, 7])
        self.offsets = rng.integers(0, self.stream.n_seconds, N_SESSIONS)
        self.names = list(self.stream.counter_names)
        self.tick = 0
        self.quiet_until = np.zeros(N_SESSIONS, dtype=int)
        self.held: dict[int, int] = {}
        self._grow(1024)
        self.timed_scored = 0
        self.timed_windowed = 0
        for _ in range(WARM_TICKS):
            self.step()

    def _grow(self, capacity: int) -> None:
        def grown(old, dtype, fill=0):
            new = np.full((N_SESSIONS, capacity), fill, dtype=dtype)
            if old is not None:
                new[:, : old.shape[1]] = old
            return new

        get = self.__dict__.get
        self.sent = grown(get("sent"), np.int16)
        self.gap = grown(get("gap"), bool)
        self.scored = grown(get("scored"), np.int16)
        self.patched = grown(get("patched"), bool)
        self.power = grown(get("power"), float, np.nan)

    def _sample(self, index: int, t: int):
        row = (int(self.offsets[index]) + t) % self.stream.n_seconds
        self.sent[index, t] += 1
        return (
            self.ids[index],
            t,
            dict(zip(self.names, self.stream.counters[row].tolist())),
            float(self.stream.power_w[row]),
        )

    def payload(self, final: bool = False) -> dict:
        """The submits for the current tick, with the seeded faults."""
        k = self.tick
        if k + 2 > self.sent.shape[1]:
            self._grow(2 * self.sent.shape[1])
        draws = np.random.default_rng([self.seed, 11, k]).random(N_SESSIONS)
        submits = []
        for index in range(N_SESSIONS):
            event = None
            if not final and k > 0 and self.quiet_until[index] <= k:
                if draws[index] < P_MISSING:
                    event = "missing"
                elif draws[index] < P_MISSING + P_LATE:
                    event = "late"
            late = self.held.pop(index, None)
            if event == "missing":
                self.gap[index, k] = True
                self.quiet_until[index] = k + 5
            elif event == "late":
                self.held[index] = k
                self.quiet_until[index] = k + 3
            else:
                submits.append(self._sample(index, k))
            if late is not None:
                submits.append(self._sample(index, late))
        payload = {"submits": submits}
        if final:
            payload["drains"] = list(self.ids)
        return payload

    def step(self, final: bool = False, timed: bool = False):
        """One ``tick_batch``; returns ``(result, (t0, t1), cpu_s)``."""
        payload = self.payload(final)
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        result = self.host.call("tick_batch", payload)
        cpu_s = time.process_time() - cpu0
        t1 = time.perf_counter()
        self.tick += 1
        for sample in result.scored:
            index = self.index[sample.machine_id]
            self.scored[index, sample.t] += 1
            self.power[index, sample.t] = sample.power_w
            self.patched[index, sample.t] = sample.patched
            if timed:
                self.timed_scored += 1
                self.timed_windowed += sample.t >= WINDOW
        return result, (t0, t1), cpu_s

    def check(self, drained: list[dict]) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` over every sample sent."""
        n = self.tick
        sent, gap = self.sent[:, :n], self.gap[:, :n]
        scored, patched = self.scored[:, :n], self.patched[:, :n]
        dropped = sum(
            snap["late_dropped"] + snap["shed_dropped"] + snap["duplicates"]
            + snap["stale_rejected"]
            for snap in drained
        )
        problems = conservation_failures(sent + gap, scored, dropped)
        bad_gaps = int(np.count_nonzero(gap & ~((scored == 1) & patched)))
        if bad_gaps:
            problems.append(f"{bad_gaps} gap(s) not synthesized exactly once")
        if len(drained) != N_SESSIONS:
            problems.append(f"{len(drained)} of {N_SESSIONS} sessions drained")
        mismatches = 0
        for index in range(N_SESSIONS):
            rows = (int(self.offsets[index]) + np.arange(n)) % (
                self.stream.n_seconds
            )
            # A second that never arrived is scored as a copy of the one
            # before it; the offline reference replays the same sequence.
            for t in np.flatnonzero(gap[index]):
                rows[t] = rows[t - 1]
            reference = self.bundle.platform_model.predict_log(
                sequence_log(self.stream, rows)
            )
            compare = (scored[index] == 1) & ~patched[index]
            mismatches += int(
                np.count_nonzero(self.power[index, :n][compare] != reference[compare])
            )
        if mismatches:
            problems.append(f"{mismatches} prediction(s) differ from offline")
        bad_sent = int(np.count_nonzero((sent > 0) & (scored != 1)))
        attempted = int(sent.sum() + gap.sum())
        failed = mismatches + bad_sent + bad_gaps
        if problems and not failed:
            failed = 1
        return attempted, failed, problems


def run(seed: int, seconds: float, n_setups: int, probes=None) -> dict:
    """Set up ``n_setups`` times, then drive the last set-up's fleet.

    Untraced, set-ups and ticks are timed at the reference host speed
    (``speed.py``): a probe runs before every timed tick.  With
    ``probes`` every layer is traced, and ticks run untraced just before
    the timed ones give the tracing overhead."""
    traced = probes is not None
    if traced:
        probes.install()
    meter = Speedometer()
    setup_spans = []
    fleet = None
    for _ in range(n_setups):
        fleet = None
        with contextlib.nullcontext() if traced else meter.ticking():
            started = time.perf_counter()
            fleet = Fleet(seed)
            setup_spans.append((started, time.perf_counter()))

    extra = {}
    phase = contextlib.nullcontext()
    if traced:
        probes.remove()
        untraced = [_wall(fleet.step()[1]) for _ in range(UNTRACED_TICKS)]
        probes.install()
        phase = probes.tracer.span("pipeline.ticks", bench=True)
    ticks, tick_cpu, tick_scored = [], [], []
    loop_start = time.perf_counter()
    with phase:
        while True:
            if not traced:
                meter.probe()
            result, span, cpu_s = fleet.step(timed=True)
            ticks.append(span)
            tick_cpu.append(cpu_s)
            tick_scored.append(len(result.scored))
            if (
                len(ticks) >= MIN_TIMED_TICKS
                and time.perf_counter() - loop_start >= seconds
            ):
                break
    if not traced:
        meter.probe()
    loop_wall = time.perf_counter() - loop_start
    if traced:
        extra["overhead_share"] = (
            median(_wall(span) for span in ticks) / median(untraced) - 1.0
        )
        extra["snapshots"] = [probes.tracer.snapshot()]
        probes.remove()
        norm = _wall
    else:
        norm = lambda span: meter.normalized(*span)  # noqa: E731
    result, _, _ = fleet.step(final=True)
    attempted, failed, problems = fleet.check(
        [snap for _, snap in result.drained]
    )

    scored = fleet.timed_scored
    wall_ms = [_wall(span) * 1e3 for span in ticks]
    tick_ms = [norm(span) * 1e3 for span in ticks]
    # A tick's process CPU, scaled like its wall time, per sample scored.
    cpu_us = [
        cpu * tick / wall / n * 1e6
        for cpu, tick, wall, n in zip(tick_cpu, tick_ms, wall_ms, tick_scored)
        if n
    ]
    return extra | {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "setup_s": median(norm(span) for span in setup_spans),
            "peak_rss_mb": peak_rss_mb_self(),
            "op_ms": median(tick_ms),
            "cpu_us_per_sample": median(cpu_us),
        },
        "report": {
            "setup_s each (reference speed)": [
                round(norm(span), 3) for span in setup_spans
            ],
            "timed ticks": len(ticks),
            "samples scored in timed ticks": scored,
            "samples_per_s (samples/s, reference speed)": scored
            / sum(tick_ms) * 1e3,
            "samples_per_s (samples/s, wall)": scored / sum(wall_ms) * 1e3,
            "tick_p50_ms (ms, reference speed)": median(tick_ms),
            "tick_p90_ms (ms, reference speed)": percentile_at(tick_ms, 90),
            "tick tail (percentile with 10 ticks beyond, ms)": tail_percentile(
                tick_ms
            ),
            "tick_p50_ms (ms, wall)": median(wall_ms),
            "tick_p90_ms (ms, wall)": percentile_at(wall_ms, 90),
            "timed loop wall s": loop_wall,
            "gaps synthesized": int(fleet.gap.sum()),
            "host speed probes": len(meter.speeds),
        },
        "layer_values": {
            "serving.session.windowed_share": fleet.timed_windowed / scored
        },
    }


def _wall(span) -> float:
    return span[1] - span[0]
