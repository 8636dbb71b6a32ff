"""Micro-batched scoring: one vectorized predict per model per tick.

Each server tick the batcher sweeps every session, drains its ready
samples (strict per-session ``t`` order), and writes the resulting
feature rows into one preallocated matrix per model group — the
sessions sharing one bundle's drift block — so a thousand 1 Hz machines
sharing one model cost one ``predict`` call per second, not a thousand.
The same matrix feeds the group's drift windows: one
:meth:`~repro.framework.drift.DriftBlock.observe_rows` per position in
the sessions' ready runs (one in steady state), not one per sample.

Correctness does not depend on batch composition: the model predict
kernels are batch-size-invariant (``regression/kernels.py``), so a
sample's watts are bit-identical whether it was scored alone, with its
session's backlog, or in a fleet-wide batch — which is what makes
``repro replay``'s online == offline guarantee possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.framework.drift import DriftBlock
from repro.serving.session import MachineSession, ScoredSample
from repro.serving.stats import ServingStats


@dataclass
class MicroBatchScorer:
    """Coalesces ready samples across sessions into grouped predicts."""

    stats: ServingStats | None = None
    max_samples_per_session: int | None = None
    """Per-tick drain cap per session (None = drain everything ready);
    a bounded cap keeps one backlogged machine from dominating a tick."""

    def tick(self, sessions: Iterable[MachineSession]) -> list[ScoredSample]:
        """Score every ready sample once; returns the deliveries.

        Within a session the returned samples are in strict ``t`` order
        (a session's samples all land in one group per tick); deliveries
        from different sessions may interleave by model group.
        """
        start_s = time.perf_counter()
        groups: dict[DriftBlock, _Group] = {}
        for session in sessions:
            ready = session.take_ready(self.max_samples_per_session)
            if not ready:
                continue
            block = session.drift.block
            group = groups.get(block)
            if group is None:
                group = groups[block] = _Group(block)
            group.prepare(session, ready)

        scored: list[ScoredSample] = []
        n_groups = 0
        for group in groups.values():
            if group.refs:
                group.score(scored)
                n_groups += 1
        if self.stats is not None and scored:
            self.stats.record_batch(
                n_samples=len(scored),
                n_groups=n_groups,
                latency_s=time.perf_counter() - start_s,
            )
        return scored


class _Group:
    """One model group's samples in one tick: the sessions sharing a
    drift block, so one bundle and one model.

    Each session's ready run is written into the matrix as soon as it
    is taken, so nothing per session outlives its turn: with 10k
    sessions, holding every run until the group was scored made the
    garbage collector run ~1.7x as often.
    """

    def __init__(self, block: DriftBlock):
        self.block = block
        # One row per session is the steady state; a backlog grows it.
        self.matrix = np.empty((max(block.capacity, 1), block.n_features))
        self.refs: list = []  # (session, t, item, patched) per row
        self.slots: list[int] = []  # each row's drift slot
        self.positions: list[int] = []  # each row's index in its run
        self.deepest = 0

    def prepare(self, session: MachineSession, ready: list) -> None:
        """Write a session's ready samples into the next rows."""
        slot = session.drift.slot
        position = 0
        for t, item in ready:
            n = len(self.refs)
            if n == self.matrix.shape[0]:
                self.matrix = np.concatenate(
                    [self.matrix, np.empty_like(self.matrix)]
                )
            patched = session.prepare(item, self.matrix[n])
            if patched is None:
                continue
            self.refs.append((session, t, item, patched))
            self.slots.append(slot)
            self.positions.append(position)
            position += 1
        if position > self.deepest:
            self.deepest = position

    def score(self, scored: list[ScoredSample]) -> None:
        """Drift-check and predict every row, then deliver them."""
        rows = self.matrix[: len(self.refs)]
        slots = np.array(self.slots)
        if self.deepest == 1:
            drifting = self.block.observe_rows(slots, rows)
        else:
            # A session's k-th row joins the k-th update: every update
            # holds distinct slots, and a run longer than the window
            # enters it one sample at a time, in order.
            positions = np.array(self.positions)
            order = np.argsort(positions, kind="stable")
            drifting = np.empty(len(self.refs), dtype=bool)
            stop = 0
            for count in np.bincount(positions).tolist():
                index = order[stop : stop + count]
                stop += count
                drifting[index] = self.block.observe_rows(
                    slots[index], rows[index]
                )
        model = self.refs[0][0].bundle.platform_model.model
        predictions = model.predict(rows)
        for (session, t, item, patched), power_w, drift_flag in zip(
            self.refs, predictions.tolist(), drifting.tolist()
        ):
            scored.append(
                session.complete(t, item, patched, power_w, drift_flag)
            )
