"""Generic forward-dataflow fixpoint engine with a pluggable lattice.

The engine is deliberately small and statement-agnostic: it knows
nothing about Python AST or what a state means.  An :class:`Analysis`
supplies four operations (entry state, bottom, join, transfer); the
engine iterates a worklist in reverse post-order until the block-entry
states stop changing.  The R601 phase analysis in
:mod:`repro.analysis.races` is its client.

Termination is the analysis's contract, not the engine's magic: with a
finite-height lattice and monotone transfer functions the chain of
states at each block is strictly ascending and must stabilize.  The
property tests in ``tests/analysis/test_dataflow.py`` check that random
CFGs reach a sound fixpoint.  A generous iteration cap turns a broken
lattice into a loud :class:`FixpointDiverged` instead of a hung lint
run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Generic, List, TypeVar

from repro.analysis.cfg import CFG

S = TypeVar("S")


class FixpointDiverged(RuntimeError):
    """The worklist failed to stabilize within the iteration budget —
    a non-monotone transfer function or an infinite-height lattice."""


class Analysis(abc.ABC, Generic[S]):
    """A forward dataflow problem over opaque per-block statements."""

    @abc.abstractmethod
    def entry_state(self, cfg: CFG) -> S:
        """State on entry to the CFG (e.g. parameter seeding)."""

    @abc.abstractmethod
    def bottom(self) -> S:
        """Identity of ``join``; the state of unreached code."""

    @abc.abstractmethod
    def join(self, left: S, right: S) -> S:
        """Least upper bound at a control-flow confluence."""

    @abc.abstractmethod
    def transfer(self, state: S, stmt: Any) -> S:
        """State after executing one (header-only) statement."""


@dataclass
class DataflowResult(Generic[S]):
    """Fixpoint states: ``block_in[i]`` holds on entry to block ``i``."""

    block_in: Dict[int, S]
    block_out: Dict[int, S]
    iterations: int


def run_forward(
    cfg: CFG,
    analysis: Analysis,
    max_iterations: int | None = None,
) -> DataflowResult:
    """Iterate to fixpoint; returns per-block entry/exit states.

    ``max_iterations`` bounds the number of *block visits*; the default
    budget (256 per block, minimum 1024) is far above what any monotone
    analysis on a finite lattice needs, so hitting it raises
    :class:`FixpointDiverged` rather than silently truncating.
    """
    n_blocks = len(cfg.blocks)
    if max_iterations is None:
        max_iterations = max(1024, 256 * n_blocks)

    order = cfg.rpo()
    position = {index: rank for rank, index in enumerate(order)}
    block_in: Dict[int, Any] = {i: analysis.bottom() for i in range(n_blocks)}
    block_out: Dict[int, Any] = {i: analysis.bottom() for i in range(n_blocks)}
    block_in[cfg.entry] = analysis.entry_state(cfg)

    # Worklist keyed by RPO rank so loops converge inner-first.
    pending: List[int] = list(order)
    in_worklist = set(pending)
    visits = 0
    while pending:
        pending.sort(key=lambda index: position.get(index, n_blocks))
        block_index = pending.pop(0)
        in_worklist.discard(block_index)
        visits += 1
        if visits > max_iterations:
            raise FixpointDiverged(
                f"{cfg.name}: no fixpoint after {visits} block visits "
                f"({n_blocks} blocks); transfer function is likely "
                "non-monotone"
            )
        block = cfg.blocks[block_index]
        state = block_in[block_index]
        for pred in block.preds:
            state = analysis.join(state, block_out[pred])
        if block_index == cfg.entry:
            state = analysis.join(state, analysis.entry_state(cfg))
        block_in[block_index] = state
        for stmt in block.stmts:
            state = analysis.transfer(state, stmt)
        if state != block_out[block_index]:
            block_out[block_index] = state
            for succ in block.succs:
                if succ not in in_worklist:
                    pending.append(succ)
                    in_worklist.add(succ)
    return DataflowResult(
        block_in=block_in, block_out=block_out, iterations=visits
    )

