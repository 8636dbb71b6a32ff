"""Property tests for the fixpoint engine under the R601 race analysis.

The termination contract (see ``dataflow.py``): the engine terminates
and produces a *sound* fixpoint on arbitrary CFG shapes, given a
finite-height lattice — checked on randomly generated graphs with a
powerset lattice — and the R601 phase analysis reaches its fixpoint on
real parsed coroutines.

The engine itself is statement-agnostic, so the random CFGs carry plain
integers as "statements".
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import CFG, BasicBlock, iter_function_units
from repro.analysis.dataflow import Analysis, FixpointDiverged, run_forward
from repro.analysis.races import _RmwAnalysis


# ----------------------------------------------------------------------
# Random CFGs over a powerset lattice
# ----------------------------------------------------------------------


class ReachingStmts(Analysis):
    """Collect the set of statement payloads seen on some path."""

    def entry_state(self, cfg):
        return frozenset({"entry"})

    def bottom(self):
        return frozenset()

    def join(self, left, right):
        return left | right

    def transfer(self, state, stmt):
        return state | {stmt}


def _make_cfg(n_blocks, edges, payloads):
    blocks = [BasicBlock(index=i) for i in range(n_blocks)]
    for src, dst in edges:
        if dst not in blocks[src].succs:
            blocks[src].succs.append(dst)
            blocks[dst].preds.append(src)
    for index, payload in enumerate(payloads):
        blocks[index].stmts = list(payload)
    return CFG(name="<random>", blocks=blocks, entry=0, exit=n_blocks - 1)


@st.composite
def random_cfgs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    # Always connect block 0 onward so the graph is not trivially empty.
    edges.append((0, draw(st.integers(0, n - 1))))
    payloads = draw(
        st.lists(
            st.lists(st.integers(0, 9), max_size=3),
            min_size=n,
            max_size=n,
        )
    )
    return _make_cfg(n, edges, payloads)


@settings(max_examples=120, deadline=None)
@given(cfg=random_cfgs())
def test_fixpoint_terminates_and_is_sound(cfg):
    """Arbitrary graphs (cycles, self-loops, unreachable blocks) reach a
    sound fixpoint: every edge satisfies out[src] <= in[dst]."""
    analysis = ReachingStmts()
    result = run_forward(cfg, analysis)
    assert result.iterations <= max(1024, 256 * len(cfg.blocks))
    reachable = set(cfg.rpo())
    for block in cfg.blocks:
        # in-state joined over predecessors is covered by block_in.
        # (Unreachable predecessors contribute bottom, so this holds
        # for every edge.)
        for pred in block.preds:
            assert result.block_out[pred] <= result.block_in[block.index]
        if block.index not in reachable:
            continue
        # out-state is exactly transfer applied through the block.
        state = result.block_in[block.index]
        for stmt in block.stmts:
            state = analysis.transfer(state, stmt)
        assert state == result.block_out[block.index]
    # Entry seeding survives the fixpoint.
    assert "entry" in result.block_in[cfg.entry]


@settings(max_examples=60, deadline=None)
@given(cfg=random_cfgs())
def test_fixpoint_is_deterministic(cfg):
    first = run_forward(cfg, ReachingStmts())
    second = run_forward(cfg, ReachingStmts())
    assert first.block_in == second.block_in
    assert first.block_out == second.block_out


class _Unbounded(Analysis):
    """Infinite-height lattice: each visit strictly increases the state,
    so a loop never stabilizes and the iteration cap must trip."""

    def entry_state(self, cfg):
        return 0

    def bottom(self):
        return 0

    def join(self, left, right):
        return max(left, right)

    def transfer(self, state, stmt):
        return state + 1


def test_divergence_raises_instead_of_hanging():
    # A self-loop keeps requeueing the block; the cap must trip.
    cfg = _make_cfg(2, [(0, 0), (0, 1)], [["s"], []])
    with pytest.raises(FixpointDiverged):
        run_forward(cfg, _Unbounded(), max_iterations=64)


@settings(max_examples=40, deadline=None)
@given(source=st.sampled_from([
    "async def f(self):\n"
    "    while self._pending:\n"
    "        await self._tick_task\n"
    "        self._pending.pop()\n"
    "    return self._clients\n",
    "async def f(self, xs):\n"
    "    for x in xs:\n"
    "        if self._clients:\n"
    "            await x\n"
    "        else:\n"
    "            self._clients = {}\n",
    "async def f(self):\n"
    "    try:\n"
    "        task = self._tick_task\n"
    "        await task\n"
    "    except RuntimeError:\n"
    "        self._tick_task = None\n"
    "    return task\n",
]))
def test_real_functions_reach_fixpoint(source):
    tree = ast.parse(source)
    for unit in iter_function_units(tree):
        if unit.node is None:
            continue
        result = run_forward(unit.cfg, _RmwAnalysis(set()))
        assert result.iterations <= 256 * len(unit.cfg.blocks) + 1024
