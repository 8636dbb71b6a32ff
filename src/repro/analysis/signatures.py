"""Declared tables for the kept analyses: concurrency roles and array
contracts.

* Concurrency roles (chaos-race, R6xx) — which attributes are shared
  mutable state, which calls block the event loop or hand work to an
  executor, which constructors must not cross a fork/pickle boundary.
  :mod:`repro.analysis.races` reads them.
* :data:`ARRAY_CONTRACTS` — the declared shape, dtype and contiguity of
  each numeric kernel boundary, and the ``site`` where the runtime
  array sanitizer (:mod:`repro.analysis.arraysan`) wraps it while
  armed.  The sanitizer is the table's only reader.

``docs/static_analysis.md`` ("Annotating new APIs") walks through
adding an entry to either table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

# ----------------------------------------------------------------------
# Concurrency roles (chaos-race, R6xx)
# ----------------------------------------------------------------------

#: Attribute names that are *mutable shared state* in the serving and
#: engine stacks: registry/session/server bookkeeping that multiple
#: coroutines may touch.  R601 reports a read-modify-write of one of
#: these attributes that spans an interleaving point (``await``/
#: ``yield``/executor hand-off) without an ``asyncio.Lock`` held.
SHARED_STATE_ATTRS = frozenset({
    # ShardedPowerServer
    "_clients", "_tick_task", "_server", "_registry_generation",
    "last_estimate",
    # ShardedPowerServer ingest buffers (swapped to locals before any
    # await) and shard host table (mutated only at start/stop)
    "_pending_submits", "_pending_drains", "_hosts", "_host_locks",
    # _RouterClient
    "closed",
    # MachineSession
    "_pending", "_next_t", "_started", "_draining", "_n_dispatched",
    "_meter_window", "_last_power_w",
    # ModelRegistry
    "_manifest", "generation",
})

#: Attribute-name substrings that look like asyncio locks; ``async
#: with`` on one of these marks its body as lock-protected for R601.
LOCK_NAME_HINTS = ("lock", "mutex", "sem", "semaphore")

#: Fully-dotted call targets (suffix-matched) that block the event
#: loop: running one from async-colored code stalls every session the
#: loop serves (R602).
BLOCKING_CALL_DOTTED = frozenset({
    "time.sleep",
    "os.system",
    "os.wait",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
})

#: Bare names that are blocking when imported from these modules
#: (``from time import sleep`` makes a bare ``sleep(...)`` blocking).
BLOCKING_BARE_IMPORTS: Dict[str, str] = {
    "sleep": "time",
    "urlopen": "urllib.request",
}

#: Calls that hand work to an executor or another thread; treated as
#: interleaving points by R601 and as sync-result hazards by R602 when
#: their future's ``.result()`` is taken on the loop.
EXECUTOR_HANDOFF_CALLS = frozenset({
    "run_in_executor", "to_thread", "submit",
})

#: asyncio synchronization/queue primitives that bind to the running
#: event loop; creating one where no loop is running (module scope, or
#: a sync function that later calls ``asyncio.run``) is R604.
ASYNC_PRIMITIVE_NAMES = frozenset({
    "Lock", "Event", "Condition", "Semaphore", "BoundedSemaphore",
    "Queue", "LifoQueue", "PriorityQueue",
})

#: Constructors (suffix-matched dotted targets) whose results must not
#: cross a fork/pickle boundary: locks, sockets, event loops, open file
#: handles, live stream halves.  R605 reports one captured by an engine
#: ``TaskSpec`` (or an executor ``submit``) closure/payload.
FORK_HAZARD_CALLS = frozenset({
    "asyncio.Lock", "asyncio.Event", "asyncio.Condition",
    "asyncio.Semaphore", "asyncio.Queue",
    "threading.Lock", "threading.RLock", "threading.Event",
    "threading.Condition", "threading.Semaphore",
    "multiprocessing.Lock",
    "socket.socket", "socket.create_connection",
    "asyncio.get_event_loop", "asyncio.new_event_loop",
    "asyncio.get_running_loop",
    "asyncio.open_connection", "asyncio.start_server",
    "open",
})

#: Parameter names assumed to hold fork-unsafe objects (stream halves,
#: sockets, locks, loops) when judging TaskSpec captures.
FORK_HAZARD_PARAM_HINTS = frozenset({
    "lock", "sock", "socket", "writer", "reader", "loop", "conn",
    "connection",
})


def dotted_call_name(func: ast.AST) -> Optional[str]:
    """Full dotted name of a call target (``a.b.c``), or None."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def matches_dotted(dotted: Optional[str], registry: frozenset) -> bool:
    """Suffix match: ``pkg.time.sleep`` matches ``time.sleep``."""
    if dotted is None:
        return False
    for entry in registry:
        if dotted == entry or dotted.endswith("." + entry):
            return True
    return False


def is_lock_name(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in LOCK_NAME_HINTS)


# ----------------------------------------------------------------------
# Array contracts (the runtime array sanitizer)
# ----------------------------------------------------------------------

#: The numeric anchor of the whole stack: every kernel, feature row and
#: power series is float64, because the bit-for-bit online == offline
#: replay gate depends on one reduction order over one dtype.
KERNEL_DTYPE = "float64"

Dim = Union[int, str]
"""One array dimension: a concrete size or a symbolic name (``"n"``).
The same symbolic name unifies across every parameter of one call."""


@dataclass(frozen=True)
class ArraySpec:
    """Declared shape/dtype/contiguity of one array parameter or return.

    ``shape=None`` accepts any rank; a tuple fixes the rank, with each
    entry either a concrete size or a symbolic dim that must agree with
    every other use of the same name in the contract.
    """

    shape: Optional[Tuple[Dim, ...]] = None
    dtype: Optional[str] = KERNEL_DTYPE
    contiguous: Optional[bool] = None


@dataclass(frozen=True)
class ArrayContract:
    """Array contract of one kernel/serving/metrics entry point.

    ``site`` (``"module:qualname"``) is where the runtime sanitizer
    wraps the function while armed.  ``params`` names the checked
    parameters; the sanitizer binds each call's arguments by name, so
    ``self`` never needs an entry.  A ``None`` spec means "no array
    expectation for this parameter".
    """

    name: str
    site: str
    params: Tuple[Tuple[str, Optional[ArraySpec]], ...] = ()
    returns: Optional[ArraySpec] = None


def _vec(*dims: Dim, contiguous: Optional[bool] = None) -> ArraySpec:
    return ArraySpec(shape=tuple(dims), contiguous=contiguous)


#: Function name -> array contract.  The runtime ArraySanitizer wraps
#: every ``site`` while armed and checks observed shapes, dtypes and
#: contiguity against the declaration (``repro replay --sanitize``).
ARRAY_CONTRACTS: Dict[str, ArrayContract] = {
    # regression.kernels — the batch-size-invariant predict kernel.
    "matvec": ArrayContract(
        "matvec",
        params=(
            ("matrix", _vec("n", "k", contiguous=True)),
            ("vector", _vec("k")),
        ),
        returns=_vec("n"),
        site="repro.regression.kernels:matvec",
    ),
    # Model composition: one power series out per log.
    "predict_log": ArrayContract(
        "predict_log",
        returns=_vec("n"),
        site="repro.models.composition:PlatformModel.predict_log",
    ),
    "evaluate_bases": ArrayContract(
        "evaluate_bases",
        params=(("bases", None), ("design", _vec("n", "k"))),
        returns=_vec("n", "m"),
        site="repro.regression.hinge:evaluate_bases",
    ),
    # regression fits.
    "fit_ols": ArrayContract(
        "fit_ols",
        params=(("design", _vec("n", "k")), ("response", _vec("n"))),
        site="repro.regression.ols:fit_ols",
    ),
    "fit_lasso": ArrayContract(
        "fit_lasso",
        params=(("design", _vec("n", "k")), ("response", _vec("n"))),
        site="repro.regression.lasso:fit_lasso",
    ),
    "fit_mars": ArrayContract(
        "fit_mars",
        params=(("design", _vec("n", "k")), ("response", _vec("n"))),
        site="repro.regression.mars:fit_mars",
    ),
    "add_intercept": ArrayContract(
        "add_intercept",
        params=(("design", _vec("n", "k")),),
        returns=_vec("n", "m"),
        site="repro.regression.ols:add_intercept",
    ),
    # metrics.errors — paired power series in watts, float64.
    "mean_squared_error": ArrayContract(
        "mean_squared_error",
        params=(("actual", _vec("n")), ("predicted", _vec("n"))),
        site="repro.metrics.errors:mean_squared_error",
    ),
    "root_mean_squared_error": ArrayContract(
        "root_mean_squared_error",
        params=(("actual", _vec("n")), ("predicted", _vec("n"))),
        site="repro.metrics.errors:root_mean_squared_error",
    ),
    "dynamic_range_error": ArrayContract(
        "dynamic_range_error",
        params=(("actual", _vec("n")), ("predicted", _vec("n"))),
        site="repro.metrics.errors:dynamic_range_error",
    ),
    "dynamic_range": ArrayContract(
        "dynamic_range",
        params=(("actual", _vec("n")),),
        site="repro.metrics.errors:dynamic_range",
    ),
    # serving — feature rows, the drift envelope's training design and
    # the drift block's per-group update (one row per distinct slot).
    "make_bundle": ArrayContract(
        "make_bundle",
        params=(
            ("platform_model", None),
            ("training_design", _vec("n", "k")),
        ),
        site="repro.serving.bundle:make_bundle",
    ),
    "prepare_row": ArrayContract(
        "prepare_row",
        returns=_vec("k"),
        site="repro.framework.online:OnlinePowerPredictor.prepare_row",
    ),
    "observe": ArrayContract(
        "observe",
        params=(("sample", _vec("k")),),
        site="repro.framework.drift:InputDriftDetector.observe",
    ),
    "observe_rows": ArrayContract(
        "observe_rows",
        params=(
            ("slots", ArraySpec(shape=("n",), dtype="int64")),
            ("rows", _vec("n", "k", contiguous=True)),
        ),
        returns=ArraySpec(shape=("n",), dtype="bool"),
        site="repro.framework.drift:DriftBlock.observe_rows",
    ),
    "offline_reference": ArrayContract(
        "offline_reference",
        returns=_vec("n"),
        site="repro.serving.replay:offline_reference",
    ),
    # dse — the campaign ranking core operates on dense float64
    # (n_candidates, n_objectives) matrices.  Their sites let a test or
    # a script arm the sanitizer around a campaign; no CLI command
    # arms it there.
    "pareto_frontier": ArrayContract(
        "pareto_frontier",
        params=(("objectives", _vec("n", "m")),),
        site="repro.dse.pareto:pareto_frontier",
    ),
    "nondominated_sort": ArrayContract(
        "nondominated_sort",
        params=(("objectives", _vec("n", "m")),),
        returns=ArraySpec(shape=("n",), dtype="int64"),
        site="repro.dse.pareto:nondominated_sort",
    ),
    "crowding_distance": ArrayContract(
        "crowding_distance",
        params=(("objectives", _vec("n", "m")),),
        returns=_vec("n"),
        site="repro.dse.pareto:crowding_distance",
    ),
    "minmax_normalize": ArrayContract(
        "minmax_normalize",
        params=(("objectives", _vec("n", "m")),),
        returns=_vec("n", "m"),
        site="repro.dse.mcdm:minmax_normalize",
    ),
    "mcdm_scores": ArrayContract(
        "mcdm_scores",
        params=(("objectives", _vec("n", "m")), ("weights", _vec("m"))),
        returns=_vec("n"),
        site="repro.dse.mcdm:mcdm_scores",
    ),
    "main_effects": ArrayContract(
        "main_effects",
        params=(("design", _vec("n", "k")), ("objectives", _vec("n", "m"))),
        returns=_vec("k", "m"),
        site="repro.dse.factorial:main_effects",
    ),
}
