"""API contracts driving chaos-flow: unit signatures and taint roles.

This registry is the single place where ``repro``'s public entry points
are annotated for the dataflow analyses:

* :data:`FUNCTION_UNITS` — physical-unit contracts (return unit and
  per-parameter expected units) for ``repro.metrics``, ``repro.framework``
  and friends.  ``units.py`` checks call arguments against these (U502)
  and propagates return units through expressions.
* :data:`NAME_UNIT_SUFFIXES` — the naming convention the tree already
  follows (``power_w``, ``duration_s``, ``freq_ghz`` ...), used to seed
  units for variables, attributes, and parameters.
* Taint roles — which callables *produce* whole-dataset values
  (:data:`FULL_SOURCE_CALLS`), which parameter names denote the whole
  dataset (:data:`FULL_PARAM_NAMES`), and which calls are *sinks* that
  must never consume test-fold or unsplit data
  (:func:`sink_kind`): model fits, feature selection, preprocessing.

To annotate a new API, add one entry here — both analyses pick it up;
``docs/static_analysis.md`` ("Annotating new APIs") walks through it.

Matching is by the *last dotted segment* of the call target, with
leading underscores ignored, so ``repro.metrics.errors.dynamic_range``,
``errors.dynamic_range`` and a bare ``dynamic_range`` all match the same
contract.  That keeps the registry import-style-agnostic at the cost of
treating same-named functions alike — acceptable for a lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------

WATTS = "watts"
WATTS_SQ = "watts^2"
JOULES = "joules"
SECONDS = "seconds"
HERTZ = "hertz"
PERCENT = "percent"
BYTES = "bytes"
COUNT = "count"
RATE = "count/sec"
BYTES_RATE = "bytes/sec"
CUMULATIVE = "cumulative-count"
DIMENSIONLESS = "dimensionless"

#: Name suffix -> unit, longest suffix checked first.  Applied to
#: variable names, attribute names, and function parameters.
NAME_UNIT_SUFFIXES: Dict[str, str] = {
    "_watts": WATTS,
    "_w": WATTS,
    "power": WATTS,
    "_joules": JOULES,
    "_j": JOULES,
    "_seconds": SECONDS,
    "_sec": SECONDS,
    "_s": SECONDS,
    "_hz": HERTZ,
    "_ghz": HERTZ,
    "_mhz": HERTZ,
    "_percent": PERCENT,
    "_pct": PERCENT,
    "_bytes": BYTES,
    "_per_sec": RATE,
    "_cumulative": CUMULATIVE,
    "_cum_total": CUMULATIVE,
}

_SUFFIXES_BY_LENGTH = sorted(
    NAME_UNIT_SUFFIXES, key=len, reverse=True
)


def unit_from_name(name: str) -> Optional[str]:
    """Unit implied by an identifier's suffix, or None.

    ``power_w`` -> watts, ``sample_period_s`` -> seconds,
    ``mem_pages_per_sec`` -> count/sec (the longer suffix wins over
    ``_sec``), ``design`` -> None.
    """
    lowered = name.lower()
    for suffix in _SUFFIXES_BY_LENGTH:
        if lowered == suffix.lstrip("_") or lowered.endswith(suffix):
            return NAME_UNIT_SUFFIXES[suffix]
    return None


@dataclass(frozen=True)
class UnitSignature:
    """Unit contract of one callable."""

    returns: Optional[str] = None
    params: Dict[str, str] = field(default_factory=dict)
    """Positional index (as str) or keyword name -> expected unit."""

    def expected_for(
        self, position: int, keyword: Optional[str]
    ) -> Optional[str]:
        if keyword is not None:
            return self.params.get(keyword)
        return self.params.get(str(position))


def _sig(returns: Optional[str] = None, **params: str) -> UnitSignature:
    return UnitSignature(
        returns=returns,
        params={str(k)[1:] if str(k).startswith("p") and str(k)[1:].isdigit()
                else k: v for k, v in params.items()},
    )


#: Callable (last dotted segment) -> unit contract.  Positional
#: parameters are keyed ``p0``, ``p1``, ... in ``_sig``.
FUNCTION_UNITS: Dict[str, UnitSignature] = {
    # repro.metrics.errors — everything takes power series in watts.
    "mean_squared_error": _sig(WATTS_SQ, p0=WATTS, p1=WATTS),
    "root_mean_squared_error": _sig(WATTS, p0=WATTS, p1=WATTS),
    "percent_error": _sig(DIMENSIONLESS, p0=WATTS, p1=WATTS),
    "mean_absolute_error": _sig(WATTS, p0=WATTS, p1=WATTS),
    "median_absolute_error": _sig(WATTS, p0=WATTS, p1=WATTS),
    "median_relative_error": _sig(DIMENSIONLESS, p0=WATTS, p1=WATTS),
    "dynamic_range": _sig(WATTS, p0=WATTS, idle_power=WATTS),
    "dynamic_range_error": _sig(
        DIMENSIONLESS, p0=WATTS, p1=WATTS, idle_power=WATTS
    ),
    # repro.metrics.energy — the one deliberate watts/joules boundary.
    "energy_joules": _sig(
        JOULES, p0=WATTS, power_w=WATTS, sample_period_s=SECONDS
    ),
    "energy_relative_error": _sig(
        DIMENSIONLESS, p0=WATTS, p1=WATTS, sample_period_s=SECONDS
    ),
    # repro.metrics.summary / repro.framework — report constructors
    # consume measured/predicted power in watts.
    "from_predictions": _sig(None, p0=WATTS, p1=WATTS),
    "cluster_power": _sig(WATTS),
    # repro.activity probes.
    "idle_activity": _sig(None, n_seconds=SECONDS),
    # repro.serving — the online scoring surface.  Predictions, meter
    # readings and idle floors are watts; batch latencies are seconds.
    "make_bundle": _sig(None, idle_power_w=WATTS),
    "offline_reference": _sig(WATTS),
    "max_deviation_w": _sig(WATTS),
    "rolling_mean_w": _sig(WATTS, window_seconds=SECONDS),
    "peak_w": _sig(WATTS),
    "commit": _sig(WATTS, p0=WATTS, prediction_w=WATTS),
    "record_batch": _sig(None, latency_s=SECONDS),
    # repro.dse — campaign objectives.  Serving latency is seconds per
    # scored sample; fit cost and MCDM scores are dimensionless proxies.
    "modeled_serving_p99": _sig(SECONDS),
    "modeled_fit_cost": _sig(DIMENSIONLESS),
    "mcdm_scores": _sig(DIMENSIONLESS),
    "crowding_distance": _sig(DIMENSIONLESS),
}

#: Calls that preserve the unit of their first argument (reductions,
#: conversions, elementwise shims).  Matched like FUNCTION_UNITS.
UNIT_PRESERVING_CALLS = frozenset({
    "mean", "median", "sum", "min", "max", "abs", "absolute",
    "asarray", "array", "ravel", "sort", "sorted", "copy", "float",
    "quantile", "percentile", "average_windows",
})

#: Calls preserving the unit of the *receiver* (ndarray methods).
UNIT_PRESERVING_METHODS = frozenset({
    "mean", "sum", "min", "max", "ravel", "copy", "astype", "clip",
})

#: sqrt maps squared units back (watts^2 -> watts); anything else is
#: unknown.
SQRT_CALLS = frozenset({"sqrt"})

#: BinOp unit algebra: (left, op, right) -> result.  Only listed
#: combinations produce a concrete unit; everything else is unknown.
MUL_TABLE: Dict[Tuple[str, str], str] = {
    (WATTS, SECONDS): JOULES,
    (SECONDS, WATTS): JOULES,
    (WATTS, WATTS): WATTS_SQ,
    (RATE, SECONDS): COUNT,
    (SECONDS, RATE): COUNT,
    (BYTES_RATE, SECONDS): BYTES,
    (SECONDS, BYTES_RATE): BYTES,
    (HERTZ, SECONDS): COUNT,
    (SECONDS, HERTZ): COUNT,
}

DIV_TABLE: Dict[Tuple[str, str], str] = {
    (JOULES, SECONDS): WATTS,
    (JOULES, WATTS): SECONDS,
    (COUNT, SECONDS): RATE,
    (BYTES, SECONDS): BYTES_RATE,
    (WATTS_SQ, WATTS): WATTS,
}


# ----------------------------------------------------------------------
# Taint roles
# ----------------------------------------------------------------------

#: Call targets (last dotted segment) returning the *whole dataset*:
#: every run of a workload, before any split.
FULL_SOURCE_CALLS = frozenset({"runs", "runs_by_workload"})

#: Parameter names seeded as whole-dataset at function entry.
FULL_PARAM_NAMES = frozenset({"runs", "all_runs", "dataset"})

#: Feature-selection entry points (repro.selection + Algorithm 1).
SELECT_SINKS = frozenset({
    "prune_correlated",
    "eliminate_codependent",
    "select_machine_features",
    "pool_and_refine",
    "run_algorithm1",
    "select_features",
    "select_general_features",
})

#: Preprocessing fits: anything learning statistics from data that must
#: therefore only ever see the training split.  ``make_bundle`` belongs
#: here because the serving drift envelope is per-feature quantiles
#: learned from its ``training_design`` argument.
PREPROCESS_SINKS = frozenset({
    "standardize", "fit_scaler", "fit_transform", "scale_features",
    "make_bundle",
})

#: Method names treated as model-fit sinks.
FIT_METHODS = frozenset({"fit"})


def call_target(func: ast.AST) -> Optional[str]:
    """Last dotted segment of a call target, leading underscores
    stripped: ``repro.metrics.errors._dre`` -> ``dre``."""
    if isinstance(func, ast.Attribute):
        tail = func.attr
    elif isinstance(func, ast.Name):
        tail = func.id
    else:
        return None
    return tail.lstrip("_") or tail


def is_method_call(func: ast.AST) -> bool:
    return isinstance(func, ast.Attribute)


def sink_kind(func: ast.AST) -> Optional[str]:
    """'fit' | 'select' | 'preprocess' if the call is a leakage sink."""
    target = call_target(func)
    if target is None:
        return None
    if is_method_call(func) and func.attr.lstrip("_") in FIT_METHODS:
        return "fit"
    if target in SELECT_SINKS:
        return "select"
    if target in PREPROCESS_SINKS:
        return "preprocess"
    return None


def unit_signature(func: ast.AST) -> Optional[UnitSignature]:
    target = call_target(func)
    if target is None:
        return None
    return FUNCTION_UNITS.get(target)


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

#: Call targets that *consume* a coroutine object: passing a coroutine
#: here counts as awaiting it for R603.
COROUTINE_CONSUMERS = frozenset({
    "gather", "wait", "wait_for", "create_task", "ensure_future",
    "as_completed", "run", "run_until_complete", "shield",
    "run_coroutine_threadsafe",
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


#: Identifier patterns marking test-split data by naming convention.
def is_test_name(name: str) -> bool:
    lowered = name.lower().strip("_")
    return (
        lowered == "test"
        or lowered.startswith("test_")
        or lowered.endswith("_test")
        or "_test_" in lowered
    )


def is_fold_iterable_name(name: str) -> bool:
    lowered = name.lower().strip("_")
    return lowered == "folds" or lowered.endswith("_folds")


#: Calls producing the fold list a cross-validation loop iterates.
FOLD_SOURCE_CALLS = frozenset({"runwise_folds", "kfold", "make_folds"})


# ----------------------------------------------------------------------
# Array contracts (chaos-shape, N7xx)
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

    @property
    def rank(self) -> Optional[int]:
        return None if self.shape is None else len(self.shape)


@dataclass(frozen=True)
class ArrayContract:
    """Array contract of one kernel/serving/metrics entry point.

    ``params`` is ordered: positional argument ``i`` matches entry ``i``
    (``self`` receivers never appear in AST call args, so methods and
    functions line up the same way); keywords match by name.  A ``None``
    spec means "no array expectation for this parameter".
    """

    name: str
    params: Tuple[Tuple[str, Optional[ArraySpec]], ...] = ()
    returns: Optional[ArraySpec] = None
    hot_path: bool = False

    def spec_for(
        self, position: int, keyword: Optional[str]
    ) -> Optional[ArraySpec]:
        if keyword is not None:
            for name, spec in self.params:
                if name == keyword:
                    return spec
            return None
        if 0 <= position < len(self.params):
            return self.params[position][1]
        return None


def _vec(*dims: Dim, contiguous: Optional[bool] = None) -> ArraySpec:
    return ArraySpec(shape=tuple(dims), contiguous=contiguous)


#: Callable (last dotted segment) -> array contract.  The registry is
#: shared by the static N7xx checker (argument shapes/dtypes at call
#: sites, parameter seeding inside the contracted function) and the
#: runtime ArraySanitizer (observed-vs-declared cross-check during
#: ``repro replay --sanitize``).
ARRAY_CONTRACTS: Dict[str, ArrayContract] = {
    # regression.kernels — the batch-size-invariant predict kernel.
    "matvec": ArrayContract(
        "matvec",
        params=(
            ("matrix", _vec("n", "k", contiguous=True)),
            ("vector", _vec("k")),
        ),
        returns=_vec("n"),
        hot_path=True,
    ),
    # Model predict surfaces: one design matrix in, one power series out.
    "predict": ArrayContract(
        "predict",
        params=(("design", _vec("n", "k")),),
        returns=_vec("n"),
    ),
    "predict_log": ArrayContract("predict_log", returns=_vec("n")),
    "evaluate_bases": ArrayContract(
        "evaluate_bases",
        params=(("bases", None), ("design", _vec("n", "k"))),
        returns=_vec("n", "m"),
    ),
    # regression fits.
    "fit_ols": ArrayContract(
        "fit_ols",
        params=(("design", _vec("n", "k")), ("response", _vec("n"))),
    ),
    "fit_lasso": ArrayContract(
        "fit_lasso",
        params=(("design", _vec("n", "k")), ("response", _vec("n"))),
    ),
    "fit_mars": ArrayContract(
        "fit_mars",
        params=(("design", _vec("n", "k")), ("response", _vec("n"))),
    ),
    "add_intercept": ArrayContract(
        "add_intercept",
        params=(("design", _vec("n", "k")),),
        returns=_vec("n", "m"),
    ),
    # metrics.errors — paired power series in watts, float64.
    "mean_squared_error": ArrayContract(
        "mean_squared_error",
        params=(("actual", _vec("n")), ("predicted", _vec("n"))),
    ),
    "root_mean_squared_error": ArrayContract(
        "root_mean_squared_error",
        params=(("actual", _vec("n")), ("predicted", _vec("n"))),
    ),
    "dynamic_range_error": ArrayContract(
        "dynamic_range_error",
        params=(("actual", _vec("n")), ("predicted", _vec("n"))),
    ),
    "dynamic_range": ArrayContract(
        "dynamic_range", params=(("actual", _vec("n")),),
    ),
    # serving — feature rows and the drift envelope's training design.
    "make_bundle": ArrayContract(
        "make_bundle",
        params=(
            ("platform_model", None),
            ("training_design", _vec("n", "k")),
        ),
    ),
    "prepare_row": ArrayContract("prepare_row", returns=_vec("k")),
    "observe": ArrayContract(
        "observe", params=(("sample", _vec("k")),),
    ),
    "offline_reference": ArrayContract(
        "offline_reference", returns=_vec("n"),
    ),
    # dse — the campaign ranking core operates on dense float64
    # (n_candidates, n_objectives) matrices; every entry point is also
    # @contracted so `repro replay --sanitize`-style runtime checks can
    # observe a campaign (the same one-registry rule as the kernels).
    "pareto_frontier": ArrayContract(
        "pareto_frontier",
        params=(("objectives", _vec("n", "m")),),
    ),
    "nondominated_sort": ArrayContract(
        "nondominated_sort",
        params=(("objectives", _vec("n", "m")),),
        returns=ArraySpec(shape=("n",), dtype="int64"),
    ),
    "crowding_distance": ArrayContract(
        "crowding_distance",
        params=(("objectives", _vec("n", "m")),),
        returns=_vec("n"),
    ),
    "minmax_normalize": ArrayContract(
        "minmax_normalize",
        params=(("objectives", _vec("n", "m")),),
        returns=_vec("n", "m"),
    ),
    "mcdm_scores": ArrayContract(
        "mcdm_scores",
        params=(("objectives", _vec("n", "m")), ("weights", _vec("m"))),
        returns=_vec("n"),
    ),
    "main_effects": ArrayContract(
        "main_effects",
        params=(("design", _vec("n", "k")), ("objectives", _vec("n", "m"))),
        returns=_vec("k", "m"),
    ),
}


def array_contract(func: ast.AST) -> Optional[ArrayContract]:
    """Contract of a call target, matched like :func:`unit_signature`."""
    target = call_target(func)
    if target is None:
        return None
    return ARRAY_CONTRACTS.get(target)


#: Decorator names (last dotted segment) marking a function as a
#: per-tick hot path: no allocation (N705) or hidden copy (N703)
#: belongs inside one.
HOT_PATH_DECORATORS = frozenset({"hot_path"})

#: numpy allocators: every call returns a fresh buffer (N705 inside a
#: hot path).  Disjoint from COPY_CALLS so one call maps to one rule.
ALLOCATOR_CALLS = frozenset({
    "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
    "empty_like", "full_like", "arange", "linspace", "eye", "tile",
    "repeat", "meshgrid",
})

#: Operations that materialize a copy of an existing array — the
#: "hidden" allocations N703 reports inside a hot path.
COPY_CALLS = frozenset({
    "concatenate", "vstack", "hstack", "stack", "column_stack",
    "ascontiguousarray", "asfortranarray", "flatten",
})

#: Kernels whose operands feed einsum/BLAS inner loops: a known
#: non-contiguous operand reaching one is N706 (the library strides or
#: silently copies, both of which a hot path cannot afford).
BLAS_KERNEL_CALLS = frozenset({
    "matvec", "einsum", "dot", "matmul", "inner", "solve", "lstsq",
})
