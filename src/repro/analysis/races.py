"""Concurrency-safety rules for async code (rule family ``R6xx``).

chaos-serve made the reproduction a long-running cooperative system: a
single asyncio loop multiplexes reader coroutines, a tick loop, and
registry hot-swaps over shared session/registry/stats state.  pytest
cannot reliably catch interleaving bugs — they need the wrong two
coroutines to alternate at the wrong await — but most of them are
*statically visible* given three ingredients the analysis layer already
has: CFGs (with interleaving points), a module call graph with async
coloring, and a registry of which attributes are shared mutable state.

Rules
-----
* ``R601`` — a registered shared-state attribute is read, an
  interleaving point (``await``/``yield``/executor hand-off) passes,
  and the attribute is written — a read-modify-write another coroutine
  can split — without an ``asyncio.Lock`` held,
* ``R602`` — a blocking call (``time.sleep``, sync subprocess/socket
  I/O, ``open``, ``Future.result()``) reachable from an async-colored
  function: it stalls the event loop for every session it serves,
* ``R603`` — a coroutine object created (a call to a module-local
  ``async def``) but never awaited, gathered, or task-wrapped,
* ``R604`` — an asyncio primitive (``Lock``/``Event``/``Queue``/...)
  created where no event loop runs: at module scope, or in a sync
  function that later calls ``asyncio.run`` — the primitive binds to
  the wrong loop (or, on 3.10+, raises once shared across loops),
* ``R605`` — a fork/pickle hazard: a lock, socket, open file handle,
  stream half, or event loop captured by an engine ``TaskSpec`` (or an
  executor ``submit``) — such objects do not survive the process
  boundary.

The analyses are intraprocedural over one module (the call graph does
not cross files); that boundary is what keeps the engine's deliberate
blocking calls — which run on worker processes, in modules with no
coroutines — out of scope without any suppression.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.callgraph import (
    MODULE_UNIT,
    CallGraph,
    build_callgraph,
)
from repro.analysis.cfg import (
    CFG,
    FunctionUnit,
    interleaving_points,
    iter_function_units,
    unit_has_interleaving,
)
from repro.analysis.dataflow import Analysis, run_forward
from repro.analysis.findings import Finding
from repro.analysis.signatures import (
    ASYNC_PRIMITIVE_NAMES,
    BLOCKING_BARE_IMPORTS,
    BLOCKING_CALL_DOTTED,
    EXECUTOR_HANDOFF_CALLS,
    FORK_HAZARD_CALLS,
    FORK_HAZARD_PARAM_HINTS,
    SHARED_STATE_ATTRS,
    dotted_call_name,
    is_lock_name,
    matches_dotted,
)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Mutating method names that count as a *write* to their receiver.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
    "popleft", "cancel",
})

# R601 phase lattice per shared attribute:
#   0 = untouched, 1 = read, 2 = read then an interleaving point passed.
_UNTOUCHED, _READ, _READ_THEN_WAIT = 0, 1, 2

Phase = int
RaceState = Dict[str, Phase]


def _own_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node in this body, nested def/class bodies excluded.

    Nested scopes are skipped whether they appear directly in ``body``
    or deeper inside a compound statement; only their decorators and
    argument defaults (which evaluate in this scope) are walked.
    """
    stack: List[ast.AST] = []

    def push(node: ast.AST) -> None:
        if isinstance(node, _SCOPE_NODES):
            stack.extend(getattr(node, "decorator_list", []))
            args = getattr(node, "args", None)
            if args is not None:
                stack.extend(args.defaults)
                stack.extend(
                    default
                    for default in args.kw_defaults
                    if default is not None
                )
            return
        stack.append(node)

    for stmt in body:
        push(stmt)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            push(child)


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, _SCOPE_NODES):
        return []
    return [
        node for node in ast.iter_child_nodes(stmt)
        if isinstance(node, ast.expr)
    ]


# ----------------------------------------------------------------------
# R601 — shared-state read-modify-write across an interleaving point
# ----------------------------------------------------------------------

def _attr_of_store_target(target: ast.expr) -> Optional[str]:
    """Shared attribute written by one assignment target, if any.

    ``x.attr = v`` writes ``attr``; ``x.attr[k] = v`` mutates ``attr``
    (a weak update of the container).
    """
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        if node.attr in SHARED_STATE_ATTRS:
            return node.attr
    return None


def _stmt_writes(stmt: ast.stmt) -> List[Tuple[str, ast.stmt]]:
    """Shared attributes this (header-only) statement writes."""
    writes: List[Tuple[str, ast.stmt]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            targets = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in targets:
                attr = _attr_of_store_target(element)
                if attr is not None:
                    writes.append((attr, stmt))
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        attr = _attr_of_store_target(stmt.target)
        if attr is not None:
            writes.append((attr, stmt))
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            attr = _attr_of_store_target(target)
            if attr is not None:
                writes.append((attr, stmt))
    # Mutator method calls anywhere in the header expressions:
    # ``self._pending.pop(t)`` writes ``_pending``.
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                receiver = node.func.value
                while isinstance(receiver, ast.Subscript):
                    receiver = receiver.value
                if (
                    isinstance(receiver, ast.Attribute)
                    and receiver.attr in SHARED_STATE_ATTRS
                ):
                    writes.append((receiver.attr, stmt))
    return writes


def _stmt_reads(stmt: ast.stmt) -> Set[str]:
    """Shared attributes this statement reads (load context)."""
    reads: Set[str] = set()
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in SHARED_STATE_ATTRS
            ):
                reads.add(node.attr)
    if isinstance(stmt, ast.AugAssign):
        # ``x.attr += v``: the store target is also read.
        node = stmt.target
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SHARED_STATE_ATTRS
        ):
            reads.add(node.attr)
    return reads


def _lock_protected_stmts(node: ast.AST) -> Set[int]:
    """ids of statements lexically inside ``async with <lock>`` bodies."""
    protected: Set[int] = set()

    def expr_is_lock(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute):
            return is_lock_name(expr.attr)
        if isinstance(expr, ast.Name):
            return is_lock_name(expr.id)
        if isinstance(expr, ast.Call):
            return expr_is_lock(expr.func)
        return False

    def mark(body: List[ast.stmt]) -> None:
        for stmt in body:
            protected.add(id(stmt))
            # Recurse into compound bodies of protected statements.
            for field_name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field_name, None)
                if inner:
                    mark(list(inner))
            for handler in getattr(stmt, "handlers", ()):
                mark(list(handler.body))

    for current in _own_scope(getattr(node, "body", [])):
        if isinstance(current, ast.AsyncWith) and any(
            expr_is_lock(item.context_expr) for item in current.items
        ):
            mark(list(current.body))
    return protected


class _RmwAnalysis(Analysis):
    """Forward phase analysis: per shared attribute, has it been read,
    and has an interleaving point passed since?"""

    def __init__(self, protected: Set[int]) -> None:
        self.protected = protected

    def entry_state(self, cfg: CFG) -> RaceState:
        del cfg
        return {}

    def bottom(self) -> RaceState:
        return {}

    def join(self, left: RaceState, right: RaceState) -> RaceState:
        if not left:
            return dict(right)
        if not right:
            return dict(left)
        merged = dict(left)
        for attr, phase in right.items():
            merged[attr] = max(merged.get(attr, _UNTOUCHED), phase)
        return merged

    def step(
        self,
        state: RaceState,
        stmt: ast.stmt,
        report: Optional[List[Tuple[str, ast.stmt]]] = None,
    ) -> RaceState:
        """One statement's effect; intra-statement order is
        reads -> suspension -> writes, matching Python evaluation."""
        env = dict(state)
        protected = id(stmt) in self.protected
        if not protected:
            for attr in _stmt_reads(stmt):
                env[attr] = max(env.get(attr, _UNTOUCHED), _READ)
        if interleaving_points(stmt, EXECUTOR_HANDOFF_CALLS):
            for attr, phase in env.items():
                if phase == _READ:
                    env[attr] = _READ_THEN_WAIT
        for attr, _ in _stmt_writes(stmt):
            if (
                not protected
                and report is not None
                and env.get(attr, _UNTOUCHED) == _READ_THEN_WAIT
            ):
                report.append((attr, stmt))
            # The write resolves the pending read-modify-write.
            env[attr] = _UNTOUCHED
        return env

    def transfer(self, state: RaceState, stmt: ast.stmt) -> RaceState:
        return self.step(state, stmt)


def _check_rmw(
    unit: FunctionUnit, path: str
) -> List[Finding]:
    if unit.node is None or not unit_has_interleaving(
        unit, EXECUTOR_HANDOFF_CALLS
    ):
        return []
    analysis = _RmwAnalysis(_lock_protected_stmts(unit.node))
    result = run_forward(unit.cfg, analysis)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int]] = set()
    for block in unit.cfg.blocks:
        state = result.block_in[block.index]
        for stmt in block.stmts:
            hits: List[Tuple[str, ast.stmt]] = []
            state = analysis.step(state, stmt, report=hits)
            for attr, where in hits:
                key = (attr, where.lineno)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    "R601",
                    f"shared attribute {attr!r} is read, an await/yield "
                    "passes, then it is written — another coroutine can "
                    "interleave and the write clobbers its update; hold "
                    "an asyncio.Lock across the read-modify-write or "
                    "re-read after the suspension",
                    f"{path}:{where.lineno}",
                    context={
                        "function": unit.qualname,
                        "attribute": attr,
                    },
                ))
    return findings


# ----------------------------------------------------------------------
# R602 — blocking call reachable from async-colored code
# ----------------------------------------------------------------------

def _blocking_bare_names(tree: ast.Module) -> Set[str]:
    """Local names that alias a registered blocking callable."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            for alias in node.names:
                if BLOCKING_BARE_IMPORTS.get(alias.name) == node.module:
                    names.add(alias.asname or alias.name)
    return names


def _future_result_call(call: ast.Call) -> bool:
    """``submit(...).result()`` chains and ``*future*.result()``."""
    if not (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "result"
        and not call.args
        and not call.keywords
    ):
        return False
    receiver = call.func.value
    for node in ast.walk(receiver):
        if isinstance(node, ast.Call):
            target = dotted_call_name(node.func)
            tail = (target or "").rpartition(".")[2]
            if tail in EXECUTOR_HANDOFF_CALLS:
                return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            lowered = name.lower()
            if lowered.endswith("future") or lowered.endswith("fut"):
                return True
    return False


def _check_blocking(
    tree: ast.Module,
    graph: CallGraph,
    colored: FrozenSet[str],
    path: str,
) -> List[Finding]:
    bare = _blocking_bare_names(tree)
    findings: List[Finding] = []
    for qualname in sorted(colored):
        fn = graph.functions.get(qualname)
        if fn is None or qualname == MODULE_UNIT:
            continue
        for call in fn.calls:
            message: Optional[str] = None
            dotted = call.target if call.target != "<dynamic>" else None
            if matches_dotted(dotted, BLOCKING_CALL_DOTTED):
                message = (
                    f"blocking call {call.target}() runs on the event "
                    "loop"
                )
            elif dotted == "open" or (
                dotted is not None and dotted in bare
            ):
                shown = "open" if dotted == "open" else call.target
                message = (
                    f"blocking call {shown}() runs on the event loop"
                )
            elif _future_result_call(call.node):
                message = (
                    "Future.result() blocks the event loop until the "
                    "executor finishes"
                )
            if message is not None:
                findings.append(Finding(
                    "R602",
                    message + (
                        f" ({qualname} is async-colored); await an "
                        "async equivalent or hand the work to "
                        "run_in_executor"
                    ),
                    f"{path}:{call.lineno}",
                    context={"function": qualname, "call": call.target},
                ))
    return findings


# ----------------------------------------------------------------------
# R603 — coroutine created but never awaited
# ----------------------------------------------------------------------

def _parent_map(body: List[ast.stmt]) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in _own_scope(body):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            parents[id(child)] = node
    return parents


def _name_loads(body: List[ast.stmt], name: str) -> int:
    return sum(
        1
        for node in _own_scope(body)
        if isinstance(node, ast.Name)
        and node.id == name
        and isinstance(node.ctx, ast.Load)
    )


def _check_unawaited(
    tree: ast.Module, graph: CallGraph, path: str
) -> List[Finding]:
    async_names = {
        graph.functions[q].name for q in graph.async_functions()
    }
    findings: List[Finding] = []
    for qualname, fn in graph.functions.items():
        if fn.node is None:
            continue
        body = list(getattr(fn.node, "body", []))
        parents = _parent_map(body)
        for call in fn.calls:
            if call.name not in async_names:
                continue
            node = call.node
            parent = parents.get(id(node))
            if isinstance(parent, ast.Await):
                continue
            if isinstance(parent, ast.Expr):
                findings.append(Finding(
                    "R603",
                    f"coroutine {call.name}() is created and discarded "
                    "without being awaited; it will never run — await "
                    "it, or wrap it in asyncio.create_task/gather",
                    f"{path}:{call.lineno}",
                    context={"function": qualname, "coroutine": call.name},
                ))
                continue
            if isinstance(parent, ast.Call):
                # Passed somewhere (gather, ensure_future, a helper):
                # consumed as far as an intraprocedural view can tell.
                continue
            if isinstance(parent, ast.Assign) and len(
                parent.targets
            ) == 1 and isinstance(parent.targets[0], ast.Name):
                bound = parent.targets[0].id
                if _name_loads(body, bound) == 0:
                    findings.append(Finding(
                        "R603",
                        f"coroutine {call.name}() is bound to "
                        f"{bound!r} but {bound!r} is never awaited, "
                        "gathered, or task-wrapped in this function",
                        f"{path}:{call.lineno}",
                        context={
                            "function": qualname,
                            "coroutine": call.name,
                        },
                    ))
    return findings


# ----------------------------------------------------------------------
# R604 — asyncio primitive created outside the loop that uses it
# ----------------------------------------------------------------------

def _asyncio_primitive_aliases(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "asyncio":
            for alias in node.names:
                if alias.name in ASYNC_PRIMITIVE_NAMES:
                    names.add(alias.asname or alias.name)
    return names


def _primitive_creations(
    nodes: Iterator[ast.AST], aliases: Set[str]
) -> List[Tuple[str, ast.Call]]:
    created: List[Tuple[str, ast.Call]] = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_call_name(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.rpartition(".")
        if tail in ASYNC_PRIMITIVE_NAMES and (
            head == "asyncio" or head.endswith(".asyncio")
        ):
            created.append((tail, node))
        elif not head and dotted in aliases:
            created.append((dotted, node))
    return created


def _module_scope_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Module body including class bodies (also pre-loop), not defs."""
    def is_def(node: ast.AST) -> bool:
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))

    stack: List[ast.AST] = [n for n in tree.body if not is_def(n)]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if is_def(child):
                continue
            stack.append(child)


def _check_primitives(
    tree: ast.Module, graph: CallGraph, path: str
) -> List[Finding]:
    aliases = _asyncio_primitive_aliases(tree)
    findings: List[Finding] = []
    for kind, call in _primitive_creations(
        _module_scope_nodes(tree), aliases
    ):
        findings.append(Finding(
            "R604",
            f"asyncio.{kind}() created at module scope, before any "
            "event loop exists; it binds to no loop (and raises when "
            "shared across loops) — create it inside the coroutine or "
            "server that owns it",
            f"{path}:{call.lineno}",
            context={"function": MODULE_UNIT, "primitive": kind},
        ))
    for qualname, fn in graph.functions.items():
        if fn.node is None or fn.is_async or qualname == MODULE_UNIT:
            continue
        calls_run = any(
            (site.target or "").rpartition(".")[2] == "run"
            and (site.target or "").rpartition(".")[0].endswith("asyncio")
            for site in fn.calls
        )
        if not calls_run:
            continue
        body = list(getattr(fn.node, "body", []))
        for kind, call in _primitive_creations(_own_scope(body), aliases):
            findings.append(Finding(
                "R604",
                f"asyncio.{kind}() created in sync function "
                f"{qualname}() before asyncio.run() starts the loop; "
                "the primitive binds to the wrong loop — create it "
                "inside the coroutine asyncio.run() executes",
                f"{path}:{call.lineno}",
                context={"function": qualname, "primitive": kind},
            ))
    return findings


# ----------------------------------------------------------------------
# R605 — fork/pickle hazard captured by a TaskSpec / submit
# ----------------------------------------------------------------------

def _hazard_names(fn_node: ast.AST) -> Set[str]:
    """Names in this function bound to fork-unsafe objects."""
    hazards: Set[str] = set()
    args = getattr(fn_node, "args", None)
    if args is not None:
        for arg in (
            list(getattr(args, "posonlyargs", []))
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            lowered = arg.arg.lower()
            if lowered in FORK_HAZARD_PARAM_HINTS or any(
                lowered.endswith("_" + hint)
                for hint in FORK_HAZARD_PARAM_HINTS
            ):
                hazards.add(arg.arg)
    body = list(getattr(fn_node, "body", []))
    for node in _own_scope(body):
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, list(node.targets)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None and isinstance(
                    item.context_expr, ast.Call
                ) and matches_dotted(
                    dotted_call_name(item.context_expr.func),
                    FORK_HAZARD_CALLS,
                ):
                    targets.append(item.optional_vars)
            value = None
        if isinstance(value, ast.Await):
            value = value.value
        if (
            value is not None
            and isinstance(value, ast.Call)
            and matches_dotted(dotted_call_name(value.func), FORK_HAZARD_CALLS)
        ):
            pass
        elif value is not None:
            targets = []
        for target in targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                if isinstance(element, ast.Name):
                    hazards.add(element.id)
    return hazards


def _check_taskspec_captures(
    graph: CallGraph, path: str
) -> List[Finding]:
    findings: List[Finding] = []
    for qualname, fn in graph.functions.items():
        if fn.node is None:
            continue
        hazards = _hazard_names(fn.node)
        if not hazards:
            continue
        for call in fn.calls:
            tail = call.name
            if tail != "TaskSpec" and tail not in ("submit",):
                continue
            captured: Set[str] = set()
            for arg in list(call.node.args) + [
                kw.value for kw in call.node.keywords
            ]:
                for node in ast.walk(arg):
                    if (
                        isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in hazards
                    ):
                        captured.add(node.id)
            for name in sorted(captured):
                findings.append(Finding(
                    "R605",
                    f"{name!r} holds a lock, socket, open handle, or "
                    f"event loop and is captured by {tail}(); such "
                    "objects do not survive the fork/pickle boundary — "
                    "pass plain data and re-open resources in the "
                    "worker",
                    f"{path}:{call.lineno}",
                    context={"function": qualname, "capture": name},
                ))
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def check_races_source(
    source: str, path: Union[str, Path]
) -> List[Finding]:
    """R6xx findings for one module's source text."""
    path = Path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raise ValueError(f"cannot parse {path}: {error}") from error
    graph = build_callgraph(tree, module=str(path))
    colored = frozenset(graph.async_colored())
    findings: List[Finding] = []
    for unit in iter_function_units(tree):
        findings.extend(_check_rmw(unit, str(path)))
    findings.extend(_check_blocking(tree, graph, colored, str(path)))
    findings.extend(_check_unawaited(tree, graph, str(path)))
    findings.extend(_check_primitives(tree, graph, str(path)))
    findings.extend(_check_taskspec_captures(graph, str(path)))
    findings.sort(key=lambda f: f.location)
    return findings
