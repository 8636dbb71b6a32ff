"""Module-level call graphs with async/sync coloring (chaos-race).

The R6xx concurrency rules need to answer one question the CFG cannot:
*can this function run on the event loop?*  A blocking ``time.sleep``
is harmless in a worker process and a defect inside a coroutine — or
inside a sync helper that a coroutine calls.  This builder lifts the
intraprocedural units of :mod:`repro.analysis.cfg` to a per-module call
graph:

* one :class:`FunctionNode` per function/method (and one for the module
  body), carrying its async/generator flavor and every call site in its
  own scope (nested ``def`` bodies belong to the nested node);
* edges resolved *within the module* by the same last-dotted-segment
  convention the rest of chaos-lint uses.  A bare ``helper()`` and a
  method ``self.helper()`` both resolve to every module function whose
  final name segment is ``helper`` — an over-approximation, which is
  the safe direction: the soundness property tests assert every call
  observed at runtime is present in the static graph, never the
  converse.

**Async coloring.**  ``async_colored()`` is the set of functions that
may execute on the event loop: every ``async def``, plus everything
transitively reachable from one through resolved call edges.  Cross-
module calls are out of scope by design — a module with no coroutines
has no async-colored functions, so the engine's (all-sync,
process-pool) blocking calls are never misattributed to the loop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

MODULE_UNIT = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function's own scope."""

    target: str
    """Full dotted target (``asyncio.gather``) when resolvable, else
    the last segment; ``<dynamic>`` for computed callees."""

    name: str
    """Last dotted segment, leading underscores kept."""

    lineno: int
    node: ast.Call = field(compare=False, hash=False, repr=False)


@dataclass
class FunctionNode:
    """One function (or the module body) in the call graph."""

    qualname: str
    name: str
    lineno: int
    is_async: bool
    is_generator: bool
    calls: List[CallSite] = field(default_factory=list)
    node: Optional[ast.AST] = field(default=None, repr=False)


@dataclass
class CallGraph:
    """Functions and resolved intra-module call edges."""

    module: str
    functions: Dict[str, FunctionNode]
    edges: Dict[str, Set[str]]
    """caller qualname -> callee qualnames resolved in this module."""

    def node(self, qualname: str) -> FunctionNode:
        return self.functions[qualname]

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def async_functions(self) -> Set[str]:
        return {
            qualname
            for qualname, fn in self.functions.items()
            if fn.is_async
        }

    def reachable_from(self, roots: Set[str]) -> Set[str]:
        """Roots plus everything transitively called from them."""
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def async_colored(self) -> Set[str]:
        """Functions that may run on the event loop: every ``async
        def`` plus all functions they transitively call."""
        return self.reachable_from(self.async_functions())


def _dotted(func: ast.AST) -> Optional[str]:
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_scope_nodes(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes.

    A nested ``def``/``class`` is its own unit; only the parts of it
    that evaluate in *this* scope — decorators and argument defaults —
    stay visible to the walk.
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


def _collect_calls(body: List[ast.stmt]) -> List[CallSite]:
    calls: List[CallSite] = []
    for node in _own_scope_nodes(body):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            calls.append(
                CallSite("<dynamic>", "<dynamic>", node.lineno, node)
            )
            continue
        name = dotted.rpartition(".")[2]
        calls.append(CallSite(dotted, name, node.lineno, node))
    return calls


def _is_generator(body: List[ast.stmt]) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _own_scope_nodes(body)
    )


def _iter_defs(
    node: ast.AST, prefix: str
) -> Iterator[Tuple[str, ast.AST]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{child.name}"
            yield qualname, child
            yield from _iter_defs(child, f"{qualname}.")
        elif isinstance(child, ast.ClassDef):
            yield from _iter_defs(child, f"{prefix}{child.name}.")
        else:
            yield from _iter_defs(child, prefix)


def build_callgraph(
    tree: ast.Module, module: str = MODULE_UNIT
) -> CallGraph:
    """Build the call graph of one parsed module.

    Every function gets a node; edges link a caller to *every* module
    function whose final name segment matches the call target's — the
    deliberate over-approximation documented above.
    """
    functions: Dict[str, FunctionNode] = {
        MODULE_UNIT: FunctionNode(
            qualname=MODULE_UNIT,
            name=MODULE_UNIT,
            lineno=0,
            is_async=False,
            is_generator=False,
            calls=_collect_calls(tree.body),
            node=tree,
        )
    }
    for qualname, node in _iter_defs(tree, ""):
        functions[qualname] = FunctionNode(
            qualname=qualname,
            name=node.name,
            lineno=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            is_generator=_is_generator(node.body),
            calls=_collect_calls(node.body),
            node=node,
        )

    by_name: Dict[str, List[str]] = {}
    for qualname, fn in functions.items():
        by_name.setdefault(fn.name, []).append(qualname)

    edges: Dict[str, Set[str]] = {}
    for qualname, fn in functions.items():
        targets: Set[str] = set()
        for call in fn.calls:
            for callee in by_name.get(call.name, ()):
                targets.add(callee)
        edges[qualname] = targets
    return CallGraph(module=module, functions=functions, edges=edges)


def build_callgraph_source(
    source: str, module: str = MODULE_UNIT
) -> CallGraph:
    """Parse ``source`` and build its call graph."""
    return build_callgraph(ast.parse(source), module=module)
