"""Control-flow graphs over Python AST, one per function (and module).

The R601 race analysis (:mod:`repro.analysis.races`, run on the
fixpoint engine in :mod:`repro.analysis.dataflow`) needs a CFG, not a
syntax tree: whether a read of shared state and its write are split by
an ``await`` depends on *which paths* connect them, not on where they
sit in the source.  This builder produces intraprocedural CFGs with one
convention worth knowing:

**Compound statements appear in their header block only.**  An
``ast.If``/``ast.While``/``ast.For``/``ast.With``/``ast.Try`` node placed
in a block stands for *evaluating its header* (the test expression, the
iterable, the context managers); the statements of its body live in
separate blocks connected by edges.  Transfer functions must therefore
treat e.g. ``ast.For`` as "bind the target from one element of the
iterable" and never recurse into ``node.body``.

**Interleaving points** (chaos-race).  In cooperative concurrency the
only places another coroutine can run are suspension points: ``await``
expressions, ``yield``/``yield from``, the implicit awaits in ``async
for``/``async with`` headers, and hand-offs to an executor.
:func:`interleaving_points` enumerates them for one (header-only)
statement — the R6xx race rules key their "can someone else run in
between?" question on exactly these points.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

_MATCH = getattr(ast, "Match", None)
_TRYSTAR = getattr(ast, "TryStar", None)


@dataclass
class BasicBlock:
    """A straight-line sequence of (header-only) statements."""

    index: int
    stmts: List[Any] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


@dataclass
class CFG:
    """One function's (or module's) control-flow graph."""

    name: str
    blocks: List[BasicBlock]
    entry: int
    exit: int
    lineno: int = 0

    def rpo(self) -> List[int]:
        """Reverse post-order of the blocks reachable from entry."""
        seen = set()
        order: List[int] = []

        def visit(index: int) -> None:
            stack = [(index, iter(self.blocks[index].succs))]
            seen.add(index)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))

    def statements(self) -> Iterator[Tuple[BasicBlock, Any]]:
        """Every (block, statement) pair, in block order."""
        for block in self.blocks:
            for stmt in block.stmts:
                yield block, stmt


class _Builder:
    """Accumulates blocks/edges while walking one statement list."""

    def __init__(self, name: str, lineno: int) -> None:
        self.name = name
        self.lineno = lineno
        self.blocks: List[BasicBlock] = []
        #: Stack of (loop header block, loop exit block) for break/continue.
        self.loop_stack: List[Tuple[int, int]] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> int:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block.index

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def add_stmt(self, block: int, stmt: Any) -> None:
        self.blocks[block].stmts.append(stmt)

    # -- statement dispatch ---------------------------------------------

    def build_body(
        self, stmts: Sequence[ast.stmt], current: Optional[int]
    ) -> Optional[int]:
        """Thread ``stmts`` from block ``current``; return the block where
        control continues, or None when every path terminated."""
        for stmt in stmts:
            if current is None:
                # Unreachable code after return/break/...; still give it
                # a block so its statements are visible to syntax-only
                # passes, but leave it disconnected.
                current = self.new_block()
            current = self._build_stmt(stmt, current)
        return current

    def _build_stmt(self, stmt: ast.stmt, current: int) -> Optional[int]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, current)
        if isinstance(stmt, ast.Try) or (
            _TRYSTAR is not None and isinstance(stmt, _TRYSTAR)
        ):
            return self._build_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.add_stmt(current, stmt)
            return self.build_body(stmt.body, current)
        if _MATCH is not None and isinstance(stmt, _MATCH):
            return self._build_match(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.add_stmt(current, stmt)
            self.add_edge(current, self.exit)
            return None
        if isinstance(stmt, ast.Break):
            self.add_stmt(current, stmt)
            if self.loop_stack:
                self.add_edge(current, self.loop_stack[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            self.add_stmt(current, stmt)
            if self.loop_stack:
                self.add_edge(current, self.loop_stack[-1][0])
            return None
        # Simple statements — including nested FunctionDef/ClassDef,
        # which bind a name here and get their own CFG elsewhere.
        self.add_stmt(current, stmt)
        return current

    def _build_if(self, stmt: ast.If, current: int) -> Optional[int]:
        self.add_stmt(current, stmt)
        then_start = self.new_block()
        self.add_edge(current, then_start)
        then_end = self.build_body(stmt.body, then_start)
        if stmt.orelse:
            else_start = self.new_block()
            self.add_edge(current, else_start)
            else_end = self.build_body(stmt.orelse, else_start)
        else:
            else_end = current
        if then_end is None and else_end is None:
            return None
        join = self.new_block()
        if then_end is not None:
            self.add_edge(then_end, join)
        if else_end is not None:
            self.add_edge(else_end, join)
        return join

    def _build_loop(self, stmt: ast.stmt, current: int) -> int:
        header = self.new_block()
        self.add_edge(current, header)
        exit_block = self.new_block()
        self.loop_stack.append((header, exit_block))
        self.add_stmt(header, stmt)
        body_start = self.new_block()
        self.add_edge(header, body_start)
        body_end = self.build_body(stmt.body, body_start)
        if body_end is not None:
            self.add_edge(body_end, header)
        self.loop_stack.pop()
        self.add_edge(header, exit_block)
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            else_end = self.build_body(orelse, exit_block)
            if else_end is not None:
                return else_end
        return exit_block

    def _build_try(self, stmt: ast.stmt, current: int) -> Optional[int]:
        body_start = self.new_block()
        self.add_edge(current, body_start)
        body_end = self.build_body(stmt.body, body_start)
        join = self.new_block()
        handler_sources = [body_start]
        if body_end is not None:
            handler_sources.append(body_end)
        for handler in stmt.handlers:
            handler_start = self.new_block()
            for source in handler_sources:
                self.add_edge(source, handler_start)
            handler_end = self.build_body(handler.body, handler_start)
            if handler_end is not None:
                self.add_edge(handler_end, join)
        if body_end is not None:
            else_end = (
                self.build_body(stmt.orelse, body_end)
                if stmt.orelse
                else body_end
            )
            if else_end is not None:
                self.add_edge(else_end, join)
        if not self.blocks[join].preds:
            # Every path raised/returned; the finally body is still
            # built for visibility but control does not continue.
            if stmt.finalbody:
                self.build_body(stmt.finalbody, join)
            return None
        if stmt.finalbody:
            return self.build_body(stmt.finalbody, join)
        return join

    def _build_match(self, stmt: Any, current: int) -> Optional[int]:
        self.add_stmt(current, stmt)
        join = self.new_block()
        for case in stmt.cases:
            case_start = self.new_block()
            self.add_edge(current, case_start)
            case_end = self.build_body(case.body, case_start)
            if case_end is not None:
                self.add_edge(case_end, join)
        # A match without a catch-all can fall through.
        self.add_edge(current, join)
        return join

    def finish(self, last: Optional[int]) -> CFG:
        if last is not None:
            self.add_edge(last, self.exit)
        return CFG(
            name=self.name,
            blocks=self.blocks,
            entry=self.entry,
            exit=self.exit,
            lineno=self.lineno,
        )


def build_cfg(
    body: Sequence[ast.stmt], name: str = "<module>", lineno: int = 0
) -> CFG:
    """CFG for one statement list (a function body or a module body)."""
    builder = _Builder(name, lineno)
    last = builder.build_body(body, builder.entry)
    return builder.finish(last)


@dataclass
class FunctionUnit:
    """One analyzable scope: a function, method, or the module body."""

    qualname: str
    node: Optional[ast.AST]
    """The FunctionDef/AsyncFunctionDef node, or None for the module."""
    cfg: CFG

    @property
    def args(self) -> Optional[ast.arguments]:
        if self.node is None:
            return None
        return self.node.args


# ----------------------------------------------------------------------
# Interleaving points (await / yield / executor hand-off)
# ----------------------------------------------------------------------

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _stmt_header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a (header-only) statement itself evaluates.

    Mirrors the CFG convention: compound statements contribute only
    their header (an ``ast.If`` its test, an ``ast.For`` its iterable);
    simple statements contribute their whole expression tree.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if _MATCH is not None and isinstance(stmt, _MATCH):
        return [stmt.subject]
    if isinstance(stmt, ast.Try) or (
        _TRYSTAR is not None and isinstance(stmt, _TRYSTAR)
    ):
        return []
    if isinstance(stmt, _SCOPE_NODES):
        # A nested def/class binds a name; its body is another scope.
        return []
    return [
        node for node in ast.iter_child_nodes(stmt)
        if isinstance(node, ast.expr)
    ]


def interleaving_points(
    stmt: ast.stmt,
    handoff_calls: Optional[frozenset] = None,
) -> List[ast.AST]:
    """Suspension points evaluated by one (header-only) statement.

    Returns the ``Await``/``Yield``/``YieldFrom`` nodes inside the
    statement's header expressions, the statement itself for ``async
    for``/``async with`` headers (their protocol methods are awaited),
    and any call whose target's last dotted segment is in
    ``handoff_calls`` (executor hand-offs like ``run_in_executor``).
    Nested function bodies are separate scopes and never contribute.
    """
    points: List[ast.AST] = []
    if isinstance(stmt, (ast.AsyncFor, ast.AsyncWith)):
        points.append(stmt)
    for expr in _stmt_header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
                points.append(node)
            elif (
                handoff_calls is not None
                and isinstance(node, ast.Call)
            ):
                target = None
                if isinstance(node.func, ast.Attribute):
                    target = node.func.attr
                elif isinstance(node.func, ast.Name):
                    target = node.func.id
                if target is not None and target in handoff_calls:
                    points.append(node)
    return points


def stmt_interleaves(
    stmt: ast.stmt, handoff_calls: Optional[frozenset] = None
) -> bool:
    """Does evaluating this statement's header suspend the coroutine?"""
    return bool(interleaving_points(stmt, handoff_calls))


def unit_has_interleaving(
    unit: "FunctionUnit", handoff_calls: Optional[frozenset] = None
) -> bool:
    """Can control ever leave this unit mid-body (async def, generator,
    or executor hand-off present)?"""
    if isinstance(unit.node, ast.AsyncFunctionDef):
        return True
    return any(
        stmt_interleaves(stmt, handoff_calls)
        for _, stmt in unit.cfg.statements()
    )


def iter_function_units(
    tree: ast.Module, module_name: str = "<module>"
) -> Iterator[FunctionUnit]:
    """Yield a FunctionUnit for the module body and every (nested)
    function, each with its own intraprocedural CFG."""
    yield FunctionUnit(
        qualname=module_name,
        node=None,
        cfg=build_cfg(tree.body, name=module_name, lineno=0),
    )

    def walk(node: ast.AST, prefix: str) -> Iterator[FunctionUnit]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield FunctionUnit(
                    qualname=qualname,
                    node=child,
                    cfg=build_cfg(
                        child.body, name=qualname, lineno=child.lineno
                    ),
                )
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")
