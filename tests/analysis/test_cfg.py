"""Structural tests for the CFG builder under the R601 race analysis.

The fixpoint engine relies on a handful of invariants the builder must
uphold: the header-only convention (compound statements appear once, in
their header block), loop back and exit edges, terminator handling,
and a reverse post-order that starts at the entry block.
"""

import ast

from repro.analysis.cfg import build_cfg, iter_function_units


def _cfg(source, name="f"):
    tree = ast.parse(source)
    units = {u.qualname: u for u in iter_function_units(tree)}
    return units[name].cfg


def _stmt_types(cfg):
    return [type(stmt).__name__ for _, stmt in cfg.statements()]


def _loop_header(cfg):
    """Index of the block holding the (only) ``for`` header."""
    return next(
        block.index for block, s in cfg.statements()
        if isinstance(s, ast.For)
    )


class TestStraightLine:
    def test_linear_code_threads_entry_to_exit(self):
        cfg = _cfg("def f():\n    a = 1\n    b = a\n    return b\n")
        entry = cfg.blocks[cfg.entry]
        assert [type(s).__name__ for s in entry.stmts] == [
            "Assign", "Assign", "Return",
        ]
        assert entry.succs == [cfg.exit]

    def test_module_unit_exists(self):
        tree = ast.parse("x = 1\n")
        units = list(iter_function_units(tree))
        assert units[0].qualname == "<module>"
        assert units[0].node is None
        assert units[0].args is None


class TestBranches:
    def test_if_else_produces_diamond(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        header = cfg.blocks[cfg.entry]
        # Header holds the If node itself (header-only convention) ...
        assert isinstance(header.stmts[-1], ast.If)
        # ... and branches to two successors that rejoin.
        assert len(header.succs) == 2
        joins = {
            succ
            for branch in header.succs
            for succ in cfg.blocks[branch].succs
        }
        assert len(joins) == 1

    def test_if_body_not_duplicated_in_header(self):
        cfg = _cfg("def f(c):\n    if c:\n        x = 1\n    return c\n")
        # The body Assign must appear exactly once across all blocks.
        assigns = [s for _, s in cfg.statements() if isinstance(s, ast.Assign)]
        assert len(assigns) == 1

    def test_both_arms_returning_terminates_path(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        return 1\n"
            "    else:\n"
            "        return 2\n"
        )
        # Exit is reachable only through the two Return blocks.
        assert len(cfg.blocks[cfg.exit].preds) == 2


class TestLoops:
    def test_loop_header_has_back_edge_and_exit_edge(self):
        cfg = _cfg("def f(xs):\n    for x in xs:\n        y = x\n")
        header = _loop_header(cfg)
        body = next(
            block for block, s in cfg.statements()
            if isinstance(s, ast.Assign)
        )
        # The header reaches its body, the body threads back to the
        # header, and the header's other edge leaves the loop.
        assert body.index in cfg.blocks[header].succs
        assert header in body.succs
        (loop_exit,) = set(cfg.blocks[header].succs) - {body.index}
        assert cfg.blocks[loop_exit].succs == [cfg.exit]

    def test_break_jumps_to_loop_exit(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        break\n"
            "    return 1\n"
        )
        break_block = next(
            block for block, s in cfg.statements()
            if isinstance(s, ast.Break)
        )
        (target,) = break_block.succs
        header = _loop_header(cfg)
        # The loop's exit block: the header's edge out of the loop.
        assert target != header
        assert target in cfg.blocks[header].succs
        assert target != break_block.index

    def test_continue_jumps_to_loop_header(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        continue\n"
        )
        continue_block = next(
            block for block, s in cfg.statements()
            if isinstance(s, ast.Continue)
        )
        assert continue_block.succs == [_loop_header(cfg)]


class TestTry:
    def test_handler_reachable_from_body(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        a = risky()\n"
            "    except ValueError:\n"
            "        a = 0\n"
            "    return a\n"
        )
        # Both the body's Assign and the handler's Assign must be present
        # and the exit reachable (the function falls through either way).
        assigns = [s for _, s in cfg.statements() if isinstance(s, ast.Assign)]
        assert len(assigns) == 2
        assert cfg.blocks[cfg.exit].preds

    def test_all_paths_raising_is_terminal(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        raise ValueError\n"
            "    except TypeError:\n"
            "        raise KeyError\n"
            "    x = 1\n"
        )
        # `x = 1` is unreachable: its block has no predecessors.
        orphan = next(
            block for block, s in cfg.statements()
            if isinstance(s, ast.Assign)
        )
        assert orphan.preds == []


class TestRpo:
    def test_rpo_starts_at_entry(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    for i in range(3):\n"
            "        x = i\n"
            "    return x\n"
        )
        order = cfg.rpo()
        assert order[0] == cfg.entry
        assert len(order) == len(set(order))

    def test_rpo_visits_predecessors_first_outside_loops(self):
        cfg = _cfg(
            "def f(c, xs):\n"
            "    if c:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    for x in xs:\n"
            "        a = x\n"
            "    return a\n"
        )
        order = cfg.rpo()
        rank = {index: position for position, index in enumerate(order)}
        header = _loop_header(cfg)
        for block in cfg.blocks:
            for succ in block.succs:
                if succ in rank and rank[succ] < rank[block.index]:
                    # Only the loop's back edge may go "up" the order.
                    assert succ == header

    def test_unreachable_code_excluded_from_rpo(self):
        cfg = _cfg("def f():\n    return 1\n    x = 2\n")
        order = set(cfg.rpo())
        orphan = next(
            block for block, s in cfg.statements()
            if isinstance(s, ast.Assign)
        )
        assert orphan.index not in order
        # ... but the statement is still visible for syntax passes.
        assert "Assign" in _stmt_types(cfg)


class TestFunctionDiscovery:
    def test_nested_and_method_qualnames(self):
        tree = ast.parse(
            "class C:\n"
            "    def m(self):\n"
            "        def inner():\n"
            "            pass\n"
            "        return inner\n"
        )
        names = {u.qualname for u in iter_function_units(tree)}
        assert names == {"<module>", "C.m", "C.m.inner"}

    def test_build_cfg_on_empty_body(self):
        cfg = build_cfg([], name="empty")
        assert cfg.blocks[cfg.entry].succs == [cfg.exit]
