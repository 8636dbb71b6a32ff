"""What the engine accepts: valid task specs with unique keys."""

from __future__ import annotations

import pytest

from repro.engine import TaskSpec, run_graph_report
from tests.engine import tasklib

FN = "tests.engine.tasklib:add"


# ----------------------------------------------------------------------
# Unique keys, list order
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicate_key_rejected_before_any_task_runs(tmp_path, jobs):
    """A repeated key raises ``ValueError`` naming it, and no task of the
    list runs: the marker directory the tasks would write stays absent."""
    scratch = tmp_path / "runs"
    tasks = [
        TaskSpec(key=key, fn=tasklib.RECORD_RUN,
                 config={"scratch": str(scratch), "value": value})
        for value, key in enumerate(["a", "b", "a"])
    ]
    with pytest.raises(ValueError, match="duplicate task key 'a'"):
        run_graph_report(tasks, jobs=jobs)
    assert not scratch.exists()


def test_independent_tasks_keep_insertion_order():
    """At ``jobs=1`` the list order, not the key order, is the run order."""
    visits: list[str] = []
    tasks = [
        TaskSpec(key=key, fn=tasklib.VISIT, config={"key": key},
                 payload=visits)
        for key in ("c", "a", "b")
    ]
    report = run_graph_report(tasks, jobs=1)
    assert visits == ["c", "a", "b"]
    assert report.succeeded == ["c", "a", "b"]


# ----------------------------------------------------------------------
# TaskSpec validation
# ----------------------------------------------------------------------

def test_spec_rejects_empty_key():
    with pytest.raises(ValueError, match="non-empty"):
        TaskSpec(key="", fn=FN)


def test_spec_rejects_fn_without_module_separator():
    with pytest.raises(ValueError, match="module:callable"):
        TaskSpec(key="t", fn="not_a_dotted_path")
