"""The work graph: tasks plus their declared dependencies.

``TaskGraph`` validates eagerly (duplicate keys at ``add`` time, unknown
dependencies and cycles at ``topological_order`` time) and orders
deterministically: ready tasks are emitted in insertion order.  At
``jobs=1`` the executor visits tasks in exactly ``topological_order()``.
"""

from __future__ import annotations

from collections import deque

from repro.engine.spec import TaskSpec


class GraphError(ValueError):
    """An invalid task graph (duplicate key, unknown dep, or cycle)."""


class TaskGraph:
    """A DAG of :class:`TaskSpec` keyed by task key."""

    def __init__(self, tasks: list[TaskSpec] | None = None):
        self._tasks: dict[str, TaskSpec] = {}
        for task in tasks or []:
            self.add(task)

    def add(self, task: TaskSpec) -> TaskSpec:
        if task.key in self._tasks:
            raise GraphError(f"duplicate task key {task.key!r}")
        self._tasks[task.key] = task
        return task

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, key: str) -> bool:
        return key in self._tasks

    def get(self, key: str) -> TaskSpec:
        return self._tasks[key]

    @property
    def keys(self) -> list[str]:
        return list(self._tasks)

    @property
    def tasks(self) -> list[TaskSpec]:
        return list(self._tasks.values())

    def dependents(self) -> dict[str, list[str]]:
        """Reverse adjacency: key -> keys that declared it as a dep."""
        reverse: dict[str, list[str]] = {key: [] for key in self._tasks}
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise GraphError(
                        f"task {task.key!r} depends on unknown task {dep!r}"
                    )
                reverse[dep].append(task.key)
        return reverse

    def topological_order(self) -> list[TaskSpec]:
        """Kahn's algorithm with insertion-order tie-breaking.

        Raises :class:`GraphError` on unknown dependencies or cycles,
        naming the tasks involved.
        """
        reverse = self.dependents()
        in_degree = {
            key: len(task.deps) for key, task in self._tasks.items()
        }
        ready = deque(
            key for key, degree in in_degree.items() if degree == 0
        )
        order: list[TaskSpec] = []
        while ready:
            key = ready.popleft()
            order.append(self._tasks[key])
            for dependent in reverse[key]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._tasks):
            stuck = sorted(
                key for key, degree in in_degree.items() if degree > 0
            )
            raise GraphError(
                f"dependency cycle among tasks: {', '.join(stuck)}"
            )
        return order
