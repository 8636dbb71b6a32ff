"""Task specifications: the unit of work the engine schedules.

A ``TaskSpec`` is declarative: the function is named by dotted path (so
workers can resolve it after crossing a process boundary), ``config`` is
the JSON-canonicalizable description that *identifies* the work (it is
hashed into the cache key), and ``payload`` carries heavyweight runtime
inputs (numpy arrays, cluster objects) that are pickled to workers but
deliberately excluded from the hash — callers put a content digest of the
payload into ``config`` instead.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable task."""

    key: str
    """Stable id, unique within one run."""

    fn: str
    """Dotted path ``package.module:callable`` resolved in the worker."""

    config: dict = field(default_factory=dict)
    """JSON-canonicalizable identity of the work (hashed into the key)."""

    payload: Any = None
    """Runtime inputs shipped to the worker but *not* hashed."""

    cacheable: bool = True
    """Whether the (JSON-serializable) result may be cached on disk."""

    def __post_init__(self):
        if not self.key:
            raise ValueError("task key must be non-empty")
        if ":" not in self.fn:
            raise ValueError(
                f"task fn must be a 'module:callable' path, got {self.fn!r}"
            )


def resolve_callable(path: str) -> Callable:
    """Import ``package.module:callable`` and return the callable."""
    module_name, _, attribute = path.partition(":")
    if not module_name or not attribute:
        raise ValueError(f"invalid callable path {path!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attribute)
    except AttributeError:
        raise ValueError(
            f"module {module_name!r} has no attribute {attribute!r}"
        )
    if not callable(fn):
        raise TypeError(f"{path!r} is not callable")
    return fn
