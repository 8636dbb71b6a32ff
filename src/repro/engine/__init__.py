"""The parallel experiment engine.

Decomposes experiment pipelines into lists of independent, declaratively
specified tasks, executes them with one scheduler — in the calling
process at ``jobs=1``, on a process pool above that — with bit-identical
results, and backs cacheable tasks with a checksummed, content-addressed
on-disk artifact cache — which is also what makes interrupted runs
resumable.  See ``docs/engine.md``.
"""

from repro.engine.cache import (
    DEFAULT_CACHE_DIR,
    MISS,
    ArtifactCache,
    CacheStats,
    atomic_write_json,
)
from repro.engine.codeversion import code_version
from repro.engine.executor import (
    CONTINUE,
    FAIL_FAST,
    FAILURE_POLICIES,
    RunReport,
    TaskError,
    TaskFailure,
    run_graph,
    run_graph_report,
)
from repro.engine.hashing import (
    cache_key,
    canonical_json,
    canonical_payload,
    canonical_result,
    sha256_hex,
)
from repro.engine.options import (
    EngineOptions,
    default_options,
    reset_default_options,
    resolve_cache,
    resolve_failure_policy,
    resolve_jobs,
    set_default_options,
)
from repro.engine.spec import TaskSpec, resolve_callable

__all__ = [
    "CONTINUE",
    "DEFAULT_CACHE_DIR",
    "FAIL_FAST",
    "FAILURE_POLICIES",
    "MISS",
    "ArtifactCache",
    "CacheStats",
    "EngineOptions",
    "RunReport",
    "TaskError",
    "TaskFailure",
    "TaskSpec",
    "atomic_write_json",
    "cache_key",
    "canonical_json",
    "canonical_payload",
    "canonical_result",
    "code_version",
    "default_options",
    "reset_default_options",
    "resolve_cache",
    "resolve_callable",
    "resolve_failure_policy",
    "resolve_jobs",
    "run_graph",
    "run_graph_report",
    "set_default_options",
    "sha256_hex",
]
