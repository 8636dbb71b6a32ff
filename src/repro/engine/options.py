"""Process-wide engine defaults: parallelism, cache location, failure policy.

Library entry points (``sweep_models``, ``cross_validate``,
``execute_runs``) accept explicit ``jobs``/``cache``/``failure_policy``
arguments; when a caller passes ``None`` they fall back to the defaults
here, which the CLI sets from ``--jobs``/``--cache-dir``/``--no-cache``/
``--failure-policy``.  With nothing installed, ``jobs`` and the cache
directory come from the ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` environment
variables (CI runs the suite under ``REPRO_JOBS=2``) and the failure
policy is ``fail_fast``.  That lets a flag on ``repro reproduce``
parallelize every sweep inside an experiment driver without threading
arguments through each one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.engine.cache import ArtifactCache
from repro.engine.executor import FAIL_FAST, FAILURE_POLICIES

ENV_JOBS = "REPRO_JOBS"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class EngineOptions:
    """Resolved engine defaults."""

    jobs: int = 1
    cache_dir: str | None = None
    failure_policy: str = FAIL_FAST

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )

    def open_cache(self) -> ArtifactCache | None:
        if self.cache_dir is None:
            return None
        return ArtifactCache(self.cache_dir)


_default: EngineOptions | None = None


def set_default_options(
    jobs: int = 1,
    cache_dir: str | None = None,
    failure_policy: str = FAIL_FAST,
) -> EngineOptions:
    """Install process-wide defaults (the CLI's engine flags)."""
    global _default
    _default = EngineOptions(
        jobs=jobs, cache_dir=cache_dir, failure_policy=failure_policy
    )
    return _default


def reset_default_options() -> None:
    global _default
    _default = None


def default_options() -> EngineOptions:
    """The installed defaults, else environment-derived ones."""
    if _default is not None:
        return _default
    jobs_text = os.environ.get(ENV_JOBS, "")
    try:
        jobs = max(1, int(jobs_text))
    except ValueError:
        jobs = 1
    return EngineOptions(
        jobs=jobs, cache_dir=os.environ.get(ENV_CACHE_DIR) or None
    )


def resolve_jobs(jobs: int | None) -> int:
    return default_options().jobs if jobs is None else max(1, jobs)


def resolve_cache(cache: ArtifactCache | None | bool) -> ArtifactCache | None:
    """Resolve a caller's cache argument.

    ``None`` means "use the default" (which is no cache unless a default
    cache dir is configured); ``False`` means "explicitly no cache";
    an :class:`ArtifactCache` is used as-is.
    """
    if cache is False:
        return None
    if cache is None:
        return default_options().open_cache()
    return cache


def resolve_failure_policy(failure_policy: str | None) -> str:
    """``None`` means the process-wide default (``fail_fast`` unless
    configured); anything else must be a valid policy name."""
    if failure_policy is None:
        return default_options().failure_policy
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {FAILURE_POLICIES}, "
            f"got {failure_policy!r}"
        )
    return failure_policy
