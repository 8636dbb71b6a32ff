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
arguments through each one.  A ``jobs`` below 1, from any of these
sources, raises ``ValueError`` rather than quietly running serially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.engine.cache import ArtifactCache
from repro.engine.executor import (
    FAIL_FAST,
    check_failure_policy,
    check_jobs,
)

ENV_JOBS = "REPRO_JOBS"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class EngineOptions:
    """Resolved engine defaults."""

    jobs: int = 1
    cache_dir: str | None = None
    failure_policy: str = FAIL_FAST

    def __post_init__(self):
        check_jobs(self.jobs)
        check_failure_policy(self.failure_policy)

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
    """The installed defaults, else environment-derived ones.

    An unset or empty ``REPRO_JOBS`` means one worker; any other value
    must be an integer of at least 1, so a misspelled value fails loudly
    instead of silently running serially.
    """
    if _default is not None:
        return _default
    jobs_text = os.environ.get(ENV_JOBS, "")
    try:
        jobs = check_jobs(int(jobs_text)) if jobs_text else 1
    except ValueError:
        raise ValueError(
            f"{ENV_JOBS} must be an integer >= 1, got {jobs_text!r}"
        ) from None
    return EngineOptions(
        jobs=jobs, cache_dir=os.environ.get(ENV_CACHE_DIR) or None
    )


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means the process-wide default; an explicit value below
    1 raises."""
    return default_options().jobs if jobs is None else check_jobs(jobs)


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
    return check_failure_policy(failure_policy)
