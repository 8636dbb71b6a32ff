"""Process-wide engine defaults: flags, environment, and resolution."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, execute_runs
from repro.engine import (
    ArtifactCache,
    EngineOptions,
    default_options,
    reset_default_options,
    resolve_cache,
    resolve_jobs,
    set_default_options,
)
from repro.engine.options import ENV_CACHE_DIR, ENV_JOBS
from repro.framework.crossval import cross_validate
from repro.framework.sweep import sweep_models
from repro.models.featuresets import cpu_only_set
from repro.platforms import get_platform
from repro.workloads import SortWorkload


@pytest.fixture(autouse=True)
def clean_defaults(monkeypatch):
    """Isolate each test from installed defaults and the environment."""
    monkeypatch.delenv(ENV_JOBS, raising=False)
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    reset_default_options()
    yield
    reset_default_options()


def test_baseline_is_serial_and_cacheless():
    options = default_options()
    assert options.jobs == 1
    assert options.cache_dir is None
    assert options.open_cache() is None


def test_set_default_options_wins_over_environment(monkeypatch):
    monkeypatch.setenv(ENV_JOBS, "8")
    set_default_options(jobs=2)
    assert default_options().jobs == 2
    reset_default_options()
    assert default_options().jobs == 8


def test_env_jobs_parsed_or_rejected(monkeypatch):
    monkeypatch.setenv(ENV_JOBS, "3")
    assert default_options().jobs == 3
    monkeypatch.setenv(ENV_JOBS, "")
    assert default_options().jobs == 1  # empty means unset
    # Anything else that is not a worker count fails loudly instead of
    # quietly running serially.
    for text in ("0", "-2", "two", "2.5"):
        monkeypatch.setenv(ENV_JOBS, text)
        with pytest.raises(ValueError, match=f"{ENV_JOBS}.*{text!r}"):
            default_options()


def test_env_cache_dir_opens_a_cache_there(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "envcache"))
    cache = default_options().open_cache()
    assert isinstance(cache, ArtifactCache)
    assert cache.root == tmp_path / "envcache"


def test_resolve_jobs():
    assert resolve_jobs(4) == 4
    for jobs in (0, -1):  # explicit values below 1 are rejected
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(jobs)
    assert resolve_jobs(None) == 1  # falls back to defaults
    set_default_options(jobs=6)
    assert resolve_jobs(None) == 6
    assert resolve_jobs(2) == 2  # explicit beats default


def test_resolve_cache_semantics(tmp_path):
    explicit = ArtifactCache(tmp_path / "explicit")
    assert resolve_cache(explicit) is explicit
    assert resolve_cache(False) is None  # explicitly off
    assert resolve_cache(None) is None  # no default configured
    set_default_options(cache_dir=str(tmp_path / "default"))
    resolved = resolve_cache(None)
    assert isinstance(resolved, ArtifactCache)
    assert resolved.root == tmp_path / "default"
    assert resolve_cache(False) is None  # off even with a default


def test_options_reject_nonpositive_jobs():
    with pytest.raises(ValueError, match="jobs"):
        EngineOptions(jobs=0)


def test_explicit_jobs_below_one_raise_at_every_entry_point():
    """``jobs=0`` is a caller's mistake, not a request to run serially:
    the simulated-run, sweep and cross-validation entry points reject it
    before running anything."""
    cluster = Cluster.homogeneous(get_platform("atom"), n_machines=1, seed=0)
    runs = execute_runs(cluster, SortWorkload(), n_runs=1)
    calls = [
        lambda: execute_runs(cluster, SortWorkload(), n_runs=1, jobs=0),
        lambda: sweep_models(runs, [cpu_only_set()], jobs=0, cache=False),
        lambda: cross_validate(runs, "L", cpu_only_set(), jobs=0,
                               cache=False),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            call()
