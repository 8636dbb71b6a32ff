"""Cold/warm convergence: computed results match their cache replays.

The regression this pins: a task returning tuples, int-keyed dicts, or
numpy scalars used to hand the *raw* object to the caller on a cold run
but the JSON-parsed form on a warm run — so downstream code keyed on
``result[1]`` or ``isinstance(x, tuple)`` behaved differently depending
on cache temperature.  The executor now normalizes every cacheable
result through :func:`repro.engine.canonical_result` before returning
or caching it, on the serial path, the pool path, and the cache-less
path alike.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ArtifactCache, TaskError, TaskSpec
from repro.engine import canonical_result, run_graph, run_graph_report
from repro.telemetry.engine_stats import EngineTelemetry
from tests.engine import tasklib

# ----------------------------------------------------------------------
# Strategy: JSON-safe *specs* describing non-canonical values
# (the spec must be hashable config; tasklib.build_non_canonical then
# reconstructs the awkward value — tuples, int keys, numpy scalars —
# inside the task).
# ----------------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

spec_leaves = st.one_of(
    st.builds(lambda v: {"kind": "int", "value": v},
              st.integers(min_value=-(2**53), max_value=2**53)),
    st.builds(lambda v: {"kind": "float", "value": v}, finite_floats),
    st.builds(lambda v: {"kind": "np-int", "value": v},
              st.integers(min_value=-(2**31), max_value=2**31)),
    st.builds(lambda v: {"kind": "np-float", "value": v}, finite_floats),
    st.builds(lambda v: {"kind": "str", "value": v}, st.text(max_size=10)),
    st.builds(lambda v: {"kind": "bool", "value": v}, st.booleans()),
    st.just({"kind": "none"}),
)


def _pairs(keys, children):
    return st.lists(
        st.tuples(keys, children), max_size=3,
        unique_by=lambda pair: pair[0],
    ).map(lambda items: [[key, value] for key, value in items])


specs = st.recursive(
    spec_leaves,
    lambda children: st.one_of(
        st.builds(lambda items: {"kind": "list", "items": items},
                  st.lists(children, max_size=3)),
        st.builds(lambda items: {"kind": "tuple", "items": items},
                  st.lists(children, max_size=3)),
        st.builds(lambda items: {"kind": "dict", "items": items},
                  _pairs(st.text(max_size=6), children)),
        st.builds(lambda items: {"kind": "int-dict", "items": items},
                  _pairs(st.integers(min_value=0, max_value=99), children)),
    ),
    max_leaves=12,
)


def assert_canonical(value):
    """No tuples, no numpy types, no non-string dict keys anywhere."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str
            assert_canonical(item)
    elif isinstance(value, list):
        for item in value:
            assert_canonical(item)
    else:
        assert value is None or type(value) in (bool, int, float, str), (
            f"non-canonical leaf of type {type(value).__name__}"
        )


def exact_form(value) -> str:
    """A type-distinguishing rendering (true vs 1, "1" key ordering)."""
    return json.dumps(value, sort_keys=True, allow_nan=True)


# ----------------------------------------------------------------------
# The property: cold compute == warm replay, bit for bit
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_cold_and_warm_results_are_bit_identical(spec):
    # hypothesis re-enters the test body many times per tmp_path fixture
    # instance, so manage a fresh directory per example by hand.
    with tempfile.TemporaryDirectory() as root:
        cache = ArtifactCache(Path(root) / "cache")
        tasks = [TaskSpec(key="t", fn=tasklib.NON_CANONICAL,
                          config={"spec": spec})]
        cold = run_graph(tasks, jobs=1, cache=cache)
        stats = EngineTelemetry()
        warm = run_graph(tasks, jobs=1, cache=cache, telemetry=stats)
        assert stats.n_cache_hits == 1
        assert exact_form(cold["t"]) == exact_form(warm["t"])
        assert_canonical(cold["t"])
        assert_canonical(warm["t"])
        # And both equal the canonical form of the raw computed value.
        raw = tasklib.build_non_canonical(spec)
        assert exact_form(cold["t"]) == exact_form(canonical_result(raw))


@settings(max_examples=30, deadline=None)
@given(spec=specs)
def test_cacheless_run_matches_cached_run(spec):
    """The normalization is not conditional on a cache being attached."""
    tasks = [
        TaskSpec(key="t", fn=tasklib.NON_CANONICAL, config={"spec": spec})
    ]
    uncached = run_graph(tasks, jobs=1)
    with tempfile.TemporaryDirectory() as root:
        cache = ArtifactCache(Path(root) / "cache")
        run_graph(tasks, jobs=1, cache=cache)
        warm = run_graph(tasks, jobs=1, cache=cache)
    assert exact_form(uncached["t"]) == exact_form(warm["t"])


def test_pool_path_normalizes_results_too(tmp_path):
    spec = {"kind": "tuple", "items": [
        {"kind": "np-float", "value": 0.25},
        {"kind": "int-dict", "items": [[3, {"kind": "np-int", "value": 7}]]},
    ]}
    cache = ArtifactCache(tmp_path / "cache")
    tasks = [TaskSpec(key="t", fn=tasklib.NON_CANONICAL,
                      config={"spec": spec})]
    cold = run_graph(tasks, jobs=2, cache=cache)
    warm = run_graph(tasks, jobs=2, cache=cache)
    assert cold["t"] == [0.25, {"3": 7}]
    assert exact_form(cold["t"]) == exact_form(warm["t"])
    assert_canonical(cold["t"])


# ----------------------------------------------------------------------
# canonical_result unit behavior
# ----------------------------------------------------------------------

def test_canonical_result_collapses_the_awkward_shapes():
    raw = {
        "t": (1, 2),
        "by_rank": {1: "a", 2: "b"},
        "x": np.float64(0.5),
        "n": np.int64(3),
        "arr": np.array([1.0, 2.0]),
    }
    assert canonical_result(raw) == {
        "t": [1, 2],
        "by_rank": {"1": "a", "2": "b"},
        "x": 0.5,
        "n": 3,
        "arr": [1.0, 2.0],
    }


def test_canonical_result_is_idempotent_and_float_exact():
    value = {"dre": 0.1 + 0.2, "tiny": 5e-324, "big": 1.7976931348623157e308}
    once = canonical_result(value)
    assert once == value  # already canonical: float round-trip is exact
    assert canonical_result(once) == once


def test_canonical_result_keeps_nan_representable():
    out = canonical_result({"dre": float("nan")})
    assert math.isnan(out["dre"])


def test_canonical_result_rejects_unserializable_results():
    with pytest.raises(TypeError, match="not JSON-serializable"):
        canonical_result({"handle": object()})


# ----------------------------------------------------------------------
# Canonicalization failures are *task* failures, not scheduler crashes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_unserializable_cacheable_result_is_a_task_failure(jobs):
    """A cacheable task returning a non-JSON value fails through the
    normal failure machinery — a TaskError carrying the traceback, never
    a raw TypeError escaping the scheduler — cache attached or not."""
    tasks = [TaskSpec(key="t", fn=tasklib.UNSERIALIZABLE)]
    with pytest.raises(TaskError) as excinfo:
        run_graph(tasks, jobs=jobs)
    assert excinfo.value.key == "t"
    assert "not JSON-serializable" in excinfo.value.detail


def test_unserializable_result_respects_continue_policy():
    report = run_graph_report([
        TaskSpec(key="t", fn=tasklib.UNSERIALIZABLE),
        TaskSpec(key="ok", fn=tasklib.ADD, config={"a": 1, "b": 2}),
    ], jobs=1, failure_policy="continue")
    assert report.results == {"ok": 3}
    assert report.failed_keys == ["t"]
    assert "TypeError" in report.failed[0].detail


def test_non_cacheable_tasks_may_return_arbitrary_objects():
    """Opting out of the cache opts out of canonicalization too."""
    results = run_graph([
        TaskSpec(key="t", fn=tasklib.UNSERIALIZABLE, cacheable=False),
    ], jobs=1)
    assert type(results["t"]) is object
