"""The predictor's row plan against the per-sample walk it replaced.

``OnlinePowerPredictor`` resolves counters and assembles rows from a
plan built once; ``RebuildingPowerPredictor`` rebuilds the same walk on
every sample.  Fed the same stream, the two must return byte-equal
rows, keep equal patch bookkeeping and lag state, and raise
``StaleSampleError`` or ``KeyError`` (same message) at the same samples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework.online import OnlinePowerPredictor, StaleSampleError
from repro.models.composition import PlatformModel
from repro.models.featuresets import FeatureSet
from repro.models.linear import LinearPowerModel
from tests.framework.rebuilding_online import RebuildingPowerPredictor

POOL = ("A", "B", r"\Processor(_Total)\% Processor Time", "D", "D (t-1)")
"""Counter names; the last one ends like a lag feature on purpose."""

KINDS = (
    "float", "float", "float", "int", "np64", "np32", "npint",
    "missing", "nan", "inf", "-inf",
)


def _platform_model(counters, lagged) -> PlatformModel:
    feature_set = FeatureSet(
        name="T", counters=tuple(counters), lagged_counters=tuple(lagged)
    )
    rng = np.random.default_rng(0)
    design = rng.uniform(1.0, 100.0, size=(40, feature_set.n_features))
    power = 50.0 + design.sum(axis=1)
    model = LinearPowerModel(feature_set.feature_names).fit(design, power)
    return PlatformModel(
        platform_key="test", model=model, feature_set=feature_set
    )


def _value(kind: str, magnitude: float):
    return {
        "float": magnitude,
        "int": int(magnitude),
        "np64": np.float64(magnitude),
        "np32": np.float32(magnitude),
        "npint": np.int64(int(magnitude)),
        "nan": float("nan"),
        "inf": float("inf"),
        "-inf": float("-inf"),
    }[kind]


def _sample(kinds, magnitudes) -> dict:
    sample = {"unrelated counter": 1.0}
    for name, kind, magnitude in zip(POOL, kinds, magnitudes):
        if kind != "missing":
            sample[name] = _value(kind, magnitude)
    return sample


def _outcome(predictor, sample):
    """What one ``prepare_row`` did: the row bytes, or the exception."""
    try:
        row = predictor.prepare_row(sample)
    except (StaleSampleError, KeyError) as error:
        return type(error), str(error)
    return row.dtype, row.shape, row.tobytes()


def _state(predictor) -> tuple:
    last = predictor._last_sample
    return (
        predictor.n_patched,
        predictor.n_patched_samples,
        predictor.consecutive_patched,
        None if last is None else list(last.items()),
    )


def _stream_both(platform_model, samples, **kwargs) -> list:
    """Feed both predictors; returns the per-sample outcomes."""
    plan = OnlinePowerPredictor(platform_model, **kwargs)
    oracle = RebuildingPowerPredictor(platform_model, **kwargs)
    assert plan.required_counters == oracle.required_counters
    outcomes = []
    for sample in samples:
        outcome = _outcome(plan, sample)
        assert outcome == _outcome(oracle, sample)
        assert _state(plan) == _state(oracle)
        outcomes.append(outcome)
    return outcomes


@st.composite
def _cases(draw):
    counters = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=5))
    lagged = draw(
        st.lists(
            st.sampled_from(POOL[:3]),
            unique=True,
            min_size=0 if counters else 1,
            max_size=3,
        )
    )
    n_samples = draw(st.integers(0, 30))
    kinds = draw(
        st.lists(
            st.lists(
                st.sampled_from(KINDS), min_size=len(POOL),
                max_size=len(POOL),
            ),
            min_size=n_samples,
            max_size=n_samples,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    magnitudes = np.random.default_rng(seed).uniform(
        0.0, 5000.0, size=(n_samples, len(POOL))
    )
    return {
        "counters": counters,
        "lagged": lagged,
        "samples": [_sample(k, m) for k, m in zip(kinds, magnitudes)],
        "allow_missing": draw(st.booleans()),
        "max_consecutive_patches": draw(
            st.one_of(st.none(), st.integers(1, 4))
        ),
    }


@settings(max_examples=200, deadline=None)
@given(case=_cases())
def test_rows_and_bookkeeping_match_the_rebuilding_walk(case):
    platform_model = _platform_model(case["counters"], case["lagged"])
    _stream_both(
        platform_model,
        case["samples"],
        allow_missing=case["allow_missing"],
        max_consecutive_patches=case["max_consecutive_patches"],
    )


def test_lag_only_counter_is_required_and_lags():
    platform_model = _platform_model(("A",), ("B",))
    predictor = OnlinePowerPredictor(platform_model)
    assert predictor.required_counters == ["A", "B"]
    outcomes = _stream_both(
        platform_model,
        [{"A": 1.0, "B": 10.0}, {"A": 2, "B": np.float32(20.0)}],
    )
    rows = [np.frombuffer(raw) for *_, raw in outcomes]
    # The first sample has no t-1 and lags onto itself.
    np.testing.assert_array_equal(rows, [[1.0, 10.0], [2.0, 10.0]])


def test_stale_and_missing_raise_at_the_same_samples():
    platform_model = _platform_model(("A", "B"), ("A",))
    clean = {"A": 1.0, "B": 2.0}
    stream = [
        {"A": 1.0},            # cold start: B missing, nothing to patch
        clean,
        {}, {"A": np.nan}, {"B": np.inf},  # three patched samples
        {}, {},                # past the cap of 3: stale
        clean, {},             # a clean sample resets the run
    ]
    outcomes = _stream_both(
        platform_model, stream, allow_missing=True,
        max_consecutive_patches=3,
    )
    errors = [o[0] if isinstance(o[0], type) else None for o in outcomes]
    assert errors == [
        KeyError, None, None, None, None,
        StaleSampleError, StaleSampleError, None, None,
    ]


def test_required_counters_is_a_fresh_list_in_feature_order():
    platform_model = _platform_model(("B", "A"), ("A", "D"))
    predictor = OnlinePowerPredictor(platform_model)
    first = predictor.required_counters
    assert first == ["B", "A", "D"]
    first.append("mutated")
    second = predictor.required_counters
    assert second == ["B", "A", "D"]
    assert second is not first
    assert second == RebuildingPowerPredictor(
        platform_model
    ).required_counters
