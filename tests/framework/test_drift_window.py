"""The drift ring against the re-stacking window it replaced.

``InputDriftDetector`` keeps running counts over a preallocated ring
(one slot of a ``DriftBlock``); ``StackedDriftDetector`` stacks and
averages the whole window on every verdict.  Counts over ``n`` are the
same doubles as means of 0/1 rows, so every ``DriftVerdict`` field must
be bit-identical, type included, on every stream: wrap-around, resets,
NaN and inf inputs, and inputs exactly on the envelope bounds.  Streams
sharing one block — random subsets per update, slots released and
reused — must each match their own oracle the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework.drift import DriftBlock, InputDriftDetector
from tests.framework.stacked_drift import StackedDriftDetector

KINDS = ("inside", "low", "high", "below", "above", "nan", "inf", "-inf")
FIELDS = (
    "drifting",
    "out_of_envelope_fraction",
    "expected_fraction",
    "worst_feature",
    "worst_feature_fraction",
)


def _fields(verdict) -> tuple:
    """Every verdict field with its type; floats as exact hex."""
    values = []
    for name in FIELDS:
        value = getattr(verdict, name)
        values.append(
            (type(value), value.hex() if isinstance(value, float) else value)
        )
    return tuple(values)


def _pair(names, window, min_samples, trigger_ratio, quantile, envelope):
    """The ring detector and the oracle over one envelope.

    ``envelope`` is ``("bounds", low, high)`` for the serving path
    (``from_envelope``) or ``("design", matrix)`` for ``fit``.
    """
    kwargs = dict(
        envelope_quantile=quantile,
        window_seconds=window,
        trigger_ratio=trigger_ratio,
        min_samples=min_samples,
    )
    if envelope[0] == "bounds":
        _, low, high = envelope
        return (
            InputDriftDetector.from_envelope(names, low, high, **kwargs),
            StackedDriftDetector.from_envelope(names, low, high, **kwargs),
        )
    design = envelope[1]
    return (
        InputDriftDetector(list(names), **kwargs).fit(design),
        StackedDriftDetector(list(names), **kwargs).fit(design),
    )


def _rows(rng, n_rows, low, high, weights):
    """Rows whose entries fall inside, on, beyond or off the envelope."""
    kinds = rng.choice(len(KINDS), size=(n_rows, low.shape[0]), p=weights)
    inside = low + (high - low) * rng.random((n_rows, low.shape[0]))
    margin = 1.0 + rng.random((n_rows, low.shape[0]))
    table = np.stack([
        inside,
        np.broadcast_to(low, inside.shape),
        np.broadcast_to(high, inside.shape),
        low - margin,
        high + margin,
        np.full(inside.shape, np.nan),
        np.full(inside.shape, np.inf),
        np.full(inside.shape, -np.inf),
    ])
    return np.take_along_axis(table, kinds[None], axis=0)[0]


def _replay(ring, oracle, rows, reset_at=frozenset()) -> int:
    """Stream ``rows`` into both detectors; returns verdicts compared."""
    compared = 0
    for index, row in enumerate(rows):
        if index in reset_at:
            ring.reset()
            oracle.reset()
            assert not ring.has_observations
            for detector in (ring, oracle):
                with pytest.raises(RuntimeError, match="no samples"):
                    detector.verdict()
        assert _fields(ring.observe(row)) == _fields(oracle.observe(row))
        assert _fields(ring.verdict()) == _fields(oracle.verdict())
        assert ring.has_observations
        compared += 1
    return compared


@st.composite
def _streams(draw):
    n_features = draw(st.integers(1, 14))
    window = draw(
        st.one_of(st.integers(1, 9), st.sampled_from([30, 120, 199]))
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    low = rng.normal(size=n_features) * 10.0 ** rng.integers(-3, 4)
    width = rng.uniform(0.0, 5.0, size=n_features)
    if draw(st.booleans()):
        # Degenerate features: the whole envelope is one value.
        width[rng.random(n_features) < 0.5] = 0.0
    high = low + width
    if draw(st.booleans()):
        envelope = ("bounds", low, high)
    else:
        # fit() needs at least min_samples (<= window + 2) rows.
        design = low + width * rng.random((window + 64, n_features))
        envelope = ("design", design)
    weights = np.asarray(
        draw(
            st.lists(
                st.integers(0, 8), min_size=len(KINDS), max_size=len(KINDS)
            ).filter(any)
        ),
        dtype=float,
    )
    n_rows = draw(st.integers(0, 2 * window + 5))
    resets = draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=3))
    return {
        "names": [f"f{i}" for i in range(n_features)],
        "window": window,
        "min_samples": draw(st.integers(1, window + 2)),
        "trigger_ratio": draw(st.sampled_from([0.0, 0.5, 1.0, 8.0])),
        "quantile": draw(st.sampled_from([0.9, 0.995])),
        "envelope": envelope,
        "weights": weights / weights.sum(),
        "n_rows": n_rows,
        "resets": frozenset(resets),
        "seed": seed,
    }


@settings(max_examples=150, deadline=None)
@given(case=_streams())
def test_every_verdict_is_bit_identical_to_the_stacked_window(case):
    ring, oracle = _pair(
        case["names"],
        case["window"],
        case["min_samples"],
        case["trigger_ratio"],
        case["quantile"],
        case["envelope"],
    )
    rng = np.random.default_rng([case["seed"], 1])
    rows = _rows(
        rng, case["n_rows"], ring.envelope_low, ring.envelope_high,
        case["weights"],
    )
    assert _replay(ring, oracle, rows, case["resets"]) == case["n_rows"]


@pytest.mark.parametrize("window", [1, 2, 120, 199])
def test_long_streams_wrap_many_times(window):
    """Several full wrap-arounds with a mid-stream reset, every kind of
    entry mixed in."""
    rng = np.random.default_rng(window)
    low = rng.normal(size=6)
    high = low + rng.uniform(0.0, 2.0, size=6)
    ring, oracle = _pair(
        [f"f{i}" for i in range(6)], window, min(window, 30), 8.0, 0.995,
        ("bounds", low, high),
    )
    weights = np.full(len(KINDS), 1.0 / len(KINDS))
    rows = _rows(rng, 4 * window + 7, low, high, weights)
    compared = _replay(ring, oracle, rows, frozenset({2 * window + 1}))
    assert compared == rows.shape[0]


def test_bounds_are_inside_and_nan_is_never_outside():
    low, high = np.array([1.0, -1.0]), np.array([1.0, 2.0])
    ring, _ = _pair(["a", "b"], 4, 1, 8.0, 0.995, ("bounds", low, high))
    for row in ([1.0, -1.0], [1.0, 2.0], [np.nan, np.nan]):
        verdict = ring.observe(np.array(row))
    assert verdict.out_of_envelope_fraction == 0.0
    assert verdict.worst_feature is None
    assert verdict.worst_feature_fraction == 0.0
    verdict = ring.observe(np.array([np.inf, 0.0]))
    assert verdict.out_of_envelope_fraction == 0.25
    assert (verdict.worst_feature, verdict.worst_feature_fraction) == (
        "a", 0.25
    )


# -- the shared block ---------------------------------------------------


def _run_block(rng, case, n_steps, max_streams):
    """Streams sharing one ``DriftBlock`` against one oracle each.

    Every step releases a stream or opens one now and then (a released
    slot is reused by the next opened stream), feeds a random subset of
    the live streams one row each through ``observe_rows``, and compares
    each returned ``drifting`` and every live stream's verdict with the
    stream's own ``StackedDriftDetector``.  Returns verdicts compared.
    """
    names, low, high = case["names"], case["low"], case["high"]
    kwargs = dict(
        envelope_quantile=case["quantile"],
        window_seconds=case["window"],
        trigger_ratio=case["trigger_ratio"],
        min_samples=case["min_samples"],
    )
    block = DriftBlock(InputDriftDetector.from_envelope(names, low, high, **kwargs))

    def open_stream():
        view = block.open_window()
        assert not view.has_observations
        with pytest.raises(RuntimeError, match="no samples"):
            view.verdict()
        return view, StackedDriftDetector.from_envelope(
            names, low, high, **kwargs
        )

    streams = [open_stream() for _ in range(rng.integers(1, max_streams + 1))]
    peak = len(streams)
    compared = 0
    for _ in range(n_steps):
        event = rng.random()
        if event < 0.06 and streams:
            view, _ = streams.pop(int(rng.integers(len(streams))))
            view.release()
            assert not view.has_observations
        elif event < 0.12 and len(streams) < max_streams:
            streams.append(open_stream())
        peak = max(peak, len(streams))
        assert block.live_slots() == {view.slot for view, _ in streams}
        chosen = [stream for stream in streams if rng.random() < 0.7]
        if chosen:
            rows = _rows(rng, len(chosen), low, high, case["weights"])
            slots = np.array([view.slot for view, _ in chosen])
            drifting = block.observe_rows(slots, rows)
            assert drifting.dtype == bool
            for (_, oracle), row, flag in zip(
                chosen, rows, drifting.tolist()
            ):
                assert flag is oracle.observe(row).drifting
        for view, oracle in streams:
            assert view.has_observations == bool(oracle._window)
            if oracle._window:
                assert _fields(view.verdict()) == _fields(oracle.verdict())
                compared += 1
    # Capacity doubles only when every slot is taken: churn reuses
    # released slots instead of growing the block.
    assert block.capacity < 2 * max(peak, 1)
    return compared


def _block_case(rng, n_features, window, min_samples, trigger_ratio, quantile):
    low = rng.normal(size=n_features) * 10.0 ** rng.integers(-3, 4)
    width = rng.uniform(0.0, 5.0, size=n_features)
    width[rng.random(n_features) < 0.2] = 0.0
    weights = rng.integers(0, 8, size=len(KINDS)).astype(float) + 0.01
    return {
        "names": [f"f{i}" for i in range(n_features)],
        "low": low,
        "high": low + width,
        "window": window,
        "min_samples": min_samples,
        "trigger_ratio": trigger_ratio,
        "quantile": quantile,
        "weights": weights / weights.sum(),
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 8),
    window=st.sampled_from([1, 2, 3, 5, 120]),
    trigger_ratio=st.sampled_from([0.0, 0.5, 1.0, 8.0]),
    quantile=st.sampled_from([0.9, 0.995]),
    data=st.data(),
)
def test_streams_sharing_a_block_match_one_stacked_window_each(
    seed, n_features, window, trigger_ratio, quantile, data
):
    rng = np.random.default_rng(seed)
    case = _block_case(
        rng, n_features, window,
        data.draw(st.integers(1, window + 2)), trigger_ratio, quantile,
    )
    n_steps = data.draw(st.integers(1, 2 * window + 12))
    _run_block(rng, case, n_steps, max_streams=6)


@pytest.mark.parametrize("window", [1, 2, 120])
def test_block_streams_wrap_many_times_through_churn(window):
    """Many streams over several wrap-arounds of the window, with
    releases and reuse, every kind of entry mixed in."""
    rng = np.random.default_rng([window, 5])
    case = _block_case(rng, 5, window, min(window, 30), 8.0, 0.995)
    case["weights"] = np.full(len(KINDS), 1.0 / len(KINDS))
    assert _run_block(rng, case, 4 * window + 9, max_streams=10) > 0


def test_block_rejects_an_unfitted_rule():
    with pytest.raises(RuntimeError, match="not fitted"):
        DriftBlock(InputDriftDetector(["a"]))
