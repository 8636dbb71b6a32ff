"""Canonical hashing: the cache-key invariants the artifact cache rests on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import cache_key, canonical_json, canonical_payload

# JSON-safe config values, recursively (finite floats only: the strict
# config rule rejects NaN/inf, which is tested separately below).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)
configs = st.dictionaries(st.text(max_size=10), json_values, max_size=6)


def key_of(config: dict) -> str:
    return cache_key(fn="m:f", config=config, code_version="v1")


def _shuffled(value, rng):
    """Deep copy with every dict's insertion order randomly permuted."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng) for k, v in items}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


# ----------------------------------------------------------------------
# Invariance: equal configs hash equal
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(config=configs, order_seed=st.integers(0, 2**31))
def test_cache_key_invariant_to_dict_insertion_order(config, order_seed):
    rng = np.random.default_rng(order_seed)
    assert key_of(_shuffled(config, rng)) == key_of(config)


def test_tuples_and_lists_hash_identically():
    assert key_of({"xs": (1, 2, 3)}) == key_of({"xs": [1, 2, 3]})


def test_numpy_scalars_collapse_to_python_scalars():
    assert key_of({"n": np.int64(7), "x": np.float64(0.5)}) == key_of(
        {"n": 7, "x": 0.5}
    )


# ----------------------------------------------------------------------
# Sensitivity: changing anything changes the key
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(config=configs)
def test_cache_key_sensitive_to_every_config_field(config):
    """Perturbing any single top-level field produces a different key."""
    baseline = key_of(config)
    for field in config:
        mutated = dict(config)
        mutated[field] = [mutated[field], "\x00mutated"]
        assert key_of(mutated) != baseline, field
    extra = "extra"
    while extra in config:
        extra += "x"
    grown = dict(config)
    grown[extra] = 1
    assert key_of(grown) != baseline


def test_cache_key_covers_fn_config_and_code_version():
    base = dict(fn="m:f", config={"a": 1}, code_version="v1")
    baseline = cache_key(**base)
    for field, changed in [
        ("fn", "m:g"),
        ("config", {"a": 2}),
        ("code_version", "v2"),
    ]:
        assert cache_key(**{**base, field: changed}) != baseline, field


def test_int_and_float_hash_differently():
    # json renders 1 and 1.0 differently, so the key distinguishes them.
    assert key_of({"x": 1}) != key_of({"x": 1.0})


# ----------------------------------------------------------------------
# Strictness rules
# ----------------------------------------------------------------------

def test_strict_rejects_non_finite_floats():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_payload({"x": bad})


def test_non_strict_roundtrips_nan_for_result_checksums():
    text = canonical_json({"x": float("nan")}, strict=False)
    assert "NaN" in text


def test_non_string_keys_rejected():
    with pytest.raises(TypeError, match="keys must be strings"):
        canonical_payload({1: "x"})


def test_unhashable_types_rejected():
    with pytest.raises(TypeError, match="cannot canonicalize"):
        canonical_payload({"x": object()})


@settings(max_examples=40, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_floats_roundtrip_canonical_json_exactly(x):
    import json

    assert json.loads(canonical_json({"x": x}))["x"] == x
