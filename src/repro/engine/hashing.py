"""Canonical hashing: the engine's content-addressed identities.

Every cached artifact is keyed by a SHA-256 over a *canonical* JSON
rendering of (task function, config, code version).  A task is a pure
function of its config and payload, and the config carries the task's
seed and a digest of its payload, so these three determine the result.
Canonical means: dict insertion order never matters, tuples and lists are
interchangeable, and numpy scalars collapse to their Python equivalents —
so two configs that compare equal always hash equal, while changing any
single field changes the key.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np


def canonical_payload(value: Any, strict: bool = True) -> Any:
    """Normalize ``value`` into plain JSON types, deterministically.

    Mappings keep only their (string-keyed) items, sequences become
    lists, numpy scalars become Python scalars.  With ``strict`` (the
    config rule) non-finite floats are rejected loudly rather than
    hashed ambiguously; results use ``strict=False`` so a NaN metric is
    still representable.
    """
    if isinstance(value, dict):
        normalized = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"config keys must be strings, got {type(key).__name__}"
                )
            normalized[key] = canonical_payload(value[key], strict)
        return normalized
    if isinstance(value, (list, tuple)):
        return [canonical_payload(item, strict) for item in value]
    if isinstance(value, np.generic):
        return canonical_payload(value.item(), strict)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if strict and not math.isfinite(value):
            raise ValueError("non-finite floats cannot be hashed canonically")
        return value
    if isinstance(value, str):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for hashing"
    )


def _json_default(value: Any) -> Any:
    """``json.dumps`` fallback: collapse numpy values to Python ones."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"task result of type {type(value).__name__} is not JSON-serializable"
    )


def canonical_result(value: Any) -> Any:
    """Round-trip ``value`` through the cache's exact JSON encoding.

    A computed task result may contain tuples, int-keyed dicts, or numpy
    scalars; its warm-cache replay cannot (JSON has neither), so serving
    the raw object cold and the parsed JSON warm would violate the
    engine's "cold == warm bit-for-bit" contract.  The executor passes
    every cacheable result through this round-trip *before* returning or
    caching it, so both paths observe the identical canonical form
    (tuple → list, ``{1: ...}`` → ``{"1": ...}``, ``np.float64`` →
    ``float``).
    """
    return json.loads(json.dumps(value, allow_nan=True, default=_json_default))


def canonical_json(value: Any, strict: bool = True) -> str:
    """The unique JSON string for ``value`` (sorted keys, no whitespace)."""
    return json.dumps(
        canonical_payload(value, strict),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=not strict,
    )


def sha256_hex(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def cache_key(fn: str, config: dict, code_version: str) -> str:
    """The content address of one task's artifact.

    Covers everything that determines the result: the task function, its
    full config, and the code version.
    """
    return sha256_hex(canonical_json({
        "fn": fn,
        "config": config,
        "code_version": code_version,
    }))
