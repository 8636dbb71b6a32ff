"""Task functions for the engine tests.

Pool workers resolve task functions by dotted path, so anything a
parallel test runs must live at module level in an importable module —
lambdas and closures inside test functions cannot cross the process
boundary.
"""

from __future__ import annotations

import os
import time
import uuid

import numpy as np

ADD = "tests.engine.tasklib:add"
DRAW = "tests.engine.tasklib:draw"
TOTAL = "tests.engine.tasklib:total"
BOOM = "tests.engine.tasklib:boom"
SLEEPY = "tests.engine.tasklib:sleepy_identity"
PAYLOAD_SIZE = "tests.engine.tasklib:payload_size"
FLAKY_DRAW = "tests.engine.tasklib:flaky_draw"
HANG = "tests.engine.tasklib:hang"
CRASH = "tests.engine.tasklib:crash_worker"
RECORD_RUN = "tests.engine.tasklib:record_run"
UNSERIALIZABLE = "tests.engine.tasklib:unserializable"
NON_CANONICAL = "tests.engine.tasklib:non_canonical"
VISIT = "tests.engine.tasklib:visit"
INTERRUPT = "tests.engine.tasklib:interrupt"


def add(config, payload, deps, seed):
    """Pure function of config: ``a + b``."""
    del payload, deps, seed
    return config["a"] + config["b"]


def draw(config, payload, deps, seed):
    """One draw from the task's derived seed stream, scaled by config."""
    del payload, deps
    rng = np.random.default_rng(seed)
    return float(rng.random()) * config.get("scale", 1.0)


def total(config, payload, deps, seed):
    """Sum of all dependency results (dict-order independent)."""
    del config, payload, seed
    return sum(deps[key] for key in sorted(deps))


def boom(config, payload, deps, seed):
    """Always fails — the fault-injection probe."""
    del payload, deps, seed
    raise RuntimeError(config.get("message", "injected failure"))


def sleepy_identity(config, payload, deps, seed):
    """Hold a pool worker busy briefly, then return ``value``."""
    del payload, deps, seed
    time.sleep(config.get("seconds", 0.05))
    return config["value"]


def payload_size(config, payload, deps, seed):
    """Length of the (unhashed) payload — exercises payload shipping."""
    del config, deps, seed
    return len(payload)


def flaky_draw(config, payload, deps, seed):
    """Fail the first ``fail_times`` invocations, then act like ``draw``.

    Invocations are counted with marker files under
    ``config['scratch']`` (pool workers share no memory), so the count
    survives both process boundaries and engine re-runs — which is
    exactly what the resume tests need.  The eventual success must be
    bit-identical to ``draw`` with the same key/seed, proving a failed
    run never disturbs seed streams.
    """
    del payload, deps
    scratch = config["scratch"]
    os.makedirs(scratch, exist_ok=True)
    already = len(os.listdir(scratch))
    if already < config.get("fail_times", 0):
        with open(os.path.join(scratch, uuid.uuid4().hex), "w"):
            pass
        raise RuntimeError(
            f"flaky failure {already + 1}/{config['fail_times']}"
        )
    rng = np.random.default_rng(seed)
    return float(rng.random()) * config.get("scale", 1.0)


def hang(config, payload, deps, seed):
    """Sleep far past any test's patience — the hung-worker probe."""
    del payload, deps, seed
    time.sleep(config.get("seconds", 60.0))
    return "never returned in time"


def visit(config, payload, deps, seed):
    """Append ``config['key']`` to ``payload``, a list the caller holds.

    Only an in-process run shares the list with the caller (a pool
    worker appends to its own unpickled copy), so the list records the
    order in which ``jobs=1`` visited the tasks.
    """
    del deps, seed
    payload.append(config["key"])
    return len(payload)


def interrupt(config, payload, deps, seed):
    """Raise ``KeyboardInterrupt`` as if Ctrl-C landed inside the task."""
    del config, payload, deps, seed
    raise KeyboardInterrupt


def crash_worker(config, payload, deps, seed):
    """Kill the worker process outright (simulates a lost machine)."""
    del config, payload, deps, seed
    os._exit(17)


def record_run(config, payload, deps, seed):
    """Touch one marker file per invocation — counts actual executions."""
    del payload, deps, seed
    scratch = config["scratch"]
    os.makedirs(scratch, exist_ok=True)
    with open(os.path.join(scratch, uuid.uuid4().hex), "w"):
        pass
    return config.get("value", 1)


def unserializable(config, payload, deps, seed):
    """Return a value JSON cannot encode (canonicalization must fail)."""
    del config, payload, deps, seed
    return object()


def non_canonical(config, payload, deps, seed):
    """Rebuild a deliberately non-JSON-canonical value from a spec.

    ``config['spec']`` is itself JSON (so it is hashable), and describes
    a value containing tuples, int-keyed dicts, and numpy scalars — the
    shapes whose cold/warm cache round-trip used to diverge.
    """
    del payload, deps, seed
    return build_non_canonical(config["spec"])


def build_non_canonical(spec):
    """Interpret a JSON spec into the non-canonical value it describes."""
    kind = spec["kind"]
    if kind == "int":
        return int(spec["value"])
    if kind == "float":
        return float(spec["value"])
    if kind == "np-int":
        return np.int64(spec["value"])
    if kind == "np-float":
        return np.float64(spec["value"])
    if kind == "str":
        return spec["value"]
    if kind == "none":
        return None
    if kind == "bool":
        return bool(spec["value"])
    if kind == "list":
        return [build_non_canonical(item) for item in spec["items"]]
    if kind == "tuple":
        return tuple(build_non_canonical(item) for item in spec["items"])
    if kind == "dict":
        return {
            key: build_non_canonical(value)
            for key, value in spec["items"]
        }
    if kind == "int-dict":
        return {
            int(key): build_non_canonical(value)
            for key, value in spec["items"]
        }
    raise ValueError(f"unknown spec kind {kind!r}")
