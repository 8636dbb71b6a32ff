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


def add(config, payload):
    """Pure function of config: ``a + b``."""
    del payload
    return config["a"] + config["b"]


def draw(config, payload):
    """One draw seeded by ``config['seed']``, scaled by config."""
    del payload
    rng = np.random.default_rng(config["seed"])
    return float(rng.random()) * config.get("scale", 1.0)


def boom(config, payload):
    """Always fails — the fault-injection probe."""
    del payload
    raise RuntimeError(config.get("message", "injected failure"))


def sleepy_identity(config, payload):
    """Hold a pool worker busy briefly, then return ``value``."""
    del payload
    time.sleep(config.get("seconds", 0.05))
    return config["value"]


def payload_size(config, payload):
    """Length of the (unhashed) payload — exercises payload shipping."""
    del config
    return len(payload)


def flaky_draw(config, payload):
    """Fail the first ``fail_times`` invocations, then act like ``draw``.

    Invocations are counted with marker files under
    ``config['scratch']`` (pool workers share no memory), so the count
    survives both process boundaries and engine re-runs — which is
    exactly what the resume tests need.  The eventual success must be
    bit-identical to ``draw`` with the same seed, proving a failed run
    never disturbs the result.
    """
    del payload
    scratch = config["scratch"]
    os.makedirs(scratch, exist_ok=True)
    already = len(os.listdir(scratch))
    if already < config.get("fail_times", 0):
        with open(os.path.join(scratch, uuid.uuid4().hex), "w"):
            pass
        raise RuntimeError(
            f"flaky failure {already + 1}/{config['fail_times']}"
        )
    rng = np.random.default_rng(config["seed"])
    return float(rng.random()) * config.get("scale", 1.0)


def hang(config, payload):
    """Sleep far past any test's patience — the hung-worker probe."""
    del payload
    time.sleep(config.get("seconds", 60.0))
    return "never returned in time"


def visit(config, payload):
    """Append ``config['key']`` to ``payload``, a list the caller holds.

    Only an in-process run shares the list with the caller (a pool
    worker appends to its own unpickled copy), so the list records the
    order in which ``jobs=1`` visited the tasks.
    """
    payload.append(config["key"])
    return len(payload)


def interrupt(config, payload):
    """Raise ``KeyboardInterrupt`` as if Ctrl-C landed inside the task."""
    del config, payload
    raise KeyboardInterrupt


def crash_worker(config, payload):
    """Kill the worker process outright (simulates a lost machine)."""
    del config, payload
    os._exit(17)


def record_run(config, payload):
    """Touch one marker file per invocation — counts actual executions."""
    del payload
    scratch = config["scratch"]
    os.makedirs(scratch, exist_ok=True)
    with open(os.path.join(scratch, uuid.uuid4().hex), "w"):
        pass
    return config.get("value", 1)


def unserializable(config, payload):
    """Return a value JSON cannot encode (canonicalization must fail)."""
    del config, payload
    return object()


def non_canonical(config, payload):
    """Rebuild a deliberately non-JSON-canonical value from a spec.

    ``config['spec']`` is itself JSON (so it is hashable), and describes
    a value containing tuples, int-keyed dicts, and numpy scalars — the
    shapes whose cold/warm cache round-trip used to diverge.
    """
    del payload
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
