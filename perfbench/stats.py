"""Small measurement helpers shared by every workload of the benchmark.

Free of ``repro`` imports, so the helper tests run without the package.
"""

from __future__ import annotations

import os
import re
import resource
import statistics

import numpy as np

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_metric_name(name: str) -> str:
    """Return ``name``, or raise if it breaks the benchmark's naming rule."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``.  With ``n`` sorted samples the value
    is the one at 1-based rank ``n - min_beyond``, so exactly
    ``min_beyond`` samples lie beyond it, and the percentile is
    ``100 * (n - min_beyond) / n``.  Raises when ``n <= min_beyond``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(
            f"need more than {min_beyond} samples for a tail, got {n}"
        )
    rank = n - min_beyond
    return 100.0 * rank / n, float(ordered[rank - 1])


def percentile_at(values, percent: float, min_beyond: int = 10) -> float:
    """The ``percent`` percentile by nearest rank, refused when fewer than
    ``min_beyond`` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, -(-round(percent * n) // 100))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{percent:g} of {n} samples has only {n - rank} beyond it"
        )
    return float(ordered[rank - 1])


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"no VmHWM in /proc/{pid}/status")


def proc_cpu_s(pid: int) -> float:
    """CPU seconds every thread of a process has run, to the nanosecond.

    Summed from ``/proc/<pid>/task/*/schedstat``; ``/proc/<pid>/stat``
    counts in clock ticks (10 ms), too coarse for one rate step.
    """
    total_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total_ns += int(handle.read().split()[0])
        except FileNotFoundError:  # the thread ended since listdir
            continue
    return total_ns / 1e9


def conservation_failures(expected, scored, dropped: int) -> list[str]:
    """Check that every expected sample was scored once or dropped.

    ``expected`` and ``scored`` are equal-shape integer arrays with one
    slot per sample (say, machine by ``t``): how many times the slot
    should be scored (1 for a sent sample) and how many times it was.
    ``dropped`` is the program's own count of dropped samples.  Returns
    one message per broken rule; empty when the books balance.
    """
    expected = np.asarray(expected)
    scored = np.asarray(scored)
    problems = []
    doubles = int(np.count_nonzero(scored > 1))
    if doubles:
        problems.append(f"{doubles} sample(s) scored more than once")
    strays = int(np.count_nonzero((scored > 0) & (expected == 0)))
    if strays:
        problems.append(f"{strays} sample(s) scored but never sent")
    unscored = int(np.count_nonzero((expected > 0) & (scored == 0)))
    if unscored != dropped:
        problems.append(
            f"{unscored} sample(s) unscored but {dropped} counted as dropped"
        )
    return problems
