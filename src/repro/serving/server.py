"""``PowerServer``: the old name of :class:`ShardedPowerServer`.

chaos-serve has one server, the router in ``serving/router.py``, which
serves through one inline shard by default.  This alias is kept only
because the benchmark harness probes ``run_tick`` under both names
(``perfbench/spans.py``) with no fallback, and it must keep running
unchanged against commits that still have a separate single-process
server.  Without this module its traced runs fail to import.  Both
probes now wrap the same method; the metrics that read them count busy
time once and sum self time, so they stay correct.

Nothing else uses the name and :mod:`repro.serving` does not export it:
name :class:`ShardedPowerServer` instead.
"""

from repro.serving.router import ShardedPowerServer

PowerServer = ShardedPowerServer
