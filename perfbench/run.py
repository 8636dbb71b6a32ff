#!/usr/bin/env python3
"""One benchmark for the CHAOS pipeline: ``characterize``, ``fleet``, ``wire``.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Each workload goes through the entry points users call (see the module
docstrings of ``characterize.py``, ``fleet.py`` and ``wire.py``).  The
command prints a readable report, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of :data:`END_TO_END`; the
  in-process workloads time the program at a fixed reference host speed
  (``speed.py``), and ``wire`` takes the median of its repeated steps;
* ``--trace 1``: the per-layer metrics of :data:`PER_LAYER`, from a
  separate run in which every layer's public functions are wrapped from
  outside the program (``spans.py``).  It also writes
  ``perfbench/out/<workload>-seed<N>.layers.json`` (the flat per-layer
  table) and ``.trace.json`` (Chrome trace events).

``layers.json`` says which end-to-end metric each layer metric should
move, on which workload.  Exit status: 0 when every output check passed,
1 when one failed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One BLAS thread, here and in the wire server, set before numpy loads:
# the program runs serially, and a BLAS helper thread's spin-waits on a
# shared second core would add CPU time that swings with that core's load.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from stats import check_metric_name  # noqa: E402

# Set-ups per untraced run (characterize repeats the block after each
# pass); setup_s is their median.
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "cpu_us_per_sample": "us",
}

_MODEL_CODES = ("L", "P", "Q", "S")

# (metric, unit, how it is computed, span or count name)
PER_LAYER = (
    ("pipeline.select.share", "fraction", "busy", "pipeline.select"),
    ("pipeline.sweep.share", "fraction", "busy", "pipeline.sweep"),
    ("regression.fit_lasso_path.busy_share", "fraction", "busy",
     "regression.fit_lasso_path"),
    ("regression.fit_lasso_path.calls", "count", "calls",
     "regression.fit_lasso_path"),
    ("regression.fit_lasso_path.cd_sweeps", "count", "count",
     "regression.fit_lasso_path.cd_sweeps"),
    ("regression.fit_lasso_path.unconverged", "count", "count",
     "regression.fit_lasso_path.unconverged"),
    ("regression.backward_eliminate.busy_share", "fraction", "busy",
     "regression.backward_eliminate"),
    ("cluster.execute_runs.busy_share", "fraction", "busy",
     "cluster.execute_runs"),
    ("counters.derive_counters.busy_share", "fraction", "busy",
     "counters.derive_counters"),
    ("selection.prune_correlated.busy_share", "fraction", "busy",
     "selection.prune_correlated"),
    ("selection.prune_correlated.kept", "count", "count",
     "selection.prune_correlated.kept"),
    ("selection.eliminate_codependent.kept", "count", "value",
     "selection.eliminate_codependent.kept"),
    ("selection.pool_and_refine.busy_share", "fraction", "busy",
     "selection.pool_and_refine"),
    ("selection.pool_and_refine.selected", "count", "count",
     "selection.pool_and_refine.selected"),
    ("regression.fit_mars.busy_share", "fraction", "busy",
     "regression.fit_mars"),
    ("regression.fit_mars.terms", "count", "count",
     "regression.fit_mars.terms"),
    *(
        (f"models.fit.{code}.busy_share", "fraction", "busy",
         f"models.fit.{code}")
        for code in _MODEL_CODES
    ),
    ("framework.evaluate_fold.self_share", "fraction", "self",
     "framework.evaluate_fold"),
    ("engine.run_graph_report.self_share", "fraction", "self",
     "engine.run_graph_report"),
    ("framework.drift.observe.busy_share", "fraction", "busy",
     "framework.drift.observe"),
    ("framework.online.prepare_row.busy_share", "fraction", "busy",
     "framework.online.prepare_row"),
    ("serving.session.submit.self_share", "fraction", "self",
     "serving.session.submit"),
    ("serving.session.complete.self_share", "fraction", "self",
     "serving.session.complete"),
    ("serving.batcher.tick.self_share", "fraction", "self",
     "serving.batcher.tick"),
    ("serving.batcher.rows_per_predict", "count", "rows_per_predict", ""),
    ("serving.aggregate.tick.busy_share", "fraction", "busy",
     "serving.aggregate.tick"),
    ("serving.session.windowed_share", "fraction", "value",
     "serving.session.windowed_share"),
    *(
        (f"models.predict.{code}.busy_share", "fraction", "busy",
         f"models.predict.{code}")
        for code in _MODEL_CODES
    ),
    ("models.predict.rows", "count", "count", "models.predict.rows"),
    ("serving.protocol.decode_line.busy_share", "fraction", "busy",
     "serving.protocol.decode_line"),
    ("serving.protocol.parse_sample.busy_share", "fraction", "busy",
     "serving.protocol.parse_sample"),
    ("serving.protocol.encode_message.busy_share", "fraction", "busy",
     "serving.protocol.encode_message"),
    ("serving.protocol.encode_message.bytes", "count", "count",
     "serving.protocol.encode_message.bytes"),
    ("serving.run_tick.self_share", "fraction", "self", "serving.run_tick"),
    # Only the server records run_tick: its tick loop's busy share.
    ("serving.tick_utilization", "fraction", "busy", "serving.run_tick"),
    ("serving.registry.generation.busy_share", "fraction", "busy",
     "serving.registry.generation"),
    ("loadgen.invalid_steps", "count", "value", "loadgen.invalid_steps"),
    ("server.shutdown_hangs", "count", "value", "server.shutdown_hangs"),
    ("trace.overhead_share", "fraction", "overhead", ""),
    ("trace.span_coverage", "fraction", "coverage", ""),
)


def layer_metrics(result: dict) -> dict:
    """The per-layer metrics from a traced run's span snapshots.

    Shares are span seconds over the wall time of the process that
    recorded them (this one, or the server for ``wire``), summed over
    processes.  A layer the workload never enters reads 0.
    """
    snapshots = result["snapshots"]
    values = result.get("layer_values", {})

    def total(name, field):
        return sum(
            snap["table"].get(name, {}).get(field, 0.0) / snap["wall_s"]
            for snap in snapshots
        )

    def count(name):
        return sum(snap["counts"].get(name, 0) for snap in snapshots)

    metrics = {}
    for name, unit, how, source in PER_LAYER:
        if how == "busy":
            value = total(source, "busy_s")
        elif how == "self":
            value = total(source, "self_s")
        elif how == "calls":
            value = sum(
                snap["table"].get(source, {}).get("calls", 0)
                for snap in snapshots
            )
        elif how == "count":
            value = count(source)
        elif how == "value":
            value = values.get(source, 0)
        elif how == "rows_per_predict":
            # One model group per tick here, so one predict per tick
            # that scored anything.
            ticks = count("serving.batcher.ticks_with_rows")
            value = count("serving.batcher.rows") / ticks if ticks else 0.0
        elif how == "overhead":
            value = result["overhead_share"]
        elif how == "coverage":
            bench = sum(snap["bench_s"] for snap in snapshots)
            if bench > 0:
                value = sum(snap["covered_s"] for snap in snapshots) / bench
            else:
                value = snapshots[-1]["top_s"] / snapshots[-1]["wall_s"]
        else:
            raise ValueError(how)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _write_trace_files(workload: str, seed: int, snapshots) -> list[str]:
    from spans import chrome_trace, write_json

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    write_json(
        stem + ".layers.json",
        [
            {"pid": snap["pid"], "wall_s": snap["wall_s"], "table": snap["table"],
             "counts": snap["counts"]}
            for snap in snapshots
        ],
    )
    write_json(stem + ".trace.json", chrome_trace(snapshots))
    return [stem + ".layers.json", stem + ".trace.json"]


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["characterize", "fleet", "wire"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "error: run from the repository root; no src/repro here",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)

    started = time.perf_counter()
    import importlib

    from repro.engine import set_default_options

    workload = importlib.import_module(args.workload)
    import_s = time.perf_counter() - started
    # Serial, uncached engine whatever the environment says.
    set_default_options(jobs=1)

    probes = None
    if args.trace:
        from spans import Probes, Tracer

        probes = Probes(Tracer())
    result = workload.run(
        args.seed, args.seconds, 1 if args.trace else SETUPS, probes=probes
    )

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  import_s: {import_s:.3f} s (once per process; not in setup_s)")
    for key, value in result["report"].items():
        print(f"  {key}: {_format(value)}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        snapshots = result["snapshots"]
        metrics = layer_metrics(result)
        for path in _write_trace_files(args.workload, args.seed, snapshots):
            print(f"  wrote {os.path.relpath(path)}")
        print(f"  tracing overhead (traced / untraced - 1): "
              f"{result['overhead_share']:+.1%}")
        for snap in snapshots:
            print(f"  spans of pid {snap['pid']} "
                  f"(wall {snap['wall_s']:.2f} s): name calls busy_s self_s")
            for name, row in sorted(
                snap["table"].items(), key=lambda item: -item[1]["self_s"]
            ):
                print(f"    {name} {row['calls']} {row['busy_s']:.4f} "
                      f"{row['self_s']:.4f}")
    else:
        metrics = {
            name: {"value": float(result["end_to_end"][name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        for name, metric in metrics.items():
            print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    for name in metrics:
        check_metric_name(name)

    # Wrong output fails the run; a counted failure (a fixed-rate
    # sample the server shed and reported) is a measurement.
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
