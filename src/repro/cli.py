"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main entry points for shell use:

* ``platforms``  — list the simulated Table I platforms
* ``select``     — run Algorithm 1 on a platform and print the feature set
* ``train``      — train a platform power model and save it to JSON
* ``evaluate``   — cross-validate a technique + feature set on a workload
* ``export-log`` — generate one machine-run's Perfmon CSV
* ``predict``    — apply a saved model to a Perfmon CSV
* ``lint``       — chaos-lint static analysis (catalogs + source tree)
* ``sweep``      — run the technique x feature-set grid via the engine
* ``dse``        — design-space exploration campaigns: ``screen``
  (factorial main effects), ``search`` (seeded genetic search with
  Pareto/MCDM ranking), ``report`` (HTML frontier report)
* ``cache``      — inspect/clear the engine's artifact cache
* ``serve``      — run the chaos-serve prediction server from a registry
* ``replay``     — stream a recorded/simulated cluster through a live
  server at a speed multiple and verify online == offline
* ``publish``    — push a serving bundle through the registry's
  shadow-scoring DRE gate

Engine flags (``sweep``, ``reproduce``): ``--jobs N`` runs independent
tasks on N worker processes with bit-identical results; ``--cache-dir``
points the content-addressed artifact cache somewhere other than
``.repro-cache``; ``--no-cache`` disables it; ``--failure-policy
continue`` finishes every independent task past a failure and reports
the failed subgraph; ``--resume`` replays an interrupted run against the
warm cache, recomputing only missing tasks.  See ``docs/engine.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.cluster.cluster import DEFAULT_SEED
from repro.platforms.specs import ALL_PLATFORMS, get_platform
from repro.workloads.suite import WORKLOAD_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHAOS: OS-counter-based full-system power models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list simulated platforms")

    counters = sub.add_parser(
        "counters", help="list a platform's OS counter catalog"
    )
    counters.add_argument("--platform", required=True)
    counters.add_argument(
        "--category", default=None,
        help="filter by category (e.g. 'Memory', 'Physical Disk')",
    )

    select = sub.add_parser("select", help="run Algorithm 1 on a platform")
    select.add_argument("--platform", required=True)
    select.add_argument("--runs", type=int, default=3)
    select.add_argument("--seed", type=int, default=DEFAULT_SEED)

    train = sub.add_parser("train", help="train and save a platform model")
    train.add_argument("--platform", required=True)
    train.add_argument("--runs", type=int, default=3)
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--model", default="Q", choices=["L", "P", "Q", "S"])
    train.add_argument("--out", required=True, help="output JSON path")
    train.add_argument(
        "--bundle-out", default=None, metavar="PATH",
        help="also write a serving bundle (model + drift envelope + "
        "idle floor) for `repro publish`",
    )

    evaluate = sub.add_parser(
        "evaluate", help="cross-validate a model on one workload"
    )
    evaluate.add_argument("--platform", required=True)
    evaluate.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    evaluate.add_argument("--model", default="Q", choices=["L", "P", "Q", "S"])
    evaluate.add_argument("--runs", type=int, default=4)
    evaluate.add_argument("--seed", type=int, default=DEFAULT_SEED)

    export = sub.add_parser(
        "export-log", help="generate one machine-run Perfmon CSV"
    )
    export.add_argument("--platform", required=True)
    export.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    export.add_argument("--machine", type=int, default=0)
    export.add_argument("--seed", type=int, default=DEFAULT_SEED)
    export.add_argument("--out", required=True)

    predict = sub.add_parser(
        "predict", help="apply a saved model to a Perfmon CSV"
    )
    predict.add_argument("--model-file", required=True)
    predict.add_argument("--log", required=True)

    lint = sub.add_parser(
        "lint", help="run chaos-lint static analysis (catalogs + source)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories for the AST pass (default: src, "
        "benchmarks, examples under --root)",
    )
    lint.add_argument(
        "--root", default=".",
        help="repository root anchoring the default scan paths",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON (alias for --format json)",
    )
    lint.add_argument(
        "--format", default=None, dest="format",
        choices=["text", "json", "sarif"],
        help="report format; 'sarif' emits SARIF 2.1.0 for GitHub "
        "code scanning",
    )
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule-code prefixes to keep (e.g. 'C1,A301')",
    )
    lint.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated rule-code prefixes to drop",
    )
    lint.add_argument(
        "--no-semantic", action="store_true",
        help="skip the catalog/pipeline semantic checker",
    )
    lint.add_argument(
        "--no-ast", action="store_true",
        help="skip the source AST pass",
    )
    lint.add_argument(
        "--no-dataflow", action="store_true",
        help="skip the chaos-flow dataflow analyses (L4xx/U5xx)",
    )
    lint.add_argument(
        "--no-races", action="store_true",
        help="skip the chaos-race concurrency analysis (R6xx)",
    )
    lint.add_argument(
        "--no-shapes", action="store_true",
        help="skip the chaos-shape numeric-array analysis (N7xx)",
    )
    lint.add_argument(
        "--explain", default=None, metavar="CODE",
        help="print a rule's doc, rationale, and bad/good example, "
        "then exit (no linting)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="print every registered rule code with its one-line "
        "summary, then exit (no linting)",
    )

    reproduce = sub.add_parser(
        "reproduce", help="regenerate one of the paper's tables/figures"
    )
    reproduce.add_argument(
        "artifact",
        choices=sorted(_ARTIFACTS),
        help="which paper artifact to regenerate",
    )
    reproduce.add_argument(
        "--runs", type=int, default=5,
        help="runs per workload (paper: 5; lower is faster)",
    )
    reproduce.add_argument(
        "--machines", type=int, default=5,
        help="machines per cluster (paper: 5)",
    )
    reproduce.add_argument("--seed", type=int, default=DEFAULT_SEED)
    reproduce.add_argument(
        "--export", default=None, metavar="DIR",
        help="also write the artifact's data as CSV into DIR",
    )
    _add_engine_flags(reproduce)

    sweep = sub.add_parser(
        "sweep",
        help="cross-validate the technique x feature-set grid "
        "(parallel + cached via the experiment engine)",
    )
    sweep.add_argument("--platform", required=True)
    sweep.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    sweep.add_argument(
        "--features", default="U,C", metavar="SETS",
        help="comma-separated feature sets to evaluate: U (CPU-only), "
        "C (Algorithm 1 cluster set), CP (cluster + lagged MHz) "
        "(default: U,C)",
    )
    sweep.add_argument(
        "--runs", type=int, default=5,
        help="runs per workload (paper: 5; lower is faster)",
    )
    sweep.add_argument(
        "--machines", type=int, default=5,
        help="machines per cluster (paper: 5)",
    )
    sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sweep.add_argument(
        "--telemetry", action="store_true",
        help="print per-task timing and cache hit-rate after the grid",
    )
    _add_engine_flags(sweep)

    serve = sub.add_parser(
        "serve", help="run the chaos-serve online prediction server"
    )
    serve.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model registry directory (see `repro publish`)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7380)
    serve.add_argument(
        "--tick-interval", type=float, default=1.0, metavar="SECONDS",
        dest="tick_interval_s",
        help="scoring tick period (1.0 matches the 1 Hz counter streams)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shared-nothing shard workers behind the consistent-hash "
        "router (default 1); pair N > 1 with --shard-backend process "
        "to score on N cores",
    )
    serve.add_argument(
        "--shard-backend", default="inline",
        choices=["inline", "process"],
        help="where shard workers live: the router's process (default; "
        "no IPC hop) or one spawned process each",
    )
    serve.add_argument(
        "--sanitize", action="store_true",
        help="arm the chaos-race runtime sanitizer (event-loop debug "
        "hooks, slow-callback + unawaited-coroutine capture) and the "
        "chaos-shape array sanitizer (shape/dtype contract checks at "
        "kernel boundaries); reports print on shutdown and a "
        "violation exits non-zero",
    )

    rep = sub.add_parser(
        "replay",
        help="stream a recorded or simulated cluster through a live "
        "server at a speed multiple",
    )
    source = rep.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--fixture", default=None, metavar="FILE",
        help="replay fixture JSON (bundle + machine logs)",
    )
    source.add_argument(
        "--bundle", default=None, metavar="FILE",
        help="serving bundle JSON; machines are simulated "
        "(--workload/--machines/--seed)",
    )
    rep.add_argument("--workload", default="sort", choices=WORKLOAD_NAMES)
    rep.add_argument("--machines", type=int, default=2)
    rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rep.add_argument(
        "--speed", type=float, default=10.0, metavar="X",
        help="speed multiple over real time (10 = ten simulated "
        "seconds per wall second)",
    )
    rep.add_argument(
        "--stats-out", default=None, metavar="FILE",
        help="write the final telemetry snapshot as JSON",
    )
    rep.add_argument(
        "--verify", action="store_true",
        help="check every non-patched online prediction is bit-identical "
        "to the offline PlatformModel.predict_log reference",
    )
    rep.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard workers behind the router (default 1); scoring "
        "stays bit-identical at any N, so --verify holds for every "
        "topology",
    )
    rep.add_argument(
        "--shard-backend", default="inline",
        choices=["inline", "process"],
        help="shard worker placement (inline, the default, is "
        "deterministic)",
    )
    rep.add_argument(
        "--sanitize", action="store_true",
        help="arm the chaos-race runtime sanitizer and the chaos-shape "
        "array sanitizer during the replay; reports land in "
        "telemetry['sanitizer'] / telemetry['array_sanitizer'] and "
        "any violation exits non-zero",
    )

    publish = sub.add_parser(
        "publish",
        help="push a serving bundle through the registry's shadow gate",
    )
    publish.add_argument("--bundle", required=True, metavar="FILE")
    publish.add_argument("--registry", required=True, metavar="DIR")
    publish.add_argument(
        "--replay-log", default=None, metavar="CSV",
        help="held-out Perfmon CSV (with metered power) to shadow-score "
        "the candidate against the live model; omitting skips the gate",
    )
    publish.add_argument(
        "--max-regression", type=float, default=None, metavar="DRE",
        help="max tolerated DRE regression vs live (default 0.02)",
    )
    publish.add_argument(
        "--force", action="store_true",
        help="publish even when the gate rejects",
    )

    dse = sub.add_parser(
        "dse",
        help="design-space exploration campaigns: factorial screening, "
        "genetic search with Pareto/MCDM ranking, HTML frontier reports",
    )
    dse_sub = dse.add_subparsers(dest="dse_command", required=True)

    def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--platform", required=True)
        parser.add_argument(
            "--workload", default="sort", choices=WORKLOAD_NAMES
        )
        parser.add_argument("--machines", type=int, default=2)
        parser.add_argument(
            "--runs", type=int, default=2,
            help="measurement runs feeding the run-wise folds (>= 2)",
        )
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument(
            "--ranking", default="catalog",
            choices=["catalog", "algorithm1"],
            help="counter ranking the candidate feature sets draw from: "
            "'catalog' (fast, deterministic) or 'algorithm1' (the "
            "paper's selection funnel; slower)",
        )
        parser.add_argument(
            "--probe-seconds", type=int, default=20,
            dest="probe_seconds", metavar="S",
            help="length of the serving replay probe per candidate",
        )
        _add_engine_flags(parser)

    dse_screen = dse_sub.add_parser(
        "screen",
        help="fractional-factorial screening: rank parameter main "
        "effects before spending a search budget",
    )
    _add_campaign_flags(dse_screen)

    dse_search = dse_sub.add_parser(
        "search",
        help="seeded genetic search over the design space; writes the "
        "campaign JSON and optionally the HTML frontier report",
    )
    _add_campaign_flags(dse_search)
    dse_search.add_argument(
        "--population", type=int, default=24, metavar="N",
        help="GA population per generation",
    )
    dse_search.add_argument(
        "--generations", type=int, default=8, metavar="N",
    )
    dse_search.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="hard cap on distinct candidate evaluations",
    )
    dse_search.add_argument(
        "--weights", default=None, metavar="NAME=W,...",
        help="MCDM objective weights, e.g. 'dre=0.5,overhead=0.2'; "
        "unnamed objectives keep their defaults; any positive scaling "
        "of the vector ranks identically",
    )
    dse_search.add_argument(
        "--out", required=True, metavar="FILE",
        help="campaign payload JSON output path",
    )
    dse_search.add_argument(
        "--report", default=None, metavar="FILE", dest="report_out",
        help="also render the HTML frontier report here",
    )

    dse_report = dse_sub.add_parser(
        "report",
        help="re-render the HTML frontier report from a saved campaign",
    )
    dse_report.add_argument(
        "--campaign", required=True, metavar="FILE",
        help="campaign JSON written by `repro dse search --out`",
    )
    dse_report.add_argument("--out", required=True, metavar="FILE")

    cache = sub.add_parser(
        "cache", help="inspect or clear the engine's artifact cache"
    )
    cache.add_argument(
        "action", choices=["stats", "clear"],
        help="'stats' prints entry count and size; 'clear' deletes "
        "every entry",
    )
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    return parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The experiment-engine knobs shared by sweep/reproduce."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent tasks (default: "
        "$REPRO_JOBS or 1); results are bit-identical for any N",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact-cache directory (default: $REPRO_CACHE_DIR, "
        "else .repro-cache); warm reruns only recompute invalidated "
        "cells",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache for this invocation",
    )
    parser.add_argument(
        "--failure-policy", default=None,
        choices=["fail_fast", "continue"], dest="failure_policy",
        help="fail_fast (default) aborts on the first task failure; "
        "continue finishes every independent task, skips dependents of "
        "failed ones, and reports the failed subgraph (default: "
        "$REPRO_FAILURE_POLICY or fail_fast)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run: replay the task graph against "
        "the warm artifact cache, recomputing only missing or failed "
        "tasks (requires the cache; incompatible with --no-cache)",
    )


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------

def _cmd_platforms(args, out) -> int:
    from repro.framework.reports import render_table

    rows = [
        [
            p.key,
            p.display_name,
            f"{p.n_cores} cores",
            p.dvfs_mode.value,
            f"{p.idle_power_w:.0f}-{p.max_power_w:.0f} W",
            f"{p.n_disks} disk(s)",
        ]
        for p in ALL_PLATFORMS
    ]
    print(render_table(
        ["key", "platform", "cores", "dvfs", "power range", "storage"],
        rows,
        title="Simulated platforms (Table I)",
    ), file=out)
    return 0


def _cmd_counters(args, out) -> int:
    from repro.counters.catalog import build_catalog
    from repro.counters.definitions import CounterCategory
    from repro.framework.reports import render_table

    spec = get_platform(args.platform)
    catalog = build_catalog(spec)
    definitions = catalog.definitions
    if args.category is not None:
        wanted = {
            c for c in CounterCategory
            if c.value.lower() == args.category.lower()
        }
        if not wanted:
            known = ", ".join(sorted(c.value for c in CounterCategory))
            print(f"unknown category {args.category!r}; known: {known}",
                  file=out)
            return 2
        definitions = [d for d in definitions if d.category in wanted]
    rows = [
        [d.category.value, d.name, "yes" if d.informative else "no"]
        for d in definitions
    ]
    print(render_table(
        ["category", "counter", "activity-linked"],
        rows,
        title=f"{spec.display_name}: {len(definitions)} counters",
    ), file=out)
    return 0


def _cmd_select(args, out) -> int:
    from repro.cluster.cluster import Cluster
    from repro.framework.chaos import collect_workload_runs
    from repro.selection.algorithm1 import run_algorithm1

    spec = get_platform(args.platform)
    cluster = Cluster.homogeneous(spec, seed=args.seed)
    runs = collect_workload_runs(cluster, n_runs=args.runs)
    result = run_algorithm1(cluster, runs)
    print(result.describe(), file=out)
    for name in result.selected:
        print(f"  {name}  (weight {result.histogram[name]:.1f})", file=out)
    return 0


def _cmd_train(args, out) -> int:
    from repro.framework.chaos import train_platform_model
    from repro.models.persistence import save_platform_model

    spec = get_platform(args.platform)
    trained = train_platform_model(
        spec, n_runs=args.runs, seed=args.seed, model_code=args.model
    )
    save_platform_model(trained.platform_model, args.out)
    print(
        f"trained {trained.platform_model.model.code} model on "
        f"{len(trained.selected_counters)} counters -> {args.out}",
        file=out,
    )
    if args.bundle_out is not None:
        from repro.models.featuresets import pool_features
        from repro.serving import make_bundle, save_bundle

        runs = [
            run
            for workload_runs in trained.runs_by_workload.values()
            for run in workload_runs
        ]
        design, _ = pool_features(runs, trained.feature_set)
        bundle = make_bundle(
            trained.platform_model,
            design,
            idle_power_w=spec.idle_power_w,
            meta={
                "platform": spec.key,
                "model": args.model,
                "seed": args.seed,
                "runs": args.runs,
            },
        )
        save_bundle(bundle, args.bundle_out)
        print(
            f"serving bundle {bundle.digest()[:12]} -> {args.bundle_out}",
            file=out,
        )
    return 0


def _cmd_evaluate(args, out) -> int:
    from repro.cluster.cluster import Cluster
    from repro.cluster.runner import execute_runs
    from repro.framework.chaos import collect_workload_runs
    from repro.framework.crossval import cross_validate
    from repro.models.featuresets import cluster_set
    from repro.models.registry import supports_feature_set
    from repro.selection.algorithm1 import run_algorithm1
    from repro.workloads.suite import get_workload

    spec = get_platform(args.platform)
    cluster = Cluster.homogeneous(spec, seed=args.seed)
    runs_by_workload = collect_workload_runs(cluster, n_runs=args.runs)
    selection = run_algorithm1(cluster, runs_by_workload)
    feature_set = cluster_set(selection.selected)
    if not supports_feature_set(args.model, feature_set):
        print(
            f"model {args.model} cannot use the {len(selection.selected)}-"
            "feature cluster set on this platform",
            file=out,
        )
        return 2
    runs = execute_runs(
        cluster, get_workload(args.workload), n_runs=args.runs
    )
    result = cross_validate(
        runs, model_code=args.model, feature_set=feature_set, seed=args.seed
    )
    print(
        f"{result.label} on {spec.key}/{args.workload}: "
        f"machine DRE {result.mean_machine_dre:.1%}, "
        f"cluster DRE {result.mean_cluster_dre:.1%}, "
        f"%err {result.machine_reports.mean_percent_error:.1%} "
        f"({result.n_models_built} models cross-validated)",
        file=out,
    )
    return 0


def _cmd_export_log(args, out) -> int:
    from repro.cluster.cluster import Cluster
    from repro.cluster.runner import execute_runs
    from repro.workloads.suite import get_workload

    spec = get_platform(args.platform)
    cluster = Cluster.homogeneous(spec, seed=args.seed)
    if not 0 <= args.machine < cluster.n_machines:
        print(f"machine index out of range (0-{cluster.n_machines - 1})",
              file=out)
        return 2
    run = execute_runs(
        cluster, get_workload(args.workload), n_runs=1
    )[0]
    machine_id = cluster.machines[args.machine].machine_id
    log = run.logs[machine_id]
    with open(args.out, "w") as handle:
        handle.write(log.to_csv())
    print(
        f"wrote {log.n_seconds} s x {log.n_counters} counters for "
        f"{machine_id} -> {args.out}",
        file=out,
    )
    return 0


def _cmd_predict(args, out) -> int:
    from repro.models.persistence import load_platform_model
    from repro.telemetry.perfmon import PerfmonLog

    platform_model = load_platform_model(args.model_file)
    with open(args.log) as handle:
        log = PerfmonLog.from_csv(handle.read())
    prediction = platform_model.predict_log(log)
    actual = log.power_w
    rmse = float(np.sqrt(np.mean((prediction - actual) ** 2)))
    print(
        f"predicted {prediction.size} samples: "
        f"mean {prediction.mean():.1f} W, "
        f"range {prediction.min():.1f}-{prediction.max():.1f} W; "
        f"vs logged power rMSE {rmse:.2f} W",
        file=out,
    )
    return 0


def _resolve_cache_dir(args) -> str | None:
    """--no-cache beats --cache-dir beats $REPRO_CACHE_DIR beats default."""
    import os

    from repro.engine import DEFAULT_CACHE_DIR
    from repro.engine.options import ENV_CACHE_DIR

    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def _engine_defaults(args):
    """Context manager installing the CLI's engine flags as the
    process-wide defaults, so every sweep inside a driver honors them."""
    import contextlib

    from repro.engine import (
        reset_default_options,
        resolve_failure_policy,
        resolve_jobs,
        set_default_options,
    )

    @contextlib.contextmanager
    def _installed():
        set_default_options(
            jobs=resolve_jobs(args.jobs),
            cache_dir=_resolve_cache_dir(args),
            failure_policy=resolve_failure_policy(
                getattr(args, "failure_policy", None)
            ),
        )
        try:
            yield
        finally:
            reset_default_options()

    return _installed()


def _check_resume(args, out) -> bool:
    """Validate --resume: it needs the artifact cache to replay against.

    Resuming is the warm-cache replay the engine already guarantees:
    completed tasks hit the cache, only missing or failed ones are
    recomputed.  Returns False (and prints a message) on misuse.
    """
    if not getattr(args, "resume", False):
        return True
    if getattr(args, "no_cache", False):
        print("error: --resume needs the artifact cache "
              "(drop --no-cache)", file=out)
        return False
    cache_dir = _resolve_cache_dir(args)
    print(f"resuming against cache at {cache_dir}: completed tasks are "
          "served warm, missing/failed ones recomputed", file=out)
    return True


def _cmd_sweep(args, out) -> int:
    from repro.cluster.cluster import Cluster
    from repro.cluster.runner import execute_runs
    from repro.framework.chaos import collect_workload_runs
    from repro.framework.reports import format_percent, render_table
    from repro.framework.sweep import sweep_models
    from repro.models.featuresets import (
        cluster_plus_lagged_frequency,
        cluster_set,
        cpu_only_set,
    )
    from repro.selection.algorithm1 import run_algorithm1
    from repro.telemetry import EngineTelemetry
    from repro.workloads.suite import get_workload

    wanted = [name.strip().upper() for name in args.features.split(",")]
    unknown = set(wanted) - {"U", "C", "CP"}
    if unknown:
        print(f"unknown feature sets: {sorted(unknown)} "
              "(choose from U, C, CP)", file=out)
        return 2

    if not _check_resume(args, out):
        return 2
    spec = get_platform(args.platform)
    cluster = Cluster.homogeneous(
        spec, n_machines=args.machines, seed=args.seed
    )
    with _engine_defaults(args):
        feature_sets = []
        if "U" in wanted:
            feature_sets.append(cpu_only_set())
        if "C" in wanted or "CP" in wanted:
            selection = run_algorithm1(
                cluster, collect_workload_runs(cluster, n_runs=args.runs)
            )
            if "C" in wanted:
                feature_sets.append(cluster_set(selection.selected))
            if "CP" in wanted:
                feature_sets.append(
                    cluster_plus_lagged_frequency(selection.selected)
                )
        runs = execute_runs(
            cluster, get_workload(args.workload), n_runs=args.runs
        )
        telemetry = EngineTelemetry()
        sweep = sweep_models(runs, feature_sets, seed=args.seed,
                             telemetry=telemetry)

    feature_names = sorted(
        {e.feature_set_name for e in sweep.evaluations},
        key=lambda n: ("U", "C", "CP", "G").index(n),
    )
    rows = []
    for code in ("L", "P", "Q", "S"):
        row = [code]
        for fs_name in feature_names:
            try:
                cell = sweep.cell(code, fs_name)
                row.append(format_percent(cell.mean_machine_dre))
            except KeyError:
                row.append("n/a")
        rows.append(row)
    print(render_table(
        ["model"] + [f"features={n}" for n in feature_names],
        rows,
        title=(
            f"{spec.display_name} / {args.workload}: mean machine DRE "
            f"({sweep.n_models_built} models cross-validated)"
        ),
    ), file=out)
    if sweep.incomplete_cells:
        print(
            "incomplete cells (a fold failed or was skipped): "
            + ", ".join(sweep.incomplete_cells),
            file=out,
        )
        if sweep.report is not None:
            print(sweep.report.render(), file=out)
    if sweep.evaluations:
        best = sweep.best()
        print(f"best cell: {best.label} "
              f"(DRE {best.mean_machine_dre:.1%})", file=out)
    if args.telemetry:
        print(telemetry.render(), file=out)
    return 0 if not sweep.incomplete_cells else 1


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.serving import ModelRegistry, ShardedPowerServer

    registry = ModelRegistry(args.registry)
    platforms = registry.platforms()
    if not platforms:
        print(
            f"error: registry at {args.registry} has no published "
            "models (see `repro publish`)",
            file=out,
        )
        return 2

    sanitizer = None
    array_sanitizer = None

    async def _run() -> None:
        nonlocal sanitizer, array_sanitizer
        if args.sanitize:
            from repro.analysis.arraysan import install_array_sanitizer
            from repro.analysis.sanitizer import install_sanitizer

            sanitizer = install_sanitizer(asyncio.get_running_loop())
            array_sanitizer = install_array_sanitizer()
        server = ShardedPowerServer(
            registry=registry,
            n_shards=args.shards,
            shard_backend=args.shard_backend,
            host=args.host,
            port=args.port,
            tick_interval_s=args.tick_interval_s,
        )
        await server.start()
        print(
            f"chaos-serve listening on {server.host}:{server.port} "
            f"({len(platforms)} platform(s): {', '.join(platforms)}); "
            "Ctrl-C to stop"
            f" [{args.shards} {args.shard_backend} shard(s)]"
            + (" [sanitizer armed]" if args.sanitize else ""),
            file=out,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()
            if sanitizer is not None:
                sanitizer.uninstall()
            if array_sanitizer is not None:
                array_sanitizer.uninstall()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("stopped", file=out)
    failed = False
    if sanitizer is not None:
        report = sanitizer.report()
        print(
            f"sanitizer: {report['n_violations']} violation(s) "
            f"{report['by_kind'] or ''}".rstrip(),
            file=out,
        )
        if not report["ok"]:
            for violation in report["violations"]:
                print(f"  - {violation['kind']}: {violation['detail']}",
                      file=out)
            failed = True
    if array_sanitizer is not None:
        report = array_sanitizer.report()
        print(
            f"array sanitizer: {report['n_violations']} violation(s) "
            f"{report['by_kind'] or ''}".rstrip(),
            file=out,
        )
        if not report["ok"]:
            for violation in report["violations"]:
                print(
                    f"  - {violation['kind']} in "
                    f"{violation['function']}(): {violation['detail']}",
                    file=out,
                )
            failed = True
    return 1 if failed else 0


def _cmd_replay(args, out) -> int:
    import json

    from repro.serving import (
        ReplayMachine,
        load_bundle,
        load_replay_fixture,
        max_deviation_w,
        replay,
    )

    if args.fixture is not None:
        bundle, machines = load_replay_fixture(args.fixture)
    else:
        from repro.cluster.cluster import Cluster
        from repro.cluster.runner import execute_runs
        from repro.workloads.suite import get_workload

        bundle = load_bundle(args.bundle)
        spec = get_platform(bundle.platform_key)
        cluster = Cluster.homogeneous(
            spec, n_machines=args.machines, seed=args.seed
        )
        run = execute_runs(
            cluster, get_workload(args.workload), n_runs=1, seed=args.seed
        )[0]
        machines = [
            ReplayMachine(
                machine_id=machine_id,
                platform_key=bundle.platform_key,
                log=run.logs[machine_id],
            )
            for machine_id in run.machine_ids
        ]

    logs = {machine.machine_id: machine.log for machine in machines}
    result = replay(
        machines,
        static_bundles={
            bundle.platform_key: (
                f"{bundle.platform_key}@file-{bundle.digest()[:12]}",
                bundle,
            )
        },
        speed=args.speed,
        sanitize=args.sanitize,
        shards=args.shards,
        shard_backend=args.shard_backend,
    )
    print(
        f"replayed {len(machines)} machine(s) at {args.speed:g}x: "
        f"{result.total_scored} samples scored, "
        f"{result.total_dropped} dropped, "
        f"batch p99 {result.telemetry['batch_latency_s']['p99']*1e3:.2f} ms",
        file=out,
    )
    sanitizer_failed = False
    if args.sanitize:
        report = result.telemetry["sanitizer"]
        print(
            f"sanitizer: {report['n_violations']} violation(s), max "
            f"heartbeat drift "
            f"{report['max_heartbeat_drift_s']*1e3:.1f} ms",
            file=out,
        )
        if not report["ok"]:
            for violation in report["violations"]:
                print(f"  - {violation['kind']}: {violation['detail']}",
                      file=out)
            sanitizer_failed = True
        array_report = result.telemetry["array_sanitizer"]
        n_contracted_calls = sum(
            stats["calls"]
            for stats in array_report["functions"].values()
        )
        print(
            f"array sanitizer: {array_report['n_violations']} "
            f"violation(s) over {n_contracted_calls} contracted "
            "call(s)",
            file=out,
        )
        if not array_report["ok"]:
            for violation in array_report["violations"]:
                print(
                    f"  - {violation['kind']} in "
                    f"{violation['function']}(): {violation['detail']}",
                    file=out,
                )
            sanitizer_failed = True
    if args.stats_out is not None:
        with open(args.stats_out, "w") as handle:
            json.dump(result.telemetry, handle, indent=2)
        print(f"telemetry -> {args.stats_out}", file=out)
    if args.verify:
        worst = max(
            max_deviation_w(machine_result, bundle, logs[machine_id])
            for machine_id, machine_result in result.machines.items()
        )
        if worst > 0.0:
            print(
                f"VERIFY FAILED: online deviates from offline by up to "
                f"{worst:.3e} W",
                file=out,
            )
            return 1
        print("verify: online == offline bit-for-bit on every "
              "non-patched sample", file=out)
    return 1 if sanitizer_failed else 0


def _cmd_publish(args, out) -> int:
    from repro.serving import ModelRegistry, RegistryError, load_bundle
    from repro.serving.registry import DEFAULT_MAX_DRE_REGRESSION
    from repro.telemetry.perfmon import PerfmonLog

    bundle = load_bundle(args.bundle)
    registry = ModelRegistry(args.registry)
    replay_log = None
    if args.replay_log is not None:
        with open(args.replay_log) as handle:
            replay_log = PerfmonLog.from_csv(handle.read())
    try:
        version, gate = registry.publish(
            bundle,
            replay_log=replay_log,
            max_dre_regression=(
                args.max_regression
                if args.max_regression is not None
                else DEFAULT_MAX_DRE_REGRESSION
            ),
            force=args.force,
        )
    except RegistryError as error:
        print(f"publish rejected: {error}", file=out)
        return 1
    if gate is not None:
        print(gate.describe(), file=out)
    else:
        print("ungated publish (no --replay-log)", file=out)
    print(
        f"published {version.label} "
        f"(generation {version.generation}); live for "
        f"{version.platform_key}",
        file=out,
    )
    return 0


def _parse_weights(raw: str | None) -> dict[str, float]:
    """--weights 'dre=0.5,overhead=0.2' merged over the defaults."""
    from repro.dse.mcdm import DEFAULT_WEIGHTS

    weights = dict(DEFAULT_WEIGHTS)
    if raw is None:
        return weights
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if name not in weights:
            raise ValueError(
                f"unknown objective {name!r} in --weights "
                f"(choose from {sorted(weights)})"
            )
        weights[name] = float(value)
    return weights


def _dse_campaign_config(args):
    from repro.dse import CampaignConfig, GAConfig

    ga = GAConfig(
        population=getattr(args, "population", 24),
        generations=getattr(args, "generations", 8),
        budget=getattr(args, "budget", None),
    )
    return CampaignConfig(
        platform=args.platform,
        workload=args.workload,
        machines=args.machines,
        runs=args.runs,
        seed=args.seed,
        ranking=args.ranking,
        probe_seconds=args.probe_seconds,
        weights=_parse_weights(getattr(args, "weights", None)),
        ga=ga,
    )


def _cmd_dse(args, out) -> int:
    from repro.framework.reports import render_table

    if args.dse_command == "report":
        from repro.dse import load_campaign, save_report

        payload = load_campaign(args.campaign)
        save_report(payload, args.out)
        print(
            f"frontier report ({len(payload['frontier'])} of "
            f"{len(payload['candidates'])} candidates) -> {args.out}",
            file=out,
        )
        return 0

    if not _check_resume(args, out):
        return 2
    config = _dse_campaign_config(args)

    if args.dse_command == "screen":
        from repro.dse import screen_campaign

        with _engine_defaults(args):
            result = screen_campaign(config)
        print(
            f"screened {result.n_runs_evaluated} factorial runs "
            f"({result.n_feasible} feasible) on "
            f"{config.platform}/{config.workload}",
            file=out,
        )
        rows = [
            [factor.name, f"{factor.strength:.3f}"]
            + [f"{effect:+.4g}" for effect in factor.effects]
            for factor in result.factors
        ]
        from repro.dse import OBJECTIVE_NAMES

        print(render_table(
            ["parameter", "strength"] + list(OBJECTIVE_NAMES),
            rows,
            title="main effects (strongest first; effect = "
            "mean(high) - mean(low))",
        ), file=out)
        print(result.telemetry.render(), file=out)
        return 0

    # search
    from repro.dse import git_commit, save_campaign, search_campaign

    def _progress(record):
        print(
            f"  generation {record.generation}: "
            f"{len(record.evaluated)} new evaluations, "
            f"frontier {len(record.frontier)}",
            file=out,
        )

    with _engine_defaults(args):
        result = search_campaign(config, on_generation=_progress)
    result.provenance = {"commit": git_commit()}
    save_campaign(result, args.out)
    print(
        f"campaign: {len(result.candidates)} candidates evaluated, "
        f"frontier {len(result.frontier)}, payload "
        f"{result.payload_digest()[:12]} -> {args.out}",
        file=out,
    )
    if result.mcdm:
        from repro.dse import OBJECTIVE_NAMES

        rows = []
        for entry in result.mcdm[:5]:
            verdict = result.candidates[entry["digest"]]
            detail = verdict.get("detail") or {}
            rows.append(
                [
                    entry["digest"][:10],
                    str(detail.get("label", "?")),
                    f"{entry['score']:.4f}",
                ]
                + [
                    f"{verdict['objectives'][name]:.4g}"
                    for name in OBJECTIVE_NAMES
                ]
            )
        print(render_table(
            ["candidate", "config", "mcdm"] + list(OBJECTIVE_NAMES),
            rows,
            title="top candidates (MCDM weighted score, lower = better)",
        ), file=out)
    if args.report_out is not None:
        from repro.dse import save_report

        payload = result.to_payload()
        save_report(payload, args.report_out)
        print(f"frontier report -> {args.report_out}", file=out)
    print(result.telemetry.render(), file=out)
    return 0


def _cmd_cache(args, out) -> int:
    from repro.engine import ArtifactCache

    cache_dir = _resolve_cache_dir(args)
    cache = ArtifactCache(cache_dir)
    if args.action == "stats":
        print(cache.stats().render(), file=out)
    else:
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}",
              file=out)
    return 0


def _cmd_lint(args, out) -> int:
    from repro.analysis.runner import run_lint

    if args.list_rules:
        from repro.analysis.findings import RULES

        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}", file=out)
        return 0

    if args.explain is not None:
        from repro.analysis.ruledocs import explain

        text = explain(args.explain)
        if text is None:
            print(
                f"unknown rule code {args.explain!r} (see "
                "docs/static_analysis.md for the catalog)",
                file=out,
            )
            return 2
        print(text, file=out)
        return 0

    report = run_lint(
        root=args.root,
        paths=args.paths or None,
        select=args.select,
        ignore=args.ignore,
        semantic=not args.no_semantic,
        ast_pass=not args.no_ast,
        dataflow=not args.no_dataflow,
        races=not args.no_races,
        shapes=not args.no_shapes,
    )
    format = args.format or ("json" if args.as_json else "text")
    print(report.render(format, root=args.root), file=out)
    return report.exit_code


#: Artifact name -> experiment driver (resolved lazily to keep CLI startup
#: light).  Every driver accepts a DataRepository.
_ARTIFACTS = {
    "figure1": "run_figure1",
    "figure2": "run_figure2",
    "figure3": "run_figure3",
    "figure4": "run_figure4",
    "figure5": "run_figure5",
    "table2": "run_table2",
    "table3": "run_table3",
    "table4": "run_table4",
    "hetero": "run_hetero",
    "general-accuracy": "run_general_accuracy",
    "overhead": "run_overhead",
    "scaling-machines": "run_sampling",
    "sampling-rate": "run_sampling_rate",
    "cross-workload": "run_cross_workload",
}


def _cmd_reproduce(args, out) -> int:
    import repro.experiments as experiments

    repository = experiments.DataRepository(
        seed=args.seed, n_runs=args.runs, n_machines=args.machines
    )
    if not _check_resume(args, out):
        return 2
    driver = getattr(experiments, _ARTIFACTS[args.artifact])
    print(
        f"regenerating {args.artifact} "
        f"({args.machines} machines, {args.runs} runs, seed {args.seed}) "
        "...",
        file=out,
    )
    with _engine_defaults(args):
        result = driver(repository=repository)
    print(result.render(), file=out)
    if args.export is not None:
        from repro.experiments.export import export_result

        path = export_result(args.artifact, result, args.export)
        if path is not None:
            print(f"data written to {path}", file=out)
        else:
            print("(no tabular data exporter for this artifact)", file=out)
    return 0


_COMMANDS = {
    "platforms": _cmd_platforms,
    "counters": _cmd_counters,
    "select": _cmd_select,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "export-log": _cmd_export_log,
    "predict": _cmd_predict,
    "lint": _cmd_lint,
    "reproduce": _cmd_reproduce,
    "sweep": _cmd_sweep,
    "dse": _cmd_dse,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "publish": _cmd_publish,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    try:
        return _COMMANDS[args.command](args, stream)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=stream)
        return 1


if __name__ == "__main__":
    sys.exit(main())
