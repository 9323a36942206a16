"""Command-line interface.

Entry points (also runnable as ``python -m repro.cli``):

* ``repro-diagnose`` — inject sampled stuck-at faults into a benchmark
  circuit and report candidate failing scan cells / DR for a scheme.
* ``repro-experiment`` — regenerate one of the paper's tables or figures
  (or an ablation / extension) by name; ``--trace`` additionally prints
  the span tree, writes a ``trace.jsonl`` span log and a ``manifest.json``
  run manifest; ``--profile`` runs the sampling profiler and writes a
  flamegraph-ready ``profile.folded``.
* ``repro-serve`` / ``python -m repro.cli serve`` — long-lived batching
  diagnosis server (:mod:`repro.service`): POST /diagnose, GET /healthz,
  GET /metrics; a free dispatcher batches every queued same-workload
  request (no batching window); knobs via ``REPRO_SERVE_PORT``,
  ``REPRO_BATCH_MAX``, ``REPRO_QUEUE_DEPTH``.  ``--workers N`` (or
  ``REPRO_CLUSTER_WORKERS``) with N > 1 runs the prefork cluster instead
  (:mod:`repro.cluster`): N supervised server processes on one port.
* ``repro-cluster`` — shorthand for ``repro serve --workers N`` with N
  defaulting to ``REPRO_CLUSTER_WORKERS`` or the CPU count.
* ``repro-top`` / ``python -m repro.cli top`` — refreshing terminal
  dashboard over a serving endpoint's ``/metrics`` + ``/debug/requests``
  (rps, latency quantiles, queue depth, per-worker health, slowest
  traces); point it at a server port or a supervisor control port.
* ``python -m repro.cli stats <manifest.json|trace.jsonl>`` — render the
  hot-path table and cache/pool summaries of a previous traced run.

Deliverable output (tables, DR numbers) goes to stdout; progress and
telemetry go through :mod:`repro.telemetry` to stderr (``REPRO_LOG``,
``REPRO_TRACE``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from . import telemetry

from .bist.misr import LinearCompactor
from .bist.scan import ScanConfig
from .circuit.library import PROFILES, get_circuit
from .core.chainmap import chain_map, legend
from .core.diagnosis import diagnostic_resolution
from .core.diagnosis_batch import diagnose_population
from .core.superposition import superposition_prune_population
from .core.two_step import make_partitioner
from .experiments import (
    default_config,
    run_aliasing_ablation,
    run_binary_search_ablation,
    run_clustering,
    run_deterministic_ablation,
    run_figure3,
    run_figure5,
    run_group_count_ablation,
    run_interval_count_ablation,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from .experiments.atpg_topup import run_atpg_topup
from .experiments.error_model import run_error_model_ablation
from .experiments.patterns_ablation import run_pattern_count_ablation
from .experiments.extensions import (
    run_diagnosis_time,
    run_multi_core,
    run_scan_order_ablation,
    run_schedule_diagnosis,
    run_vector_diagnosis,
)
from .soc.core_wrapper import EmbeddedCore

EXPERIMENT_RUNNERS: Dict[str, Callable] = {
    "table1": lambda cfg: run_table1(cfg),
    "table2": lambda cfg: run_table2(cfg),
    "table3": lambda cfg: run_table3(cfg),
    "table4": lambda cfg: run_table4(cfg),
    "figure3": lambda cfg: run_figure3(cfg),
    "figure5": lambda cfg: run_figure5(cfg),
    "clustering": lambda cfg: run_clustering(config=cfg),
    "ablation-intervals": lambda cfg: run_interval_count_ablation(config=cfg),
    "ablation-groups": lambda cfg: run_group_count_ablation(config=cfg),
    "ablation-aliasing": lambda cfg: run_aliasing_ablation(config=cfg),
    "ablation-deterministic": lambda cfg: run_deterministic_ablation(config=cfg),
    "ablation-binary-search": lambda cfg: run_binary_search_ablation(config=cfg),
    "extension-vectors": lambda cfg: run_vector_diagnosis(config=cfg),
    "extension-scan-order": lambda cfg: run_scan_order_ablation(config=cfg),
    "extension-multi-core": lambda cfg: run_multi_core(config=cfg),
    "extension-time": lambda cfg: run_diagnosis_time(config=cfg),
    "extension-schedule": lambda cfg: run_schedule_diagnosis(config=cfg),
    "ablation-patterns": lambda cfg: run_pattern_count_ablation(config=cfg),
    "extension-atpg": lambda cfg: run_atpg_topup(config=cfg),
    "ablation-error-model": lambda cfg: run_error_model_ablation(config=cfg),
}


def diagnose_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-diagnose``."""
    parser = argparse.ArgumentParser(
        prog="repro-diagnose",
        description="Partition-based failing scan cell diagnosis on a "
        "benchmark circuit.",
    )
    parser.add_argument("circuit", nargs="?", default="s953",
                        help=f"benchmark name (s27, {', '.join(sorted(PROFILES))})")
    parser.add_argument("--scheme", default="two-step",
                        choices=["two-step", "random", "interval", "deterministic"])
    parser.add_argument("--faults", type=int, default=20)
    parser.add_argument("--patterns", type=int, default=128)
    parser.add_argument("--partitions", type=int, default=6)
    parser.add_argument("--groups", type=int, default=8)
    parser.add_argument("--misr-width", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--prune", action="store_true",
                        help="apply superposition pruning")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-fault candidate sets")
    parser.add_argument("--map", action="store_true", dest="show_map",
                        help="draw a per-fault chain map of the outcome")
    args = parser.parse_args(argv)

    core = EmbeddedCore(get_circuit(args.circuit), num_patterns=args.patterns)
    scan = ScanConfig.single_chain(core.num_cells)
    partitions = make_partitioner(
        args.scheme, core.num_cells, args.groups
    ).partitions(args.partitions)
    compactor = LinearCompactor(args.misr_width, 1)
    responses = core.sample_fault_responses(
        args.faults, np.random.default_rng(args.seed)
    )
    results = diagnose_population(responses, scan, partitions, compactor)
    if args.prune:
        results = superposition_prune_population(results, scan)
    if args.verbose or args.show_map:
        for response, result in zip(responses, results):
            if args.verbose:
                print(f"{response.fault}: actual={sorted(result.actual_cells)} "
                      f"candidates={sorted(result.candidate_cells)}")
            if args.show_map:
                print(f"{response.fault}:")
                print(chain_map(result, scan))
    dr = diagnostic_resolution(results)
    sound = sum(1 for r in results if r.sound)
    sessions = args.partitions * args.groups
    print(f"{args.circuit}: {core.num_cells} cells, {len(results)} faults, "
          f"{args.scheme} x {args.partitions} partitions "
          f"({sessions} sessions{', pruned' if args.prune else ''})")
    print(f"DR = {dr:.3f}   sound: {sound}/{len(results)}")
    if args.show_map:
        print(legend())
    return 0


def experiment_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-experiment``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate one of the paper's tables/figures "
        "(REPRO_FAULTS / REPRO_FAULTS_LARGE control the sample size).",
    )
    parser.add_argument("name", choices=sorted(EXPERIMENT_RUNNERS) + ["all"])
    parser.add_argument("--faults", type=int, default=None,
                        help="override the fault sample size")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized fault sample (smoke runs; --faults "
                        "wins when both are given)")
    parser.add_argument("--trace", action="store_true",
                        help="enable tracing (as REPRO_TRACE=1), print the "
                        "span tree to stderr and write trace/manifest files")
    parser.add_argument("--profile", action="store_true",
                        help="enable the sampling profiler (as "
                        "REPRO_PROFILE=1, rate REPRO_PROFILE_HZ) and write "
                        "a flamegraph-ready collapsed-stack file")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="run-manifest path (default manifest.json when "
                        "tracing)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="JSONL span-log path (default trace.jsonl when "
                        "tracing)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="collapsed-stack profile path (default "
                        "profile.folded when profiling)")
    args = parser.parse_args(argv)

    if args.trace:
        telemetry.enable_tracing()
    tracing = telemetry.trace_enabled()
    profiling = args.profile or telemetry.profile_enabled()
    if profiling:
        # Re-resolve REPRO_PROFILE_HZ here rather than trusting the rate
        # captured when the module was imported.
        mode = telemetry.enable_profiling(telemetry.resolve_profile_hz())
        telemetry.log(f"profiling via {mode} sampler at "
                      f"{telemetry.PROFILER.hz} Hz")
    overrides = {}
    if args.faults is not None:
        overrides = {"num_faults": args.faults, "num_faults_large": args.faults}
    elif args.quick:
        overrides = {"num_faults": 10, "num_faults_large": 5}
    config = default_config(**overrides)
    names = sorted(EXPERIMENT_RUNNERS) if args.name == "all" else [args.name]
    try:
        for name in names:
            telemetry.log(f"running {name} ...")
            with telemetry.span(f"experiment:{name}"):
                result = EXPERIMENT_RUNNERS[name](config)
            print(result.render())
            print()
    finally:
        if profiling:
            telemetry.disable_profiling()
    profile_path: Optional[Path] = None
    if profiling:
        profile_path = telemetry.write_profile_folded(
            Path(args.profile_out or "profile.folded"))
        telemetry.log(
            f"wrote {profile_path} "
            f"({telemetry.PROFILER.data.total} samples; render with "
            f"flamegraph.pl or speedscope)")
    if tracing:
        _export_run_telemetry(args, config, profile_path)
    return 0


def _export_run_telemetry(
    args: Any, config: Any, profile_path: Optional[Path] = None
) -> None:
    """Dump the span tree to stderr and write trace.jsonl + manifest.json
    next to the experiment output (cwd unless overridden)."""
    telemetry.print_span_tree()
    trace_path = Path(args.trace_out or "trace.jsonl")
    telemetry.write_trace_jsonl(trace_path)
    extra: Dict[str, Any] = {"trace_file": str(trace_path)}
    if profile_path is not None:
        extra["profile_file"] = str(profile_path)
    manifest = telemetry.build_manifest(
        config=config,
        seed=getattr(config, "fault_seed", None),
        extra=extra,
    )
    manifest_path = Path(args.manifest or "manifest.json")
    telemetry.write_manifest(manifest_path, manifest)
    telemetry.log(f"wrote {trace_path} and {manifest_path}")


def stats_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.cli stats``: render the hot-path
    table and cache/pool summaries of a traced run."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Summarize a run manifest (manifest.json) or span log "
        "(trace.jsonl) produced by repro-experiment --trace.",
    )
    parser.add_argument("path", nargs="?", default=None,
                        help="manifest.json or trace.jsonl")
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the hot-path table (default 15)")
    parser.add_argument("--disk-cache", nargs="?", metavar="DIR",
                        const="", default=None, dest="disk_cache",
                        help="summarize the persistent disk cache (DIR, or "
                        "REPRO_DISK_CACHE when omitted)")
    args = parser.parse_args(argv)

    from .experiments.reporting import render_table

    if args.disk_cache is not None:
        code = _disk_cache_summary(args.disk_cache, render_table)
        if args.path is None or code != 0:
            return code
    elif args.path is None:
        parser.error("a telemetry file or --disk-cache is required")

    path = Path(args.path)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    try:
        rollup, metrics, profile = _load_telemetry(path)
    except TelemetryFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rollup:
        print(f"{path}: no spans recorded (was the run traced?)")
        return 0

    rows = [
        [
            row["name"], row["count"],
            f"{row['wall_s'] * 1000:.2f}", f"{row['self_s'] * 1000:.2f}",
            f"{row['cpu_s'] * 1000:.2f}",
            " ".join(f"{k}={v}" for k, v in sorted(row["counters"].items())),
        ]
        for row in rollup[: args.top]
    ]
    print(render_table(
        f"Hot path ({path.name}, by self time)",
        ["stage", "calls", "wall ms", "self ms", "cpu ms", "counters"],
        rows,
    ))
    if metrics is not None:
        cache_rows = _cache_summary(metrics)
        if cache_rows:
            print()
            print(render_table(
                "Cache", ["store", "hits", "misses", "hit rate"], cache_rows
            ))
        faultsim_rows = _faultsim_summary(metrics)
        if faultsim_rows:
            print()
            print(render_table(
                "Fault simulation", ["metric", "value"], faultsim_rows
            ))
        kernel_rows = _kernel_summary(metrics)
        if kernel_rows:
            print()
            print(render_table(
                "Gate-eval kernel", ["metric", "value"], kernel_rows
            ))
        diagnosis_rows = _diagnosis_summary(metrics)
        if diagnosis_rows:
            print()
            print(render_table(
                "Diagnosis kernel", ["metric", "value"], diagnosis_rows
            ))
        pool_rows = _pool_summary(metrics)
        if pool_rows:
            print()
            print(render_table("Worker pool", ["metric", "value"], pool_rows))
    if profile and profile.get("enabled") and profile.get("spans"):
        _print_profile_tables(profile, render_table)
    return 0


def _print_profile_tables(profile: Dict[str, Any], render_table) -> None:
    """Per-span hot-function tables from the manifest ``profile`` record
    (sampling-profiler self/cumulative sample counts)."""
    total = max(1, int(profile.get("samples") or 1))
    for entry in profile["spans"]:
        span_samples = int(entry.get("samples", 0))
        rows = [
            [
                fn["function"], int(fn["self"]),
                f"{fn['self'] / total:.1%}", int(fn["cum"]),
            ]
            for fn in entry.get("functions", [])
        ]
        if not rows:
            continue
        print()
        print(render_table(
            f"Profile: {entry.get('span', '(no span)')} "
            f"({span_samples} samples @ {profile.get('hz', '?')} Hz, "
            f"{profile.get('mode', '?')} mode)",
            ["function", "self", "self %", "cum"],
            rows,
        ))


def _disk_cache_summary(raw_dir: str, render_table) -> int:
    """Render the persistent disk-cache store (``repro stats --disk-cache``).

    A missing or unusable directory is a clear one-line error (exit 2),
    never a traceback; corrupt entries show up as a count.
    """
    from .experiments import cache_disk

    root = Path(raw_dir) if raw_dir else cache_disk.cache_dir()
    try:
        summary = cache_disk.scan(root)
    except cache_disk.DiskCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read disk cache: {exc}", file=sys.stderr)
        return 2
    rows = [
        [kind, info["entries"], _human_bytes(info["bytes"])]
        for kind, info in sorted(summary["kinds"].items())
    ]
    rows.append(["total", summary["entries"], _human_bytes(summary["bytes"])])
    print(render_table(
        f"Disk cache ({summary['dir']})", ["kind", "entries", "bytes"], rows
    ))
    if summary["corrupt"]:
        print(f"warning: {summary['corrupt']} unreadable "
              f"entr{'y' if summary['corrupt'] == 1 else 'ies'} skipped "
              "(stale format or corruption; they will be rebuilt on demand)",
              file=sys.stderr)
    return 0


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - fallthrough guard


class TelemetryFileError(Exception):
    """A telemetry file that cannot be summarized (empty, truncated,
    corrupt) — reported as a clear CLI error, never a traceback."""


def _load_telemetry(path: Path):
    """(span rollup, metrics-or-None, profile-or-None) from a manifest or
    a JSONL trace.

    Raises :class:`TelemetryFileError` for empty or truncated files — a
    crashed or killed traced run leaves exactly those behind — and for
    manifests that record spans but no ``metrics`` section (a partial
    export the summaries below would silently misreport as "no cache /
    pool / kernel activity").
    """
    if path.stat().st_size == 0:
        raise TelemetryFileError(
            f"{path} is empty (did the traced run crash before exporting?)")
    if path.suffix == ".jsonl":
        try:
            spans = telemetry.read_trace_jsonl(path)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TelemetryFileError(
                f"{path} is not a valid span log (truncated or corrupt "
                f"line?): {exc}") from exc
        return telemetry.span_rollup(spans), None, None
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TelemetryFileError(
            f"{path} is not valid JSON (truncated manifest?): {exc}") from exc
    if not isinstance(manifest, dict):
        raise TelemetryFileError(
            f"{path} does not hold a manifest object "
            f"(got {type(manifest).__name__})")
    errors = telemetry.validate_manifest(manifest)
    if errors:
        print(f"warning: {path} fails manifest schema:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
    rollup = manifest.get("span_rollup", [])
    metrics = manifest.get("metrics")
    if rollup and not isinstance(metrics, dict):
        raise TelemetryFileError(
            f"{path} records {len(rollup)} span(s) but no metrics section "
            "(partial or hand-edited manifest?); re-run with --trace to "
            "regenerate it")
    profile = manifest.get("profile")
    return rollup, metrics, profile if isinstance(profile, dict) else None


def _cache_summary(metrics: Dict[str, Any]) -> List[list]:
    counters = metrics.get("counters", {})
    kinds: Dict[str, Dict[str, float]] = {}
    for key, value in counters.items():
        name, labels = telemetry.split_metric_key(key)
        if name in ("cache.hits", "cache.misses"):
            store = labels.get("kind", "?")
            slot = "hits" if name == "cache.hits" else "misses"
        elif name in ("cache.disk.hits", "cache.disk.misses"):
            store = f"disk:{labels.get('kind', '?')}"
            slot = "hits" if name == "cache.disk.hits" else "misses"
        else:
            continue
        entry = kinds.setdefault(store, {"hits": 0, "misses": 0})
        entry[slot] += value
    rows = []
    for kind in sorted(kinds):
        hits, misses = kinds[kind]["hits"], kinds[kind]["misses"]
        total = hits + misses
        rows.append([kind, int(hits), int(misses),
                     f"{hits / total:.1%}" if total else "-"])
    return rows


def _faultsim_summary(metrics: Dict[str, Any]) -> List[list]:
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    faults = counters.get("faultsim.faults")
    if not faults:
        return []
    rows: List[list] = [["faults simulated", int(faults)]]
    if "faultsim.detected" in counters:
        rows.append(["detected", int(counters["faultsim.detected"])])
    if "faultsim.batches" in counters:
        rows.append(["batches", int(counters["faultsim.batches"])])
    cone = histograms.get("faultsim.batch_cone_nets")
    if cone and cone.get("count"):
        rows.append(["union cone nets (min/mean/max)",
                     f"{cone['min']:.0f}/{cone['sum'] / cone['count']:.0f}/"
                     f"{cone['max']:.0f}"])
    return rows


def _kernel_summary(metrics: Dict[str, Any]) -> List[list]:
    """The SoA level-schedule table: good-machine sims, the schedule
    shape, and the gather volume it moved."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    # Label-insensitive: older manifests split the count by kernel.
    sims = sum(
        int(value) for key, value in counters.items()
        if telemetry.split_metric_key(key)[0] == "logicsim.sims"
    )
    rows: List[list] = []
    if sims:
        rows.append(["good-machine sims", sims])
    if "soa.levels" in gauges:
        rows.append(["SoA schedule",
                     f"{int(gauges['soa.levels'])} levels, "
                     f"{int(gauges.get('soa.groups', 0))} groups, "
                     f"{int(gauges.get('soa.gates', 0))} gates"])
    if "soa.gather_bytes" in counters:
        rows.append(["SoA gather volume",
                     _human_bytes(int(counters["soa.gather_bytes"]))])
    return rows


def _diagnosis_summary(metrics: Dict[str, Any]) -> List[list]:
    """The fused-diagnosis table: how many faults went through the fused
    kernel vs the per-fault fallback, and the launch shapes."""
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    fused = int(counters.get("diagnosis.batch_faults", 0))
    perfault = int(counters.get("diagnosis.perfault_faults", 0))
    total = fused + perfault
    if not total:
        return []
    rows: List[list] = [["faults diagnosed", total]]
    rows.append(["fused faults",
                 f"{fused} ({fused / total:.0%})" if fused
                 else "0 (per-fault only)"])
    if "diagnosis.batch_kernel_calls" in counters:
        rows.append(["kernel launches",
                     int(counters["diagnosis.batch_kernel_calls"])])
    events = histograms.get("diagnosis.events_per_launch")
    if events and events.get("count"):
        rows.append(["events/launch (min/mean/max)",
                     f"{events['min']:.0f}/"
                     f"{events['sum'] / events['count']:.0f}/"
                     f"{events['max']:.0f}"])
    chunk = histograms.get("diagnosis.chunk_faults")
    if chunk and chunk.get("count"):
        rows.append(["chunk size (min/mean/max)",
                     f"{chunk['min']:.0f}/"
                     f"{chunk['sum'] / chunk['count']:.1f}/"
                     f"{chunk['max']:.0f}"])
    return rows


def _pool_summary(metrics: Dict[str, Any]) -> List[list]:
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    tasks_per_worker = {
        telemetry.split_metric_key(key)[1].get("worker", "?"): value
        for key, value in counters.items()
        if telemetry.split_metric_key(key)[0] == "pool.tasks"
    }
    if not tasks_per_worker and "pool.workers_seen" not in gauges:
        return []
    rows: List[list] = []
    if "pool.workers_seen" in gauges:
        rows.append(["workers", int(gauges["pool.workers_seen"])])
    if tasks_per_worker:
        counts = sorted(tasks_per_worker.values())
        rows.append(["tasks/worker (min..max)",
                     f"{int(counts[0])}..{int(counts[-1])}"])
    chunk = histograms.get("pool.chunk_size")
    if chunk and chunk.get("count"):
        rows.append(["chunks", int(chunk["count"])])
        rows.append(["chunk size (min/mean/max)",
                     f"{chunk['min']:.0f}/{chunk['sum'] / chunk['count']:.1f}/"
                     f"{chunk['max']:.0f}"])
    wall = histograms.get("pool.map_wall_s")
    if wall and wall.get("count"):
        rows.append(["parallel sections", int(wall["count"])])
        rows.append(["parallel wall total", f"{wall['sum']:.3f}s"])
    if "pool.utilization" in gauges:
        rows.append(["utilization (last section)",
                     f"{gauges['pool.utilization']:.1%}"])
    if "pool.transport_bytes" in counters:
        rows.append(["transport payload",
                     _human_bytes(int(counters["pool.transport_bytes"]))])
    if "pool.result_bytes" in counters:
        rows.append(["result payload", f"{int(counters['pool.result_bytes'])} B"])
    if "pool.pickle_s" in counters:
        rows.append(["result pickle time", f"{counters['pool.pickle_s']:.3f}s"])
    return rows


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-serve`` (imports the service lazily so the
    one-shot commands never pay for asyncio)."""
    from .service.server import serve_main as _serve_main

    return _serve_main(argv)


def top_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-top`` (lazy import like ``serve``)."""
    from .service.top import top_main as _top_main

    return _top_main(argv)


def cluster_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-cluster``: ``repro serve`` with the prefork
    cluster on by default (``--workers`` falls back to
    ``REPRO_CLUSTER_WORKERS`` or the CPU count instead of 1)."""
    import os

    argv = list(sys.argv[1:] if argv is None else argv)
    if not any(arg == "--workers" or arg.startswith("--workers=")
               for arg in argv):
        default = os.environ.get("REPRO_CLUSTER_WORKERS", "").strip()
        workers = int(default) if default else (os.cpu_count() or 2)
        argv = ["--workers", str(max(2, workers))] + argv
    return serve_main(argv)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.cli [diagnose|experiment|serve|stats|top] ...``"""
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = ("diagnose", "experiment", "serve", "stats", "top")
    if not argv or argv[0] not in commands:
        print("usage: python -m repro.cli "
              "{diagnose,experiment,serve,stats,top} ...",
              file=sys.stderr)
        return 2
    command = argv.pop(0)
    if command == "diagnose":
        return diagnose_main(argv)
    if command == "serve":
        return serve_main(argv)
    if command == "stats":
        return stats_main(argv)
    if command == "top":
        return top_main(argv)
    return experiment_main(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
