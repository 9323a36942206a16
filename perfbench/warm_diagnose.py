"""``warm_diagnose``: the paper's Table 2 / Table 4 evaluation on warm state.

Set-up loads the workloads of the six largest ISCAS-89 circuits and of
every d695 core from a disk cache that an untimed prepare step filled for
this source tree and seed.  The timed part replays ``evaluate_scheme``
with superposition pruning for the ``random``, ``interval`` and
``two-step`` schemes at the tables' settings.  Nearly all work is in the
core and bist layers, on two kernel shapes: single-chain circuits and the
8-channel d695 meta chains.

An operation is one ``evaluate_scheme`` call.  Rung names map to the input
shape for this batch workload: ``lo`` = single chains under 1024 cells,
``mid`` = single chains of 1024 cells or more, ``hi`` = d695 meta chains;
a rung's latency samples are its calls' summed time, one per sweep.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Dict, List, Tuple

import benchlib
import cold_build
import inputs

NAME = "warm_diagnose"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _settings():
    from repro.experiments.soc_tables import NUM_PARTITIONS, SOC2_GROUPS

    return NUM_PARTITIONS, SOC2_GROUPS


def load_workloads(config) -> Dict[str, Tuple[object, int]]:
    """Every input's workload with its group count, via the public
    builders (memory hits once the disk tier is warm)."""
    from repro.experiments.runner import build_circuit_workload, build_soc_workloads
    from repro.soc.d695 import build_d695_soc

    _, soc_groups = _settings()
    out = {}
    for name in inputs.circuits():
        workload = build_circuit_workload(name, config)
        out[name] = (workload, inputs.table_groups(workload.scan_config.max_length))
    soc = build_d695_soc()
    for core, workload in build_soc_workloads(soc, config).items():
        out[f"d695/{core}"] = (workload, soc_groups)
    return out


def prepare(seed: int) -> None:
    """Build and persist every workload, partition set and compactor the
    timed part uses (runs in a child interpreter with the disk tier on)."""
    from repro.experiments.runner import evaluate_scheme

    config = inputs.experiment_config(seed)
    partitions, _ = _settings()
    for workload, groups in load_workloads(config).values():
        for scheme in inputs.SCHEMES:
            evaluate_scheme(workload, scheme, partitions, groups, config)


def set_up(config) -> Tuple[Dict[str, Tuple[object, int]], float]:
    """From empty memory: bulk-load the disk tier, then resolve every
    workload.  Returns the workloads and the wall time."""
    from repro.experiments import cache

    inputs.clear_memory_caches()
    start = time.perf_counter()
    cache.warm_from_disk()
    workloads = load_workloads(config)
    return workloads, time.perf_counter() - start


def _tier(key: str, workload) -> str:
    if key.startswith("d695/"):
        return "hi"
    return "mid" if workload.scan_config.max_length >= 1024 else "lo"


def _ops(workloads) -> List[Tuple[str, str]]:
    return [(key, scheme) for scheme in inputs.SCHEMES for key in workloads]


def sweep(workloads, config) -> List[dict]:
    """One ``evaluate_scheme`` (with pruning) per (input, scheme)."""
    from repro.experiments.runner import evaluate_scheme

    partitions, _ = _settings()
    ops = []
    for key, scheme in _ops(workloads):
        workload, groups = workloads[key]
        start = time.perf_counter()
        evaluation = evaluate_scheme(workload, scheme, partitions, groups, config,
                                     with_pruning=True)
        end = time.perf_counter()
        ops.append(dict(key=key, scheme=scheme, start=start, end=end,
                        faults=len(workload.responses), tier=_tier(key, workload),
                        dr=evaluation.dr, dr_pruned=evaluation.dr_pruned,
                        results=evaluation.results,
                        pruned=evaluation.pruned_results))
    return ops


def verify(ops: List[dict], ledger: benchlib.Ledger, expected: Dict[str, list]) -> None:
    """Every result sound; DR and pruned DR equal to ``expected`` (the
    first sweep's, and at the default seed the recorded reference)."""
    for op in ops:
        label = f"{op['key']}/{op['scheme']}"
        sound = all(r.sound for r in op["results"])
        want = expected.setdefault(label, [op["dr"], op["dr_pruned"]])
        ledger.check(
            sound and [op["dr"], op["dr_pruned"]] == list(want),
            f"{label}: sound={sound} dr={op['dr']!r}/{op['dr_pruned']!r} "
            f"expected={want!r}",
        )


def _expected(seed: int, reference: dict) -> Dict[str, list]:
    if seed == inputs.DEFAULT_SEED:
        return dict(reference[NAME])
    return {}


def measure(seed: int, seconds: float, ledger: benchlib.Ledger,
            report: dict, reference: dict) -> Dict[str, float]:
    config = inputs.experiment_config(seed)
    report["prepared"] = inputs.ensure_prepared(NAME, seed)[1]
    setups = []
    for _ in range(SETUPS):
        workloads, seconds_taken = set_up(config)
        setups.append(seconds_taken)
    expected = _expected(seed, reference)
    durations: Dict[str, List[float]] = {"lo": [], "mid": [], "hi": []}
    busy = 0.0
    faults = 0
    ops_done = 0
    began = time.perf_counter()
    while True:
        ops = sweep(workloads, config)
        verify(ops, ledger, expected)
        tiers = dict.fromkeys(durations, 0.0)
        for op in ops:
            # Drop the results so the next sweep's GC does not walk them.
            del op["results"], op["pruned"]
            tiers[op["tier"]] += op["end"] - op["start"]
            faults += op["faults"]
        for tier, taken in tiers.items():
            durations[tier].append(taken)
            busy += taken
        ops_done += len(ops)
        if time.perf_counter() - began >= seconds:
            break
    report["sweeps"] = ops_done // len(ops)
    report["samples"] = {tier: len(v) for tier, v in durations.items()}
    values = {
        "setup_s": benchlib.median(setups),
        "faults_per_s": faults / busy,
        "peak_rss_mb": benchlib.self_peak_rss_mb(),
        "slo_rps": ops_done / busy,
    }
    for tier, samples in durations.items():
        values[f"p50_ms.{tier}"] = benchlib.median(samples) * 1000
    report["p95_ms"] = {tier: benchlib.percentile(samples, 95) * 1000
                        for tier, samples in durations.items()}
    return values


def decomposed_sweep(workloads, config, recorder: benchlib.SpanRecorder) -> List[dict]:
    """``evaluate_scheme``'s steps called one by one under spans."""
    from repro.bist.misr import LinearCompactor
    from repro.core.diagnosis import diagnostic_resolution
    from repro.core.diagnosis_batch import diagnose_population
    from repro.core.superposition import apply_superposition
    from repro.experiments import cache
    from repro.experiments.runner import scheme_partitions

    num_partitions, _ = _settings()
    ops = []
    for key, scheme in _ops(workloads):
        workload, groups = workloads[key]
        scan = workload.scan_config
        start = time.perf_counter()
        with recorder.span("core.partitions"):
            partitions = scheme_partitions(
                scheme, scan.max_length, groups, num_partitions,
                lfsr_degree=config.lfsr_degree)
            width, chains = config.misr_width, scan.num_chains
            compactor = cache.memoized(
                "compactor", (width, chains), lambda: LinearCompactor(width, chains))
        with recorder.span("core.diagnose"):
            results = diagnose_population(workload.responses, scan, partitions, compactor)
        with recorder.span("core.dr"):
            dr = diagnostic_resolution(results)
        with recorder.span("core.superposition"):
            pruned = [apply_superposition(r, scan) for r in results]
        with recorder.span("core.dr"):
            dr_pruned = diagnostic_resolution(pruned)
        ops.append(dict(key=key, scheme=scheme, start=start, end=time.perf_counter(),
                        dr=dr, dr_pruned=dr_pruned, results=results, pruned=pruned))
    return ops


def _same_results(a: dict, b: dict) -> bool:
    return (
        a["dr"] == b["dr"] and a["dr_pruned"] == b["dr_pruned"]
        and [(r.candidate_cells, r.candidate_history) for r in a["results"]]
        == [(r.candidate_cells, r.candidate_history) for r in b["results"]]
        and [r.candidate_cells for r in a["pruned"]]
        == [r.candidate_cells for r in b["pruned"]]
    )


def trace(seed: int, seconds: float, ledger: benchlib.Ledger,
          report: dict, reference: dict) -> Dict[str, float]:
    from repro.experiments import cache_disk
    from repro.telemetry import METRICS

    config = inputs.experiment_config(seed)
    report["prepared"] = inputs.ensure_prepared(NAME, seed)[1]
    recorder = benchlib.SpanRecorder()
    bytes_before = cache_disk.stats()["bytes_read"]
    with ExitStack() as stack:
        cold_build._install_wrappers(recorder, stack)
        stack.enter_context(recorder.wrap(cache_disk, "load", "experiments.cache_disk.load"))
        setup_start = time.perf_counter()
        workloads, _ = set_up(config)
        setup_end = time.perf_counter()
    bytes_read = cache_disk.stats()["bytes_read"] - bytes_before

    plain = sweep(workloads, config)
    verify(plain, ledger, _expected(seed, reference))
    before = METRICS.snapshot()
    traced = decomposed_sweep(workloads, config, recorder)
    activity = METRICS.diff(before)["counters"]
    for a, b in zip(plain, traced):
        ledger.check(_same_results(a, b),
                     f"decomposed {b['key']}/{b['scheme']} differs from evaluate_scheme")
    cache_counts = inputs.cache_layer_stats()  # since set_up cleared the store

    plain_wall = plain[-1]["end"] - plain[0]["start"]
    sweep_start, sweep_end = traced[0]["start"], traced[-1]["end"]
    wall = (setup_end - setup_start) + (sweep_end - sweep_start)
    covered = (recorder.coverage(setup_start, setup_end) * (setup_end - setup_start)
               + recorder.coverage(sweep_start, sweep_end) * (sweep_end - sweep_start))
    selfs = recorder.self_times()
    report["unattributed"] = {
        "seconds": wall - covered,
        "what": "set-up: disk-entry scan, key parsing and memo seeding; "
                "sweep: result bookkeeping between the core calls",
    }
    report["setup_layers_s"] = {k: v for k, v in selfs.items() if not k.startswith("core.")}
    gaps = [b["start"] - a["end"] for a, b in zip(plain, plain[1:])]
    lookups = cache_counts["hits"] + cache_counts["misses"]
    counts = recorder.counts
    return {
        "circuit.generate_s": selfs.get("circuit.generate", 0.0),
        "sim.compile_s": selfs.get("sim.compile", 0.0),
        "sim.soa_schedule_s": selfs.get("sim.soa_schedule", 0.0),
        "sim.golden_s": selfs.get("sim.golden", 0.0),
        "sim.collapse_s": selfs.get("sim.collapse", 0.0),
        "sim.faultsim_s": selfs.get("sim.faultsim", 0.0),
        "sim.faults_simulated": counts["faults"],
        "sim.detect_ratio": counts["detected"] / counts["faults"] if counts["faults"] else 0.0,
        "soc.lift_s": selfs.get("soc.lift", 0.0),
        "core.partitions_s": selfs.get("core.partitions", 0.0),
        "core.diagnose_s": selfs.get("core.diagnose", 0.0),
        "core.dr_s": selfs.get("core.dr", 0.0),
        "core.superposition_s": selfs.get("core.superposition", 0.0),
        "bist.events": activity.get("session.events_extracted", 0),
        "core.kernel_launches": activity.get("diagnosis.batch_kernel_calls", 0),
        "experiments.cache.hit_ratio": cache_counts["hits"] / lookups if lookups else 0.0,
        "experiments.cache_disk.load_s": selfs.get("experiments.cache_disk.load", 0.0),
        "experiments.cache_disk.bytes_read": bytes_read,
        "loadgen.lag_ms.p95": benchlib.percentile(gaps, 95) * 1000,
        "trace.overhead_pct": ((sweep_end - sweep_start) - plain_wall) / plain_wall * 100,
        "trace.coverage_pct": covered / wall * 100,
    }
