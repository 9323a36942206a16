"""``cold_build``: build every fault-sampled workload from empty caches.

One cycle clears the memo store and the circuit registry, then builds the
six largest ISCAS-89 circuits through ``build_circuit_workload`` and the
d695 per-core workloads through ``build_d695_soc`` + ``build_soc_workloads``
— what every fresh run pays.  Nearly all work is circuit generation and
simulation; no diagnosis, no serving.

An operation is one input's build.  Rung names map to input size for this
batch workload: ``lo`` = s9234/s13207/s15850, ``mid`` = s35932/s38417/
s38584, ``hi`` = the whole d695 SOC; a rung's latency samples are its
inputs' summed build time, one per cycle.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from typing import Dict, List

import benchlib
import inputs

TIER_MID = ("s35932", "s38417", "s38584")
#: Fresh-interpreter imports per run; ``setup_s`` is their median.
SETUPS = 5


def _tier(name: str) -> str:
    if name == "d695":
        return "hi"
    return "mid" if name in TIER_MID else "lo"


def digest_responses(responses) -> str:
    hasher = hashlib.sha256()
    for response in responses:
        hasher.update(repr(response.fault).encode())
        for cell in sorted(response.cell_errors):
            hasher.update(cell.to_bytes(4, "little"))
            hasher.update(response.cell_errors[cell].tobytes())
    return hasher.hexdigest()[:24]


def build_cycle(config) -> List[dict]:
    """Build everything once from empty memory caches; one record per
    input with its wall time, fault count and response digest."""
    from repro.experiments.runner import build_circuit_workload, build_soc_workloads
    from repro.soc.d695 import build_d695_soc

    inputs.clear_memory_caches()
    ops = []
    for name in inputs.circuits():
        start = time.perf_counter()
        workload = build_circuit_workload(name, config)
        end = time.perf_counter()
        ops.append(dict(name=name, start=start, end=end,
                        groups=[workload.responses]))
    start = time.perf_counter()
    soc = build_d695_soc()
    per_core = build_soc_workloads(soc, config)
    end = time.perf_counter()
    ops.append(dict(name="d695", start=start, end=end,
                    groups=[w.responses for w in per_core.values()]))
    return ops


def verify(ops: List[dict], ledger: benchlib.Ledger, expected: Dict[str, str]) -> int:
    """Check each op's fault sample: ``FAULTS`` detected responses per
    circuit or core, and the digest equal to ``expected`` (the first
    cycle's, and at the default seed the recorded reference).  Fills
    ``expected`` from the first cycle.  Returns the faults built."""
    faults = 0
    for op in ops:
        responses = [r for group in op["groups"] for r in group]
        digest = digest_responses(responses)
        complete = all(len(g) == inputs.FAULTS for g in op["groups"])
        detected = all(r.detected for r in responses)
        want = expected.setdefault(op["name"], digest)
        ledger.check(
            complete and detected and digest == want,
            f"{op['name']}: complete={complete} detected={detected} "
            f"digest={digest} expected={want}",
        )
        faults += len(responses)
        # Drop the workloads so the next cycle's GC does not walk them.
        del op["groups"]
    return faults


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the build entry points."""
    env = dict(os.environ, PYTHONPATH=str(inputs.SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.experiments.runner, repro.soc.d695"],
        env=env, check=True, timeout=120,
    )
    return time.perf_counter() - start


def _expected(seed: int, reference: dict) -> Dict[str, str]:
    if seed == inputs.DEFAULT_SEED:
        return dict(reference["cold_build"])
    return {}


def measure(seed: int, seconds: float, ledger: benchlib.Ledger,
            report: dict, reference: dict) -> Dict[str, float]:
    config = inputs.experiment_config(seed)
    setups = [_import_seconds() for _ in range(SETUPS)]
    expected = _expected(seed, reference)
    durations: Dict[str, List[float]] = {"lo": [], "mid": [], "hi": []}
    busy = 0.0
    faults = 0
    ops_done = 0
    began = time.perf_counter()
    while True:
        ops = build_cycle(config)
        faults += verify(ops, ledger, expected)
        tiers = dict.fromkeys(durations, 0.0)
        for op in ops:
            tiers[_tier(op["name"])] += op["end"] - op["start"]
        for tier, taken in tiers.items():
            durations[tier].append(taken)
            busy += taken
        ops_done += len(ops)
        if time.perf_counter() - began >= seconds:
            break
    report["cycles"] = ops_done // (len(inputs.circuits()) + 1)
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


def _install_wrappers(recorder: benchlib.SpanRecorder, stack) -> None:
    from repro.circuit import library
    from repro.sim.faultsim import FaultSimulator
    from repro.sim.logicsim import CompiledCircuit
    from repro.soc import core_wrapper
    from repro.soc.testrail import TestRail

    def count_faults(args, value):
        return {"faults": len(args[1]),
                "detected": sum(1 for r in value if r.detected)}

    for owner, attr, name, count in (
        (library, "generate_circuit", "circuit.generate", None),
        (CompiledCircuit, "__init__", "sim.compile", None),
        (CompiledCircuit, "soa_schedule", "sim.soa_schedule", None),
        (CompiledCircuit, "simulate", "sim.golden", None),
        (core_wrapper, "fast_pattern_matrices", "bist.patterns", None),
        (FaultSimulator, "__init__", "sim.faultsim_init", None),
        (core_wrapper, "collapse_faults", "sim.collapse", None),
        (FaultSimulator, "simulate_faults", "sim.faultsim", count_faults),
        (TestRail, "lift_response", "soc.lift", None),
    ):
        stack.enter_context(recorder.wrap(owner, attr, name, count))


def trace(seed: int, seconds: float, ledger: benchlib.Ledger,
          report: dict, reference: dict) -> Dict[str, float]:
    from contextlib import ExitStack

    config = inputs.experiment_config(seed)
    expected = _expected(seed, reference)
    untraced = build_cycle(config)
    verify(untraced, ledger, expected)
    plain_wall = untraced[-1]["end"] - untraced[0]["start"]

    recorder = benchlib.SpanRecorder()
    with ExitStack() as stack:
        _install_wrappers(recorder, stack)
        traced = build_cycle(config)
    # build_cycle cleared the memo store, and its counters with it.
    cache_counts = inputs.cache_layer_stats()
    verify(traced, ledger, expected)
    start, end = traced[0]["start"], traced[-1]["end"]
    wall = end - start
    selfs = recorder.self_times()
    counts = recorder.counts
    lookups = cache_counts["hits"] + cache_counts["misses"]
    gaps = [b["start"] - a["end"] for a, b in zip(untraced, untraced[1:])]
    covered = recorder.coverage(start, end)
    report["unattributed"] = {
        "seconds": wall * (1 - covered),
        "what": "memo-store bookkeeping, fault-list shuffles and workload "
                "assembly between the wrapped calls",
    }
    report["extra_layers_s"] = {k: selfs.get(k, 0.0)
                                for k in ("bist.patterns", "sim.faultsim_init")}
    return {
        "circuit.generate_s": selfs.get("circuit.generate", 0.0),
        "sim.compile_s": selfs.get("sim.compile", 0.0),
        "sim.soa_schedule_s": selfs.get("sim.soa_schedule", 0.0),
        "sim.golden_s": selfs.get("sim.golden", 0.0),
        "sim.collapse_s": selfs.get("sim.collapse", 0.0),
        "sim.faultsim_s": selfs.get("sim.faultsim", 0.0),
        "sim.faults_simulated": counts["faults"],
        "sim.detect_ratio": counts["detected"] / counts["faults"],
        "soc.lift_s": selfs.get("soc.lift", 0.0),
        "experiments.cache.hit_ratio":
            cache_counts["hits"] / lookups if lookups else 0.0,
        "loadgen.lag_ms.p95": benchlib.percentile(gaps, 95) * 1000,
        "trace.overhead_pct": (wall - plain_wall) / plain_wall * 100,
        "trace.coverage_pct": covered * 100,
    }
