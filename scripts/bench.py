#!/usr/bin/env python
"""Performance-trajectory harness: times the pipeline's hot stages and
writes a machine-readable ``BENCH_PR10.json`` so future PRs can track the
perf trajectory.

Stages, per benchmark circuit:

* ``workload_build_cold_s`` — circuit generation + compile + golden sim +
  fault sampling, empty cache.
* ``workload_build_warm_s`` — same call with the process-wide cache warm.
* ``workload_build_disk_warm_s`` — same call with the memory cache empty
  but the persistent disk tier (``REPRO_DISK_CACHE``) populated.
* ``good_sim_soa_s`` vs ``good_sim_pergate_s`` — one full good-machine
  simulation through the level-group SoA kernel (PR 6) against the
  per-gate oracle loop in ``tests/reference/logicsim.py``;
  ``soa_speedup`` is the ratio and the two value planes must match
  bit-for-bit (asserted).
* ``fault_sim_event_s`` — the event-driven single-fault oracle loop in
  ``tests/reference/faultsim.py``.
* ``fault_sim_batch_s`` — ``simulate_faults``, the fault-batched SoA cone
  kernel and the only production path.  ``fault_batch_speedup`` is the
  event/batch ratio; ``fault_sim_s`` repeats ``fault_sim_batch_s`` so
  the trajectory key stays comparable across PRs.
* ``transport_bytes_packed`` vs ``transport_bytes_legacy_pickle`` — bytes
  the fork pool ships per fault-sim pass with the packed codec, against
  what pickling the same responses the pre-PR 4 way would have cost.
* ``serve_coldstart_cold_s`` / ``serve_coldstart_disk_warm_s`` — time for
  a fresh :class:`DiagnosisEngine` to resolve its first request, cold vs
  warm-from-disk.
* ``diagnose_batch_s`` vs ``diagnose_perfault_s`` — the population
  diagnosis kernel (one signature scatter for the whole fault
  population) against the per-fault oracle loop in
  ``tests/reference/diagnosis.py``, both serial on a population pinned to
  ``DIAG_POPULATION`` faults in both bench modes; ``diagnose_speedup`` is
  the ratio and the two result sets must be bit-identical (asserted).
* ``evaluate_warm_s`` — end-to-end scheme evaluation (workload build +
  diagnose, cache warm) with the vectorized kernels.
* ``evaluate_profiled_s`` — the same warm evaluation with a private
  sampling profiler (PR 7) running at the default 97 Hz;
  ``profile_overhead_pct`` is the relative cost (budget: <=5%) and
  ``profile_samples`` the stacks collected while measuring it.
* ``seed_evaluate_s`` — the same evaluation through the *seed* code path:
  per-bit event extraction and the scalar per-event session loop, no
  cache.  ``end_to_end_speedup`` is the ratio; the two paths must agree on
  DR bit-for-bit (asserted).

A separate ``"cluster"`` section (PR 8) drives ``scripts/loadgen.py``
against a spawned single-process server and a 4-worker prefork cluster
(same circuit, same request mix, ``--verify`` on both so replies are
checked against the direct diagnosis path), then repeats the cluster run
with a mid-run ``kill -9`` of one worker.  It records each run's
throughput, ``cluster_speedup`` (multi/single), ``cpu_count`` (the
speedup is meaningless without it — a 4-worker cluster on one core
mostly measures scheduling overhead), and the chaos run's recovery.

A ``"serve_overhead"`` section (PR 10) measures what end-to-end request
tracing plus the always-on flight recorder cost on the serve path.
``serve_overhead_pct`` is the hot-path CPU tracing adds per request
(traced vs untraced tight loops mirroring the server handler, best of
five interleaved reps) over the per-request server CPU measured under
sustained load against one persistent prewarmed server — budget <=3%,
enforced by ``--check``.  A per-request CPU A/B of the two modes
(flight recorder flipped live via ``POST /debug/flightrec``) rides
along informationally; it is not gated because the few-µs effect sits
far inside shared-box phase noise.

All timing passes run with tracing **disabled** (the telemetry no-op
path).  A separate traced pass afterwards collects the span rollup and
metric totals that are embedded under ``"telemetry"`` — so the report
carries both the wall-clock trajectory and where the time went.

The previous trajectory file (``--prev``, default ``BENCH_PR9.json``) is
optional: when
present, per-circuit wall-clock and per-stage telemetry deltas are
recorded under ``"deltas_vs_prev"``; when absent the report simply omits
them.

``--check BENCH_PR10.json`` turns the harness into a CI gate: after the
run it compares this machine's ``fault_batch_speedup``, ``soa_speedup``
and ``diagnose_speedup`` per circuit against the committed report and
exits 1 if any regressed by more than ``--tolerance`` (default 0.25) on
any circuit, or if ``serve_overhead_pct`` blew its 3% budget.  Speedups
are machine-relative ratios, so the gate is robust to absolute-speed
differences between CI runners and the machine that produced the
committed report.

Run:  PYTHONPATH=src python scripts/bench.py [--circuits s953 s5378]
      [--faults N] [--partitions N] [--out BENCH_PR10.json]
      [--prev BENCH_PR9.json] [--quick]
      [--check BENCH_PR10.json --tolerance 0.25]
"""

import argparse
import json
import os
import pickle
import platform
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# The speedup numerators time the reference oracles kept with the tests.
sys.path.insert(0, str(ROOT))

import numpy as np

from repro import telemetry
from repro.bist.misr import LinearCompactor
from repro.bist.patterns import fast_pattern_matrices
from repro.bist.session import run_partition_sessions_scalar
from repro.core.diagnosis_batch import diagnose_population
from repro.experiments.cache import clear_caches
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_circuit_workload,
    evaluate_scheme,
    scheme_partitions,
)
from repro.sim.bitops import WORD_BITS
from repro.sim.faultsim import FaultSimulator
from repro.soc.core_wrapper import EmbeddedCore, hash_name
from repro.telemetry import METRICS, SamplingProfiler, log
from tests.reference.diagnosis import diagnose as reference_diagnose
from tests.reference.faultsim import simulate_fault
from tests.reference.logicsim import simulate_pergate

NUM_GROUPS = 4
PR_NUMBER = 10

#: Fault-population size for the diagnose-kernel stage, identical in
#: --quick and full runs: ``diagnose_speedup`` grows with population
#: (the fused path amortizes), and CI gates a --quick run against the
#: committed full run, so both must measure the same computation.
DIAG_POPULATION = 30

#: Share of per-request serve CPU that tracing + the flight recorder
#: may add before ``--check`` fails the run.
SERVE_OVERHEAD_BUDGET_PCT = 3.0


def seed_collect_events(response, scan_config):
    """The seed's per-bit event-extraction loop (pre-vectorization)."""
    events = []
    for cell, vec in response.cell_errors.items():
        loc = scan_config.location(cell)
        for word_idx in range(len(vec)):
            word = int(vec[word_idx])
            while word:
                low = word & -word
                bit = low.bit_length() - 1
                pattern = word_idx * WORD_BITS + bit
                events.append(
                    (loc.position, loc.chain, scan_config.global_cycle(cell, pattern))
                )
                word ^= low
    return events


def seed_evaluate(workload, partitions, compactor):
    """End-to-end scheme evaluation through the seed code path: per-bit
    event extraction, scalar per-event sessions, Python mask loops."""
    num_channels = workload.scan_config.num_chains
    total_candidates = 0
    total_actual = 0
    for response in workload.responses:
        events = seed_collect_events(response, workload.scan_config)
        total_cycles = workload.scan_config.total_cycles(response.num_patterns)
        mask = workload.scan_config.presence_mask()
        for part in partitions:
            outcome = run_partition_sessions_scalar(
                events, part.group_of, part.num_groups, total_cycles,
                compactor, num_channels=num_channels,
            )
            failing = np.zeros((part.num_groups, num_channels), dtype=bool)
            for g, per_channel in enumerate(outcome.signatures):
                for w, sig in enumerate(per_channel):
                    if sig != 0:
                        failing[g, w] = True
            mask &= failing[part.group_of, :].T
        grid = workload.scan_config.cell_id_grid()
        candidates = {int(c) for c in grid[mask & (grid >= 0)]}
        actual = set(response.failing_cells)
        if actual:
            total_candidates += len(candidates)
            total_actual += len(actual)
    return (total_candidates - total_actual) / total_actual


def best_of(repeats, fn):
    """Minimum wall time over ``repeats`` calls, plus the last result.

    The timed regions here are tens of milliseconds; a single
    ``perf_counter`` sample swings tens of percent with scheduler noise,
    which would drown the <2% overhead budget this file polices.  The
    minimum is the standard noise-robust estimator for repeatable work.
    """
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_circuit(name, config, num_partitions, repeats=3, fault_cap=400):
    timings = {"circuit": name}

    clear_caches()
    t0 = time.perf_counter()
    workload = build_circuit_workload(name, config)
    timings["workload_build_cold_s"] = time.perf_counter() - t0

    timings["workload_build_warm_s"], _ = best_of(
        repeats, lambda: build_circuit_workload(name, config)
    )

    core = EmbeddedCore(_netlist(name, config), num_patterns=config.num_patterns)
    sample = core.collapsed_faults()[:fault_cap]
    sim = FaultSimulator(core.compiled, core._good)

    # Good-machine simulation: the level-group SoA kernel vs the per-gate
    # oracle, same pattern matrices the core simulated at construction.
    # The schedule builds (or loads) before the timed region — it is a
    # once-per-circuit cost the cache tiers absorb in real runs.
    compiled = core.compiled
    pi, ff = fast_pattern_matrices(
        compiled.num_inputs, compiled.num_scan_cells, config.num_patterns,
        seed=0xACE1 ^ hash_name(name),
    )
    compiled.soa_schedule()
    soa_s, soa_result = best_of(
        max(repeats, 3),
        lambda: compiled.simulate(pi, ff, config.num_patterns),
    )
    pergate_s, pergate_result = best_of(
        max(repeats, 3),
        lambda: simulate_pergate(compiled, pi, ff, config.num_patterns),
    )
    assert np.array_equal(soa_result.values, pergate_result.values), (
        f"SoA kernel drift on {name}: good-machine values differ"
    )
    timings["good_sim_soa_s"] = soa_s
    timings["good_sim_pergate_s"] = pergate_s
    timings["soa_speedup"] = pergate_s / soa_s if soa_s else None

    # Event-driven oracle vs the fault-batched cone kernel, both serial so
    # the ratio isolates the kernel (not the pool).
    event_s, event_responses = best_of(
        repeats, lambda: [simulate_fault(sim, f) for f in sample]
    )
    batch_s, batch_responses = best_of(
        repeats, lambda: sim.simulate_faults(sample, workers=0)
    )
    for a, b in zip(event_responses, batch_responses):
        assert a.cell_errors.keys() == b.cell_errors.keys(), (
            f"batched kernel drift on {name}: {a.fault}"
        )
        for cell, vec in a.cell_errors.items():
            assert np.array_equal(vec, b.cell_errors[cell]), (
                f"batched kernel drift on {name}: {a.fault} cell {cell}"
            )
    timings["fault_sim_event_s"] = event_s
    timings["fault_sim_batch_s"] = batch_s
    timings["fault_sim_s"] = batch_s
    timings["fault_batch_speedup"] = event_s / batch_s if batch_s else None
    timings["num_faults_simulated"] = len(sample)
    timings["faults_per_sec"] = len(sample) / batch_s if batch_s else None

    # Transport bytes across the fork pool: the packed codec's actual
    # shipped payload vs what pickling the same responses per-chunk (the
    # pre-PR 4 wire format) would have cost.
    before = METRICS.snapshot()
    sim.simulate_faults(sample, workers=2)
    shipped = METRICS.diff(before)["counters"].get("pool.transport_bytes", 0)
    timings["transport_bytes_packed"] = int(shipped)
    timings["transport_bytes_legacy_pickle"] = len(
        pickle.dumps(event_responses, protocol=5)
    )

    # The population diagnosis kernel vs the per-fault oracle, both
    # serial so the ratio isolates the kernel (not the pool).  The
    # population is pinned to DIAG_POPULATION faults in *both* bench
    # modes: the speedup grows with population size (the batch path
    # amortizes), and CI gates a --quick run against the committed full
    # run, so the two must measure the same computation.  The partition
    # set and compactor are warmed outside the timed region — they are
    # once-per-scheme costs the caches absorb in real runs.
    diag_responses = workload.responses[:DIAG_POPULATION]
    partitions = scheme_partitions(
        "two-step", workload.scan_config.max_length, NUM_GROUPS,
        num_partitions, lfsr_degree=config.lfsr_degree,
    )
    compactor = LinearCompactor(
        config.misr_width, workload.scan_config.num_chains
    )
    diag_batch_s, batch_results = best_of(
        max(repeats, 3),
        lambda: diagnose_population(
            diag_responses, workload.scan_config, partitions, compactor,
            workers=0,
        ),
    )
    diag_perfault_s, perfault_results = best_of(
        max(repeats, 3),
        lambda: [
            reference_diagnose(r, workload.scan_config, partitions, compactor)
            for r in diag_responses
        ],
    )
    for a, b in zip(perfault_results, batch_results):
        assert a.candidate_cells == b.candidate_cells, (
            f"fused diagnosis drift on {name}: candidates differ"
        )
        assert a.candidate_history == b.candidate_history, (
            f"fused diagnosis drift on {name}: histories differ"
        )
        assert a.actual_cells == b.actual_cells, (
            f"fused diagnosis drift on {name}: actual cells differ"
        )
    timings["diagnose_batch_s"] = diag_batch_s
    timings["diagnose_perfault_s"] = diag_perfault_s
    timings["diagnose_speedup"] = (
        diag_perfault_s / diag_batch_s if diag_batch_s else None
    )

    # End-to-end scheme evaluation, cache warm, vectorized kernels.  One
    # untimed call warms the shared stores (compactor impulse tables,
    # partition sets) the way any full experiment sweep would.
    evaluate_scheme(workload, "two-step", num_partitions, NUM_GROUPS, config)
    timings["evaluate_warm_s"], evaluation = best_of(
        3,
        lambda: evaluate_scheme(
            workload, "two-step", num_partitions, NUM_GROUPS, config
        ),
    )
    timings["dr"] = evaluation.dr

    # Sampling-profiler overhead: the identical warm evaluation with a
    # *private* sampler running at the default 97 Hz — private so the
    # process-wide PROFILER (and any manifest written later) never sees
    # these samples.  Budget: <=5% over the unprofiled pass; jitter can
    # make the min-over-repeats estimate mildly negative.
    profiler = SamplingProfiler(hz=97)
    profiler.start()
    try:
        timings["evaluate_profiled_s"], _ = best_of(
            3,
            lambda: evaluate_scheme(
                workload, "two-step", num_partitions, NUM_GROUPS, config
            ),
        )
    finally:
        profiler.stop()
    timings["profile_samples"] = profiler.data.total
    timings["profile_overhead_pct"] = (
        (timings["evaluate_profiled_s"] - timings["evaluate_warm_s"])
        / timings["evaluate_warm_s"] * 100.0
        if timings["evaluate_warm_s"] else None
    )

    # The same evaluation through the seed code path (no cache, scalar
    # kernels).  The compactor is built inside the timed region: the seed
    # constructed one per evaluation too.
    def seed_pass():
        clear_caches()
        seed_workload = build_circuit_workload(name, config)
        compactor = LinearCompactor(
            config.misr_width, seed_workload.scan_config.num_chains
        )
        return seed_evaluate(seed_workload, partitions, compactor)

    timings["seed_evaluate_s"], seed_dr = best_of(2, seed_pass)
    timings["seed_dr"] = seed_dr

    assert seed_dr == evaluation.dr, (
        f"DR drift on {name}: seed {seed_dr} != vectorized {evaluation.dr}"
    )
    # Warm end-to-end = (cached) build + diagnose; the seed always rebuilt.
    warm_total = timings["workload_build_warm_s"] + timings["evaluate_warm_s"]
    timings["end_to_end_warm_s"] = warm_total
    timings["end_to_end_speedup"] = timings["seed_evaluate_s"] / warm_total
    return timings


def _netlist(name, config):
    from repro.circuit.library import get_circuit

    return get_circuit(name, scale=config.scale)


def bench_disk_cache(name, config, num_partitions):
    """Persistent-cache stages, run inside a throwaway ``REPRO_DISK_CACHE``.

    Measures the workload rebuild with only the disk tier warm, plus the
    first-request latency of a fresh :class:`DiagnosisEngine` cold vs
    warm-from-disk — the ``repro serve`` cold-start the disk tier exists
    to kill.
    """
    from repro.service.engine import DiagnosisEngine
    from repro.service.protocol import DiagnoseRequest

    timings = {}
    request = DiagnoseRequest(
        circuit=name,
        num_partitions=num_partitions,
        num_groups=NUM_GROUPS,
        num_patterns=config.num_patterns,
        fault_count=config.num_faults,
        fault_index=0,
    )
    saved = os.environ.get("REPRO_DISK_CACHE")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ["REPRO_DISK_CACHE"] = tmp
        try:
            # Cold serve: empty memory + empty disk; this pass also
            # populates the disk tier for the warm passes below.
            clear_caches()
            t0 = time.perf_counter()
            DiagnosisEngine(workers=0).prewarm(request)
            timings["serve_coldstart_cold_s"] = time.perf_counter() - t0

            clear_caches()
            engine = DiagnosisEngine(workers=0)
            t0 = time.perf_counter()
            engine.warm_from_disk()
            engine.prewarm(request)
            timings["serve_coldstart_disk_warm_s"] = time.perf_counter() - t0

            # Workload rebuild served straight off the disk tier.
            clear_caches()
            build_circuit_workload(name, config)  # populate disk entry
            clear_caches()
            t0 = time.perf_counter()
            build_circuit_workload(name, config)
            timings["workload_build_disk_warm_s"] = time.perf_counter() - t0
        finally:
            if saved is None:
                os.environ.pop("REPRO_DISK_CACHE", None)
            else:
                os.environ["REPRO_DISK_CACHE"] = saved
            clear_caches()
    timings["serve_disk_warm_speedup"] = (
        timings["serve_coldstart_cold_s"] / timings["serve_coldstart_disk_warm_s"]
        if timings["serve_coldstart_disk_warm_s"]
        else None
    )
    return timings


def bench_cluster(circuit, quick, cluster_workers=4):
    """Cluster scaling + chaos stage, driven through ``scripts/loadgen.py``.

    Three spawned runs against the same circuit and request mix, all with
    ``--verify`` (replies checked against the direct diagnosis path) and
    ``--fail-on-5xx``:

    1. one single-process server,
    2. a ``cluster_workers``-worker prefork cluster,
    3. the same cluster with one worker ``kill -9``'d mid-run.

    ``cluster_speedup`` is (2)/(1) throughput.  ``cpu_count`` is recorded
    because the ratio only means something relative to it: prefork scales
    with cores, so on a 1-core box the expected ratio is ~1.0 and the
    stage is really exercising correctness + failover, not speed.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import loadgen

    requests = 60 if quick else 200
    concurrency = 16 if quick else 50

    def run(tag, extra, tmp):
        out = Path(tmp) / f"{tag}.json"
        argv = ["--spawn", "--requests", str(requests),
                "--concurrency", str(concurrency),
                "--circuit", circuit, "--fault-count", "20",
                "--verify", "--fail-on-5xx", "--out", str(out)] + extra
        log(f"cluster stage: loadgen {tag} ({' '.join(extra) or 'single'})")
        code = loadgen.main(argv)
        report = json.loads(out.read_text())
        service = report["service"]
        row = {
            "throughput_rps": service["throughput_rps"],
            "p95_ms": service["latency_ms"]["p95"],
            "ok": service["codes"].get("ok", 0),
            "dropped": service["dropped"],
            "deterministic": report.get("determinism", {}).get("ok"),
            "drain_clean": report.get("drain", {}).get("clean"),
            "exit_code": code,
            "failures": report.get("failures"),
        }
        if "chaos" in report:
            row["chaos"] = {
                key: report["chaos"].get(key)
                for key in ("recovered", "recovered_s", "killed_at_progress",
                            "skipped")
            }
        return row

    multi = ["--workers", str(cluster_workers)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        single_run = run("single", [], tmp)
        cluster_run = run("cluster", multi, tmp)
        chaos_run = run("chaos", multi + ["--kill-one-at", "0.5"], tmp)

    single_rps = single_run["throughput_rps"]
    cluster_rps = cluster_run["throughput_rps"]
    return {
        "workers": cluster_workers,
        "cpu_count": os.cpu_count(),
        "requests": requests,
        "concurrency": concurrency,
        "circuit": circuit,
        "single_process": single_run,
        "cluster": cluster_run,
        "cluster_chaos": chaos_run,
        "cluster_speedup": (
            round(cluster_rps / single_rps, 2) if single_rps else None
        ),
    }


def _traced_path_delta_us(batch_size=8, iters=10000, reps=5):
    """Per-request CPU cost (µs) tracing *adds* to the serve hot path.

    Mirrors ``DiagnosisServer._handle_diagnose`` in both modes exactly:
    the traced path parses the client traceparent, installs the trace
    scope, appends the request record to a live 4096-slot flight
    recorder and amortizes the engine's per-batch span record over the
    batch; the untraced path mints its own trace id, installs the same
    scope and builds the same record, which a disabled recorder drops.
    The difference of the two tight loops (best of ``reps``,
    interleaved) is the gate's numerator.  An end-to-end throughput A/B
    of the same quantity was tried first and abandoned: the effect is a
    few µs per ~300 µs request, and phase-to-phase noise on a shared
    box (drift, frequency scaling, batching luck) is 10-30% — runs
    disagreed on the *sign*.  The hot-path delta is the quantity the
    budget actually constrains, and two tight loops resolve it to
    fractions of a µs.
    """
    from repro.telemetry.flightrec import (
        FlightRecorder, format_traceparent, make_record, new_span_id,
        new_trace_id, parse_traceparent, trace_scope,
    )

    rec_on = FlightRecorder(capacity=4096)
    rec_off = FlightRecorder(capacity=0)
    header = format_traceparent(new_trace_id(), new_span_id())
    key = "s953/partition"

    def request(rec, traced, seq):
        started = time.time()
        if traced:
            trace_id, client_span = parse_traceparent(header)
        else:
            trace_id, client_span = new_trace_id(), None
        server_span = new_span_id()
        with trace_scope(trace_id, server_span):
            pass
        rec.record(make_record(
            "service.request", trace_id, server_span,
            parent_id=client_span, kind="request", key=key,
            start=started, duration_ms=0.3 + (seq % 7) * 0.01,
            status="ok", queue_wait_ms=0.1, execute_ms=0.2,
            batch_size=batch_size,
        ))
        if traced and seq % batch_size == 0:
            # The engine records one batch span per coalesced batch;
            # charge this request its amortized share.
            batch_span = new_span_id()
            rec.record(make_record(
                "service.batch", trace_id, batch_span,
                parent_id=server_span, kind="batch", key="batch",
                start=started, duration_ms=2.0, batch_size=batch_size,
                links=[{"trace_id": trace_id, "span_id": server_span}
                       for _ in range(batch_size - 1)],
            ))

    def loop(rec, traced):
        t0 = time.perf_counter()
        for seq in range(iters):
            request(rec, traced, seq)
        return (time.perf_counter() - t0) / iters * 1e6

    on_us, off_us = [], []
    loop(rec_on, True), loop(rec_off, False)  # warm both paths
    for _ in range(reps):
        on_us.append(loop(rec_on, True))
        off_us.append(loop(rec_off, False))
    return min(on_us), min(off_us)


def bench_serve_overhead(circuit, quick):
    """PR 10: what tracing + the flight recorder cost on the serve path.

    Two measurements against *one* persistent prewarmed single-process
    server (two separately spawned processes differ by more than the
    effect, so both modes must share one; modes flip live via
    ``POST /debug/flightrec``):

    * The gated number.  ``traced_path_delta_us`` is the hot-path CPU
      tracing adds per request (see :func:`_traced_path_delta_us`);
      ``per_request_cpu_us`` is what one request costs the server
      process under sustained load (``/proc/<pid>/stat`` CPU over
      completed requests, cheaper mode of the two so the ratio is
      conservative).  ``serve_overhead_pct`` is their ratio and
      ``--check`` enforces the <=3% budget.
    * The informational A/B.  Per-request server CPU in each mode
      (flight recorder on + client trace ids vs recorder off + no
      headers) and its ``end_to_end_delta_pct`` — recorded so a gross
      regression (10%+) still shows up end-to-end, but not gated: on a
      noisy box the phase-to-phase spread is wider than the budget.
    """
    from repro.service.client import ServiceClient
    from repro.telemetry.flightrec import new_trace_id

    duration_s = 1.0 if quick else 2.0
    concurrency = 8

    def free_port():
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def spawn_server(port):
        env = dict(os.environ, REPRO_LOG="quiet", REPRO_WORKERS="1")
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(port), "--prewarm", circuit],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    clk = os.sysconf("SC_CLK_TCK")

    def server_cpu_s(pid):
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / clk

    def load_phase(port, pid, traced, seconds):
        """Per-request server CPU (µs) under ``concurrency`` closed-loop
        clients; traced mode sends a fresh client trace id per request."""
        with ServiceClient(port=port) as client:
            client.debug_flightrec(capacity=4096 if traced else 0)
        import threading
        stop = time.monotonic() + seconds
        counts = [0] * concurrency

        def worker(slot):
            body = {"circuit": circuit, "fault_count": 20,
                    "num_patterns": 128}
            with ServiceClient(port=port) as client:
                while time.monotonic() < stop:
                    body["fault_index"] = counts[slot] % 20
                    client.diagnose(
                        body,
                        trace_id=new_trace_id() if traced else None)
                    counts[slot] += 1

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(concurrency)]
        cpu0 = server_cpu_s(pid)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu_us = (server_cpu_s(pid) - cpu0) * 1e6
        done = sum(counts)
        return {
            "requests": done,
            "throughput_rps": round(done / seconds, 1),
            "per_request_cpu_us": round(cpu_us / done, 1) if done else None,
        }

    port = free_port()
    server = spawn_server(port)
    try:
        with ServiceClient(port=port) as client:
            client.wait_ready(timeout_s=120.0)
        log("serve-overhead stage: warmup + load phases")
        load_phase(port, server.pid, True, 0.5)     # discarded: cold caches
        load_phase(port, server.pid, False, 0.5)
        flight_on = load_phase(port, server.pid, True, duration_s)
        flight_off = load_phase(port, server.pid, False, duration_s)
    finally:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    log("serve-overhead stage: hot-path micro delta")
    on_us, off_us = _traced_path_delta_us(
        iters=5000 if quick else 10000)
    delta_us = max(0.0, on_us - off_us)
    candidates = [row["per_request_cpu_us"]
                  for row in (flight_on, flight_off)
                  if row["per_request_cpu_us"]]
    per_request_us = min(candidates) if candidates else None
    on_cpu = flight_on["per_request_cpu_us"]
    off_cpu = flight_off["per_request_cpu_us"]
    return {
        "duration_s": duration_s,
        "concurrency": concurrency,
        "circuit": circuit,
        "flight_on": flight_on,
        "flight_off": flight_off,
        "end_to_end_delta_pct": (
            round((on_cpu / off_cpu - 1.0) * 100.0, 2)
            if on_cpu and off_cpu else None
        ),
        "traced_path_on_us": round(on_us, 3),
        "traced_path_off_us": round(off_us, 3),
        "traced_path_delta_us": round(delta_us, 3),
        "per_request_cpu_us": per_request_us,
        "serve_overhead_pct": (
            round(delta_us / per_request_us * 100.0, 2)
            if per_request_us else None
        ),
        "budget_pct": SERVE_OVERHEAD_BUDGET_PCT,
    }


#: Machine-relative ratios the ``--check`` gate holds against the
#: committed report; a metric absent from either side is skipped, so old
#: reports keep gating what they actually recorded.
GATED_SPEEDUPS = ("fault_batch_speedup", "soa_speedup", "diagnose_speedup")


#: The cluster stage's loadgen runs; any recorded failure fails the gate.
CLUSTER_ROWS = ("single_process", "cluster", "cluster_chaos")


def check_against(report, committed, tolerance):
    """CI gate: fail when any :data:`GATED_SPEEDUPS` ratio regressed vs
    the committed report by more than ``tolerance`` on any circuit, when
    the serve path's tracing overhead blew its budget, or when a cluster
    stage loadgen run recorded failures or exited non-zero.

    Compares machine-relative ratios, never absolute wall clocks, so a
    slower CI runner alone cannot trip the gate.  The serve-overhead
    budget is itself a same-machine ratio (traced vs untraced run on
    this runner), so it needs no committed baseline.
    """
    failures = []
    overhead = (report.get("serve_overhead") or {}).get("serve_overhead_pct")
    if overhead is not None:
        budget = (report.get("serve_overhead") or {}).get(
            "budget_pct", SERVE_OVERHEAD_BUDGET_PCT)
        status = "ok" if overhead <= budget else "OVER BUDGET"
        print(f"check: serve tracing overhead {overhead:+.2f}% "
              f"(budget {budget:.0f}%) {status}")
        if overhead > budget:
            failures.append("serve:overhead")
    for name in CLUSTER_ROWS:
        row = (report.get("cluster") or {}).get(name)
        if row is None:
            continue
        if row.get("failures") or row.get("exit_code"):
            print(f"check: cluster {name} loadgen exit_code="
                  f"{row.get('exit_code')} failures={row.get('failures')} FAILED")
            failures.append(f"cluster:{name}")
    if committed is None:
        print("check: no committed report; skipping speedup gate")
        if failures:
            print(f"check: FAIL — {', '.join(failures)}")
            return 1
        return 0
    baseline = {c["circuit"]: c for c in committed.get("circuits", [])}
    for timing in report["circuits"]:
        before = baseline.get(timing["circuit"], {})
        for metric in GATED_SPEEDUPS:
            expected = before.get(metric)
            got = timing.get(metric)
            if not expected or not got:
                continue
            floor = expected * (1.0 - tolerance)
            status = "ok" if got >= floor else "REGRESSED"
            print(
                f"check: {timing['circuit']} {metric} "
                f"{got:.2f}x vs committed {expected:.2f}x "
                f"(floor {floor:.2f}x) {status}"
            )
            if got < floor:
                failures.append(f"{timing['circuit']}:{metric}")
    if failures:
        print(f"check: FAIL — {', '.join(failures)} "
              f"(speedup tolerance {tolerance:.0%})")
        return 1
    print("check: PASS")
    return 0


def traced_rollup(circuits, config, num_partitions):
    """One traced end-to-end pass (cache warm) to embed where time goes.

    Runs after the timing passes so trace overhead never touches the
    recorded wall clocks.
    """
    telemetry.TRACER.reset()
    was_enabled = telemetry.trace_enabled()
    telemetry.enable_tracing()
    try:
        for name in circuits:
            workload = build_circuit_workload(name, config)
            evaluate_scheme(workload, "two-step", num_partitions, NUM_GROUPS, config)
    finally:
        if not was_enabled:
            telemetry.disable_tracing()
    return {
        "span_rollup": telemetry.span_rollup(),
        "metrics": telemetry.METRICS.snapshot(),
    }


def load_prev(path):
    """The previous trajectory report, or None when it does not exist or
    cannot be parsed (first run, fresh clone, renamed artifacts)."""
    path = Path(path)
    if not path.exists():
        log(f"no previous trajectory at {path}; skipping deltas")
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        log(f"cannot read previous trajectory {path}: {exc}; skipping deltas")
        return None


def deltas_vs_prev(report, prev):
    """Wall-clock and telemetry-rollup deltas against the previous report."""
    if not prev:
        return None
    deltas = {"prev_pr": prev.get("pr"), "circuits": {}, "stages": {}}
    prev_circuits = {c.get("circuit"): c for c in prev.get("circuits", [])}
    for timing in report["circuits"]:
        before = prev_circuits.get(timing["circuit"])
        if not before:
            continue
        per = {}
        for key in ("workload_build_cold_s", "fault_sim_s", "good_sim_soa_s",
                    "diagnose_batch_s", "evaluate_warm_s", "end_to_end_warm_s",
                    "seed_evaluate_s"):
            now, old = timing.get(key), before.get(key)
            if now is not None and old:
                per[key] = {"now": now, "prev": old, "ratio": now / old}
        deltas["circuits"][timing["circuit"]] = per
    prev_rollup = {
        row["name"]: row
        for row in (prev.get("telemetry") or {}).get("span_rollup", [])
    }
    for row in report["telemetry"]["span_rollup"]:
        before = prev_rollup.get(row["name"])
        deltas["stages"][row["name"]] = {
            "wall_s": row["wall_s"],
            "prev_wall_s": before["wall_s"] if before else None,
        }
    return deltas


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuits", nargs="+", default=None)
    parser.add_argument("--faults", type=int, default=None)
    parser.add_argument("--patterns", type=int, default=128)
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--out", default=f"BENCH_PR{PR_NUMBER}.json")
    parser.add_argument("--prev", default="BENCH_PR9.json",
                        help="previous trajectory file for deltas "
                        "(missing is fine)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: one circuit, fewer faults and "
                        "repeats (skews absolute times, not ratios)")
    parser.add_argument("--check", metavar="REPORT", default=None,
                        help="compare fault_batch_speedup against a "
                        "committed report; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup regression for "
                        "--check (default 0.25)")
    args = parser.parse_args()

    if args.circuits is None:
        args.circuits = ["s953"] if args.quick else ["s953", "s5378"]
    if args.faults is None:
        args.faults = 30 if args.quick else 60
    repeats = 1 if args.quick else 3
    fault_cap = 200 if args.quick else 400

    # Read the gate's baseline up front so `--out` and `--check` may name
    # the same file without the fresh report clobbering the baseline.
    committed = load_prev(args.check) if args.check else None

    config = ExperimentConfig(
        num_faults=args.faults, num_faults_large=args.faults,
        num_patterns=args.patterns,
    )
    report = {
        "pr": PR_NUMBER,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "config": {
            "faults": args.faults,
            "patterns": args.patterns,
            "partitions": args.partitions,
            "groups": NUM_GROUPS,
        },
        "circuits": [],
    }
    for name in args.circuits:
        log(f"benchmarking {name} ...")
        timings = bench_circuit(
            name, config, args.partitions, repeats=repeats, fault_cap=fault_cap
        )
        timings.update(bench_disk_cache(name, config, args.partitions))
        report["circuits"].append(timings)
        log(
            f"  build cold {timings['workload_build_cold_s']:.3f}s"
            f" | warm {timings['workload_build_warm_s'] * 1000:.2f}ms"
            f" | disk-warm {timings['workload_build_disk_warm_s'] * 1000:.2f}ms"
            f" | {timings['faults_per_sec']:.0f} faults/s"
            f" | soa speedup {timings['soa_speedup']:.1f}x"
            f" | batch speedup {timings['fault_batch_speedup']:.1f}x"
            f" | diagnose speedup {timings['diagnose_speedup']:.1f}x"
            f" | serve cold {timings['serve_coldstart_cold_s']:.3f}s"
            f" vs disk-warm {timings['serve_coldstart_disk_warm_s']:.3f}s"
            f" | end-to-end speedup {timings['end_to_end_speedup']:.1f}x"
            f" | profile overhead {timings['profile_overhead_pct']:+.1f}%"
            f" ({timings['profile_samples']} samples)"
        )
    log("benchmarking cluster scaling ...")
    report["cluster"] = bench_cluster(args.circuits[0], args.quick)
    cluster = report["cluster"]
    log(
        f"  cluster x{cluster['workers']} on {cluster['cpu_count']} cpu(s): "
        f"{cluster['single_process']['throughput_rps']:.1f} -> "
        f"{cluster['cluster']['throughput_rps']:.1f} rps "
        f"({cluster['cluster_speedup']}x) | chaos recovered="
        f"{cluster['cluster_chaos'].get('chaos', {}).get('recovered')}"
    )
    log("benchmarking serve tracing overhead ...")
    report["serve_overhead"] = bench_serve_overhead(args.circuits[0], args.quick)
    overhead = report["serve_overhead"]
    log(
        f"  serve overhead {overhead['serve_overhead_pct']:+.2f}% "
        f"(budget {overhead['budget_pct']:.0f}%): "
        f"+{overhead['traced_path_delta_us']:.2f} us traced hot path on "
        f"{overhead['per_request_cpu_us']:.0f} us/request; end-to-end "
        f"{overhead['end_to_end_delta_pct']:+.2f}% cpu/request"
    )
    log("collecting traced rollup ...")
    report["telemetry"] = traced_rollup(args.circuits, config, args.partitions)
    deltas = deltas_vs_prev(report, load_prev(args.prev))
    if deltas is not None:
        report["deltas_vs_prev"] = deltas
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if args.check:
        return check_against(report, committed, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
