"""``serve_open``: an open-loop request ladder against one ``repro serve``.

The server runs with its default settings, warmed from a disk cache that
an untimed prepare step filled.  One generator process sends arrivals at
three fixed rates (``lo``, ``mid``, ``hi``), in three passes over the
ladder, over at most
``nproc`` connections.  Each request is due at a random point of its own
``1 / rate`` slot.  Requests alternate the s5378 and s38584 workloads
at the Table 2 settings; about a quarter carry tester-style
``cell_errors`` maps instead of a ``fault_index``, which takes a different
path through ``service.protocol`` and the engine.  Nearly all work is in
the service layer and small-batch core calls.

Every reply is checked against ``DiagnosisEngine.execute_batch`` run in
the benchmark process during set-up.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

import numpy as np

import benchlib
import inputs
import loadgen

NAME = "serve_open"
KEYS = ("s5378", "s38584")
#: Requests per second at each rung.
RATES = {"lo": 50.0, "mid": 75.0, "hi": 100.0}
#: The latency limit ``slo_rps`` holds each rung's p95 to.
SLO_P95_MS = 50.0
CELL_ERRORS_SHARE = 0.25
#: Passes over the rungs per run; each rung reports its passes' medians.
PASSES = 3
READY_TIMEOUT_S = 60.0
#: Server starts per run; ``setup_s`` is their median.
SETUPS = 5


def _request_payload(circuit: str, seed: int) -> dict:
    from repro.circuit.library import PROFILES
    from repro.experiments.table2 import NUM_PARTITIONS

    return {
        "circuit": circuit,
        "scheme": "two-step",
        "num_partitions": NUM_PARTITIONS,
        "num_groups": inputs.table_groups(PROFILES[circuit].num_flip_flops),
        "fault_seed": inputs.BASE_FAULT_SEED + seed,
        "fault_count": inputs.FAULTS,
    }


def prepare(seed: int) -> None:
    """Resolve both workload keys exactly as the server will, with the
    disk tier on, so the server's start-up warm-up finds them."""
    from repro.service.engine import DiagnosisEngine
    from repro.service.protocol import DiagnoseRequest

    engine = DiagnosisEngine(workers=0)
    for circuit in KEYS:
        engine.resolve(DiagnoseRequest.from_payload(
            dict(_request_payload(circuit, seed), fault_index=0)))


def _cell_errors(response) -> Dict[str, List[int]]:
    """A fault response as the map a tester would upload."""
    out = {}
    for cell, words in sorted(response.cell_errors.items()):
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        out[str(cell)] = [int(p) for p in np.flatnonzero(bits[:response.num_patterns])]
    return out


def build_items(seed: int, ledger: benchlib.Ledger) -> Tuple[List[bytes], List[dict], List[str]]:
    """Every request the ladder may send — each key x fault x form — as
    encoded bodies, with the reply ``execute_batch`` gives for each and
    the workload key it belongs to.  Each expected reply is itself checked
    against ``diagnose_population`` run on the same fault response."""
    from repro.core.diagnosis_batch import diagnose_population
    from repro.service.engine import DiagnosisEngine
    from repro.service.protocol import DiagnoseRequest

    engine = DiagnosisEngine(workers=0)
    bodies: List[bytes] = []
    expected: List[dict] = []
    keys: List[str] = []
    for circuit in KEYS:
        base = _request_payload(circuit, seed)
        context = engine.resolve(DiagnoseRequest.from_payload(dict(base, fault_index=0)))
        responses = context.workload.responses
        direct = diagnose_population(responses, context.scan_config,
                                     context.partitions, context.compactor)
        payloads = []
        for index, response in enumerate(responses):
            payloads.append(dict(base, fault_index=index))
            payloads.append(dict(base, cell_errors=_cell_errors(response)))
        requests = [DiagnoseRequest.from_payload(p) for p in payloads]
        for n, (payload, reply) in enumerate(zip(payloads, engine.execute_batch(requests))):
            fields = _reply_fields(reply.to_payload())
            core = direct[n // 2]
            ledger.check(
                fields["candidate_cells"] == sorted(core.candidate_cells)
                and fields["actual_cells"] == sorted(core.actual_cells)
                and fields["candidate_history"] == list(core.candidate_history),
                f"{circuit} request {n}: execute_batch differs from diagnose_population")
            bodies.append(json.dumps(payload).encode())
            expected.append(fields)
            keys.append(circuit)
    return bodies, expected, keys


def _reply_fields(payload: dict) -> dict:
    return {k: payload[k] for k in ("candidate_cells", "actual_cells", "sound",
                                    "num_sessions", "candidate_history")}


def ladder(seed: int, seconds: float, keys: List[str]) -> List[Tuple[str, List[Tuple[float, int]]]]:
    """``(rung, arrivals)`` in run order: ``PASSES`` passes over the rungs,
    each ``seconds / (3 * PASSES)`` long.  Arrivals are ``(offset_s,
    item)``, jittered at the rung's rate, alternating workload keys, a
    quarter of them ``cell_errors`` requests."""
    by_key = {k: [i for i, key in enumerate(keys) if key == k] for k in KEYS}
    out = []
    for pass_index in range(PASSES):
        for rung_index, (rung, rate) in enumerate(RATES.items()):
            rng = np.random.default_rng([seed, pass_index, rung_index])
            offsets = loadgen.jittered_schedule(
                rng, rate, seconds / (len(RATES) * PASSES))
            arrivals = []
            for n, offset in enumerate(offsets):
                candidates = by_key[KEYS[n % len(KEYS)]]
                fault = int(rng.integers(0, len(candidates) // 2))
                form = 1 if rng.random() < CELL_ERRORS_SHARE else 0
                arrivals.append((offset, candidates[2 * fault + form]))
            out.append((rung, arrivals))
    return out


class Server:
    """One ``repro serve`` child process with its log in the work dir."""

    def __init__(self, cache_dir) -> None:
        inputs.WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = inputs.WORK / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"
        env = dict(os.environ, PYTHONPATH=str(inputs.SRC))
        env[inputs.DISK_ENV] = str(cache_dir)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )
        self.port: Optional[int] = None

    def wait_listening(self, deadline: float) -> int:
        pattern = re.compile(rb"serving on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: "
                                   f"{self.log_path.read_text()[-500:]}")
            time.sleep(0.005)
        raise TimeoutError("server did not start listening")

    def get(self, path: str) -> bytes:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.read()

    def post(self, body: bytes) -> dict:
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}/diagnose", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self.log_path.unlink(missing_ok=True)


def start_server(cache_dir, bodies: List[bytes], keys: List[str]) -> Tuple[Server, float]:
    """Spawn a server and wait until it has answered one request of each
    workload key.  Returns the server and the wall time that took."""
    start = time.perf_counter()
    server = Server(cache_dir)
    try:
        server.wait_listening(time.monotonic() + READY_TIMEOUT_S)
        for key in KEYS:
            server.post(bodies[keys.index(key)])
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _verify(outcomes: List[loadgen.Outcome], expected: List[dict],
            ledger: benchlib.Ledger) -> List[bool]:
    passed = []
    for outcome in outcomes:
        reason = outcome.reason
        if reason is not None:
            ledger.fail(reason, outcome.body[:200].decode("utf-8", "replace"))
            passed.append(False)
            continue
        try:
            got = _reply_fields(json.loads(outcome.body))
        except (ValueError, KeyError) as exc:
            ledger.fail(f"exception:{type(exc).__name__}", repr(exc))
            passed.append(False)
            continue
        want = expected[outcome.item]
        sound = set(got["actual_cells"]) <= set(got["candidate_cells"])
        passed.append(ledger.check(got == want and sound,
                                   f"item {outcome.item}: {got} != {want}"))
    return passed


def pass_summary(outcomes: List[loadgen.Outcome], passed: List[bool],
                 origin: float) -> dict:
    """Latencies (ms), lateness (ms) and backlog of one pass over one rung
    whose schedule started at ``origin``."""
    latencies = [(o.done - o.due) * 1000 for o, ok in zip(outcomes, passed) if ok]
    series = benchlib.backlog_series(
        [o.due for o in outcomes],
        [o.done if ok else math.inf for o, ok in zip(outcomes, passed)])
    return {
        "sent": len(outcomes),
        "latencies": latencies,
        "lags": [(o.sent - o.due) * 1000 for o in outcomes],
        "p50_ms": benchlib.median(latencies) if latencies else math.inf,
        "backlog_growing": benchlib.backlog_growing(series),
        "wall_s": max(o.done for o in outcomes) - origin,
    }


def rung_summary(passes: List[dict]) -> dict:
    """One rung over its passes.  p50 is the passes' median p50, so a
    disturbance of the box during one pass does not set it; p95 is taken
    over all passes' samples, which gives it at least ten samples beyond
    it.  The rung meets the SLO with no failed request, a p95 within the
    limit and a growing backlog in no more than a minority of passes."""
    latencies = [x for p in passes for x in p["latencies"]]
    summary = {
        "sent": sum(p["sent"] for p in passes),
        "ok": len(latencies),
        "p50_ms": benchlib.median([p["p50_ms"] for p in passes]),
        "p95_ms": benchlib.percentile(latencies, 95) if latencies else math.inf,
        "backlog_growing_passes": sum(p["backlog_growing"] for p in passes),
        "wall_s": sum(p["wall_s"] for p in passes),
    }
    summary["achieved_rps"] = summary["ok"] / summary["wall_s"]
    summary["meets_slo"] = (summary["ok"] == summary["sent"] > 0
                            and summary["p95_ms"] <= SLO_P95_MS
                            and 2 * summary["backlog_growing_passes"] < len(passes))
    return summary


def _connections() -> int:
    return max(1, os.cpu_count() or 1)


def _run_ladder(server: Server, seed: int, seconds: float, bodies, expected, keys,
                ledger, recorder: Optional[benchlib.SpanRecorder] = None,
                ) -> Tuple[Dict[str, dict], List[float], List[float]]:
    """Run every pass of every rung.  Returns per-rung summaries, every
    successful latency and every lateness, in ms."""
    recorder = recorder or benchlib.SpanRecorder()
    passes: Dict[str, List[dict]] = {rung: [] for rung in RATES}
    latencies: List[float] = []
    lags: List[float] = []
    for rung, arrivals in ladder(seed, seconds, keys):
        with recorder.span("loadgen.rung"):
            outcomes = loadgen.run_schedule(
                "127.0.0.1", server.port,
                [(offset, item, bodies[item]) for offset, item in arrivals],
                _connections())
        with recorder.span("perfbench.verify"):
            passed = _verify(outcomes, expected, ledger)
        summary = pass_summary(outcomes, passed, outcomes[0].due - arrivals[0][0])
        passes[rung].append(summary)
        latencies.extend(summary["latencies"])
        lags.extend(summary["lags"])
    return {rung: rung_summary(p) for rung, p in passes.items()}, latencies, lags


def measure(seed: int, seconds: float, ledger: benchlib.Ledger,
            report: dict, reference: dict) -> Dict[str, float]:
    cache_dir, report["prepared"] = inputs.ensure_prepared(NAME, seed)
    bodies, expected, keys = build_items(seed, ledger)
    setups = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, taken = start_server(cache_dir, bodies, keys)
            setups.append(taken)
        summaries, _, lags = _run_ladder(server, seed, seconds, bodies, expected,
                                         keys, ledger)
        peak_rss = benchlib.proc_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    report["rungs"] = {rung: dict(s, rate=RATES[rung]) for rung, s in summaries.items()}
    passing = [s["achieved_rps"] for s in summaries.values() if s["meets_slo"]]
    ok = sum(s["ok"] for s in summaries.values())
    values = {
        "setup_s": benchlib.median(setups),
        "faults_per_s": ok / sum(s["wall_s"] for s in summaries.values()),
        "peak_rss_mb": peak_rss,
        "slo_rps": passing[-1] if passing else 0.0,
    }
    for rung, s in summaries.items():
        values[f"p50_ms.{rung}"] = s["p50_ms"]
    report["lag_ms_p95"] = benchlib.percentile(lags, 95)
    return values


def _prometheus_latency(text: str) -> Dict[str, Dict[float, int]]:
    """Cumulative ``service.request_seconds`` bucket counts per stage."""
    line_re = re.compile(r"^repro_service_request_seconds_bucket\{(.*)\} (\d+)$")
    out: Dict[str, Dict[float, int]] = {}
    for line in text.splitlines():
        match = line_re.match(line)
        if not match:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1)))
        if labels.get("le") != "+Inf":
            out.setdefault(labels["stage"], {})[float(labels["le"])] = int(match.group(2))
    return out


def _stage_p50_ms(before: Dict[float, int], after: Dict[float, int]) -> float:
    """p50 of the observations made between two cumulative scrapes (a
    scrape lists only occupied buckets, so a missing bound carries the
    count of the nearest bound below it)."""
    def cumulative(scrape: Dict[float, int], bound: float) -> int:
        return max((n for b, n in scrape.items() if b <= bound), default=0)

    buckets, last = [], 0
    for bound in sorted(after):
        delta = cumulative(after, bound) - cumulative(before, bound)
        buckets.append((bound, delta - last))
        last = delta
    return benchlib.bucket_quantile(buckets, 0.5) * 1000


def _counter_sum(registry: dict, name: str) -> float:
    return sum(v for k, v in registry["counters"].items()
               if k == name or k.startswith(name + "{"))


def trace(seed: int, seconds: float, ledger: benchlib.Ledger,
          report: dict, reference: dict) -> Dict[str, float]:
    cache_dir, report["prepared"] = inputs.ensure_prepared(NAME, seed)
    bodies, expected, keys = build_items(seed, ledger)
    recorder = benchlib.SpanRecorder()
    scrapes: Dict[str, dict] = {}

    def scrape(when: str) -> None:
        with recorder.span("perfbench.scrape"):
            scrapes[when] = {
                "json": json.loads(server.get("/metrics")),
                "prom": _prometheus_latency(server.get("/metrics?format=prometheus").decode()),
                "cpu_s": benchlib.proc_cpu_s(server.proc.pid),
            }

    server, _ = start_server(cache_dir, bodies, keys)
    try:
        began = time.perf_counter()
        scrape("before")
        summaries, latencies, lags = _run_ladder(
            server, seed, seconds, bodies, expected, keys, ledger, recorder)
        scrape("after")
        ended = time.perf_counter()
    finally:
        server.stop()
    first, last = scrapes["before"], scrapes["after"]
    reg0, reg1 = first["json"]["registry"], last["json"]["registry"]
    sent = sum(s["sent"] for s in summaries.values())
    stage = {name: _stage_p50_ms(first["prom"].get(name, {}), last["prom"].get(name, {}))
             for name in ("queue_wait", "execute", "total")}
    empty = {"count": 0, "sum": 0.0}
    size0 = reg0["histograms"].get("service.batch_size", empty)
    size1 = reg1["histograms"].get("service.batch_size", empty)
    exec0 = reg0["histograms"].get("service.batch_execute_s", empty)
    exec1 = reg1["histograms"].get("service.batch_execute_s", empty)
    hits = _counter_sum(reg1, "cache.hits")
    misses = _counter_sum(reg1, "cache.misses")
    wall = ended - began
    covered = recorder.coverage(began, ended)
    report["rungs"] = summaries
    report["server_total_p50_ms"] = stage["total"]
    report["unattributed"] = {
        "seconds": wall * (1 - covered),
        "what": "building each rung's arrival schedule and request list",
    }
    return {
        "core.diagnose_s": exec1["sum"] - exec0["sum"],
        "bist.events": _counter_sum(reg1, "session.events_extracted")
        - _counter_sum(reg0, "session.events_extracted"),
        "core.kernel_launches": _counter_sum(reg1, "diagnosis.batch_kernel_calls")
        - _counter_sum(reg0, "diagnosis.batch_kernel_calls"),
        "experiments.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.batching.queue_wait_ms.p50": stage["queue_wait"],
        "service.batching.batch_size_mean": (size1["sum"] - size0["sum"])
        / max(size1["count"] - size0["count"], 1),
        "service.engine.execute_ms.p50": stage["execute"],
        "service.server.io_ms.p50": benchlib.median(latencies) - stage["total"],
        "service.server.cpu_ms_per_req": (last["cpu_s"] - first["cpu_s"]) * 1000 / max(sent, 1),
        "service.rejected": last["json"]["rejected"] - first["json"]["rejected"],
        "service.timeouts": last["json"]["timeouts"] - first["json"]["timeouts"],
        "loadgen.lag_ms.p95": benchlib.percentile(lags, 95),
        "trace.overhead_pct":
            recorder.self_times().get("perfbench.scrape", 0.0) / wall * 100,
        "trace.coverage_pct": covered * 100,
    }
