#!/usr/bin/env python
"""Open-loop load generator for the diagnosis service.

Drives ``POST /diagnose`` with a configurable request rate (``--rps``;
0 = closed-loop, as fast as ``--concurrency`` in-flight requests allow),
collects exact client-side latencies, and writes a machine-readable
report (default ``loadgen.json``) with throughput, p50/p95/p99 latency,
per-code outcome counts and — when ``--baseline N`` is given — the
measured speedup over ``N`` sequential one-shot CLI invocations (each of
which re-pays interpreter start-up, netlist compile and golden
simulation; the service pays them once).  ``--duration S`` switches from
a fixed request count to a fixed wall-clock window.

``--spawn`` makes the run self-contained: start a server subprocess, wait
for ``/healthz``, apply the load, validate ``/metrics`` (well-formed JSON
with queue/batching/latency sections), then SIGTERM it and record whether
it drained and exited cleanly — exactly the sequence the CI smoke job
runs.  ``--workers N`` spawns the prefork cluster instead of a single
process, and ``--kill-one-at F`` injects chaos: at fraction F of the run
one worker is ``kill -9``'d and the report records whether the supervisor
respawned it (requests ride out the kill via transport retries).
``--verify`` additionally checks determinism: every reply for a given
fault index must be bit-identical across the run *and* equal to the
direct in-process ``core.diagnosis`` result.

Every check that fails appends its reason to the report's top-level
``failures`` list (``http_<status>``, ``timeout``, ``exception:<Type>``,
``mismatch``, ``chaos_not_recovered``, ``malformed_metrics``,
``drain_exit_<code>``); the exit status is 1 exactly when that list is
non-empty.

Run:  PYTHONPATH=src python scripts/loadgen.py --requests 200
          [--duration S] [--rps 0] [--concurrency 200] [--circuit s953]
          [--spawn] [--workers 4] [--kill-one-at 0.4]
          [--baseline 5] [--verify] [--fail-on-5xx] [--out loadgen.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.client import ServiceClient, TransportError  # noqa: E402
from repro.service.protocol import ServiceError  # noqa: E402
from repro.telemetry import new_trace_id  # noqa: E402


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="server port (default REPRO_SERVE_PORT or 8953; "
                        "--spawn picks a free port automatically)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--duration", type=float, default=None, metavar="S",
                        help="run for S seconds of wall clock instead of a "
                        "fixed --requests count")
    parser.add_argument("--rps", type=float, default=0.0,
                        help="open-loop arrival rate; 0 = closed loop")
    parser.add_argument("--concurrency", type=int, default=200,
                        help="max in-flight requests (worker threads)")
    parser.add_argument("--circuit", default="s953")
    parser.add_argument("--scheme", default="two-step")
    parser.add_argument("--fault-count", type=int, default=20)
    parser.add_argument("--patterns", type=int, default=128)
    parser.add_argument("--timeout-ms", type=float, default=30000.0)
    parser.add_argument("--baseline", type=int, default=0, metavar="N",
                        help="also time N sequential one-shot CLI runs")
    parser.add_argument("--spawn", action="store_true",
                        help="start/SIGTERM a server subprocess around the run")
    parser.add_argument("--verify", action="store_true",
                        help="check replies are deterministic and match the "
                        "direct core.diagnosis path")
    parser.add_argument("--fail-on-5xx", action="store_true",
                        help="exit 1 on any 5xx / dropped response")
    parser.add_argument("--batch-max", type=int, default=None)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1,
                        help="with --spawn: server processes; >1 spawns the "
                        "prefork cluster (serve --workers N)")
    parser.add_argument("--heartbeat-s", type=float, default=0.25,
                        help="cluster worker heartbeat interval (default "
                        "0.25 for fast failure detection in smoke runs)")
    parser.add_argument("--kill-one-at", type=float, default=None,
                        metavar="FRAC",
                        help="chaos: kill -9 one cluster worker once FRAC of "
                        "the run has completed (0..1); requires --spawn and "
                        "--workers > 1")
    parser.add_argument("--retries", type=int, default=None,
                        help="client retries per request on transport errors "
                        "(default 2 under --kill-one-at, else 0)")
    parser.add_argument("--trace", action="store_true",
                        help="mint a client trace id per request (sent as a "
                        "traceparent header) and record the ids in the "
                        "report — feed them to GET /debug/trace/<id>")
    parser.add_argument("--out", default="loadgen.json")
    args = parser.parse_args(argv)
    if args.kill_one_at is not None and (not args.spawn or args.workers < 2):
        parser.error("--kill-one-at requires --spawn and --workers > 1")
    if args.retries is None:
        args.retries = 2 if args.kill_one_at is not None else 0
    return args


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(args: argparse.Namespace) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--host", args.host, "--port", str(args.port),
           "--prewarm", args.circuit]
    if args.workers > 1:
        cmd += ["--workers", str(args.workers),
                "--control-port", str(args.control_port),
                "--heartbeat-s", str(args.heartbeat_s)]
    if args.batch_max is not None:
        cmd += ["--batch-max", str(args.batch_max)]
    if args.queue_depth is not None:
        cmd += ["--queue-depth", str(args.queue_depth)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(cmd, env=env)


def control_get(args: argparse.Namespace, path: str) -> Dict[str, Any]:
    """GET a JSON payload from the cluster supervisor's control port."""
    import http.client

    conn = http.client.HTTPConnection(args.host, args.control_port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def control_get_text(args: argparse.Namespace, path: str) -> str:
    """GET a text payload (e.g. folded profile stacks) from the control port."""
    import http.client

    conn = http.client.HTTPConnection(args.host, args.control_port,
                                      timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8", "replace")
        if response.status >= 400:
            raise TransportError(f"GET {path} -> {response.status}: "
                                 f"{body[:200]}")
        return body
    finally:
        conn.close()


def check_debug_plane(args: argparse.Namespace, client: ServiceClient,
                      trace_ids: List[str]) -> Dict[str, Any]:
    """Exercise the debug plane after a traced run.

    Fetches the assembled span tree for sampled trace ids — via the
    supervisor control port on a cluster (fleet-merged), the service
    port otherwise — plus a 1-second profile burst, and records what
    came back.  The CI observability job asserts on these fields.
    """
    result: Dict[str, Any] = {"trace": None, "profile_stacks": 0}
    tree: Optional[Dict[str, Any]] = None
    for trace_id in trace_ids[:5]:
        if args.workers > 1:
            candidate = control_get(args, f"/debug/trace/{trace_id}")
        else:
            candidate = client.debug_trace(trace_id)
        if candidate.get("span_count"):
            tree = candidate
            if len(candidate.get("pids") or ()) >= 2:
                break
    if tree is not None:
        result["trace"] = {
            "trace_id": tree.get("trace_id"),
            "span_count": tree.get("span_count"),
            "pids": tree.get("pids"),
            "roots": len(tree.get("roots") or ()),
            "span_names": sorted({r.get("name", "?")
                                  for r in tree.get("records") or ()}),
        }
    if args.workers > 1:
        folded = control_get_text(args, "/debug/profile?seconds=1")
    else:
        folded = client.debug_profile(seconds=1.0)
    result["profile_stacks"] = sum(
        1 for line in folded.splitlines() if line.strip())
    return result


def wait_cluster_ready(args: argparse.Namespace,
                       timeout_s: float = 240.0) -> None:
    """Block until every cluster worker reports ready on the control port.

    Workers accept traffic while still prewarming; the supervisor counts
    them live only after the ``ready`` handshake (post-prewarm).  Gating
    the clock on full liveness keeps throughput numbers from charging the
    cluster for its siblings' cold compiles.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            workers = control_get(args, "/healthz").get("workers", {})
            if workers.get("live") == workers.get("configured"):
                return
        except (OSError, ValueError):
            pass
        time.sleep(0.1)
    raise RuntimeError(
        f"cluster: not all workers ready within {timeout_s:.0f}s")


def chaos_kill_one(args: argparse.Namespace, progress,
                   stop: threading.Event) -> Dict[str, Any]:
    """Kill -9 one cluster worker at ``--kill-one-at`` of the run and wait
    for the supervisor to respawn it (runs on its own thread)."""
    result: Dict[str, Any] = {"requested_at": args.kill_one_at,
                              "killed_pid": None, "recovered": False}
    while progress() < args.kill_one_at and not stop.is_set():
        time.sleep(0.02)
    if stop.is_set():  # run finished before the trigger point
        result["skipped"] = "run completed before kill point"
        return result
    try:
        health = control_get(args, "/healthz")
        live = [w for w in health.get("worker_table", [])
                if w.get("state") == "ready" and w.get("pid")]
        if not live:
            result["error"] = "no live worker to kill"
            return result
        victim = live[0]["pid"]
        result["killed_pid"] = victim
        result["killed_at_progress"] = round(progress(), 3)
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            health = control_get(args, "/healthz")
            pids = [w.get("pid") for w in health.get("worker_table", [])
                    if w.get("state") == "ready"]
            if len(pids) >= args.workers and victim not in pids:
                result["recovered"] = True
                result["recovered_s"] = round(
                    time.monotonic() - (deadline - 30), 3)
                break
            time.sleep(0.1)
    except Exception as exc:  # noqa: BLE001 - chaos must not crash the run
        result["error"] = repr(exc)
    return result


class Outcome:
    __slots__ = ("code", "latency_s", "fault_index", "candidates",
                 "trace_id", "trace_echoed", "reason")

    def __init__(self, code: str, latency_s: float, fault_index: int,
                 candidates: Optional[tuple] = None,
                 trace_id: Optional[str] = None,
                 trace_echoed: Optional[bool] = None,
                 reason: Optional[str] = None):
        self.code = code
        self.latency_s = latency_s
        self.fault_index = fault_index
        self.candidates = candidates
        self.trace_id = trace_id
        self.trace_echoed = trace_echoed
        #: Failure reason for a non-ok outcome (``http_<status>``,
        #: ``timeout`` or ``exception:<Type>``).
        self.reason = reason


def transport_reason(exc: TransportError) -> str:
    """``timeout`` or ``exception:<Type>`` of the error under a transport failure."""
    cause = exc.__cause__ or exc
    if isinstance(cause, TimeoutError):
        return "timeout"
    return f"exception:{type(cause).__name__}"


def run_load(args: argparse.Namespace,
             outcomes: Optional[List[Outcome]] = None) -> List[Outcome]:
    """Fire diagnoses (``--requests`` of them, or for ``--duration``
    seconds) and collect every outcome.

    ``outcomes`` may be passed in so observers (the chaos thread) can
    watch progress live.
    """
    outcomes = [] if outcomes is None else outcomes
    lock = threading.Lock()
    t0 = time.monotonic()
    deadline = t0 + args.duration if args.duration else None
    schedule: "Queue[int]" = Queue()
    counter = {"next": 0}
    if deadline is None:
        for k in range(args.requests):
            schedule.put(k)

    def next_index() -> Optional[int]:
        if deadline is None:
            try:
                return schedule.get_nowait()
            except Empty:
                return None
        if time.monotonic() >= deadline:
            return None
        with lock:
            k = counter["next"]
            counter["next"] = k + 1
        return k

    def worker() -> None:
        client = ServiceClient(args.host, args.port,
                               timeout_s=args.timeout_ms / 1000 + 30)
        try:
            while True:
                k = next_index()
                if k is None:
                    return
                if args.rps > 0:
                    # Open loop: request k is *scheduled* at t0 + k/rps,
                    # regardless of how earlier requests are doing.
                    delay = t0 + k / args.rps - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                fault_index = k % args.fault_count
                payload = {
                    "circuit": args.circuit,
                    "scheme": args.scheme,
                    "fault_index": fault_index,
                    "fault_count": args.fault_count,
                    "num_patterns": args.patterns,
                    "timeout_ms": args.timeout_ms,
                    "request_id": str(k),
                }
                trace_id = new_trace_id() if args.trace else None
                started = time.monotonic()
                outcome: Optional[Outcome] = None
                for attempt in range(args.retries + 1):
                    try:
                        reply = client.diagnose(payload, trace_id=trace_id)
                        outcome = Outcome("ok", time.monotonic() - started,
                                          fault_index,
                                          tuple(reply.candidate_cells),
                                          trace_id=trace_id,
                                          trace_echoed=(
                                              reply.trace_id == trace_id
                                              if trace_id else None))
                        break
                    except ServiceError as exc:
                        outcome = Outcome(exc.code,
                                          time.monotonic() - started,
                                          fault_index, trace_id=trace_id,
                                          reason=f"http_{exc.status}")
                        break
                    except TransportError as exc:
                        # A kill -9'd worker drops its connections; with a
                        # shared listen port a fresh connect lands on a
                        # live sibling, so retrying is safe and expected
                        # under --kill-one-at.
                        outcome = Outcome("transport_error",
                                          time.monotonic() - started,
                                          fault_index,
                                          reason=transport_reason(exc))
                        if attempt < args.retries:
                            time.sleep(0.05 * (attempt + 1))
                with lock:
                    outcomes.append(outcome)
        finally:
            client.close()

    limit = args.concurrency if deadline is not None else min(
        args.concurrency, args.requests)
    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(limit)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def quantile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return round(ordered[rank] * 1000, 3)


def summarize(outcomes: List[Outcome], wall_s: float) -> Dict[str, Any]:
    codes: Dict[str, int] = {}
    for o in outcomes:
        codes[o.code] = codes.get(o.code, 0) + 1
    ok_latencies = [o.latency_s for o in outcomes if o.code == "ok"]
    return {
        "requests": len(outcomes),
        "ok": codes.get("ok", 0),
        "codes": dict(sorted(codes.items())),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(codes.get("ok", 0) / wall_s, 2) if wall_s else 0.0,
        "latency_ms": {
            "mean": round(sum(ok_latencies) / len(ok_latencies) * 1000, 3)
            if ok_latencies else 0.0,
            "p50": quantile_ms(ok_latencies, 0.50),
            "p95": quantile_ms(ok_latencies, 0.95),
            "p99": quantile_ms(ok_latencies, 0.99),
            "max": quantile_ms(ok_latencies, 1.0),
        },
    }


def run_baseline(args: argparse.Namespace) -> Dict[str, Any]:
    """Sequential one-shot CLI invocations: the cost the service amortizes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro.cli", "diagnose", args.circuit,
           "--faults", "1", "--patterns", str(args.patterns),
           "--scheme", args.scheme]
    runs = []
    for _ in range(args.baseline):
        started = time.monotonic()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        runs.append(time.monotonic() - started)
    mean_s = sum(runs) / len(runs)
    return {
        "runs": len(runs),
        "mean_s": round(mean_s, 3),
        "rps": round(1.0 / mean_s, 3),
    }


def verify_determinism(args: argparse.Namespace,
                       outcomes: List[Outcome]) -> Dict[str, Any]:
    """Replies must agree per fault index and match core.diagnosis."""
    from repro.service.engine import DiagnosisEngine
    from repro.service.protocol import DiagnoseRequest

    by_index: Dict[int, set] = {}
    for o in outcomes:
        if o.code == "ok" and o.candidates is not None:
            by_index.setdefault(o.fault_index, set()).add(o.candidates)
    unstable = sorted(i for i, seen in by_index.items() if len(seen) > 1)
    engine = DiagnosisEngine(workers=0)
    mismatched = []
    for index, seen in sorted(by_index.items()):
        request = DiagnoseRequest.from_payload({
            "circuit": args.circuit, "scheme": args.scheme,
            "fault_index": index, "fault_count": args.fault_count,
            "num_patterns": args.patterns,
        })
        direct = engine.execute_batch([request])[0]
        if tuple(direct.candidate_cells) not in seen:
            mismatched.append(index)
    return {
        "indices_checked": len(by_index),
        "unstable_indices": unstable,
        "direct_mismatches": mismatched,
        "ok": not unstable and not mismatched,
    }


def check_metrics(client: ServiceClient) -> Dict[str, Any]:
    payload = client.metrics()
    problems = []
    for key in ("queue", "batching", "latency", "requests", "registry"):
        if key not in payload:
            problems.append(f"missing {key!r}")
    latency = payload.get("latency", {}).get("total", {})
    if not latency.get("count"):
        problems.append("latency.total.count is 0 after load")
    batching = payload.get("batching", {})
    if not batching.get("batches"):
        problems.append("batching.batches is 0 after load")
    return {
        "well_formed": not problems,
        "problems": problems,
        "queue": payload.get("queue"),
        "batching": {k: batching.get(k) for k in
                     ("batch_max", "batches", "batch_size")},
        "latency": payload.get("latency"),
        "rejected": payload.get("rejected"),
        "timeouts": payload.get("timeouts"),
        "degraded": payload.get("degraded"),
        "cache": payload.get("cache"),
    }


def check_cluster_metrics(args: argparse.Namespace) -> Dict[str, Any]:
    """Validate the supervisor's aggregated control-port ``/metrics``.

    Workers report their counts by heartbeat, so the fleet view trails
    the load by up to one ``--heartbeat-s``: a run shorter than that
    would read an empty fleet.  Re-read for up to ten heartbeats before
    reporting a problem.
    """
    deadline = time.monotonic() + 10 * args.heartbeat_s
    while True:
        payload = control_get(args, "/metrics")
        problems = cluster_metrics_problems(payload)
        if not problems or time.monotonic() >= deadline:
            break
        time.sleep(args.heartbeat_s / 2)
    return {
        "well_formed": not problems,
        "problems": problems,
        "workers": payload.get("workers", {}),
        "worker_table": payload.get("worker_table"),
        "requests": payload.get("requests"),
        "fleet_latency": payload.get("fleet_latency"),
    }


def cluster_metrics_problems(payload: Dict[str, Any]) -> List[str]:
    problems = []
    for key in ("workers", "worker_table", "requests", "fleet_latency",
                "registry"):
        if key not in payload:
            problems.append(f"missing {key!r}")
    workers = payload.get("workers", {})
    if workers.get("live", 0) < workers.get("quorum", 1):
        problems.append(
            f"live workers {workers.get('live')} below quorum "
            f"{workers.get('quorum')}")
    if not payload.get("requests", {}).get("ok"):
        problems.append("fleet requests.ok is 0 after load")
    total = payload.get("fleet_latency", {}).get("total", {})
    if not total.get("count"):
        problems.append("fleet_latency.total.count is 0 after load")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.port is None:
        args.port = free_port() if args.spawn else int(
            os.environ.get("REPRO_SERVE_PORT", "8953"))
    args.control_port = free_port() if args.workers > 1 else None
    report: Dict[str, Any] = {
        "schema": "repro-loadgen-report",
        "version": 2,
        "python": platform.python_version(),
        "config": {
            "requests": args.requests, "duration_s": args.duration,
            "rps": args.rps,
            "concurrency": args.concurrency, "circuit": args.circuit,
            "scheme": args.scheme, "fault_count": args.fault_count,
            "patterns": args.patterns, "timeout_ms": args.timeout_ms,
            "workers": args.workers, "retries": args.retries,
        },
    }
    proc: Optional[subprocess.Popen] = None
    failures: List[str] = []
    try:
        if args.spawn:
            proc = spawn_server(args)
        client = ServiceClient(args.host, args.port)
        client.wait_ready(timeout_s=120)
        if args.spawn and args.workers > 1:
            wait_cluster_ready(args)

        outcomes: List[Outcome] = []
        chaos_thread: Optional[threading.Thread] = None
        chaos_result: Dict[str, Any] = {}
        chaos_stop = threading.Event()
        if args.kill_one_at is not None:
            expected = args.requests

            def progress() -> float:
                if args.duration:
                    return min(1.0, (time.monotonic() - started) / args.duration)
                return len(outcomes) / expected if expected else 1.0

            def chaos_runner() -> None:
                chaos_result.update(chaos_kill_one(args, progress, chaos_stop))

            chaos_thread = threading.Thread(target=chaos_runner, daemon=True)

        started = time.monotonic()
        if chaos_thread is not None:
            chaos_thread.start()
        run_load(args, outcomes)
        wall_s = time.monotonic() - started
        if chaos_thread is not None:
            chaos_stop.set()
            chaos_thread.join(timeout=60)
            report["chaos"] = chaos_result
            if not chaos_result.get("recovered") and \
                    not chaos_result.get("skipped"):
                failures.append("chaos_not_recovered")
        report["service"] = summarize(outcomes, wall_s)
        if args.trace:
            ok_traced = [o for o in outcomes
                         if o.code == "ok" and o.trace_id]
            report["tracing"] = {
                "sent": sum(1 for o in outcomes if o.trace_id),
                "ok": len(ok_traced),
                "echoed": sum(1 for o in ok_traced if o.trace_echoed),
                # Late outcomes sit past warmup, when coalesced batches
                # are big enough to fan out to fork workers — their
                # trees are the interesting ones for /debug/trace.
                "sample_trace_ids": [o.trace_id for o in ok_traced[-20:]],
            }

        if args.workers > 1:
            report["metrics_after"] = check_cluster_metrics(args)
        else:
            report["metrics_after"] = check_metrics(client)
        if args.trace and report["tracing"]["sample_trace_ids"]:
            try:
                report["tracing"]["debug"] = check_debug_plane(
                    args, client, report["tracing"]["sample_trace_ids"])
            except (ServiceError, TransportError, OSError, ValueError) as exc:
                report["tracing"]["debug"] = {"error": str(exc)}
        if args.verify:
            report["determinism"] = verify_determinism(args, outcomes)
            if not report["determinism"]["ok"]:
                failures.append("mismatch")
        client.close()

        if args.baseline:
            report["baseline_oneshot"] = run_baseline(args)
            base_rps = report["baseline_oneshot"]["rps"]
            if base_rps:
                report["speedup_vs_oneshot"] = round(
                    report["service"]["throughput_rps"] / base_rps, 2)

        # Load shedding (429) and deadlines (504) are answers; every other
        # non-ok outcome (5xx, transport failure) is a dropped request.
        dropped = [o.reason for o in outcomes
                   if o.code not in ("ok", "queue_full", "deadline_exceeded")]
        report["service"]["dropped"] = len(dropped)
        if args.fail_on_5xx:
            failures.extend(sorted(set(dropped)))
        if not report["metrics_after"]["well_formed"]:
            failures.append("malformed_metrics")
    except Exception as exc:  # noqa: BLE001 - the report records every failure
        failures.append(f"exception:{type(exc).__name__}")
        report["error"] = traceback.format_exc()
        print(report["error"], file=sys.stderr)
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                exit_code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_code = proc.wait()
            report["drain"] = {
                "signal": "SIGTERM",
                "exit_code": exit_code,
                "clean": exit_code == 0,
            }
            if exit_code != 0:
                failures.append(f"drain_exit_{exit_code}")

    report["failures"] = failures
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics_after"},
                     indent=2))
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
