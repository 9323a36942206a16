"""scripts/loadgen.py: every failed check lands in ``report["failures"]``."""

import importlib.util
import json
from pathlib import Path

from repro.service.engine import DiagnosisEngine

from .conftest import SMALL

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "loadgen", REPO_ROOT / "scripts" / "loadgen.py")
loadgen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loadgen)


class BrokenEngine(DiagnosisEngine):
    def execute_batch(self, requests, traces=None):
        raise RuntimeError("kernel exploded")


def run_loadgen(port, out, *extra):
    argv = ["--port", str(port), "--requests", "8", "--concurrency", "4",
            "--circuit", SMALL["circuit"],
            "--fault-count", str(SMALL["fault_count"]),
            "--patterns", str(SMALL["num_patterns"]),
            "--out", str(out), *extra]
    code = loadgen.main(argv)
    return code, json.loads(out.read_text())


def test_clean_run_has_no_failures(live_server, tmp_path):
    _, port = live_server(engine=DiagnosisEngine(workers=0))
    code, report = run_loadgen(port, tmp_path / "ok.json",
                               "--verify", "--fail-on-5xx")
    assert report["failures"] == [] and code == 0
    assert report["service"]["ok"] == 8
    assert report["determinism"]["ok"]


def test_5xx_is_recorded_as_http_reason(live_server, tmp_path):
    _, port = live_server(engine=BrokenEngine(workers=0))
    code, report = run_loadgen(port, tmp_path / "bad.json", "--fail-on-5xx")
    assert code == 1
    assert report["failures"] == ["http_500"]
    assert report["service"]["dropped"] == 8


def test_transport_reason_names_the_cause():
    def wrapped(cause):
        try:
            raise loadgen.TransportError("POST /diagnose") from cause
        except loadgen.TransportError as exc:
            return exc

    assert loadgen.transport_reason(wrapped(TimeoutError())) == "timeout"
    assert loadgen.transport_reason(
        wrapped(ConnectionResetError())) == "exception:ConnectionResetError"
    assert loadgen.transport_reason(
        loadgen.TransportError("x")) == "exception:TransportError"
