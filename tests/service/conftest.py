"""Service-test fixtures: a tiny shared workload spec and live servers.

All service tests use the same small s953 workload (32 patterns, 6
faults) so the process-wide cache compiles it once for the whole suite.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.engine import DiagnosisEngine
from repro.service.protocol import DiagnoseRequest
from repro.service.server import ThreadedServer

#: The canonical tiny request knobs every service test shares.
SMALL = dict(circuit="s953", num_patterns=32, fault_count=6)


def small_request(fault_index=0, **overrides):
    payload = dict(SMALL, fault_index=fault_index)
    payload.update(overrides)
    return DiagnoseRequest.from_payload(payload)


@pytest.fixture
def live_server():
    """A running ThreadedServer on an ephemeral port; stops on teardown."""
    started = []

    def _start(**kwargs):
        kwargs.setdefault("port", 0)
        server = ThreadedServer(**kwargs)
        port = server.start()
        started.append(server)
        return server, port

    yield _start
    for server in started:
        server.stop(drain=False)


class GatedEngine(DiagnosisEngine):
    """Holds its first batch until :meth:`release`.

    The server dispatches as soon as it is idle, so requests only coalesce
    behind a busy engine: tests send one request to occupy the engine,
    queue the ones that should share a batch, then release.
    """

    def __init__(self, workers=0):
        super().__init__(workers=workers)
        #: Set once the first batch is inside the engine.
        self.busy = threading.Event()
        self._gate = threading.Event()

    def execute_batch(self, requests, traces=None):
        if not self.busy.is_set():  # one dispatcher: no race on the flag
            self.busy.set()
            self._gate.wait(60)
        return super().execute_batch(requests, traces=traces)

    def release(self):
        self._gate.set()


def coalesce_behind_busy_engine(port, engine, fire, count):
    """Call ``fire(k)`` for ``k < count`` on threads while ``engine`` holds
    an earlier batch, so all ``count`` requests queue and then run as one
    batch once it is released."""

    def occupy():
        with ServiceClient(port=port, timeout_s=60) as client:
            client.diagnose(dict(SMALL, fault_index=0))

    threads = [threading.Thread(target=occupy)]
    threads[0].start()
    assert engine.busy.wait(30), "the first batch never reached the engine"
    threads += [threading.Thread(target=fire, args=(k,)) for k in range(count)]
    for thread in threads[1:]:
        thread.start()
    deadline = time.monotonic() + 30
    try:
        with ServiceClient(port=port) as client:
            while client.health()["queue_depth"] < count:
                assert time.monotonic() < deadline, (
                    f"queue never reached {count}")
                time.sleep(0.01)
    finally:
        engine.release()  # never leave a dispatcher thread parked
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
