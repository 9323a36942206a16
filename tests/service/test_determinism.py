"""Request-level determinism: the service returns bit-identical candidate
sets to the direct ``core.diagnosis`` path, serial and forked.

This is the serving layer's contract with the reproduction: batching,
queueing, executor threads and the fork pool must be invisible in the
numbers.
"""

from repro.core import diagnosis_batch
from repro.service.client import ServiceClient

from .conftest import (
    SMALL,
    GatedEngine,
    coalesce_behind_busy_engine,
    small_request,
)
from .test_engine import direct_results


def service_candidates(port, engine, count):
    """Submit fault indices ``0..count-1`` so they run as one coalesced
    batch, and check that they did."""
    out = {}

    def fire(i):
        with ServiceClient(port=port, timeout_s=60) as client:
            reply = client.diagnose(
                dict(SMALL, fault_index=i, timeout_ms=60_000))
            out[i] = (tuple(reply.candidate_cells), reply.batch_size)

    coalesce_behind_busy_engine(port, engine, fire, count)
    assert {size for _, size in out.values()} == {count}
    return {i: cells for i, (cells, _) in out.items()}


class TestServiceMatchesDirectPath:
    def test_serial_server_bit_identical(self, live_server):
        _, expected = direct_results()
        engine = GatedEngine()
        _, port = live_server(batch_max=16, engine=engine)
        with ServiceClient(port=port) as client:
            client.wait_ready()
        got = service_candidates(port, engine, SMALL["fault_count"])
        for i, direct in enumerate(expected):
            assert got[i] == tuple(sorted(direct.candidate_cells)), \
                f"fault {i} differs on the serial server"

    def test_forked_server_bit_identical(self, live_server, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        # Service batches sit far below the kernel's fork threshold; drop
        # it so coalesced batches really split over the pool.
        monkeypatch.setattr(diagnosis_batch, "MIN_CHUNK_FAULTS", 1)
        _, expected = direct_results()
        engine = GatedEngine(workers=None)  # honours REPRO_WORKERS
        _, port = live_server(batch_max=16, engine=engine)
        with ServiceClient(port=port) as client:
            client.wait_ready()
        got = service_candidates(port, engine, SMALL["fault_count"])
        for i, direct in enumerate(expected):
            assert got[i] == tuple(sorted(direct.candidate_cells)), \
                f"fault {i} differs with REPRO_WORKERS=2"

    def test_repeated_requests_are_stable(self, live_server):
        _, port = live_server()
        ServiceClient(port=port).wait_ready()
        with ServiceClient(port=port) as client:
            first = client.diagnose(small_request(2))
            second = client.diagnose(small_request(2))
        assert first.candidate_cells == second.candidate_cells
        assert first.actual_cells == second.actual_cells
