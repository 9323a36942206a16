"""BatchQueue: admission control, continuous batching, deadlines, close."""

import asyncio
import time

import pytest

from repro.service.batching import BatchQueue, PendingRequest
from repro.service.protocol import ServiceError

from .conftest import small_request


def entry(loop, fault_index=0, deadline=None, **overrides) -> PendingRequest:
    return PendingRequest(
        request=small_request(fault_index, **overrides),
        future=loop.create_future(),
        deadline=deadline,
    )


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_offer_rejects_beyond_depth(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=2, batch_max=8)
            queue.offer(entry(loop, 0))
            queue.offer(entry(loop, 1))
            with pytest.raises(ServiceError) as exc:
                queue.offer(entry(loop, 2))
            assert exc.value.code == "queue_full"
            assert exc.value.retry_after_s >= 1.0
            assert queue.depth == 2

        run(scenario())

    def test_retry_after_is_backlog_times_per_request_rate(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=100, batch_max=32)
            for _ in range(50):
                queue.record_service_rate(0.1)  # EWMA converges on 0.1 s
            for i in range(100):
                queue.offer(entry(loop, i))
            with pytest.raises(ServiceError) as exc:
                queue.offer(entry(loop, 100))
            # 100 pending x 0.1 s each; batch_max does not divide it.
            assert exc.value.retry_after_s == 10.0
            assert queue.retry_after_hint() == 10.0

        run(scenario())

    def test_retry_after_is_clamped(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=4)
            assert queue.retry_after_hint() == 1.0  # empty backlog
            queue.record_service_rate(1000.0)
            for i in range(4):
                queue.offer(entry(loop, i))
            assert queue.retry_after_hint() == 30.0

        run(scenario())

    def test_offer_after_close_is_shutting_down(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            await queue.close()
            with pytest.raises(ServiceError) as exc:
                queue.offer(entry(loop))
            assert exc.value.code == "shutting_down"

        run(scenario())


class TestCoalescing:
    def test_same_key_coalesces_up_to_batch_max(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=3)
            for i in range(5):
                queue.offer(entry(loop, i))
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [0, 1, 2]
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [3, 4]

        run(scenario())

    def test_other_keys_stay_queued_fifo(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=8)
            queue.offer(entry(loop, 0))
            queue.offer(entry(loop, 0, scheme="random"))
            queue.offer(entry(loop, 1))
            first = await queue.next_batch()
            assert [e.request.fault_index for e in first] == [0, 1]
            assert all(e.request.scheme == "two-step" for e in first)
            second = await queue.next_batch()
            assert len(second) == 1
            assert second[0].request.scheme == "random"

        run(scenario())

    def test_arrivals_while_a_batch_runs_form_the_next_batch(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=3)
            queue.offer(entry(loop, 0))
            # Dispatched alone: nothing holds the batch open for arrivals.
            running = await queue.next_batch()
            assert [e.request.fault_index for e in running] == [0]
            # While that batch is out, same-key requests pile up behind
            # it, interleaved with other keys.
            queue.offer(entry(loop, 1))
            queue.offer(entry(loop, 0, scheme="random"))
            queue.offer(entry(loop, 2))
            queue.offer(entry(loop, 3))
            queue.offer(entry(loop, 4))
            queue.offer(entry(loop, 0, scheme="interval"))
            batches = []
            while queue.depth:
                batches.append([(e.request.scheme, e.request.fault_index)
                                for e in await queue.next_batch()])
            assert batches == [
                [("two-step", 1), ("two-step", 2), ("two-step", 3)],
                [("random", 0)],
                [("two-step", 4)],
                [("interval", 0)],
            ]

        run(scenario())

    def test_lone_request_on_idle_queue_is_dispatched_without_waiting(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=32)
            # An idle dispatcher blocks until the request is announced...
            dispatcher = asyncio.ensure_future(queue.next_batch())
            await asyncio.sleep(0)
            assert not dispatcher.done()
            queue.offer(entry(loop, 0))
            await queue.announce()
            # ...then returns it on its next step: no timer runs first.
            await asyncio.sleep(0)
            assert dispatcher.done()
            assert [e.request.fault_index for e in dispatcher.result()] == [0]
            # A request already queued is returned on the first step.
            queue.offer(entry(loop, 1))
            ready = asyncio.ensure_future(queue.next_batch())
            await asyncio.sleep(0)
            assert ready.done()
            assert [e.request.fault_index for e in ready.result()] == [1]

        run(scenario())

    def test_removed_batch_wait_knob_is_ignored(self, monkeypatch):
        # REPRO_BATCH_WAIT_MS used to hold every batch open for a window.
        from repro.service.engine import DiagnosisEngine
        from repro.service.server import DiagnosisServer, serve_main
        from repro.telemetry import ENV_KNOBS

        assert "REPRO_BATCH_WAIT_MS" not in ENV_KNOBS
        monkeypatch.setenv("REPRO_BATCH_WAIT_MS", "500")

        async def scenario():
            loop = asyncio.get_event_loop()
            server = DiagnosisServer(engine=DiagnosisEngine(workers=0))
            assert "batch_wait_ms" not in server._metrics_payload()["batching"]
            server.queue.offer(entry(loop, 0))
            ready = asyncio.ensure_future(server.queue.next_batch())
            await asyncio.sleep(0)
            assert ready.done()

        run(scenario())
        with pytest.raises(SystemExit):
            serve_main(["--batch-wait-ms", "5"])


class TestDeadlines:
    def test_expired_entry_resolves_deadline_exceeded(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            expired = entry(loop, 0, deadline=time.monotonic() - 1)
            live = entry(loop, 1)
            queue.offer(expired)
            queue.offer(live)
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [1]
            with pytest.raises(ServiceError) as exc:
                expired.future.result()
            assert exc.value.code == "deadline_exceeded"

        run(scenario())

    def test_abandoned_entry_is_dropped_silently(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            gone = entry(loop, 0)
            gone.future.cancel()
            queue.offer(gone)
            queue.offer(entry(loop, 1))
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [1]

        run(scenario())


class TestClose:
    def test_close_drains_then_returns_empty(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            queue.offer(entry(loop, 0))
            await queue.close()
            batch = await queue.next_batch()
            assert len(batch) == 1  # queued work still served
            assert await queue.next_batch() == []  # then clean exit

        run(scenario())
