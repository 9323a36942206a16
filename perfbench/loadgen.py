"""Open-loop HTTP load generator for the serving workload.

One process, one asyncio thread, at most ``connections`` keep-alive
connections.  Requests go out on a schedule fixed in advance (jittered
arrivals drawn from the workload seed), whether or not earlier replies
have come back; a request that finds every connection busy waits for one,
and that wait shows as lateness.  Each request is timed from its due time,
so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Outcome:
    item: int
    due: float
    sent: float
    done: float
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None  # "timeout" or "exception:<Type>"

    @property
    def reason(self) -> Optional[str]:
        if self.error:
            return self.error
        if self.status != 200:
            return f"http_{self.status}"
        return None


def jittered_schedule(rng: np.random.Generator, rate: float, duration: float) -> List[float]:
    """``round(rate * duration)`` arrival offsets in ``[0, duration)``,
    one at a uniformly random point of each ``1 / rate`` slot: the rate is
    exact and at most two requests arrive back to back, so the tail
    measures the server rather than the luck of a Poisson burst."""
    count = max(1, round(rate * duration))
    slots = np.arange(count) + rng.uniform(0.0, 1.0, count)
    return sorted(float(t) for t in slots * (duration / count))


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        head = (f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self.reader.readexactly(length)
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


async def _run(host: str, port: int, schedule: Sequence[Tuple[float, int, bytes]],
               connections: int, timeout_s: float) -> List[Outcome]:
    loop = asyncio.get_running_loop()
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(_Connection(host, port))

    async def one(item: int, due: float, body: bytes) -> Outcome:
        conn = await pool.get()
        outcome = Outcome(item, due, loop.time(), 0.0)
        try:
            outcome.status, outcome.body = await asyncio.wait_for(
                conn.post("/diagnose", body), timeout_s)
        except asyncio.TimeoutError:
            outcome.error = "timeout"
            await conn.close()  # a reply may still arrive on this socket
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
            outcome.error = f"exception:{type(exc).__name__}"
            await conn.close()
        finally:
            outcome.done = loop.time()
            pool.put_nowait(conn)
        return outcome

    start = loop.time() + 0.05
    tasks = []
    for offset, item, body in schedule:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(item, due, body)))
    try:
        return list(await asyncio.gather(*tasks))
    finally:
        while not pool.empty():
            await pool.get_nowait().close()


def run_schedule(host: str, port: int, schedule: Sequence[Tuple[float, int, bytes]],
                 connections: int, timeout_s: float = 10.0) -> List[Outcome]:
    """Send ``(offset_s, item, body)`` requests open-loop; one outcome per
    request, in schedule order."""
    return asyncio.run(_run(host, port, schedule, connections, timeout_s))
