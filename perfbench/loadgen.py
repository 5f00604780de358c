"""Open-loop HTTP load generator for the serve workload.

Requests are sent on a fixed schedule whatever the server does, the
way independent users arrive.  Each is timed from when it was *due*,
so a stall also charges the wait it imposes on every request behind
it, and the generator reports how late it sent each one.  A request
due while every connection is busy waits for the first to free up;
that wait is part of its latency and of its lateness.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.serve import ClientSession


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``due`` seconds after the start."""

    due: float
    path: str
    body: bytes


@dataclass(frozen=True)
class Outcome:
    """What happened to one request; times are seconds from the start.

    ``status`` is 0 when no answer arrived within the timeout or the
    connection failed.
    """

    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


async def drive(
    host: str,
    port: int,
    schedule: Sequence[Request],
    connections: int = 2,
    timeout_s: float = 5.0,
) -> List[Outcome]:
    """Send ``schedule`` (sorted by ``due``) on keep-alive connections.

    Each request goes to the connection with the fewest requests in
    hand when it falls due, so a request due just after another lands
    on the idle connection and arrives while the first is in flight.
    Returns one :class:`Outcome` per request, in schedule order.
    """
    sessions = [ClientSession(host, port) for _ in range(connections)]
    queues: List[asyncio.Queue] = [asyncio.Queue() for _ in sessions]
    in_hand = [0] * connections
    outcomes: List[Outcome] = [None] * len(schedule)  # type: ignore[list-item]
    clock = time.perf_counter
    start = clock() + 0.05

    async def connection(k: int) -> None:
        session = sessions[k]
        while True:
            i = await queues[k].get()
            if i is None:
                return
            request = schedule[i]
            sent = clock() - start
            try:
                response = await asyncio.wait_for(
                    session.request("POST", request.path, request.body),
                    timeout_s,
                )
                status, body = response.status, response.body
            except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
                status, body = 0, b""
                await session.close()
            in_hand[k] -= 1
            outcomes[i] = Outcome(
                due=request.due,
                sent=sent,
                done=clock() - start,
                status=status,
                body=body,
            )

    workers = [asyncio.create_task(connection(k)) for k in range(connections)]
    try:
        for i, request in enumerate(schedule):
            delay = start + request.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            k = min(range(connections), key=in_hand.__getitem__)
            in_hand[k] += 1
            queues[k].put_nowait(i)
        for queue in queues:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
        for session in sessions:
            await session.close()
    return outcomes
