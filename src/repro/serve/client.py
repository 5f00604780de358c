"""A minimal asyncio HTTP/1.1 client for the serve API.

Exists so the benchmark harness, the CI end-to-end check and the test
suite can drive a real server over a real socket without growing a
dependency: like the server, it is stdlib-only and speaks exactly the
protocol subset :mod:`repro.serve.http` implements (Content-Length
bodies, keep-alive).

:class:`ClientSession` holds one keep-alive connection — the load-test
uses a pool of sessions to model concurrent clients.  The module-level
:func:`request` is the one-shot convenience (connect, exchange, close).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["ClientResponse", "ClientSession", "request"]


@dataclass
class ClientResponse:
    """One response: status, lower-cased headers, raw body bytes."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


class ClientSession:
    """One keep-alive connection to a serve endpoint."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        """Close the underlying connection (safe to call repeatedly)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> ClientResponse:
        """One request/response exchange (reconnects once if stale)."""
        await self._connect()
        try:
            return await self._exchange(method, path, body)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            # The server may have dropped an idle keep-alive connection
            # between requests; one reconnect is always legal.
            await self.close()
            await self._connect()
            return await self._exchange(method, path, body)

    async def _exchange(
        self, method: str, path: str, body: bytes
    ) -> ClientResponse:
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = status_line.decode("latin-1").strip().split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if not raw.strip():
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return ClientResponse(status=status, headers=headers, body=payload)


async def request(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> ClientResponse:
    """One-shot exchange on a fresh connection."""
    session = ClientSession(host, port)
    try:
        return await session.request(method, path, body)
    finally:
        await session.close()
