"""A deliberately small HTTP/1.1 layer on raw asyncio streams.

The serving layer is stdlib-only *and* ``http.server``-free: requests
are parsed and responses framed by hand on ``asyncio.StreamReader`` /
``StreamWriter`` pairs from :func:`asyncio.start_server`.  The subset
implemented is exactly what a JSON job API needs — request line,
headers, ``Content-Length`` bodies, keep-alive — and nothing else: no
chunked transfer encoding, no trailers, no upgrades, no pipelining
guarantees beyond strict request-at-a-time per connection.

Framing errors raise :class:`HttpError` with the right status code
(400 malformed, 413 oversized, 505 unsupported version) so the
connection handler can answer with a proper error response instead of
slamming the socket shut.  A body's length is never ambiguous: a
``Content-Length`` is ASCII digits only, and a repeated
``Content-Length`` or any ``Transfer-Encoding`` is a 400, so a request
cannot frame its body one way and leave bytes behind for the next.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote

__all__ = [
    "DEFAULT_MAX_BODY",
    "HttpError",
    "HttpRequest",
    "STATUS_REASONS",
    "read_request",
    "render_response",
]

#: Largest request body accepted, bytes (a RunSpec JSON is < 4 KiB).
DEFAULT_MAX_BODY = 1 << 20

#: Largest single header line accepted, bytes.
_MAX_HEADER_LINE = 8192

#: Most header lines accepted per request.
_MAX_HEADER_COUNT = 100

#: A ``Content-Length`` value (``int`` would also take ``+3`` or ``0_3``).
_DIGITS = re.compile(r"[0-9]+")

#: Reason phrases for every status the server emits.
STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    505: "HTTP Version Not Supported",
}


class HttpError(Exception):
    """A framing-level protocol error, carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request.

    Attributes
    ----------
    method / path:
        Verb and the percent-decoded path (query string stripped).
    query:
        Decoded query parameters (last value wins on repeats).
    headers:
        Header mapping with lower-cased names.
    body:
        Raw body bytes (empty when no ``Content-Length``).
    keep_alive:
        Whether the connection survives this exchange (HTTP/1.1
        default, overridden by ``Connection:`` headers).
    """

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF- (or LF-) terminated line, bounded by the header limit."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        raise HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "header line exceeds limit") from None
    if len(line) > _MAX_HEADER_LINE:
        raise HttpError(400, "header line exceeds limit")
    return line


def _parse_request_line(line: bytes) -> Tuple[str, str, str]:
    parts = line.decode("latin-1").strip().split(" ")
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if not method.isalpha() or not method.isupper():
        raise HttpError(400, "malformed method")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(505, f"unsupported protocol version {version!r}")
    return method, target, version


async def read_request(
    reader: asyncio.StreamReader, max_body: int = DEFAULT_MAX_BODY
) -> Optional[HttpRequest]:
    """Parse one request off the stream.

    Returns ``None`` on a clean end-of-stream before any bytes (the
    peer closed an idle keep-alive connection); raises
    :class:`HttpError` on anything malformed.
    """
    line = await _read_line(reader)
    if not line.strip():
        return None
    method, target, version = _parse_request_line(line)

    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_COUNT + 1):
        raw = await _read_line(reader)
        if not raw.strip():
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep or not name.strip() or name != name.strip():
            raise HttpError(400, f"malformed header line {raw!r}")
        name = name.lower()
        if name == "content-length" and name in headers:
            raise HttpError(400, "repeated Content-Length")
        headers[name] = value.strip()
    else:
        raise HttpError(400, "too many header lines")
    if "transfer-encoding" in headers:
        raise HttpError(400, "transfer encodings are not supported")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        if not _DIGITS.fullmatch(length_text):
            raise HttpError(400, "malformed Content-Length")
        # More significant digits than max_body has are over the limit
        # whatever they say (and int() refuses very long digit runs).
        digits = length_text.lstrip("0") or "0"
        if len(digits) > len(str(max_body)) or int(digits) > max_body:
            raise HttpError(413, f"body exceeds {max_body} bytes")
        length = int(digits)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated body") from None

    raw_path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string, keep_blank_values=True))
    connection = headers.get("connection", "").lower()
    keep_alive = version == "HTTP/1.1"
    if connection == "close":
        keep_alive = False
    elif connection == "keep-alive":
        keep_alive = True
    return HttpRequest(
        method=method,
        path=unquote(raw_path),
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """Frame one response as wire bytes.

    No ``Date`` header by design: response bytes are pure functions of
    their inputs (the serving determinism contract), and the serving
    layer has no epoch clock to stamp one with anyway (see
    :mod:`repro.serve.clockshim`).
    """
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
