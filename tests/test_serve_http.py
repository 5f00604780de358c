"""``read_request``: the server's HTTP/1.1 framing, one table row per case.

Each row feeds raw bytes to an :class:`asyncio.StreamReader` and expects
either the parsed request's method, path, body and keep-alive flag, a
clean end of stream (``None``), or an :class:`HttpError` with its status.
A body's length must never be ambiguous: a ``Content-Length`` that
``int`` would stretch to fit (``+3``, ``0_3``), a repeated one, or one
beside a ``Transfer-Encoding`` is refused, so no request can leave bytes
behind for the next on a keep-alive connection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.http import HttpError, read_request

MAX_BODY = 64


def post(*headers: str, body: bytes = b"abc", version: str = "HTTP/1.1") -> bytes:
    head = "".join(f"{h}\r\n" for h in headers)
    return f"POST /v1/runs {version}\r\n{head}\r\n".encode("latin-1") + body


def get(*headers: str, version: str = "HTTP/1.1") -> bytes:
    return post(*headers, body=b"", version=version).replace(b"POST", b"GET", 1)


#: ``(raw bytes, expected)``: ``(method, path, body, keep_alive)``, None
#: for a clean end of stream, or an ``HttpError`` status.
ROWS = {
    "post-body": (post("Content-Length: 3"), ("POST", "/v1/runs", b"abc", True)),
    "leading-zeros": (post("Content-Length: 003"), ("POST", "/v1/runs", b"abc", True)),
    "clean-eof": (b"", None),
    "plus-sign": (post("Content-Length: +3"), 400),
    "underscore": (post("Content-Length: 0_3"), 400),
    "negative": (post("Content-Length: -1"), 400),
    "empty-length": (post("Content-Length:"), 400),
    "latin-1-digit": (post("Content-Length: \xb2"), 400),
    "repeated-length": (post("Content-Length: 3", "Content-Length: 1"), 400),
    "repeated-same-length": (post("Content-Length: 3", "content-length: 3"), 400),
    "length-and-chunked": (
        post("Content-Length: 3", "Transfer-Encoding: chunked"), 400
    ),
    "chunked": (post("Transfer-Encoding: chunked", body=b"3\r\nabc\r\n0\r\n\r\n"), 400),
    "over-max-body": (post(f"Content-Length: {MAX_BODY + 1}", body=b"x" * 65), 413),
    "huge-length": (post("Content-Length: " + "9" * 5000), 413),
    "truncated-body": (post("Content-Length: 10"), 400),
    "http-2": (get(version="HTTP/2.0"), 505),
    "malformed-request-line": (b"GET /v1/runs\r\n\r\n", 400),
    "malformed-header": (get("no colon here"), 400),
    "long-header-line": (get("X-Pad: " + "a" * 9000), 400),
    "too-many-headers": (get(*(f"X-H{i}: v" for i in range(101))), 400),
    "keep-alive-1.1": (get(), ("GET", "/v1/runs", b"", True)),
    "close-1.1": (get("Connection: close"), ("GET", "/v1/runs", b"", False)),
    "explicit-keep-alive-1.1": (
        get("Connection: keep-alive"), ("GET", "/v1/runs", b"", True)
    ),
    "default-1.0": (get(version="HTTP/1.0"), ("GET", "/v1/runs", b"", False)),
    "keep-alive-1.0": (
        get("Connection: keep-alive", version="HTTP/1.0"),
        ("GET", "/v1/runs", b"", True),
    ),
    "close-1.0": (
        get("Connection: close", version="HTTP/1.0"), ("GET", "/v1/runs", b"", False)
    ),
}


def parse(raw: bytes):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body=MAX_BODY)

    return asyncio.run(main())


@pytest.mark.parametrize("row", sorted(ROWS))
def test_read_request(row):
    raw, expected = ROWS[row]
    if isinstance(expected, int):
        with pytest.raises(HttpError) as info:
            parse(raw)
        assert info.value.status == expected
        return
    request = parse(raw)
    if expected is None:
        assert request is None
    else:
        assert (
            request.method, request.path, request.body, request.keep_alive
        ) == expected
