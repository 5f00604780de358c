"""The result store: the one reader and writer of result files.

Runs (:class:`RunExecutor`, ``repro serve``) and fleets
(:func:`~repro.fleet.run_fleet`) share one directory of
``<digest>.result`` entries; their digests are domain-separated.  The
store keeps each result's canonical bytes as an opaque body.  An entry
is a magic line, a 16-byte BLAKE2b checksum of the header line, the
header line ``{kind, spec, sha256, summary}`` (canonical JSON) and the
body: the result type's ``canonical_bytes()``.  ``spec`` is the spec's
canonical JSON, ``sha256`` is taken over the body, and ``summary`` is
the served run summary (``null`` for fleets), so a reader that needs
only the header decodes no trace.  A missing, truncated, corrupt or
undecodable entry, a wrong kind or another spec's entry is a miss.
Writes go through a unique tmp file and :func:`os.replace`; a failed
write removes the tmp file and returns ``False``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

from ..errors import ConfigurationError

__all__ = ["ResultStore"]

_MAGIC = b"repro-result/2\n"
_CHECK = 16
_DIGEST = re.compile(r"[0-9a-f]{40}")
_T = TypeVar("_T")

#: Everything a damaged or foreign entry can raise while it is read or
#: decoded by a result type: each of these is a miss.
_MISS = (
    OSError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    RecursionError,
)

#: Tmp names fold in a process-wide sequence number on top of the pid,
#: so concurrent writes from one process never share a tmp file.
_TMP_IDS = itertools.count()


def _checksum(line: bytes) -> bytes:
    return hashlib.blake2b(line, digest_size=_CHECK).digest()


class ResultStore:
    """A directory of digest-keyed result entries, created on open (a
    path that cannot be a directory is a :class:`ConfigurationError`)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"result store {str(self.root)!r} is not a usable "
                f"directory: {exc}"
            ) from None

    def _path(self, digest: str) -> Path:
        if not _DIGEST.fullmatch(digest):
            raise ValueError(f"not a result digest: {digest!r}")
        return self.root / f"{digest}.result"

    def load(
        self,
        kind: str,
        digest: str,
        decode: Callable[[dict, bytes], _T],
        spec: Optional[str] = None,
    ) -> Optional[_T]:
        """``decode(header, body)`` for ``digest``'s entry, or ``None`` on
        a miss: anything the file or ``decode`` raises, a header or body
        that fails its checksum or sha256, another kind's entry, or one
        whose spec JSON is not ``spec``.  A reader that needs only the
        header leaves the body undecoded."""
        try:
            with open(self._path(digest), "rb") as handle:
                frame = handle.read(len(_MAGIC) + _CHECK)
                line = handle.readline()
                body = handle.read()
            if frame != _MAGIC + _checksum(line):
                raise ValueError("corrupt entry header")
            header = json.loads(line)
            if header["kind"] != kind or spec not in (None, header["spec"]):
                raise ValueError("another kind's or another spec's entry")
            if hashlib.sha256(body).hexdigest() != header["sha256"]:
                raise ValueError("corrupt entry body")
            return decode(header, body)
        except _MISS:
            return None

    def save(
        self,
        kind: str,
        digest: str,
        spec: str,
        body: bytes,
        summary: Optional[bytes] = None,
    ) -> bool:
        """Store one entry atomically; ``False`` when the write failed."""
        path = self._path(digest)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
        try:
            header = {
                "kind": kind,
                "spec": spec,
                "sha256": hashlib.sha256(body).hexdigest(),
                "summary": None if summary is None else summary.decode("utf-8"),
            }
            line = json.dumps(header, sort_keys=True, separators=(",", ":"))
            line = line.encode("utf-8") + b"\n"
            with open(tmp, "wb") as handle:
                handle.write(_MAGIC + _checksum(line) + line)
                handle.write(body)
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True
