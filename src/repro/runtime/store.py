"""The result store: the one reader and writer of result files.

Runs (:class:`RunExecutor`, ``repro serve``) and fleets
(:func:`~repro.fleet.run_fleet`) share one directory of
``<digest>.result`` entries; their digests are domain-separated.  An
entry is a magic line, an 8-byte little-endian header length, a
16-byte BLAKE2b checksum of the rest, a JSON header ``{kind, spec,
fields, arrays}`` and then raw little-endian float64 arrays.  ``spec``
is the spec's canonical JSON; ``fields`` and the arrays are the result
type's own mapping, kept beside the type.  Loading parses JSON and
wraps bytes with :func:`numpy.frombuffer`, so it runs no code.  A
missing, truncated, corrupt or undecodable entry, a wrong kind or
another spec's entry is a miss.  Writes go through a unique tmp file
and :func:`os.replace`; a failed write removes the tmp file and
returns ``False``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import struct
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..errors import ConfigurationError

__all__ = ["ResultStore"]

_MAGIC = b"repro-result/1\n"
_LENGTH = struct.Struct("<Q")
_CHECK = 16
_F8 = np.dtype("<f8")
_DIGEST = re.compile(r"[0-9a-f]{40}")
_T = TypeVar("_T")

#: Everything a damaged or foreign entry can raise while it is read,
#: framed or mapped by a result type: each of these is a miss.
_MISS = (
    OSError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    RecursionError,
    struct.error,
)

#: Tmp names fold in a process-wide sequence number on top of the pid,
#: so concurrent writes from one process never share a tmp file.
_TMP_IDS = itertools.count()


def _checksum(body) -> bytes:
    return hashlib.blake2b(body, digest_size=_CHECK).digest()


def _decode(data: bytearray, kind: str) -> Tuple[str, dict, List[np.ndarray]]:
    """One entry's spec JSON, fields and arrays (writable views into
    ``data``); raises on any framing or header fault."""
    if not data.startswith(_MAGIC):
        raise ValueError("not a result entry")
    start = len(_MAGIC) + _LENGTH.size + _CHECK
    if data[start - _CHECK : start] != _checksum(memoryview(data)[start:]):
        raise ValueError("corrupt entry")
    end = start + _LENGTH.unpack_from(data, len(_MAGIC))[0]
    header = json.loads(data[start:end].decode("utf-8"))
    counts = header["arrays"]
    if header["kind"] != kind or not isinstance(header["spec"], str):
        raise ValueError("wrong kind")
    if not all(type(n) is int and n >= 0 for n in counts):
        raise ValueError("bad array counts")
    if len(data) != end + _F8.itemsize * sum(counts):
        raise ValueError("truncated entry")
    arrays = []
    for n in counts:
        arrays.append(np.frombuffer(data, _F8, count=n, offset=end))
        end += _F8.itemsize * n
    return header["spec"], header["fields"], arrays


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
        decode: Callable[[str, dict, List[np.ndarray]], _T],
        spec: Optional[str] = None,
    ) -> Optional[_T]:
        """``decode(spec, fields, arrays)`` for ``digest``'s entry, or
        ``None`` on a miss: anything the file or ``decode`` raises, or an
        entry whose spec JSON is not ``spec``."""
        try:
            with open(self._path(digest), "rb") as handle:
                entry = _decode(bytearray(handle.read()), kind)
            if spec is not None and entry[0] != spec:
                return None
            return decode(*entry)
        except _MISS:
            return None

    def save(
        self,
        kind: str,
        digest: str,
        spec: str,
        fields: dict,
        arrays: Sequence[np.ndarray],
    ) -> bool:
        """Store one entry atomically; ``False`` when the write failed."""
        blobs = [np.ascontiguousarray(a, dtype=_F8).tobytes() for a in arrays]
        path = self._path(digest)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
        try:
            header = json.dumps(
                {
                    "kind": kind,
                    "spec": spec,
                    "fields": fields,
                    "arrays": [len(b) // _F8.itemsize for b in blobs],
                },
                separators=(",", ":"),
            ).encode("utf-8")
            body = b"".join([header, *blobs])
            frame = _MAGIC + _LENGTH.pack(len(header)) + _checksum(body)
            with open(tmp, "wb") as handle:
                handle.write(frame + body)
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True
