"""Canonical wire forms: the served result summary and error bodies.

The serving determinism contract (``docs/serving.md``) is pinned at the
byte level: ``GET /v1/runs/<digest>/result`` returns **exactly** the
bytes :func:`summary_bytes` produces for ``(spec, result)``, whether
the run executed cold, came out of the result store, ran inside a
lockstep batch group or ran locally via ``repro run``.  The summary
lives beside :class:`~repro.cluster.cluster.RunResult` (the executor
stores it in each run's entry header, so a hit, a repeat or a ``GET``
decodes no run) and is re-exported here as the serving wire form.
"""

from __future__ import annotations

from typing import Any, Dict

from ..cluster.cluster import (
    SUMMARY_SCHEMA_VERSION,
    canonical_json_bytes,
    result_summary,
    summary_bytes,
)

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "canonical_json_bytes",
    "error_body",
    "result_summary",
    "summary_bytes",
]


def error_body(message: str, **extra: Any) -> bytes:
    """A canonical JSON error body (``{"error": message, ...}``)."""
    document: Dict[str, Any] = {"error": message}
    document.update(extra)
    return canonical_json_bytes(document)
