"""Content-addressed result cache for the lint engine.

One JSON document under ``.repro-lint-cache/`` holds, per analysed
file, the per-file findings, the :class:`ModuleSummary` the graph rules
consume and the parsed suppression directives — keyed by the sha256 of
the file's bytes.  A warm run therefore re-parses only files whose
bytes changed; the whole-program graph is rebuilt from cached summaries
in microseconds.

Validity is all-or-nothing per entry and global per store:

* an entry is a hit only when the stored sha matches the current bytes;
* the whole store is discarded when the cache schema version, the
  registered rule set, the resolved configuration digest or the working
  directory (display paths are cwd-relative) differ from the run that
  wrote it.

Writes are atomic (``tmp`` + ``os.replace``) so a crashed or
interrupted run can never leave a torn cache; a corrupt or unreadable
cache degrades to a cold run, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .base import Finding
from .graph.summary import ModuleSummary
from .suppressions import Suppressions

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "FileAnalysis",
    "LintCache",
    "cache_key",
]

#: Bump when the entry schema or any rule's semantics change.
CACHE_VERSION = 1

#: Default cache directory name, created next to ``pyproject.toml``/cwd.
DEFAULT_CACHE_DIR = ".repro-lint-cache"


@dataclass
class FileAnalysis:
    """Everything one file contributes to a lint run.

    ``summary``/``suppressions`` are ``None`` for files that failed to
    read or parse (their ``findings`` then carry the ``RPR000``
    diagnostic).
    """

    display: str
    findings: List[Finding] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None
    suppressions: Optional[Suppressions] = None

    def to_json(self) -> dict:
        return {
            "display": self.display,
            "findings": [
                [f.path, f.line, f.col, f.code, f.message]
                for f in self.findings
            ],
            "summary": self.summary.to_json() if self.summary else None,
            "suppressions": (
                self.suppressions.to_json() if self.suppressions else None
            ),
        }

    @staticmethod
    def from_json(raw: dict) -> "FileAnalysis":
        return FileAnalysis(
            display=raw["display"],
            findings=[
                Finding(path=p, line=ln, col=c, code=code, message=m)
                for p, ln, c, code, m in raw["findings"]
            ],
            summary=(
                ModuleSummary.from_json(raw["summary"])
                if raw["summary"] is not None
                else None
            ),
            suppressions=(
                Suppressions.from_json(raw["suppressions"])
                if raw["suppressions"] is not None
                else None
            ),
        )


def cache_key(config_digest: str, rule_codes: List[str]) -> str:
    """Global validity fingerprint: schema + rule set + configuration."""
    blob = f"v{CACHE_VERSION}|{','.join(sorted(rule_codes))}|{config_digest}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class LintCache:
    """The on-disk store. One instance per lint run."""

    def __init__(self, directory: Path, key: str) -> None:
        self.directory = directory
        self.key = key
        self.path = directory / "cache.json"
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict) or raw.get("key") != self.key:
            return
        if raw.get("cwd") != Path.cwd().as_posix():
            return
        entries = raw.get("files")
        if isinstance(entries, dict):
            self._entries = entries

    def get(self, display: str, sha: str) -> Optional[FileAnalysis]:
        """Cached analysis for ``display`` at content ``sha``, if valid."""
        entry = self._entries.get(display)
        if entry is None or entry.get("sha") != sha:
            return None
        try:
            return FileAnalysis.from_json(entry["analysis"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, display: str, sha: str, analysis: FileAnalysis) -> None:
        self._entries[display] = {"sha": sha, "analysis": analysis.to_json()}
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the store (no-op when nothing changed)."""
        if not self._dirty:
            return
        document = {
            "key": self.key,
            "cwd": Path.cwd().as_posix(),
            "files": self._entries,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(f".cache.{os.getpid()}.tmp")
            tmp.write_text(
                json.dumps(document, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, self.path)
        except OSError:
            return  # caching is best-effort; never fail the lint run
        self._dirty = False
