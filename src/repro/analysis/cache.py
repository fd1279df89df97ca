"""On-disk result cache for the analyzer.

Whole-program analysis re-reads every file on every run; the cache keeps
``make check`` fast by persisting both passes:

* **per-file** entries — keyed by the file's content hash plus the rule
  selection and options, holding that file's findings from the per-file
  rules.  Editing a file changes its hash and drops only its entry;
* **project** entry — keyed by the hash of *all* (path, content-hash) pairs,
  holding the whole-program findings.  Any edit anywhere invalidates it.

The cache file is plain JSON under the project root
(``.athena-lint-cache.json``).  A version stamp covers the analyzer itself:
bump :data:`CACHE_VERSION` whenever rule semantics change so stale caches
self-invalidate instead of masking new findings.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..atomicio import atomic_write
from .findings import Finding

#: Bump when rule behaviour changes; stale caches are discarded wholesale.
CACHE_VERSION = "2"

DEFAULT_CACHE_NAME = ".athena-lint-cache.json"


def source_digest(source: str) -> str:
    """Content hash of one file."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def selection_digest(
    rule_ids: Optional[Sequence[str]], rule_options: Optional[dict]
) -> str:
    """Hash of the rule selection + options that shaped the findings."""
    payload = json.dumps(
        {
            "rules": sorted(rule_ids) if rule_ids is not None else None,
            "options": rule_options or {},
            "version": CACHE_VERSION,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode(results: List[Tuple[Finding, str]]) -> List[dict]:
    return [
        {**finding.to_json(), "context": context} for finding, context in results
    ]


def _decode(entries: List[dict]) -> List[Tuple[Finding, str]]:
    out: List[Tuple[Finding, str]] = []
    for entry in entries:
        out.append(
            (
                Finding(
                    rule_id=entry["rule"],
                    path=entry["path"],
                    line=entry["line"],
                    col=entry["col"],
                    message=entry["message"],
                    hint=entry.get("hint", ""),
                ),
                entry.get("context", ""),
            )
        )
    return out


class ResultCache:
    """Load/lookup/store for the two-level result cache."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._files: Dict[str, dict] = {}
        self._project: Optional[dict] = None
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if data.get("version") != CACHE_VERSION:
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = files
        project = data.get("project")
        if isinstance(project, dict):
            self._project = project

    # -- per-file pass ---------------------------------------------------
    def get_file(
        self, relpath: str, digest: str, selection: str
    ) -> Optional[List[Tuple[Finding, str]]]:
        entry = self._files.get(relpath)
        if (
            entry is None
            or entry.get("digest") != digest
            or entry.get("selection") != selection
        ):
            self.misses += 1
            return None
        self.hits += 1
        return _decode(entry.get("findings", []))

    def put_file(
        self,
        relpath: str,
        digest: str,
        selection: str,
        results: List[Tuple[Finding, str]],
    ) -> None:
        self._files[relpath] = {
            "digest": digest,
            "selection": selection,
            "findings": _encode(results),
        }

    # -- project pass ----------------------------------------------------
    def project_key(
        self, file_digests: Sequence[Tuple[str, str]], selection: str
    ) -> str:
        payload = json.dumps(
            {"files": sorted(file_digests), "selection": selection},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get_project(self, key: str) -> Optional[List[Tuple[Finding, str]]]:
        if self._project is None or self._project.get("key") != key:
            return None
        return _decode(self._project.get("findings", []))

    def put_project(self, key: str, results: List[Tuple[Finding, str]]) -> None:
        self._project = {"key": key, "findings": _encode(results)}

    # -- persistence -----------------------------------------------------
    def prune(self, live_relpaths: Sequence[str]) -> None:
        """Drop entries for files that no longer exist in the walk."""
        live = set(live_relpaths)
        for relpath in list(self._files):
            if relpath not in live:
                del self._files[relpath]

    def save(self) -> None:
        payload = {
            "version": CACHE_VERSION,
            "files": self._files,
            "project": self._project,
        }
        text = json.dumps(payload, sort_keys=True)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, text, prefix=self.path.name)
        except OSError:
            pass  # read-only checkouts lint fine without a cache
