"""The on-disk analysis cache: summaries + findings keyed by content hash.

One JSON file (default ``<root>/.repro-lint-cache.json``) holding, per
analysed file, the sha256 of its text, its :class:`~repro.analysis.model.
FileSummary`, the raw (pre-suppression) per-file findings, and its
suppression comments -- everything a later run needs to skip parsing a
file whose text has not changed.  Project-scoped findings are stored
under a single **model key**: the hash of every file's (path, sha) pair
plus the rule set and the docs inputs, so they are only replayed when
*nothing* the whole-program rules can see has moved.

The cache is strictly a performance artifact and must never change an
answer, so the trust rules are asymmetric:

* any read problem -- missing file, unreadable JSON, wrong version, a
  structurally bogus entry -- degrades silently to "cache miss"; the run
  rebuilds and rewrites.  Corruption can never crash an analysis or leak
  a stale finding (mirrors the snapshot-corruption contract in
  ``tests/test_checkpoint.py``);
* a different *rule set* invalidates everything (cached findings are the
  output of the rules that ran);
* writes are atomic (temp file + ``os.replace``) with sorted keys, so a
  crashed run leaves either the old cache or the new one, never a torn
  file, and identical state produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bump whenever the summary or cache schema changes shape; old caches
#: are then ignored wholesale and rebuilt.
CACHE_VERSION = 2

__all__ = ["AnalysisCache", "CACHE_VERSION", "text_hash"]


def text_hash(text: str) -> str:
    """Content hash used for cache keys (sha256 of the file text)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_key(
    file_hashes: Sequence[Tuple[str, str]],
    rule_ids: Sequence[str],
    extra_inputs: Sequence[str] = (),
) -> str:
    """Key under which project-scoped findings are cached.

    ``file_hashes`` is every analysed file's ``(display path, sha)``;
    ``extra_inputs`` covers out-of-model inputs a project rule reads
    (the docs files the drift rules compare against).
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "files": sorted(file_hashes),
            "rules": sorted(rule_ids),
            "extra": list(extra_inputs),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class AnalysisCache:
    """Load/store wrapper around the cache file; never raises on bad input."""

    def __init__(self, path: Path, rule_ids: Sequence[str]):
        self.path = path
        self.rule_ids = sorted(rule_ids)
        self._files: Dict[str, Dict[str, Any]] = {}
        self._project: Dict[str, Any] = {}
        self._load()

    # ------------------------------------------------------------------
    # loading (any failure -> empty cache)
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            raw = self.path.read_text()
        except OSError:
            return
        try:
            data = json.loads(raw)
        except ValueError:
            return
        if not isinstance(data, dict):
            return
        if data.get("version") != CACHE_VERSION:
            return
        if data.get("rules") != self.rule_ids:
            return  # a different rule set produced these findings
        files = data.get("files")
        if isinstance(files, dict):
            for display_path, entry in files.items():
                if self._valid_entry(entry):
                    self._files[display_path] = entry
        project = data.get("project")
        if isinstance(project, dict):
            self._project = project

    @staticmethod
    def _valid_entry(entry: Any) -> bool:
        return (
            isinstance(entry, dict)
            and isinstance(entry.get("hash"), str)
            and isinstance(entry.get("summary"), dict)
            and isinstance(entry.get("findings"), list)
            and isinstance(entry.get("suppressions"), dict)
        )

    # ------------------------------------------------------------------
    # per-file entries
    # ------------------------------------------------------------------
    def lookup_file(self, display_path: str, sha: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``display_path`` iff its text hash matches."""
        entry = self._files.get(display_path)
        if entry is not None and entry["hash"] == sha:
            return entry
        return None

    def store_file(
        self,
        display_path: str,
        sha: str,
        summary: Dict[str, Any],
        findings: List[Dict[str, Any]],
        suppressions: Dict[str, List[str]],
    ) -> None:
        self._files[display_path] = {
            "hash": sha,
            "summary": summary,
            "findings": findings,
            "suppressions": suppressions,
        }

    def prune(self, keep: Sequence[str]) -> None:
        """Drop entries for files no longer part of the analysed tree."""
        wanted = set(keep)
        for display_path in list(self._files):
            if display_path not in wanted:
                del self._files[display_path]

    # ------------------------------------------------------------------
    # project-scoped findings
    # ------------------------------------------------------------------
    def lookup_project(self, key: str) -> Optional[List[Dict[str, Any]]]:
        if self._project.get("key") == key and isinstance(
            self._project.get("findings"), list
        ):
            findings = self._project["findings"]
            return list(findings)
        return None

    def store_project(self, key: str, findings: List[Dict[str, Any]]) -> None:
        self._project = {"key": key, "findings": findings}

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self) -> None:
        """Atomic write; failures (read-only tree, etc.) are non-fatal."""
        payload = json.dumps(
            {
                "version": CACHE_VERSION,
                "rules": self.rule_ids,
                "files": self._files,
                "project": self._project,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp_path.write_text(payload)
            os.replace(tmp_path, self.path)
        except OSError:
            try:
                tmp_path.unlink()
            except OSError:
                pass
