"""Incremental analysis cache keyed on file content hashes.

Cold runs parse and analyze everything; warm runs hash each file
(sha256 of the raw bytes — microseconds per file) and replay cached
results for files whose content and active ruleset are unchanged.  The
ruleset signature covers each rule's code *and* the source of the module
defining it, so editing a rule invalidates every result it produced.
Whole-program results are keyed on a *project fingerprint* — the hash of
every ``(path, content-hash)`` pair plus the semantic ruleset — so any
single-file edit invalidates exactly the semantic entry and that file's
per-file entry, nothing else.

The cache file is JSON (one file, atomic replace on save) and carries a
schema version; loading an incompatible or corrupt cache silently
degrades to a cold run — the cache can never change *what* is reported,
only how fast.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from pathlib import Path
from typing import Any, Iterable, Protocol

from repro.lint.findings import Finding

__all__ = ["AnalysisCache", "content_hash", "rule_source_hash", "ruleset_signature"]

#: Bump when the cached payload layout changes incompatibly.  Rule edits
#: need no bump: :func:`ruleset_signature` hashes each rule's source.
CACHE_SCHEMA_VERSION = 1


class _CodedRule(Protocol):
    @property
    def code(self) -> str: ...


def content_hash(source: str) -> str:
    """Content hash of one file (sha256 over the UTF-8 bytes)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rule_source_hash(rule: object) -> str:
    """Hash of the source file defining ``rule``'s class ("" if it has none)."""
    try:
        source = Path(inspect.getfile(type(rule))).read_bytes()
    except (OSError, TypeError):
        return ""
    return hashlib.sha256(source).hexdigest()


def ruleset_signature(rules: Iterable[_CodedRule]) -> str:
    """Signature of the active ruleset: codes plus rule sources, order-insensitive."""
    parts = sorted(f"{rule.code}={rule_source_hash(rule)}" for rule in rules)
    payload = f"v{CACHE_SCHEMA_VERSION}:" + ",".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _findings_to_json(findings: list[Finding]) -> list[dict[str, Any]]:
    return [f.to_dict() for f in findings]


def _findings_from_json(raw: Any) -> list[Finding] | None:
    if not isinstance(raw, list):
        return None
    out = []
    for item in raw:
        try:
            out.append(
                Finding(
                    path=item["path"],
                    line=int(item["line"]),
                    col=int(item["col"]),
                    code=item["code"],
                    message=item["message"],
                )
            )
        except (TypeError, KeyError, ValueError):
            return None
    return out


class AnalysisCache:
    """One on-disk cache of per-file and whole-program lint results."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._data: dict[str, Any] = {
            "version": CACHE_SCHEMA_VERSION,
            "files": {},
            "semantic": None,
        }
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            loaded = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            isinstance(loaded, dict)
            and loaded.get("version") == CACHE_SCHEMA_VERSION
            and isinstance(loaded.get("files"), dict)
        ):
            self._data = loaded

    # ------------------------------------------------------------------
    # Per-file entries
    # ------------------------------------------------------------------
    def get_file(
        self, path: str, digest: str, signature: str
    ) -> tuple[list[Finding], int, list[tuple[str, str]]] | None:
        """Replay one file's cached ``(findings, suppressed, errors)``."""
        entry = self._data["files"].get(path)
        if (
            not isinstance(entry, dict)
            or entry.get("hash") != digest
            or entry.get("sig") != signature
        ):
            self.misses += 1
            return None
        findings = _findings_from_json(entry.get("findings"))
        if findings is None:
            self.misses += 1
            return None
        errors = [
            (str(p), str(m)) for p, m in entry.get("errors", []) if isinstance(m, str)
        ]
        self.hits += 1
        return findings, int(entry.get("suppressed", 0)), errors

    def put_file(
        self,
        path: str,
        digest: str,
        signature: str,
        findings: list[Finding],
        suppressed: int,
        errors: list[tuple[str, str]],
    ) -> None:
        self._data["files"][path] = {
            "hash": digest,
            "sig": signature,
            "findings": _findings_to_json(findings),
            "suppressed": suppressed,
            "errors": [list(e) for e in errors],
        }
        self._dirty = True

    # ------------------------------------------------------------------
    # Whole-program entry
    # ------------------------------------------------------------------
    @staticmethod
    def project_fingerprint(file_hashes: list[tuple[str, str]]) -> str:
        """Fingerprint of the whole input set (path + content hashes)."""
        h = hashlib.sha256()
        for path, digest in sorted(file_hashes):
            h.update(path.encode("utf-8"))
            h.update(b"\0")
            h.update(digest.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def get_semantic(
        self, fingerprint: str, signature: str
    ) -> tuple[list[Finding], int] | None:
        """Replay the cached semantic ``(findings, suppressed)``."""
        entry = self._data.get("semantic")
        if (
            not isinstance(entry, dict)
            or entry.get("fingerprint") != fingerprint
            or entry.get("sig") != signature
        ):
            self.misses += 1
            return None
        findings = _findings_from_json(entry.get("findings"))
        if findings is None:
            self.misses += 1
            return None
        self.hits += 1
        return findings, int(entry.get("suppressed", 0))

    def put_semantic(
        self,
        fingerprint: str,
        signature: str,
        findings: list[Finding],
        suppressed: int,
    ) -> None:
        self._data["semantic"] = {
            "fingerprint": fingerprint,
            "sig": signature,
            "findings": _findings_to_json(findings),
            "suppressed": suppressed,
        }
        self._dirty = True

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Atomically persist the cache (no-op when nothing changed)."""
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(self._data, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        self._dirty = False
