"""Content-keyed disk cache for per-file flow facts.

Same pattern as :mod:`repro.perf.trace_cache`: the key is the SHA-256
of the file *content* plus a format-version salt, so a cache entry can
never go stale silently — editing a file changes its key, and bumping
:data:`~repro.lint.flow.facts.FACTS_VERSION` invalidates everything at
once.  Writes are atomic (``tmp.<pid>`` + ``os.replace``) so concurrent
lint runs — or a run killed mid-write — can never leave a torn entry.

The cache is what makes the whole-program passes cheap enough for
``make lint``: a warm run re-extracts only the dirty frontier (files
whose content hash has no entry) and re-runs the graph passes over the
full fact set, which is pure dict work.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from .facts import FACTS_VERSION, ModuleFacts

__all__ = ["FactsCache", "content_key"]


def content_key(source: bytes, module: str = "", path: str = "") -> str:
    """Cache key for one file: sha256 over a version salt, the module
    identity and the content.  The module name participates because the
    extracted facts embed it (alias resolution, fq names): two files
    with identical content but different dotted names must not share an
    entry."""
    digest = hashlib.sha256()
    for part in (FACTS_VERSION, module, path):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(source)
    return digest.hexdigest()


class FactsCache:
    """Two-tier (memory + disk) facts cache.

    ``dir_path=None`` disables the disk tier — the memory tier still
    dedups within one process, which is what the tests use.
    """

    def __init__(self, dir_path: Optional[Path] = None) -> None:
        self.dir_path = Path(dir_path) if dir_path is not None else None
        self._memory: Dict[str, ModuleFacts] = {}
        self.hits = 0
        self.misses = 0

    # -- lookup --------------------------------------------------------

    def get(self, key: str) -> Optional[ModuleFacts]:
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if self.dir_path is None:
            self.misses += 1
            return None
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
            facts = ModuleFacts.from_dict(obj)
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, torn, or stale-format entry: treat as a miss and
            # let the caller re-extract (the write below repairs it).
            self.misses += 1
            return None
        self._memory[key] = facts
        self.hits += 1
        return facts

    # -- store ---------------------------------------------------------

    def put(self, key: str, facts: ModuleFacts) -> None:
        self._memory[key] = facts
        if self.dir_path is None:
            return
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(facts.to_dict(), handle, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            # A read-only or full disk degrades to memory-only caching;
            # the analysis itself must never fail on cache I/O.
            pass

    def _entry_path(self, key: str) -> Path:
        assert self.dir_path is not None
        # Shard by the first byte to keep directories small.
        return self.dir_path / key[:2] / f"{key}.json"
