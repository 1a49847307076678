"""Inspection and garbage collection for the ``.repro_cache/`` tree.

Thin delegation onto the unified content-addressed store
(:mod:`repro.store`): ``repro.cli cache stats`` reports per-section
entry counts and payload bytes, ``repro.cli cache gc --max-bytes N``
evicts least-recently-used entries (by payload mtime, across all
sections) until the tree fits.  Both walk the typed indexes.

Cache entries are content-addressed and rebuilt on miss, so eviction
is always safe — at worst a future run re-simulates or re-warms.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.store import Store, cache_root

__all__ = ["cache_root", "cache_stats", "cache_gc"]


def cache_stats(root: Union[str, Path, None] = None) -> Dict[str, Dict]:
    """Per-section ``{"entries": n, "bytes": n}`` plus a ``total`` row."""
    return Store(root).stats()


def cache_gc(max_bytes: int,
             root: Union[str, Path, None] = None) -> Dict[str, int]:
    """Evict LRU entries (oldest mtime first) until the tree fits.

    Eviction spans all sections: a stale checkpoint is reclaimed before
    a freshly used result, whatever their kind.  Returns
    ``{"removed": n, "removed_bytes": n, "remaining_bytes": n}``.
    """
    return Store(root).gc(max_bytes)
