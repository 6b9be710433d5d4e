"""Consistent-hash ring routing LBAs to fleet shards.

Classic Karger ring with virtual nodes: every shard owns ``replicas``
points on a 64-bit circle, and a key belongs to the first shard point at
or after its own hash (wrapping).  Two properties matter here:

* **Determinism.**  Points come from SHA-256 over stable strings —
  never the interpreter's ``hash()``, whose per-process randomisation
  would route the same LBA to different shards in different workers and
  destroy the fleet's bit-identical-digests guarantee.
* **Stability.**  Growing a fleet from ``N`` to ``N + 1`` shards moves
  only ~``K/N`` of ``K`` keys (the slices the new shard's points carve
  out); keys that stay put keep their shard.  The ring property tests
  measure exactly this.

Virtual nodes smooth the load: with ``replicas`` points per shard the
largest shard's share concentrates toward ``1/N`` as replicas grow.  The
default of 64 keeps per-shard page counts within a few percent of even
for the footprints the fleet simulates.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from typing import Dict, List, Tuple

__all__ = ["HashRing"]

_POINT_BYTES = 8  # 64-bit circle
_WORD = struct.Struct(">Q")  # the first _POINT_BYTES of a digest

#: Completed ``assignments`` passes, keyed by everything the pass depends
#: on: ``(shards, replicas, seed, total_pages)``.  Process-wide on purpose,
#: like the trace cache: workers forked after ``ShardSpec.prewarm``
#: inherit the parent's pass.  Bounded: a process routes one or two
#: fleets at a time, so the oldest pass is dropped.
_ASSIGNMENTS: Dict[Tuple[int, int, int, int], Tuple[int, ...]] = {}
_ASSIGNMENTS_MAX = 4


def _point(label: str) -> int:
    digest = hashlib.sha256(label.encode("ascii")).digest()
    return int.from_bytes(digest[:_POINT_BYTES], "big")


class HashRing:
    """Deterministic consistent-hash ring over ``shards`` drives."""

    def __init__(self, shards: int, replicas: int = 64, seed: int = 0):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.shards = shards
        self.replicas = replicas
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append(
                    (_point(f"vnode:{seed}:{shard}:{replica}"), shard)
                )
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shard_of(self, lpn: int) -> int:
        """The shard that owns logical page ``lpn``."""
        key = _point(f"key:{self.seed}:{lpn}")
        index = bisect.bisect_right(self._hashes, key)
        if index == len(self._hashes):
            index = 0  # wrap past the last point to the first
        return self._owners[index]

    def assignments(self, total_pages: int) -> Tuple[int, ...]:
        """``shard_of`` for every page in ``range(total_pages)``.

        The pass is memoised per ``(shards, replicas, seed, total_pages)``
        and the result is immutable, so every shard of a fleet (and every
        worker forked after the parent computed it) shares one tuple.
        """
        key = (self.shards, self.replicas, self.seed, total_pages)
        owners = _ASSIGNMENTS.get(key)
        if owners is None:
            owners = self._route(total_pages)
            if len(_ASSIGNMENTS) >= _ASSIGNMENTS_MAX:
                del _ASSIGNMENTS[next(iter(_ASSIGNMENTS))]
            _ASSIGNMENTS[key] = owners
        return owners

    def _route(self, total_pages: int) -> Tuple[int, ...]:
        """The ring pass itself: ``shard_of`` with its lookups hoisted.

        The same SHA-256 points as :meth:`shard_of`: ``b"%d" % lpn`` is
        ``str(lpn)`` in ASCII, and the first 8 digest bytes are read as
        one big-endian word.  The owner list gets one extra slot holding
        the first point's shard, so a key past the last point wraps
        without a branch.
        """
        prefix = f"key:{self.seed}:".encode("ascii")
        sha256 = hashlib.sha256
        word = _WORD.unpack_from
        bisect_right = bisect.bisect_right
        hashes = self._hashes
        owners = self._owners + self._owners[:1]
        return tuple([
            owners[bisect_right(
                hashes, word(sha256(b"%s%d" % (prefix, lpn)).digest())[0]
            )]
            for lpn in range(total_pages)
        ])
