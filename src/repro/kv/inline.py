"""Small-value inlining: pack sub-page values into shared flash pages.

KV values are usually far smaller than the 4KB flash page; writing one
page per value would waste most of the device.  The packer batches
sub-page values into an *open* RAM buffer and seals it to one flash page
when full, like a log-structured KV device (and the memtable→SST path of
LSM stores).

Revival-awareness is the interesting part.  A sealed pack page's content
identity (its ``value_id``) is a deterministic fold over the ordered
``(key, content_id, size)`` membership of the page.  Overwrites and
deletes kill member slots; when a sealed page's live fraction drops
below the repack threshold, the packer *repacks*: reads the page, re-adds
the surviving slots (identity preserved, original order) to the open
buffer and TRIMs the old page.  Two consequences for the dead-value
pool:

* the TRIMed pack page is revivable garbage — if the identical member
  set seals again later (a common pattern under cyclic overwrites), the
  write short-circuits against the dead page;
* survivors keep their identity across repacks, so recurring co-location
  reproduces recurring page contents instead of fresh ones.

The packer is pure bookkeeping: it never touches the FTL.  It emits
symbolic flash actions (``("write", lpn, value_id)``, ``("read", lpn)``,
``("trim", lpn)``) that :class:`~repro.kv.store.KVStore` turns into
replay rows, and it allocates/releases LPNs
through callbacks the store provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .requests import Key, mix64

__all__ = ["InlineSlot", "InlinePacker", "pack_value_id", "FlashAction"]

#: ("write", lpn, value_id) | ("read", lpn, 0) | ("trim", lpn, 0)
FlashAction = Tuple[str, int, int]

_PACK_SEED = 0x9E3779B97F4A7C15


@dataclass(slots=True, init=False)
class InlineSlot:
    """One packed value's identity: what it is, not where it lives.

    Built from the value's key identity, content id and size, a slot
    keeps only its size and ``term``, its summand of
    :func:`pack_value_id`: ``mix64(key_int) ^ mix64(2·content_id + 1)
    ^ size``, folded once here, so sealing (and re-sealing repack
    survivors) costs one :func:`mix64` per member."""

    size: int
    term: int

    def __init__(self, key_int: int, content_id: int, size: int):
        self.size = size
        self.term = mix64(key_int) ^ mix64(content_id * 2 + 1) ^ size


def pack_value_id(slots: Iterable[InlineSlot]) -> int:
    """Content identity of a pack page: an order-sensitive deterministic
    fold over its member slots.  Identical ordered membership — including
    after a repack round-trip — yields the identical page content, which
    is exactly what value-locality revival needs to observe.

    Each step is ``acc = mix64(acc ^ term)``; XOR is associative, so this
    equals mixing the three summands of :class:`InlineSlot` per member."""
    acc = _PACK_SEED
    for slot in slots:
        acc = mix64(acc ^ slot.term)
    return acc


@dataclass(slots=True)
class _SealedPage:
    lpn: int
    members: int                       # slot count at seal time
    live: "Dict[Key, InlineSlot]"      # insertion-ordered survivors


@dataclass(slots=True)
class PackerStats:
    seals: int = 0
    repacks: int = 0
    repack_reads: int = 0
    trims: int = 0
    buffered_bytes_peak: int = 0


class InlinePacker:
    """Open-buffer + sealed-page bookkeeping for sub-page values."""

    def __init__(
        self,
        page_bytes: int,
        alloc: Callable[[], int],
        release: Callable[[int], None],
        repack_threshold: float = 0.5,
    ):
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        if not 0.0 <= repack_threshold < 1.0:
            raise ValueError("repack_threshold must be in [0, 1)")
        self.page_bytes = page_bytes
        self.repack_threshold = repack_threshold
        self._alloc = alloc
        self._release = release
        #: open-buffer membership in insertion order.
        self._open: "Dict[Key, InlineSlot]" = {}
        self._open_bytes = 0
        self._sealed: Dict[int, _SealedPage] = {}
        #: key -> sealed page LPN; keys in the open buffer are absent here.
        self._home: Dict[Key, int] = {}
        self.stats = PackerStats()

    # -- queries -------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._open or key in self._home

    def lpn_of(self, key: Key) -> Optional[int]:
        """Sealed-page LPN holding ``key``, or ``None`` while buffered."""
        return self._home.get(key)

    @property
    def buffered_count(self) -> int:
        return len(self._open)

    @property
    def live_count(self) -> int:
        """Live packed values, buffered or sealed."""
        return len(self._open) + len(self._home)

    @property
    def sealed_pages(self) -> int:
        return len(self._sealed)

    # -- mutations -----------------------------------------------------

    def add(self, key: Key, slot: InlineSlot) -> List[FlashAction]:
        """Admit one sub-page value; the caller must have killed any
        previous version of ``key`` first."""
        if slot.size <= 0 or slot.size > self.page_bytes:
            raise ValueError(
                f"inline value size {slot.size} outside (0, "
                f"{self.page_bytes}]"
            )
        if key in self._open or key in self._home:
            raise ValueError(f"key {key!r} already packed; kill it first")
        actions: List[FlashAction] = []
        if self._open_bytes + slot.size > self.page_bytes:
            actions.extend(self._seal())
        self._open[key] = slot
        self._open_bytes += slot.size
        if self._open_bytes > self.stats.buffered_bytes_peak:
            self.stats.buffered_bytes_peak = self._open_bytes
        return actions

    def kill(self, key: Key) -> List[FlashAction]:
        """Drop ``key``'s value; may trigger a TRIM or a repack."""
        if key in self._open:
            self._open_bytes -= self._open.pop(key).size
            return []
        lpn = self._home.pop(key)
        page = self._sealed[lpn]
        del page.live[key]
        if not page.live:
            del self._sealed[lpn]
            self._release(lpn)
            self.stats.trims += 1
            return [("trim", lpn, 0)]
        if len(page.live) / page.members < self.repack_threshold:
            return self._repack(page)
        return []

    def flush(self) -> List[FlashAction]:
        """Seal a non-empty open buffer (end of a load phase)."""
        if not self._open:
            return []
        return self._seal()

    # -- internals -----------------------------------------------------

    def _seal(self) -> List[FlashAction]:
        lpn = self._alloc()
        members = self._open
        self._sealed[lpn] = _SealedPage(
            lpn=lpn, members=len(members), live=members
        )
        self._home.update(dict.fromkeys(members, lpn))
        self._open = {}
        self._open_bytes = 0
        self.stats.seals += 1
        return [("write", lpn, pack_value_id(members.values()))]

    def _repack(self, page: _SealedPage) -> List[FlashAction]:
        """Read a sparse page, re-buffer its survivors (identity and
        relative order preserved), discard the old page."""
        actions: List[FlashAction] = [("read", page.lpn, 0)]
        self.stats.repacks += 1
        self.stats.repack_reads += 1
        survivors = list(page.live.items())
        del self._sealed[page.lpn]
        for key, _ in survivors:
            del self._home[key]
        for key, slot in survivors:
            if self._open_bytes + slot.size > self.page_bytes:
                actions.extend(self._seal())
            self._open[key] = slot
            self._open_bytes += slot.size
        self._release(page.lpn)
        self.stats.trims += 1
        actions.append(("trim", page.lpn, 0))
        return actions
