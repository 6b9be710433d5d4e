"""Key→LPN translation: a KV store that speaks the simulator's page ops.

:class:`KVStore` maps string/int keys to flash locations and turns each
:class:`~repro.kv.requests.KVRequest` into the page-level replay rows
(``(arrival_us, op, lpn, value_id)``, :data:`~repro.sim.request.Row`)
any in-tree FTL consumes:

* values of at least ``inline_threshold`` bytes occupy a private *extent*
  of whole pages (one WRITE per page; page ``i`` of content ``c`` always
  carries the same derived ``value_id``, so a recurring value reproduces
  recurring page contents — the hook value-locality revival needs).
  Overwrites reuse the extent's pages in place (the new WRITEs invalidate
  the old copies at the FTL) and TRIM any excess pages a shrinking value
  leaves behind;
* smaller values go through the revival-aware
  :class:`~repro.kv.inline.InlinePacker`;
* DELETE issues TRIMs for every page the key owned (the keyed workloads'
  TRIM-heavy profile rides on this) and frees the LPNs for reuse.

The store is the *translation* layer only: it owns a logical address
allocator (smallest-free-first, deterministic) but never touches an FTL.
:func:`KVStore.translate` converts a lazy stream of KV requests into a
lazy stream of page requests, so billion-op keyed workloads stream
through without materialising either side — the same contract as the
trace transforms.  Feeding that stream to a
:class:`~repro.experiments.device.Device` happens in
:mod:`repro.kv.scenario`.

Each op's semantics live in exactly one place: a list-returning helper
(``_put_requests``, ``_get_requests``, ``_delete_requests``,
``_scan_requests``) that does all of the op's bookkeeping — store,
packer, allocator and every :class:`KVStats` counter — and builds its
page requests.  :meth:`KVStore.translate` is one flat loop that
dispatches each request to its helper, and the public
:meth:`~KVStore.put`/:meth:`~KVStore.get`/:meth:`~KVStore.delete`/
:meth:`~KVStore.scan` generators yield the same helpers' output, so the
two entry points cannot drift apart (a property test pins them
together).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim.request import OpType, Row
from .inline import FlashAction, InlinePacker, InlineSlot
from .requests import Key, KVOp, KVRequest, key_to_int, mix64

__all__ = ["KVStats", "KVStore", "page_value_id"]

_OP_WRITE, _OP_READ, _OP_TRIM = OpType.WRITE, OpType.READ, OpType.TRIM


def page_value_id(content_id: int, page_index: int) -> int:
    """Content identity of page ``page_index`` of a multi-page value.

    Distinct ``(content_id, page_index)`` pairs spread over the 64-bit
    ``value_id`` space; the same content always reproduces the same page
    identities, whichever key (or extent) carries it."""
    return mix64(mix64(content_id) + 0x100000001 * (page_index + 1))


@dataclass(slots=True)
class KVStats:
    """Operation and translation counters of one KV run."""

    gets: int = 0
    get_misses: int = 0
    buffer_hits: int = 0        # GETs served from the open pack buffer
    puts: int = 0
    inserts: int = 0            # PUTs that created the key
    deletes: int = 0
    delete_misses: int = 0
    scans: int = 0
    scanned_keys: int = 0
    flash_reads: int = 0
    flash_writes: int = 0
    flash_trims: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        }


@dataclass(slots=True)
class _Extent:
    lpns: Tuple[int, ...]
    content_id: int


class KVStore:
    """One tenant's key→LPN translation state."""

    def __init__(
        self,
        page_bytes: int = 4096,
        inline_threshold: Optional[int] = None,
        repack_threshold: float = 0.5,
        max_pages: int = 0,
    ):
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        if inline_threshold is None:
            inline_threshold = page_bytes // 2
        if not 0 < inline_threshold <= page_bytes:
            raise ValueError("inline_threshold must be in (0, page_bytes]")
        self.page_bytes = page_bytes
        self.inline_threshold = inline_threshold
        self.max_pages = max_pages
        self.stats = KVStats()
        self._extents: Dict[Key, _Extent] = {}
        self._free: List[int] = []
        self._next_lpn = 0
        self._packer = InlinePacker(
            page_bytes,
            alloc=self._alloc,
            release=self._release,
            repack_threshold=repack_threshold,
        )

    # -- allocator -----------------------------------------------------

    def _alloc(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        lpn = self._next_lpn
        if self.max_pages and lpn >= self.max_pages:
            raise RuntimeError(
                f"KV store exhausted its {self.max_pages}-page space"
            )
        self._next_lpn += 1
        return lpn

    def _release(self, lpn: int) -> None:
        heapq.heappush(self._free, lpn)

    @property
    def live_keys(self) -> int:
        return len(self._extents) + self._packer.live_count

    @property
    def packer(self) -> InlinePacker:
        return self._packer

    def counters(self) -> Dict[str, int]:
        """Operation counters plus the packer's, one flat dict."""
        merged = self.stats.as_dict()
        pack = self._packer.stats
        merged.update(
            pack_seals=pack.seals,
            pack_repacks=pack.repacks,
            pack_trims=pack.trims,
            inline_live=self._packer.live_count,
            extent_live=len(self._extents),
        )
        return merged

    # -- keyed operations ----------------------------------------------

    def put(
        self, key: Key, value_bytes: int, content_id: int, arrival_us: float
    ) -> Iterator[Row]:
        """(Over)write ``key``; yields this op's page requests."""
        yield from self._put_requests(
            key, value_bytes, content_id, arrival_us
        )

    def get(self, key: Key, arrival_us: float) -> Iterator[Row]:
        yield from self._get_requests(key, arrival_us)

    def delete(self, key: Key, arrival_us: float) -> Iterator[Row]:
        yield from self._delete_requests(key, arrival_us)

    def scan(
        self, start_key: int, length: int, arrival_us: float
    ) -> Iterator[Row]:
        """Read up to ``length`` consecutive integer keys from
        ``start_key`` (missing keys are skipped, like an iterator over a
        sorted store)."""
        yield from self._scan_requests(start_key, length, arrival_us)

    def flush(self, arrival_us: float) -> Iterator[Row]:
        """Seal a partially filled pack buffer (load-phase epilogue)."""
        yield from self._packed([], self._packer.flush(), arrival_us)

    # -- the streaming translator --------------------------------------

    def translate(
        self, stream: Iterable[KVRequest]
    ) -> Iterator[Row]:
        """Lazily translate a KV request stream into page requests: one
        flat loop over the same per-op helpers the public generators
        use."""
        put = self._put_requests
        get = self._get_requests
        delete = self._delete_requests
        scan = self._scan_requests
        PUT, GET, DELETE = KVOp.PUT, KVOp.GET, KVOp.DELETE
        for request in stream:
            op = request.op
            if op is GET:
                yield from get(request.key, request.arrival_us)
            elif op is PUT:
                yield from put(
                    request.key, request.value_bytes, request.content_id,
                    request.arrival_us,
                )
            elif op is DELETE:
                yield from delete(request.key, request.arrival_us)
            else:
                yield from scan(
                    request.key, request.scan_length, request.arrival_us
                )

    # -- one helper per op ---------------------------------------------
    #
    # Each helper does all of its op's bookkeeping (store, packer, every
    # KVStats counter including the flash_* counts) and returns the op's
    # page requests in order.  translate() and the public generators only
    # yield them, so each op's semantics live here and nowhere else.

    def _put_requests(
        self, key: Key, value_bytes: int, content_id: int, arrival_us: float
    ) -> List[Row]:
        if value_bytes <= 0:
            raise ValueError("value_bytes must be positive")
        stats = self.stats
        stats.puts += 1
        requests: List[Row] = []
        inline_new = value_bytes < self.inline_threshold
        old = self._extents.pop(key, None)
        if old is None:
            if key in self._packer:
                killed = self._packer.kill(key)
                if killed:
                    self._packed(requests, killed, arrival_us)
            else:
                stats.inserts += 1
        elif inline_new:
            # extent → inline: the whole old extent is discarded.
            self._trim_pages(requests, old.lpns, arrival_us)
            old = None
        if inline_new:
            sealed = self._packer.add(
                key, InlineSlot(key_to_int(key), content_id, value_bytes)
            )
            if sealed:
                self._packed(requests, sealed, arrival_us)
            return requests
        pages = -(-value_bytes // self.page_bytes)
        if old is None:
            lpns: Tuple[int, ...] = ()
        else:
            lpns = old.lpns[:pages]
            # The value shrank: discard the excess pages.
            self._trim_pages(requests, old.lpns[pages:], arrival_us)
        lpns += tuple(self._alloc() for _ in range(pages - len(lpns)))
        self._extents[key] = _Extent(lpns, content_id)
        stats.flash_writes += pages
        requests += [
            (arrival_us, _OP_WRITE, lpn, page_value_id(content_id, index))
            for index, lpn in enumerate(lpns)
        ]
        return requests

    def _get_requests(self, key: Key, arrival_us: float) -> List[Row]:
        self.stats.gets += 1
        requests = self._read_requests(key, arrival_us)
        if requests is None:
            self.stats.get_misses += 1
            return []
        return requests

    def _delete_requests(
        self, key: Key, arrival_us: float
    ) -> List[Row]:
        self.stats.deletes += 1
        requests: List[Row] = []
        extent = self._extents.pop(key, None)
        if extent is not None:
            self._trim_pages(requests, extent.lpns, arrival_us)
        elif key in self._packer:
            self._packed(requests, self._packer.kill(key), arrival_us)
        else:
            self.stats.delete_misses += 1
        return requests

    def _scan_requests(
        self, start_key: int, length: int, arrival_us: float
    ) -> List[Row]:
        if not isinstance(start_key, int) or isinstance(start_key, bool):
            raise TypeError("scans require integer keys")
        if length <= 0:
            raise ValueError("scan length must be positive")
        stats = self.stats
        stats.scans += 1
        requests: List[Row] = []
        read = self._read_requests
        for key in range(start_key, start_key + length):
            found = read(key, arrival_us)
            if found is not None:
                stats.scanned_keys += 1
                requests += found
        return requests

    # -- internals -----------------------------------------------------

    def _read_requests(
        self, key: Key, arrival_us: float
    ) -> Optional[List[Row]]:
        """Flash reads serving ``key``, ``[]`` for a RAM buffer hit,
        ``None`` for a missing key."""
        extent = self._extents.get(key)
        if extent is not None:
            self.stats.flash_reads += len(extent.lpns)
            return [(arrival_us, _OP_READ, lpn, 0) for lpn in extent.lpns]
        # The packer rebinds its open buffer on every seal: look keys up
        # through the packer each time, never through a saved reference.
        lpn = self._packer.lpn_of(key)
        if lpn is not None:
            self.stats.flash_reads += 1
            return [(arrival_us, _OP_READ, lpn, 0)]
        if key in self._packer:
            self.stats.buffer_hits += 1
            return []
        return None

    def _trim_pages(
        self, requests: List[Row], lpns: Tuple[int, ...],
        arrival_us: float,
    ) -> None:
        """Discard whole extent pages: TRIM each and free its LPN."""
        self.stats.flash_trims += len(lpns)
        release = self._release
        for lpn in lpns:
            requests.append((arrival_us, _OP_TRIM, lpn, 0))
            release(lpn)

    def _packed(
        self, requests: List[Row], actions: List[FlashAction],
        arrival_us: float,
    ) -> List[Row]:
        """Append the packer's symbolic actions to ``requests`` as page
        requests, counting each; returns ``requests``."""
        stats = self.stats
        for kind, lpn, value_id in actions:
            if kind == "write":
                stats.flash_writes += 1
                op = _OP_WRITE
            elif kind == "read":
                stats.flash_reads += 1
                op = _OP_READ
            else:
                stats.flash_trims += 1
                op = _OP_TRIM
            requests.append((arrival_us, op, lpn, value_id))
        return requests
