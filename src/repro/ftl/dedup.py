"""Content-aware deduplicating FTL (CAFTL / value-locality style).

Reimplements the deduplicated SSD the paper compares against and composes
with (Sections V and VII): a fingerprint store maps each *live* value to
the single physical page holding it, the LPN→PPN table becomes many-to-one,
and a physical page dies only when its last logical pointer is removed.

A write whose content is already live is serviced by pointer manipulation
alone (a *dedup hit*).  When constructed with a dead-value pool the class
becomes the paper's DVP+Dedup system: writes missing the live store still
get a chance to revive a garbage page before programming flash — the
window Figure 13 illustrates (from the value's death at t3 to its rebirth
at t4, which dedup alone cannot capture).

The live store is :class:`~repro.ftl.ftl.BaseFTL`'s ``_live_index`` slot;
this class only sets it, and the base write path and hooks keep it.
"""

from __future__ import annotations

from typing import Optional

from ..core.dvp import DeadValuePool
from ..core.hashing import Fingerprint
from ..flash.config import SSDConfig
from .ftl import BaseFTL

__all__ = ["DedupFTL"]


class DedupFTL(BaseFTL):
    """Page-mapping FTL with inline chunk-level deduplication."""

    def __init__(
        self, config: SSDConfig, pool: Optional[DeadValuePool] = None, **kwargs
    ):
        super().__init__(config, pool=pool, **kwargs)
        #: Live fingerprint store: value → the one PPN holding it.
        self._live_index = {}

    def live_value_count(self) -> int:
        """Distinct values currently live on flash."""
        return len(self._live_index)

    def live_ppn_of(self, fp: Fingerprint) -> Optional[int]:
        return self._live_index.get(fp)
