"""Synthetic trace generation calibrated to the paper's workloads.

This is the documented substitution for the FIU/OSU content-hashed traces
(see DESIGN.md): given a :class:`~repro.traces.profiles.WorkloadProfile`,
the generator emits a page-granular request stream reproducing the
properties the paper's analysis and proposal rely on:

* **value locality** — with probability ``new_value_prob`` a write
  introduces a brand-new value; otherwise it redraws an existing value with
  Zipf(``value_zipf_s``) skew over creation rank, so a small fraction of
  values receives most writes (Figure 3a);
* **update locality** — the target LPN is drawn Zipf(``lpn_zipf_s``) over
  the logical space, so hot pages are overwritten often, constantly turning
  popular values into garbage (deaths) that popular redraws then rebirth —
  the life-cycle dynamics of Figures 2–4;
* **pre-existing content** — the drive starts full: every LPN initially
  holds its own unique value (``INITIAL_VALUE_BASE + lpn``), the way a real
  trace window opens on an already-written filesystem.  Cold reads of pages
  the trace never overwrites therefore audit as unique-value reads, which
  is how mail shows 8% unique writes but 80% unique reads in Table II.
  Simulations should pre-fill the drive accordingly (see
  :func:`initial_value_of` and ``repro.experiments.runner.prefill``);
* **timing** — Poisson arrivals with the profile's mean inter-arrival gap,
  giving the open-loop queueing the latency experiments need.

Generation is fully deterministic given the profile (its seed included).
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Dict, List

from ..sim.request import OpType, Trace
from .profiles import WorkloadProfile
# The block profiles' Table II knobs were calibrated under the legacy
# (truncating) sampler and the perf goldens pin the traces it produces,
# so this generator keeps it deliberately (through its cached twin);
# new generators (repro.kv zoo) use the corrected ``zipf_rank``.
from .zipf import zipf_legacy_ranker

__all__ = [
    "INITIAL_VALUE_BASE",
    "initial_value_of",
    "generate_trace",
]

#: Value ids at or above this base are the unique "already on the drive"
#: contents each logical page holds before the trace window opens.
INITIAL_VALUE_BASE = 1 << 40


def initial_value_of(lpn: int) -> int:
    """The unique value stored at ``lpn`` before the trace begins."""
    return INITIAL_VALUE_BASE + lpn


def generate_trace(profile: WorkloadProfile) -> Trace:
    """Generate ``profile``'s trace as a columnar :class:`Trace`.

    One flat loop appending to the four columns: the profile's fields
    are hoisted, and ``expovariate`` and the three draws below are
    inlined, with Zipf ranks from
    :func:`~repro.traces.zipf.zipf_legacy_ranker`.  The order of the
    ``rng`` calls fixes the trace byte for byte; the trace goldens pin
    it.

    * **Value** — a fresh value id with probability ``new_value_prob``,
      else an existing value redrawn Zipf over creation rank (rank 1 =
      oldest).
    * **Write target** — with probability ``placement_corr`` the page's
      heat matches the value's popularity rank (popular value -> hot
      page), which couples value popularity to update rate and
      reproduces Figure 4a's "highly popular values are invalidated more
      quickly".  Otherwise the page is an independent Zipf draw.
    * **Read target** — with probability ``cold_read_frac`` a cold
      uniform read over the full cold region (which extends past the
      write working set, holding only pre-existing unique content); else
      a hot read skewed like the writes.
    """
    rng = random.Random(profile.seed)
    random_ = rng.random
    randrange = rng.randrange
    log = math.log
    draw_value = zipf_legacy_ranker(rng, profile.value_zipf_s)
    draw_write_page = zipf_legacy_ranker(rng, profile.lpn_zipf_s)
    draw_read_page = zipf_legacy_ranker(rng, profile.read_zipf_s)
    rate = 1.0 / profile.mean_interarrival_us
    write_ratio = profile.targets.write_ratio
    new_value_prob = profile.new_value_prob
    placement_corr = profile.placement_corr
    cold_read_frac = profile.cold_read_frac
    pages = profile.working_set_pages
    total_pages = profile.total_pages
    scan_every = profile.scan_every_writes
    scan_length = profile.scan_length
    write, read = OpType.WRITE, OpType.READ
    arrivals, lpns, values = array("d"), array("q"), array("q")
    ops: List[OpType] = []
    add_arrival, add_op = arrivals.append, ops.append
    add_lpn, add_value = lpns.append, values.append
    clock_us = 0.0
    values_created = 0
    writes_done = 0
    scan_remaining = 0
    scan_lpn = 0
    # What each LPN currently holds; absent → its initial unique value.
    content: Dict[int, int] = {}

    for _ in range(profile.num_requests):
        clock_us += -log(1.0 - random_()) / rate
        add_arrival(clock_us)
        if random_() < write_ratio:
            writes_done += 1
            if (
                scan_every
                and scan_remaining == 0
                and writes_done % scan_every == 0
            ):
                # A background job starts sweeping fresh content
                # sequentially through a random stretch of the space.
                scan_remaining = scan_length
                scan_lpn = randrange(pages)
            if scan_remaining > 0:
                scan_remaining -= 1
                value_id = values_created
                values_created += 1
                lpn = scan_lpn
                scan_lpn = (scan_lpn + 1) % pages
            else:
                if values_created == 0 or random_() < new_value_prob:
                    value_id = values_created
                    values_created += 1
                else:
                    value_id = draw_value(values_created) - 1
                if random_() < placement_corr:
                    # value_id is its creation rank (0 = oldest = most
                    # popular); the jitter is a +/- 2x spread.
                    fraction = (value_id + 1) / values_created
                    rank = int(fraction * pages * (0.5 + random_()))
                    lpn = min(pages - 1, max(0, rank - 1))
                else:
                    lpn = draw_write_page(pages) - 1
            content[lpn] = value_id
            add_op(write)
        else:
            if random_() < cold_read_frac:
                lpn = randrange(total_pages)
            else:
                lpn = draw_read_page(pages) - 1
            value_id = content.get(lpn, INITIAL_VALUE_BASE + lpn)
            add_op(read)
        add_lpn(lpn)
        add_value(value_id)
    return Trace(arrivals, tuple(ops), lpns, values)
