"""Workload profiles calibrated to Table II of the paper.

The paper evaluates six FIU/OSU block traces (web, home, mail, hadoop,
trans, desktop) whose per-request content hashes are not redistributable.
Each :class:`WorkloadProfile` carries:

* the **published Table II characteristics** (:class:`TableIITargets`) —
  write ratio and the percentage of requests carrying unique values — that
  the synthetic trace should land near; and
* the **generator knobs** (new-value probability, Zipf skews, footprint)
  tuned so a generated trace *audits* close to those targets.

The split keeps calibration honest: :func:`audit_trace` measures a
generated trace exactly the way Table II measures the originals, and the
calibration tests compare audit to targets.

Footprints and skews also encode the paper's qualitative statements:
mail has the largest footprint and by far the highest write redundancy;
desktop and trans are small with low recycling skew (Section VI-A).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional

from ..sim.request import IORequest, OpType

__all__ = [
    "TableIITargets",
    "WorkloadProfile",
    "PROFILES",
    "profile_by_name",
    "TraceAudit",
    "audit_trace",
]


@dataclass(frozen=True)
class TableIITargets:
    """The published characteristics of one workload (Table II)."""

    write_ratio: float        # "WR [%]" / 100
    unique_write_frac: float  # unique-value writes / writes
    unique_read_frac: float   # unique-value reads / reads


@dataclass(frozen=True)
class WorkloadProfile:
    """Generator parameters for one paper workload."""

    name: str
    targets: TableIITargets
    new_value_prob: float       # P(a write introduces a fresh value)
    value_zipf_s: float         # redraw skew over existing values
    lpn_zipf_s: float           # update skew over the logical space
    read_zipf_s: float          # hot-read skew over the logical space
    cold_read_frac: float       # P(a read is uniform over the cold region)
    cold_region_factor: float   # cold-read space / write working set
    working_set_pages: int      # logical footprint (mail largest)
    num_requests: int
    mean_interarrival_us: float
    seed: int = 1
    #: Fraction of the drive's exported capacity this workload's footprint
    #: occupies.  The paper replays day-traces against a 1TB drive, so
    #: small-footprint workloads (trans, desktop) see plenty of slack and
    #: correspondingly mild GC; 0.92 models a well-filled drive.
    fill_fraction: float = 0.92
    #: Probability that a write's target page is chosen *correlated* with
    #: its value's popularity rank (popular values land on hot pages, the
    #: way repeatedly-rewritten file blocks carry recurring content).
    #: This is what makes popular values die sooner (Figure 4a).
    placement_corr: float = 0.5
    #: Scan bursts: every ``scan_every_writes`` host writes, a sequential
    #: burst of ``scan_length`` unique-content writes sweeps through the
    #: working set (nightly backup / virus-scan / log-rotation behaviour of
    #: the FIU servers).  Bursts flood a recency-only dead-value pool with
    #: one-shot garbage — exactly the LRU failure mode of Figure 6 that
    #: motivates the MQ design.  0 disables bursts.
    scan_every_writes: int = 0
    scan_length: int = 0

    def __post_init__(self) -> None:
        for frac_name in ("new_value_prob", "cold_read_frac"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{frac_name} must be in [0, 1]")
        if self.working_set_pages <= 0 or self.num_requests <= 0:
            raise ValueError("sizes must be positive")
        if self.mean_interarrival_us <= 0:
            raise ValueError("mean_interarrival_us must be positive")
        if self.cold_region_factor < 1.0:
            raise ValueError("cold_region_factor must be >= 1")
        if not 0.0 < self.fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in (0, 1]")
        if not 0.0 <= self.placement_corr <= 1.0:
            raise ValueError("placement_corr must be in [0, 1]")
        if self.scan_every_writes < 0 or self.scan_length < 0:
            raise ValueError("scan parameters must be non-negative")
        if self.scan_every_writes and self.scan_length >= self.scan_every_writes:
            raise ValueError("scan_length must be < scan_every_writes")

    @property
    def write_ratio(self) -> float:
        return self.targets.write_ratio

    @property
    def total_pages(self) -> int:
        """Logical pages a drive must export to replay this workload:
        the write working set plus the read-only cold region."""
        return int(self.working_set_pages * self.cold_region_factor)

    def day(self, index: int) -> "WorkloadProfile":
        """Day-variant of this workload (the m1/m2/h1/w1… of Figures 1, 5).

        Different collection days of the same server share characteristics
        but differ in detail; we model that as a reseed plus a small
        deterministic jitter of the redundancy level.
        """
        if index < 1:
            raise ValueError("day index starts at 1")
        jitter_rng = random.Random(self.seed * 1_000_003 + index)
        jitter = 1.0 + 0.3 * (jitter_rng.random() - 0.5)
        fresh = min(1.0, max(0.01, self.new_value_prob * jitter))
        return replace(
            self,
            name=f"{self.name[0]}{index}",
            new_value_prob=fresh,
            seed=self.seed * 1000 + index,
        )

    def scaled(
        self, scale: float, seed: Optional[int] = None
    ) -> "WorkloadProfile":
        """Shrink/grow the trace and footprint together (see DESIGN.md §4);
        ``seed``, when given, replaces the generator seed."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(
            self,
            num_requests=max(1000, int(self.num_requests * scale)),
            working_set_pages=max(256, int(self.working_set_pages * scale)),
            seed=self.seed if seed is None else seed,
        )


def _profile(
    name: str,
    targets: TableIITargets,
    new_value_prob: float,
    value_s: float,
    lpn_s: float,
    read_s: float,
    cold_read_frac: float,
    cold_region_factor: float,
    pages: int,
    requests: int,
    interarrival: float,
    seed: int,
    fill_fraction: float = 0.92,
) -> WorkloadProfile:
    return WorkloadProfile(
        name=name,
        targets=targets,
        new_value_prob=new_value_prob,
        value_zipf_s=value_s,
        lpn_zipf_s=lpn_s,
        read_zipf_s=read_s,
        cold_read_frac=cold_read_frac,
        cold_region_factor=cold_region_factor,
        working_set_pages=pages,
        num_requests=requests,
        mean_interarrival_us=interarrival,
        seed=seed,
        fill_fraction=fill_fraction,
    )


#: Table II workloads.  ``targets`` come straight from the paper; the knobs
#: are tuned so that ``audit_trace(generate_trace(p))`` lands near them
#: (see tests/unit/test_profiles.py).
PROFILES: Dict[str, WorkloadProfile] = {
    "web": _profile(
        "web", TableIITargets(0.77, 0.42, 0.32),
        0.52, 1.05, 1.10, 1.55, 0.20, 2.0, 40000, 240000, 150.0, 11, 0.85,
    ),
    "home": _profile(
        "home", TableIITargets(0.96, 0.66, 0.80),
        0.75, 0.95, 1.05, 1.05, 0.70, 2.0, 48000, 240000, 220.0, 22,
    ),
    "mail": _profile(
        "mail", TableIITargets(0.77, 0.08, 0.80),
        0.15, 1.15, 1.20, 1.20, 0.94, 5.0, 48000, 240000, 140.0, 33, 0.99,
    ),
    "hadoop": _profile(
        "hadoop", TableIITargets(0.30, 0.639, 0.175),
        0.76, 0.90, 1.00, 1.35, 0.16, 2.0, 32000, 240000, 110.0, 44, 0.80,
    ),
    "trans": _profile(
        "trans", TableIITargets(0.55, 0.774, 0.138),
        0.86, 0.80, 0.95, 1.80, 0.05, 1.5, 24000, 240000, 130.0, 55, 0.55,
    ),
    "desktop": _profile(
        "desktop", TableIITargets(0.42, 0.747, 0.497),
        0.84, 0.80, 0.95, 1.55, 0.52, 14.0, 12000, 240000, 100.0, 66, 0.75,
    ),
}


def profile_by_name(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(PROFILES)}"
        ) from None


@dataclass(frozen=True)
class TraceAudit:
    """Measured characteristics of a trace, Table II style."""

    requests: int
    writes: int
    reads: int
    unique_write_values: int
    unique_read_values: int
    write_ratio: float
    unique_write_frac: float   # unique-value writes / writes
    unique_read_frac: float    # unique-value reads / reads

    def row(self) -> str:
        return (
            f"{self.write_ratio * 100:5.1f}  "
            f"{self.unique_write_frac * 100:5.1f}  "
            f"{self.unique_read_frac * 100:5.1f}"
        )


def audit_trace(requests: Iterable[IORequest]) -> TraceAudit:
    """Measure a trace the way Table II does.

    A write is "unique" when its value is written exactly once in the whole
    trace; likewise for reads ("the percentage of read (write) requests
    which read (write) unique 4KB chunks").
    """
    write_counts: Dict[int, int] = {}
    read_counts: Dict[int, int] = {}
    writes = reads = total = 0
    for request in requests:
        total += 1
        if request.op is OpType.WRITE:
            writes += 1
            write_counts[request.value_id] = (
                write_counts.get(request.value_id, 0) + 1
            )
        else:
            reads += 1
            read_counts[request.value_id] = (
                read_counts.get(request.value_id, 0) + 1
            )
    unique_writes = sum(1 for c in write_counts.values() if c == 1)
    unique_reads = sum(1 for c in read_counts.values() if c == 1)
    return TraceAudit(
        requests=total,
        writes=writes,
        reads=reads,
        unique_write_values=len(write_counts),
        unique_read_values=len(read_counts),
        write_ratio=writes / total if total else 0.0,
        unique_write_frac=unique_writes / writes if writes else 0.0,
        unique_read_frac=unique_reads / reads if reads else 0.0,
    )
