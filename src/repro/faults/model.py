"""Deterministic, seeded fault injection for the simulated drive.

The reproduction's device model is otherwise *perfect*: programs never
fail, blocks never wear out, reads never need ECC retries and power never
drops.  Real NAND does all of those, and the dead-value pool is a
RAM-resident structure over flash state — so the interesting questions
("what is revival worth on a realistic device?", "how fast does the pool
re-warm after a crash wipes it?") need a failure model.

:class:`FaultConfig` is the frozen, picklable knob set: per-operation
failure probabilities, the ECC retry bound, the spare-block budget and an
optional power-loss point.  It rides inside a
:class:`~repro.perf.spec.RunSpec`, so fault runs fan out over worker
processes exactly like fault-free ones.

:class:`FaultModel` is the live, seeded generator built from a config.
Each fault category draws from its own :class:`random.Random` stream
(seeded from ``(seed, category)``), so the decision sequence of one
category never depends on how often another category was consulted — the
property that makes fault runs bit-identical across ``--jobs 1`` and
``--jobs 8`` (each run cell owns a fresh model and replays the identical
request sequence).

Faults default **off**: a zero-probability category never touches its
stream, and an FTL without an attached model pays one ``is None`` check
per operation, keeping the fault-free path digest-identical to a build
without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, List, Optional, Union

__all__ = ["FaultConfig", "FaultStats", "FaultModel"]


@dataclass(frozen=True)
class FaultConfig:
    """Frozen fault-injection knobs (picklable; rides inside a RunSpec).

    Parameters
    ----------
    seed:
        Seeds every category stream; same seed ⇒ identical fault sequence.
    program_failure_prob:
        Per-program probability that the page fails to program and the
        write is retried on another page (page-level remap).
    erase_failure_prob:
        Per-erase probability that the erase fails and the block is
        retired to the bad-block list.
    read_error_prob:
        Per-read probability that the page needs ECC read-retry rounds
        before it decodes (read disturb / retention errors).
    max_read_retries:
        Worst-case ECC retry rounds for one erroneous read; the actual
        count is drawn uniformly from ``[1, max_read_retries]``.
    max_program_retries:
        Write-retry bound; a write whose every attempt fails is rejected
        (counted, never raised).
    program_failure_retire_threshold:
        Program failures a block may accumulate before it is marked for
        retirement at its next erase.
    spare_block_fraction:
        Fraction of each *plane's* blocks held as its reserved spare
        share (at least one per plane; a spare can only remap failures
        within its own plane).  When any plane's retirements exhaust
        its share the drive degrades to read-only.
    crash_after_requests:
        Power loss after this many serviced host requests: the volatile
        DVP/MQ state is dropped and the L2P map is rebuilt by an
        OOB-metadata scan (see :mod:`repro.faults.recovery`).
    """

    seed: int = 0
    program_failure_prob: float = 0.0
    erase_failure_prob: float = 0.0
    read_error_prob: float = 0.0
    max_read_retries: int = 3
    max_program_retries: int = 4
    program_failure_retire_threshold: int = 2
    spare_block_fraction: float = 0.02
    crash_after_requests: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "program_failure_prob",
            "erase_failure_prob",
            "read_error_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.max_read_retries < 1:
            raise ValueError("max_read_retries must be at least 1")
        if self.max_program_retries < 1:
            raise ValueError("max_program_retries must be at least 1")
        if self.program_failure_retire_threshold < 1:
            raise ValueError(
                "program_failure_retire_threshold must be at least 1"
            )
        if not 0.0 <= self.spare_block_fraction < 1.0:
            raise ValueError("spare_block_fraction must be in [0, 1)")
        if (
            self.crash_after_requests is not None
            and self.crash_after_requests <= 0
        ):
            raise ValueError("crash_after_requests must be positive")

    @property
    def enabled(self) -> bool:
        """Whether this config injects anything at all."""
        return (
            self.program_failure_prob > 0.0
            or self.erase_failure_prob > 0.0
            or self.read_error_prob > 0.0
            or self.crash_after_requests is not None
        )

    def with_seed(self, seed: int) -> "FaultConfig":
        return replace(self, seed=seed)


@dataclass
class FaultStats:
    """Everything the fault layer did to one run, counted exactly once."""

    program_failures: int = 0     # failed page programs (each retried)
    rejected_writes: int = 0      # writes dropped: retries exhausted or RO
    erase_failures: int = 0       # erases that retired their block
    read_errors: int = 0          # reads that needed ECC retries
    read_retries: int = 0         # total ECC retry rounds across reads
    retired_blocks: int = 0       # blocks removed from service
    remaps: int = 0               # retirements covered by the spare pool
    crashes: int = 0              # power-loss events survived
    recovery_times_us: List[float] = field(default_factory=list)

    @property
    def recovery_count(self) -> int:
        return len(self.recovery_times_us)

    @property
    def mean_recovery_us(self) -> float:
        times = self.recovery_times_us
        return sum(times) / len(times) if times else 0.0

    def summary(self) -> Dict[str, Union[int, float]]:
        """Flat dict for reports, JSON dumps and result digests."""
        return {
            "program_failures": self.program_failures,
            "rejected_writes": self.rejected_writes,
            "erase_failures": self.erase_failures,
            "read_errors": self.read_errors,
            "read_retries": self.read_retries,
            "retired_blocks": self.retired_blocks,
            "remaps": self.remaps,
            "crashes": self.crashes,
            "recoveries": self.recovery_count,
            "mean_recovery_us": self.mean_recovery_us,
        }


class FaultModel:
    """Live fault generator: seeded streams plus the run's fault counters.

    One model serves one run.  Query methods draw from their category's
    stream only when that category is enabled, so a disabled category is
    free and never perturbs the others.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self.stats = FaultStats()
        self._program_rng = Random(f"{config.seed}:program")
        self._erase_rng = Random(f"{config.seed}:erase")
        self._read_rng = Random(f"{config.seed}:read")

    # ------------------------------------------------------------------
    # Per-category enable flags (hot-path short circuits)
    # ------------------------------------------------------------------

    @property
    def injects_program_failures(self) -> bool:
        return self.config.program_failure_prob > 0.0

    @property
    def injects_erase_failures(self) -> bool:
        return self.config.erase_failure_prob > 0.0

    @property
    def injects_read_errors(self) -> bool:
        return self.config.read_error_prob > 0.0

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------

    def program_fails(self) -> bool:
        """Whether the next page program fails (one draw per attempt)."""
        if not self.injects_program_failures:
            return False
        if self._program_rng.random() < self.config.program_failure_prob:
            self.stats.program_failures += 1
            return True
        return False

    def erase_fails(self) -> bool:
        """Whether the next block erase fails (one draw per attempt)."""
        if not self.injects_erase_failures:
            return False
        if self._erase_rng.random() < self.config.erase_failure_prob:
            self.stats.erase_failures += 1
            return True
        return False

    def read_retry_rounds(self) -> int:
        """ECC retry rounds the next flash read needs (0 = clean read)."""
        if not self.injects_read_errors:
            return 0
        if self._read_rng.random() >= self.config.read_error_prob:
            return 0
        rounds = self._read_rng.randint(1, self.config.max_read_retries)
        self.stats.read_errors += 1
        self.stats.read_retries += rounds
        return rounds
