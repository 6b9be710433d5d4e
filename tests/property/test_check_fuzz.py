"""Property-fuzz for the correctness harness.

Two directions:

* **soundness** — random host streams (writes, reads, TRIMs), with and
  without fault injection and mid-stream crash recovery, drive a fully
  checked FTL (tight audit interval + lockstep oracle) and must produce
  zero violations: the checker may not cry wolf on healthy executions;
* **completeness** — after a random healthy prefix, one deliberate
  corruption from a catalog of seeded bugs is planted, and the audit
  must report that corruption's named violation kind: the checker may
  not sleep through the bug classes it exists to catch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker, InvariantViolation, OracleFTL, audit
from repro.core.dvp import MQDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.faults.model import FaultConfig, FaultModel
from repro.faults.recovery import crash_and_recover
from repro.flash.config import SSDConfig
from repro.ftl.ftl import BaseFTL


def fuzz_config() -> SSDConfig:
    return SSDConfig(
        channels=2, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=12, pages_per_block=8, overprovision=0.2,
    )


LOGICAL = fuzz_config().logical_pages

# (op, lpn, value): op 0 = write, 1 = read, 2 = trim.  Small value space
# forces fingerprint collisions, hence pool hits and revivals.
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=min(30, LOGICAL - 1)),
        st.integers(min_value=0, max_value=10),
    ),
    max_size=300,
)


def checked_ftl(oracle: bool = True) -> BaseFTL:
    ftl = BaseFTL(fuzz_config(), pool=MQDeadValuePool(24))
    ftl.attach_checker(InvariantChecker(
        interval=17, oracle=OracleFTL() if oracle else None,
    ))
    return ftl


def drive(ftl: BaseFTL, stream) -> None:
    for op, lpn, value in stream:
        if ftl.read_only:
            break
        if op == 0:
            ftl.write(lpn, fp(value))
        elif op == 1:
            ftl.read(lpn)
        else:
            ftl.trim(lpn)


class TestSoundness:
    @settings(max_examples=40, deadline=None)
    @given(stream=operations)
    def test_random_streams_are_violation_free(self, stream):
        ftl = checked_ftl()
        drive(ftl, stream)
        assert audit(ftl) == []

    @settings(max_examples=25, deadline=None)
    @given(stream=operations, seed=st.integers(min_value=0, max_value=99))
    def test_faulted_streams_are_violation_free(self, stream, seed):
        ftl = checked_ftl()
        ftl.attach_faults(FaultModel(FaultConfig(
            seed=seed,
            program_failure_prob=0.02,
            erase_failure_prob=0.02,
            read_error_prob=0.02,
        )))
        drive(ftl, stream)
        assert audit(ftl) == []

    @settings(max_examples=15, deadline=None)
    @given(stream=operations, crash_at=st.integers(min_value=1, max_value=299))
    def test_crash_recovery_mid_stream_is_violation_free(
        self, stream, crash_at
    ):
        ftl = checked_ftl()
        drive(ftl, stream[:crash_at])
        crash_and_recover(ftl)
        # The oracle needs no crash notification: recovery preserves the
        # host-visible contents exactly (verified inside crash_and_recover).
        drive(ftl, stream[crash_at:])
        assert audit(ftl) == []


def corrupt_pool_orphan(ftl):
    free_ppn = next(
        ppn for ppn in range(ftl.config.total_pages)
        if ftl.array.state_of(ppn).name == "FREE"
    )
    ftl.pool.insert_garbage(fp(987654), free_ppn, now=0, popularity=1)
    return "pool.orphan-ppn"


def corrupt_double_valid(ftl):
    ppn = next(iter(ftl._garbage_pop_of_ppn), None)
    if ppn is None:
        return None
    ftl.array.revive(ppn)
    return "array.unmapped-valid"


def corrupt_leak_free_block(ftl):
    for blocks in ftl.allocator.free_blocks:
        if blocks:
            blocks.pop()
            return "allocator.leaked-block"
    return None


def corrupt_skew_counter(ftl):
    ftl.array.invalid_pages += 1
    return "array.accounting"


def corrupt_forge_trim(ftl):
    # Highest mapped LPN: never LPN 0, which the live-checker test
    # overwrites next (a fresh copy would out-sequence the forged trim).
    lpn = max(ftl.mapping.forward_items(), default=None)
    if lpn is None:
        return None
    ftl._oob_seq += 1
    ftl._oob_trims[lpn] = ftl._oob_seq
    copy = dict(ftl.oob_records())[ftl.mapping.lookup(lpn)]
    assert copy[1] < ftl._oob_trims[lpn]
    return "oob.trim-order"


CORRUPTIONS = [
    corrupt_pool_orphan,
    corrupt_double_valid,
    corrupt_leak_free_block,
    corrupt_skew_counter,
    corrupt_forge_trim,
]


class TestCompleteness:
    @settings(max_examples=40, deadline=None)
    @given(
        stream=operations,
        which=st.integers(min_value=0, max_value=len(CORRUPTIONS) - 1),
    )
    def test_seeded_corruption_is_detected(self, stream, which):
        ftl = BaseFTL(fuzz_config(), pool=MQDeadValuePool(24))
        drive(ftl, stream)
        expected = CORRUPTIONS[which](ftl)
        if expected is None:  # corruption not plantable in this state
            return
        found = {violation.kind for violation in audit(ftl)}
        assert expected in found, (
            f"{CORRUPTIONS[which].__name__} went undetected "
            f"(found only {sorted(found)})"
        )

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_live_checker_raises(self, corruption):
        """The attached checker surfaces each corruption as a hard
        failure on the next audited host operation."""
        ftl = BaseFTL(fuzz_config(), pool=MQDeadValuePool(24))
        # Distinct values across consecutive overwrites of an LPN, so
        # dead pages stay in the pool instead of being revived at once.
        for i in range(160):
            ftl.write(i % 12, fp(i % 48))
        expected = corruption(ftl)
        assert expected is not None
        ftl.attach_checker(InvariantChecker(interval=1))
        with pytest.raises(InvariantViolation):
            ftl.write(0, fp(555))
