"""Property-based tests: random host workloads keep every FTL consistent."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker, audit
from repro.core.adaptive import AdaptiveMQDeadValuePool
from repro.core.dvp import (
    InfiniteDeadValuePool,
    LBARecencyPool,
    LRUDeadValuePool,
    MQDeadValuePool,
)
from repro.core.hashing import fingerprint_of_value as fp
from repro.faults import FaultConfig, FaultModel
from repro.faults.recovery import RecoveryError, crash_and_recover
from repro.flash.block import PageState
from repro.flash.config import SSDConfig
from repro.ftl.dedup import DedupFTL
from repro.ftl.dftl import DFTLFtl
from repro.ftl.dvp_ftl import build_system
from repro.ftl.ftl import BaseFTL

from ..reference import ReferenceDedupFTL, ReferenceDFTLFtl, ReferenceFTL


def small_config() -> SSDConfig:
    return SSDConfig(
        channels=2, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=12, pages_per_block=8, overprovision=0.2,
    )


LOGICAL = small_config().logical_pages

# (is_write, lpn, value) streams; value space small to force redundancy.
workloads = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=min(40, LOGICAL - 1)),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=250,
)


def drive(system, operations):
    ftl = build_system(system, small_config(), 16)
    expected = {}
    for is_write, lpn, value in operations:
        if is_write:
            ftl.write(lpn, fp(value))
            expected[lpn] = value
        else:
            ftl.read(lpn)
    return ftl, expected


SYSTEMS = ["baseline", "lru-dvp", "mq-dvp", "ideal", "lxssd", "dedup",
           "dvp+dedup"]


@pytest.mark.parametrize("system", SYSTEMS)
@given(operations=workloads)
@settings(max_examples=25, deadline=None)
def test_data_integrity(system, operations):
    """The fundamental storage property: reads-after-writes see the last
    written content, under every system, at any point in the op stream."""
    ftl, expected = drive(system, operations)
    for lpn, value in expected.items():
        ppn = ftl.mapping.lookup(lpn)
        assert ppn is not None, f"{system}: LPN {lpn} lost its mapping"
        assert ftl.fingerprint_at(ppn) == fp(value), (
            f"{system}: LPN {lpn} holds wrong content"
        )
        assert ftl.array.state_of(ppn) is PageState.VALID


@pytest.mark.parametrize("system", SYSTEMS)
@given(operations=workloads)
@settings(max_examples=25, deadline=None)
def test_structural_invariants(system, operations):
    ftl, _ = drive(system, operations)
    assert not audit(ftl)


@pytest.mark.parametrize("system", SYSTEMS)
@given(operations=workloads)
@settings(max_examples=25, deadline=None)
def test_write_accounting(system, operations):
    ftl, _ = drive(system, operations)
    c = ftl.counters
    writes = sum(1 for w, _, _ in operations if w)
    assert c.host_writes == writes
    assert c.programs + c.short_circuits + c.dedup_hits == writes
    assert c.invalidations <= writes


@given(operations=workloads)
@settings(max_examples=25, deadline=None)
def test_page_conservation(operations):
    """free + valid + invalid pages always equals raw capacity."""
    ftl, _ = drive("mq-dvp", operations)
    array = ftl.array
    total = array.free_pages + array.valid_pages + array.invalid_pages
    assert total == array.config.total_pages


@given(operations=workloads)
@settings(max_examples=25, deadline=None)
def test_pool_tracks_only_invalid_pages(operations):
    """Every PPN the MQ pool would revive must currently be INVALID."""
    ftl, _ = drive("mq-dvp", operations)
    pool = ftl.pool
    for q in range(pool.mq.num_queues):
        for key in pool.mq.keys_in_queue(q):
            for ppn in pool.mq.get(key).ppns:
                assert ftl.array.state_of(ppn) is PageState.INVALID
                assert ftl.fingerprint_at(ppn) == key


# ---------------------------------------------------------------------------
# Fused write path vs the per-call reference model
# ---------------------------------------------------------------------------


#: (fused class, per-call reference class, extra constructor arguments)
#: per FTL family.  The CMT is small enough to evict (and write back) often.
FAMILIES = {
    "base": (BaseFTL, ReferenceFTL, {}),
    "dedup": (DedupFTL, ReferenceDedupFTL, {}),
    "dftl": (DFTLFtl, ReferenceDFTLFtl, {"cmt_entries": 16}),
}


def build(family, pool_name, config=None, per_call=False, window=16,
          **options):
    """A ``family`` FTL over a fresh ``pool_name`` pool (an adaptive one
    closes a window every ``window`` events); ``per_call`` builds the
    frozen per-call reference model instead."""
    fused_cls, per_call_cls, extra = FAMILIES[family]
    cls = per_call_cls if per_call else fused_cls
    pool = (
        adaptive_pool(window) if pool_name == "adaptive"
        else POOL_FACTORIES[pool_name]()
    )
    return cls(config or small_config(), pool=pool, **extra, **options)


def adaptive_pool(window=16):
    # Small window and bounds so the pool resizes (and drops PPNs
    # from the shared garbage-popularity table) inside one example.
    return AdaptiveMQDeadValuePool(
        8, min_entries=4, max_entries=32, window=window
    )


POOL_FACTORIES = {
    "none": lambda: None,
    "mq": lambda: MQDeadValuePool(8),
    "lru": lambda: LRUDeadValuePool(8),
    "infinite": InfiniteDeadValuePool,
    "lba-recency": lambda: LBARecencyPool(8),
    "adaptive": adaptive_pool,
}

#: (family, pool) cells of the fused-vs-reference differentials: dedup and
#: DFTL with no pool and with the MQ pool, and every pool on plain
#: ``BaseFTL`` (ids are the pool names).
SLOT_CASES = [
    pytest.param(family, name, id=f"{family}-{name}")
    for family in ("dedup", "dftl") for name in ("none", "mq")
]
FAMILY_CASES = [
    pytest.param("base", name, id=name) for name in sorted(POOL_FACTORIES)
] + SLOT_CASES

#: (op, lpn, value): op 0 writes, 1 trims, 2 reads.  Writes dominate so
#: the drive stays under GC pressure; the small value space forces deaths
#: and revivals of the same content.
fused_ops = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 0, 1, 2]),
        st.integers(min_value=0, max_value=LOGICAL - 1),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=300,
)


def ftl_state(ftl):
    """Everything a write can touch, in iteration order where it has one."""
    array = ftl.array
    allocator = ftl.allocator
    pool = ftl.pool
    state = {
        "counters": ftl.counters,
        "write_clock": ftl.write_clock,
        "forward": list(ftl.mapping.forward_items().items()),
        "popularity_bytes": bytes(ftl.mapping._pop),
        "mapped": ftl.mapping.mapped_lpn_count(),
        "blocks": [
            (bytes(b.states), b.write_pointer, b.valid_count,
             b.invalid_count, b.erase_count)
            for b in array.blocks
        ],
        "array": (array.free_pages, array.valid_pages, array.invalid_pages,
                  array.total_programs, array.total_erases),
        "allocator": (list(allocator._active), list(allocator._active_gc),
                      [list(q) for q in allocator.free_blocks],
                      allocator._next_plane),
        "oob": list(ftl.oob_records()),
        "oob_trims": list(ftl._oob_trims.items()),
        "oob_seq": ftl._oob_seq,
        "ppn_fp": list(ftl._ppn_fp.items()),
        "write_popularity": list(ftl._write_popularity.items()),
        "read_popularity": list(ftl._read_popularity.items()),
        "garbage_pop_of_ppn": list(ftl.garbage_pop.of_ppn.items()),
        "block_garbage_pop": list(ftl.garbage_pop.of_block.items()),
        "gc_invocations": ftl.gc.invocations,
        "l2p": list(ftl.mapping._l2p),
        "owner": list(ftl.mapping._owner),
        "shared": sorted(
            (ppn, sorted(lpns)) for ppn, lpns in ftl.mapping._shared.items()
        ),
    }
    if ftl._live_index is not None:
        state["live_index"] = list(ftl._live_index.items())
    translation = ftl.translation
    if translation is not None:
        state["cmt"] = (
            list(translation._entries.items()),
            [(page, sorted(lpns))
             for page, lpns in translation._dirty_pages.items()],
            translation.stats,
        )
    if pool is not None:
        state["pool_stats"] = pool.stats
        state["pool_len"] = len(pool)
        state["tracked"] = list(pool.tracked_items())
        state["adaptive"] = tuple(
            getattr(pool, name, None)
            for name in ("_window_events", "_window_insertions",
                         "_window_evictions", "resizes_up", "resizes_down",
                         "capacity_high_water")
        )
        mq = getattr(pool, "mq", None)
        if mq is not None:
            state["mq"] = (
                [mq.keys_in_queue(i) for i in range(mq.num_queues)],
                mq.promotions, mq.demotions, mq.evictions,
                mq.hottest_interval, mq.capacity,
            )
    return state


def overwrite_pass(family, value_of, unique_base=2000):
    """Write every LPN once, with ``value_of(lpn)``.  A dedup drive gets
    unique values instead: one fed a small value space keeps each value
    live on one shared page, so nothing would die, revive or need
    collecting before the random stream."""
    if family == "dedup":
        return [(0, lpn, unique_base + lpn) for lpn in range(LOGICAL)]
    return [(0, lpn, value_of(lpn)) for lpn in range(LOGICAL)]


@pytest.mark.parametrize("family, pool_name", FAMILY_CASES)
@given(
    operations=fused_ops,
    popularity_aware_gc=st.booleans(),
    verify_hits=st.booleans(),
    combine_read_popularity=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fused_write_matches_per_call(
    family, pool_name, operations, popularity_aware_gc, verify_hits,
    combine_read_popularity,
):
    """``BaseFTL.write`` and the per-call reference model stay identical,
    outcome for outcome and table for table (live index and CMT
    included), on write/trim/read streams that keep GC busy."""
    options = dict(
        popularity_aware_gc=popularity_aware_gc,
        verify_hits=verify_hits,
        combine_read_popularity=combine_read_popularity,
    )
    fused = build(family, pool_name, **options)
    per_call = build(family, pool_name, per_call=True, **options)
    hashed = pool_name != "none" or family == "dedup"
    # Precondition: every LPN holds a unique value, then one overwrite
    # pass from the small value space, so GC is already relocating when
    # the random stream starts.
    prefill = [(0, lpn, 1000 + lpn) for lpn in range(LOGICAL)]
    churn = overwrite_pass(family, lambda lpn: lpn % 16)
    for step, (op, lpn, value) in enumerate(prefill + churn + operations):
        if op == 0:
            # Dataclass equality: every WriteOutcome field, GC work included.
            outcome = fused.write(lpn, fp(value))
            assert outcome == per_call.write(lpn, fp(value))
            assert outcome.hashed == hashed
        elif op == 1:
            fused.trim(lpn)
            per_call.trim(lpn)
        else:
            assert fused.read(lpn) == per_call.read(lpn)
        assert fused.counters == per_call.counters
        if step % 50 == 0:
            assert ftl_state(fused) == ftl_state(per_call)
    assert ftl_state(fused) == ftl_state(per_call)
    assert per_call.counters.gc_erases > 0
    assert not audit(fused)


#: (op, lpn, value): op 0 writes, 1 trims, 2 reads.  Trims are a third of
#: the stream, and LPNs cluster on a few pages so the same LPN is trimmed
#: again while unmapped and trimmed right after its write revived a page.
trim_ops = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 1, 2, 0]),
        st.one_of(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=LOGICAL - 1),
        ),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize("family, pool_name", FAMILY_CASES)
@given(
    operations=trim_ops,
    popularity_aware_gc=st.booleans(),
    combine_read_popularity=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fused_trim_matches_per_call(
    family, pool_name, operations, popularity_aware_gc,
    combine_read_popularity,
):
    """``BaseFTL.trim`` and the per-call reference model stay identical,
    table for table: counters, L2P/owner columns, block states, the OOB
    trim journal and sequence, garbage-popularity mass and pool contents,
    on streams that trim unmapped LPNs and pages revived from the pool."""
    options = dict(
        popularity_aware_gc=popularity_aware_gc,
        combine_read_popularity=combine_read_popularity,
    )
    fused = build(family, pool_name, **options)
    per_call = build(family, pool_name, per_call=True, **options)
    # Every LPN holds a value from a small space, then one overwrite pass:
    # GC is busy and the pool holds revivable garbage before the stream.
    prefill = overwrite_pass(family, lambda lpn: lpn % 8, unique_base=1000)
    churn = overwrite_pass(family, lambda lpn: (lpn + 3) % 8)
    # Always cover both edge cases: a revival, its trim, and a trim of
    # the now unmapped LPN.
    edge = [(0, 0, 5), (1, 0, 0), (0, 1, 5), (1, 1, 0), (1, 1, 0)]
    trims = 0
    for step, (op, lpn, value) in enumerate(
        prefill + churn + edge + operations
    ):
        if op == 0:
            assert fused.write(lpn, fp(value)) == per_call.write(lpn, fp(value))
        elif op == 1:
            trims += 1
            fused.trim(lpn)
            per_call.trim(lpn)
        else:
            assert fused.read(lpn) == per_call.read(lpn)
        assert fused.counters == per_call.counters
        if op == 1 or step % 50 == 0:
            assert ftl_state(fused) == ftl_state(per_call)
    assert ftl_state(fused) == ftl_state(per_call)
    assert per_call.counters.host_trims == trims
    if pool_name != "none":
        assert per_call.counters.short_circuits > 0
    assert not audit(fused)


def fault_state(ftl):
    """:func:`ftl_state` plus the fault counters and the bad-block state."""
    badblocks = ftl.badblocks
    return {
        **ftl_state(ftl),
        "read_only": ftl.read_only,
        "fault_stats": ftl.faults.stats.summary(),
        "badblocks": (
            sorted(badblocks.retired), sorted(badblocks._retired_in_plane.items()),
            sorted(badblocks._program_failures.items()),
            sorted(badblocks._marked),
        ),
        "retired": [b.retired for b in ftl.array.blocks],
    }


#: (op, lpn, value): op 0 writes, 1 trims, 2 reads, 3 turns the drive
#: read-only (rare, so most examples fail programs and retire blocks
#: first).
fault_ops = st.lists(
    st.tuples(
        st.sampled_from([0] * 12 + [1] * 4 + [2] * 3 + [3]),
        st.integers(min_value=0, max_value=LOGICAL - 1),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize("family, pool_name", [
    pytest.param("base", name, id=name) for name in ("none", "mq", "adaptive")
] + SLOT_CASES)
@given(
    operations=fault_ops,
    seed=st.integers(min_value=0, max_value=10_000),
    program_failure_prob=st.sampled_from([0.1, 0.3]),
    erase_failure_prob=st.sampled_from([0.0, 0.1, 0.3]),
    retire_threshold=st.integers(min_value=1, max_value=3),
    max_program_retries=st.integers(min_value=1, max_value=4),
    verify_hits=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_faulted_writes_and_trims_match_per_call(
    family, pool_name, operations, seed, program_failure_prob,
    erase_failure_prob, retire_threshold, max_program_retries, verify_hits,
):
    """With a fault model attached (failed programs retried in the plane,
    bad-block strikes and retirements, writes rejected when retries run
    out) and on a drive that turns read-only, ``write`` and ``trim`` leave
    exactly the per-call reference model's outcomes, tables, fault
    counters and bad-block state."""
    faults = FaultConfig(
        seed=seed,
        program_failure_prob=program_failure_prob,
        erase_failure_prob=erase_failure_prob,
        program_failure_retire_threshold=retire_threshold,
        max_program_retries=max_program_retries,
        spare_block_fraction=0.0,
    )
    drives = []
    for per_call in (False, True):
        ftl = build(family, pool_name, per_call=per_call,
                    verify_hits=verify_hits)
        for lpn in range(LOGICAL):
            ftl.write(lpn, fp(1000 + lpn))
        drives.append(ftl.attach_faults(FaultModel(faults)))
    fused, per_call = drives
    # Fresh values program every page once (failures, strikes, GC), then
    # a small value space kills and revives.
    churn = overwrite_pass(family, lambda lpn: 3000 + lpn) + overwrite_pass(
        family, lambda lpn: lpn % 16
    )
    for step, (op, lpn, value) in enumerate(churn + operations):
        if op == 0:
            outcome = _outcome(lambda: fused.write(lpn, fp(value)))
            assert outcome == _outcome(lambda: per_call.write(lpn, fp(value)))
        elif op == 1:
            outcome = _outcome(lambda: fused.trim(lpn))
            assert outcome == _outcome(lambda: per_call.trim(lpn))
        elif op == 2:
            outcome = _outcome(lambda: fused.read(lpn))
            assert outcome == _outcome(lambda: per_call.read(lpn))
        else:
            fused.enter_read_only()
            per_call.enter_read_only()
            outcome = None, None
        assert fused.counters == per_call.counters
        if outcome[1] is not None:
            break  # both raised alike: a drive too worn to collect
        if op == 3 or step % 50 == 0:
            assert fault_state(fused) == fault_state(per_call)
    assert fault_state(fused) == fault_state(per_call)
    assert per_call.faults.stats.program_failures > 0 or per_call.read_only


# ---------------------------------------------------------------------------
# The per-PPN OOB columns vs a dict-of-tuples journal
# ---------------------------------------------------------------------------


class OOBModel:
    """The OOB journal as a ``{ppn: (lpn, seq)}`` dict, advanced from what
    each operation reports: a program or revival records its page, a trim
    takes a sequence number, a relocation moves its record to the new
    page, and an erase drops its block's records."""

    def __init__(self, pages_per_block):
        self.pages_per_block = pages_per_block
        self.records = {}
        self.seq = 0

    def record(self, ppn, lpn):
        self.seq += 1
        self.records[ppn] = (lpn, self.seq)

    def write(self, lpn, outcome):
        work = outcome.gc
        if work is not None:
            # One pass may collect several victims: each victim's
            # relocations, then its erase (an erased block can receive
            # the next victim's relocations).
            per_block = self.pages_per_block
            moves = work.relocations
            index = 0
            for victim in work.erased_blocks:
                while index < len(moves) and moves[index][0] // per_block == victim:
                    old, new = moves[index]
                    entry = self.records.pop(old, None)
                    if entry is not None:
                        self.record(new, entry[0])
                    index += 1
                for ppn in range(victim * per_block, (victim + 1) * per_block):
                    self.records.pop(ppn, None)
            assert index == len(moves)
        ppn = outcome.program_ppn
        if ppn is None:
            ppn = outcome.revived_ppn
        if ppn is not None:
            self.record(ppn, lpn)

    def trim(self):
        self.seq += 1


#: (op, lpn, value): op 0 writes, 1 trims, 2 reads, 3 crashes the drive
#: and recovers it from the journal.
oob_ops = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 0, 1, 2, 3]),
        st.integers(min_value=0, max_value=LOGICAL - 1),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=200,
)


@pytest.mark.parametrize("per_call", [False, True], ids=["fused", "per-call"])
@pytest.mark.parametrize("family, pool_name", [
    pytest.param("base", name, id=name) for name in ("none", "mq", "infinite")
] + SLOT_CASES)
@given(operations=oob_ops)
@settings(max_examples=25, deadline=None)
def test_oob_columns_match_dict_model(family, pool_name, per_call, operations):
    """``BaseFTL.oob_records`` equals a dict-of-tuples journal after every
    operation, on the fused path and the per-call reference model, through
    trims, GC relocations and erases, and crash recovery (which rebuilds
    the L2P table from the journal and must leave the journal itself
    alone; a dedup drive refuses it untouched)."""
    ftl = build(family, pool_name, per_call=per_call)
    model = OOBModel(small_config().pages_per_block)
    prefill = [(0, lpn, 1000 + lpn) for lpn in range(LOGICAL)]
    churn = overwrite_pass(family, lambda lpn: lpn % 16)
    for op, lpn, value in prefill + churn + operations:
        if op == 0:
            model.write(lpn, ftl.write(lpn, fp(value)))
        elif op == 1:
            ftl.trim(lpn)
            model.trim()
        elif op == 2:
            ftl.read(lpn)
        elif family == "dedup":
            with pytest.raises(RecoveryError):
                crash_and_recover(ftl)
        else:
            crash_and_recover(ftl)
        assert list(ftl.oob_records()) == sorted(model.records.items())
        assert ftl._oob_seq == model.seq
    assert ftl.counters.gc_relocations > 0
    assert not audit(ftl)


# ---------------------------------------------------------------------------
# Preconditioning (BaseFTL.preload's fill) vs the per-page write loop
# ---------------------------------------------------------------------------


def count_fallback_writes(ftl):
    """Record every page ``preload`` hands to ``write`` (an instance
    attribute, so other drives of the class are untouched)."""
    calls = []
    write = ftl.write

    def counted(lpn, value):
        calls.append(lpn)
        return write(lpn, value)

    ftl.write = counted
    return calls


@st.composite
def preload_cases(draw):
    """A geometry (some tight enough that preloading crosses the GC low
    watermark), a page list that may repeat fingerprints, optional TRIMs
    of a fresh drive (the drive stays fresh, but its OOB sequence moves
    and ``_oob_trims`` fills) and optional writes that map LPNs before
    the preload starts, and an adaptive pool window that may be shorter
    than the page count."""
    config = SSDConfig(
        channels=2, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=draw(st.integers(min_value=4, max_value=12)),
        pages_per_block=draw(st.sampled_from([4, 8])),
        overprovision=draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])),
    )
    logical = config.logical_pages
    # Up to two pages past the exported capacity: both sides must raise.
    pages = draw(st.integers(min_value=0, max_value=logical + 2))
    values = [1000 + lpn for lpn in range(pages)]
    if pages > 1:
        for target, source in draw(st.lists(
            st.tuples(st.integers(1, pages - 1), st.integers(0, pages - 1)),
            max_size=3,
        )):
            values[target] = values[source]
    pretrimmed = draw(st.lists(st.integers(0, logical - 1), max_size=3))
    premapped = draw(st.lists(
        st.tuples(st.integers(0, logical - 1), st.integers(0, 15)),
        max_size=draw(st.sampled_from([0, 0, 20])),
    ))
    window = draw(st.integers(min_value=1, max_value=2 * logical))
    return config, values, pretrimmed, premapped, window


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # both sides must fail the same way
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("family, pool_name", FAMILY_CASES)
@given(
    case=preload_cases(),
    popularity_aware_gc=st.booleans(),
    combine_read_popularity=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_preload_matches_write_loop(
    family, pool_name, case, popularity_aware_gc, combine_read_popularity
):
    """``preload`` leaves exactly the state the per-page ``write`` loop
    leaves: counters, mapping columns, blocks, allocator, OOB journal,
    content and popularity tables (in order), pool contents and the
    adaptive window — on fresh and trimmed-fresh drives, across repeated
    fingerprints, GC watermark crossings and already-mapped drives."""
    config, values, pretrimmed, premapped, window = case
    options = dict(
        popularity_aware_gc=popularity_aware_gc,
        combine_read_popularity=combine_read_popularity,
    )
    bulk = build(family, pool_name, config, window=window, **options)
    loop = build(family, pool_name, config, window=window, **options)
    for ftl in (bulk, loop):
        for lpn in pretrimmed:
            ftl.trim(lpn)
        for lpn, value in premapped:
            ftl.write(lpn, fp(value))
    fallback = count_fallback_writes(bulk)
    attempts = []

    def write_loop():
        for lpn, value in enumerate(values):
            attempts.append(lpn)
            loop.write(lpn, fp(value))
        return len(values)

    outcome = _outcome(lambda: bulk.preload(map(fp, values)))
    assert outcome == _outcome(write_loop)
    assert ftl_state(bulk) == ftl_state(loop)
    # The first write that raises ends both: past the exported capacity,
    # or where a tight drive has no room left for GC to relocate into.
    attempted = len(attempts)
    if premapped:
        assert fallback == list(range(attempted))
    elif len(set(values)) == len(values) and loop.gc.invocations == 0:
        # The fill took every in-range page.
        assert fallback == list(range(config.logical_pages, attempted))
    assert fallback == list(range(attempted - len(fallback), attempted))


class TestPreloadRouting:
    """Which drives take the fill, and that a fallback is total."""

    def _values(self):
        return [fp(1000 + lpn) for lpn in range(LOGICAL // 2)]

    def test_fresh_drive_takes_the_bulk_loop(self):
        ftl = BaseFTL(small_config(), pool=MQDeadValuePool(8))
        fallback = count_fallback_writes(ftl)
        assert ftl.preload(iter(self._values())) == LOGICAL // 2
        assert fallback == []
        assert not audit(ftl)

    @pytest.mark.parametrize("family", ["dedup", "dftl"])
    def test_fresh_slot_drives_take_the_fill(self, family):
        ftl = build(family, "mq")
        fallback = count_fallback_writes(ftl)
        assert ftl.preload(self._values()) == LOGICAL // 2
        assert fallback == []
        assert not audit(ftl)

    @pytest.mark.parametrize("setup", [
        "faults", "checker", "read-only", "clock", "pool-entry",
        "programmed",
    ])
    def test_guard_sends_every_page_to_write(self, setup):
        ftl = BaseFTL(small_config(), pool=MQDeadValuePool(8))
        if setup == "faults":
            from repro.faults import FaultConfig, FaultModel

            ftl.attach_faults(FaultModel(FaultConfig()))
        elif setup == "checker":
            ftl.attach_checker(InvariantChecker())
        elif setup == "read-only":
            ftl.enter_read_only()
        elif setup == "clock":
            ftl.write_clock = 1
        elif setup == "pool-entry":
            ftl.pool.insert_garbage(fp(99), 0, 0)
        elif setup == "programmed":
            # Nothing mapped, no clock, an empty pool, but a page holds
            # garbage: the planes' append points are no longer closed form.
            ftl.write(0, fp(99))
            ftl.trim(0)
            ftl.pool.clear_volatile()
            ftl.write_clock = 0
        fallback = count_fallback_writes(ftl)
        ftl.preload(self._values())
        assert fallback == list(range(LOGICAL // 2))
