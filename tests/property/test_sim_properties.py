"""Property-based tests for simulator timing semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import fingerprint_of_value
from repro.faults import FaultConfig, FaultModel
from repro.flash.config import SSDConfig
from repro.flash.timing import ResourceTimeline
from repro.ftl.dedup import DedupFTL
from repro.ftl.dvp_ftl import build_system
from repro.obs import TimeSeriesSampler
from repro.sim.background import BackgroundGCSSD
from repro.sim.logging import CompletionLog
from repro.sim.request import IORequest, OpType, rows_of
from repro.sim.ssd import SimulatedSSD
from repro.traces.transforms import with_trims

from ..reference import ReferenceBackgroundGCSSD, ReferenceSSD, as_reference


def config() -> SSDConfig:
    return SSDConfig(
        channels=2, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=12, pages_per_block=8, overprovision=0.2,
    )


LOGICAL = config().logical_pages


request_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.booleans(),
        st.integers(min_value=0, max_value=min(40, LOGICAL - 1)),
        st.integers(min_value=0, max_value=10),
    ),
    max_size=120,
)


def to_trace(raw):
    raw = sorted(raw, key=lambda r: r[0])
    return [
        IORequest(t, OpType.WRITE if w else OpType.READ, lpn, value)
        for t, w, lpn, value in raw
    ]


@given(raw=request_lists, system=st.sampled_from(["baseline", "mq-dvp", "dedup"]))
@settings(max_examples=30, deadline=None)
def test_latencies_nonnegative_and_causal(raw, system):
    """No request finishes before it arrives, and latency >= service floor
    for any operation that touched flash."""
    trace = to_trace(raw)
    device = SimulatedSSD(build_system(system, config(), 16))
    timing = config().timing
    for request in trace:
        done = device.submit(request)
        assert done.finish_us >= request.arrival_us
        assert done.latency_us >= 0.0
        if request.is_write and not (done.short_circuited or done.dedup_hit):
            assert done.latency_us >= timing.program_us


@given(raw=request_lists)
@settings(max_examples=30, deadline=None)
def test_horizon_is_max_finish(raw):
    trace = to_trace(raw)
    device = SimulatedSSD(build_system("baseline", config(), 16))
    finishes = [device.submit(r).finish_us for r in trace]
    if finishes:
        assert device.horizon_us == max(finishes)


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=50, allow_nan=False),
        ),
        max_size=50,
    )
)
@settings(max_examples=80)
def test_timeline_fifo_no_overlap(jobs):
    """Scheduled intervals on one resource never overlap and never run
    backwards in time."""
    timeline = ResourceTimeline("r")
    jobs = sorted(jobs, key=lambda j: j[0])
    last_end = 0.0
    for arrival, duration in jobs:
        start, end = timeline.schedule(arrival, duration)
        assert start >= arrival
        assert start >= last_end
        assert end == start + duration
        last_end = end
    assert timeline.busy_time == sum(d for _, d in jobs)


# ----------------------------------------------------------------------
# The one service loop vs the per-request reference model
# ----------------------------------------------------------------------


#: FTLs whose outcomes exercise every pricing branch: plain programs and
#: GC, hashing and revivals, dedup hits, DFTL translation traffic, and
#: hit verification reads.
FTL_FACTORIES = {
    "baseline": lambda: build_system("baseline", config(), 16),
    "mq-dvp": lambda: build_system("mq-dvp", config(), 16),
    "dedup": lambda: build_system("dedup", config(), 16),
    "dftl-mq-dvp": lambda: build_system("dftl-mq-dvp", config(), 16),
    "dedup-verify": lambda: DedupFTL(config(), verify_hits=True),
}

#: LPNs each replay prefills and then addresses: about half the raw
#: pages, so a few hundred requests drive GC relocations without ever
#: starving collection of free space.
REPLAY_LPNS = 100

replay_traces = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
        st.booleans(),
        st.integers(min_value=0, max_value=REPLAY_LPNS - 1),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=150,
    max_size=400,
)


def replay_pair(make_ftl, trace, chunk, queue_depth=None, faults=None,
                log=False, observer=False, background=False):
    """Prefill, then replay ``trace`` through ``service`` on the shipped
    device and on the per-request reference model (whose FTL runs the
    per-call reference writes and trims), ``chunk`` requests per call
    (``None``: whole).  ``background`` replays on ``BackgroundGCSSD``,
    with arrivals spread 20x so chips go idle between requests."""
    if background:
        trace = [
            IORequest(r.arrival_us * 20, r.op, r.lpn, r.value_id)
            for r in trace
        ]
    devices = []
    for reference in (False, True):
        ftl = make_ftl()
        for lpn in range(REPLAY_LPNS):
            ftl.write(lpn, fingerprint_of_value(1000 + lpn))
        if reference:
            as_reference(ftl)
        if faults is not None:
            ftl.attach_faults(FaultModel(faults))
        log_of = CompletionLog() if log else None
        if background:
            cls = ReferenceBackgroundGCSSD if reference else BackgroundGCSSD
            device = cls(
                ftl, queue_depth=queue_depth, log=log_of,
                background_watermark=7,
            )
        else:
            cls = ReferenceSSD if reference else SimulatedSSD
            device = cls(
                ftl,
                queue_depth=queue_depth,
                log=log_of,
                observer=(
                    TimeSeriesSampler(interval_requests=7, interval_us=700.0)
                    if observer else None
                ),
            )
        step = chunk or len(trace)
        for start in range(0, len(trace), step):
            batch = trace[start:start + step]
            assert device.service(rows_of(batch)) == len(batch)
        devices.append(device)
    return devices


def timeline_state(device):
    timelines = device.timelines
    return [
        (t.name, t.busy_until, t.busy_time, t.op_count)
        for t in [*timelines.chips, *timelines.channels, timelines.hash_unit]
    ]


def assert_identical(batched, reference):
    assert batched.writes.samples == reference.writes.samples
    assert batched.reads.samples == reference.reads.samples
    assert batched.horizon_us == reference.horizon_us
    assert batched.requests_served == reference.requests_served
    assert batched.host_queue.max_observed == reference.host_queue.max_observed
    assert timeline_state(batched) == timeline_state(reference)
    assert batched.ftl.counters == reference.ftl.counters
    assert len(batched.recovery_reports) == len(reference.recovery_reports)
    if reference.log is not None:
        assert batched.log.records() == reference.log.records()
    if reference.observer is not None:
        assert batched.observer.samples == reference.observer.samples
    if reference.ftl.faults is not None:
        assert (
            batched.ftl.faults.stats.summary()
            == reference.ftl.faults.stats.summary()
        )
    if isinstance(reference, BackgroundGCSSD):
        assert batched.background_erases == reference.background_erases
        assert (
            batched.background_relocations
            == reference.background_relocations
        )


@given(
    raw=replay_traces,
    system=st.sampled_from(sorted(FTL_FACTORIES)),
    queue_depth=st.sampled_from([None, 4]),
    trim_every=st.sampled_from([None, 3]),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    log=st.booleans(),
    observer=st.booleans(),
    background=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_batched_service_matches_per_request(
    raw, system, queue_depth, trim_every, chunk, log, observer, background
):
    """The one service loop charges every timeline, queue and latency
    sample exactly as the reference loop over ``submit`` does, with and
    without background collection before each request."""
    trace = to_trace(raw)
    if trim_every is not None:
        trace = [
            IORequest(*row) for row in with_trims(rows_of(trace), trim_every)
        ]
    batched, reference = replay_pair(
        FTL_FACTORIES[system], trace, chunk,
        queue_depth=queue_depth, log=log, observer=observer and not background,
        background=background,
    )
    assert_identical(batched, reference)


@given(
    raw=replay_traces,
    system=st.sampled_from(["baseline", "mq-dvp", "dftl-mq-dvp"]),
    seed=st.integers(min_value=0, max_value=1000),
    crash_frac=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    background=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batched_service_matches_per_request_under_faults(
    raw, system, seed, crash_frac, chunk, background
):
    """Read-retry rounds, failed programs, retirements and a power loss at
    a global request index land identically on both paths."""
    trace = to_trace(raw)
    crash_after = None
    if crash_frac is not None:
        crash_after = 1 + int(crash_frac * (len(trace) - 1))
    faults = FaultConfig(
        seed=seed,
        read_error_prob=0.3,
        program_failure_prob=0.05,
        erase_failure_prob=0.05,
        crash_after_requests=crash_after,
    )
    batched, reference = replay_pair(
        FTL_FACTORIES[system], trace, chunk, faults=faults,
        background=background,
    )
    assert_identical(batched, reference)
    assert len(batched.recovery_reports) == (crash_after is not None)


def test_crash_mid_chunk_matches_per_request():
    """A crash index that falls inside a ``service`` batch (not on its
    boundary) fires at the same request on both paths."""
    trace = [
        IORequest(i * 37.0, OpType.WRITE if i % 3 else OpType.READ,
                  i % 40, i % 17)
        for i in range(240)
    ]
    chunk = 50
    crash_after = 2 * chunk + 13
    faults = FaultConfig(
        seed=7, read_error_prob=0.4, crash_after_requests=crash_after
    )
    batched, reference = replay_pair(
        FTL_FACTORIES["mq-dvp"], trace, chunk, queue_depth=4, faults=faults
    )
    assert_identical(batched, reference)
    assert len(batched.recovery_reports) == 1
    assert batched.ftl.faults.stats.read_errors > 0
