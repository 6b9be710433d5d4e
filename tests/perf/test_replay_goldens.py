"""Replay goldens for the runs that used to leave the fused paths.

A drive whose spare-block pool runs out mid-run, and a drive with
background (idle-time) garbage collection, each ran a copy of the write
or replay loop that fault-free cells did not: the per-call FTL write and
trim, and the per-request ``submit`` chain.  The digests below were
minted on those copies.  Each must reproduce byte-for-byte on the one
path that replaces them.

``result_digest`` covers the counters, the exact latency sequences, the
horizon, the pool statistics and (with faults attached) the fault
counters.
"""

import pytest

from repro.core.dvp import MQDeadValuePool
from repro.faults import FaultConfig, FaultModel
from repro.flash.config import SSDConfig
from repro.ftl.ftl import BaseFTL
from repro.perf.spec import result_digest
from repro.sim.background import BackgroundGCSSD
from repro.sim.ssd import SimulatedSSD
from repro.traces.synthetic import generate_trace

from ..conftest import make_profile


def drive_config() -> SSDConfig:
    """The ``small_config`` drive: 4 planes of 32 blocks x 32 pages."""
    return SSDConfig(
        channels=2, chips_per_channel=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=32, pages_per_block=32, overprovision=0.15,
    )


POOLS = {"baseline": lambda: None, "mq-dvp": lambda: MQDeadValuePool(64)}

# ----------------------------------------------------------------------
# A drive that ends read-only: its spare-block pool is exhausted
# ----------------------------------------------------------------------

#: One spare block per plane: the fourth retirement finds none left.
READ_ONLY_FAULTS = FaultConfig(
    seed=1, program_failure_prob=0.01, erase_failure_prob=0.05,
)

READ_ONLY_GOLDEN = {
    "baseline": "e7157486b263ddb49d30438f88b3fc5bd64b5a83124467fd59b0d7278d68a63d",
    "mq-dvp": "2b799de0f6c401b058a7954e94de8832810a5b753850acfb7c735c78b271e4b5",
}


def read_only_run(system):
    ftl = BaseFTL(drive_config(), pool=POOLS[system]())
    ftl.attach_faults(FaultModel(READ_ONLY_FAULTS))
    device = SimulatedSSD(ftl)
    trace = generate_trace(
        make_profile(working_set_pages=1500, num_requests=20000)
    )
    assert device.service(trace.rows()) == len(trace)
    return ftl, device


@pytest.mark.parametrize("system", sorted(READ_ONLY_GOLDEN))
def test_read_only_run_matches_golden(system):
    ftl, device = read_only_run(system)
    stats = ftl.faults.stats
    assert ftl.read_only
    # A retirement the spare pool could not cover degraded the drive.
    assert stats.retired_blocks > stats.remaps
    assert stats.program_failures > 0 and stats.rejected_writes > 0
    assert result_digest(device.result(system)) == READ_ONLY_GOLDEN[system]


# ----------------------------------------------------------------------
# Background (idle-time) garbage collection
# ----------------------------------------------------------------------

#: (digest, background erases, background relocations).
BACKGROUND_GOLDEN = {
    "baseline": (
        "ef5c9823b25394a6b06b43c5908c5768d0364e67a2f239973ef8746366ef1cea",
        46, 143,
    ),
    "mq-dvp": (
        "abddef52ef1b81a9f32ca7ad8cac23b676a9c1dc94441751a572ffd5ae07fe63",
        80, 391,
    ),
}


def background_device(system):
    return BackgroundGCSSD(
        BaseFTL(drive_config(), pool=POOLS[system]()), background_watermark=5,
    )


def background_trace():
    return generate_trace(
        make_profile(working_set_pages=1500, num_requests=12000)
    )


def background_outcome(device, system):
    return (
        result_digest(device.result(system)),
        device.background_erases,
        device.background_relocations,
    )


@pytest.mark.parametrize("system", sorted(BACKGROUND_GOLDEN))
def test_background_gc_replay_matches_golden(system):
    device = background_device(system)
    trace = background_trace()
    assert device.service(trace.rows()) == len(trace)
    outcome = background_outcome(device, system)
    assert outcome[1] > 0 and outcome[2] > 0
    assert device.ftl.counters.gc_erases >= outcome[1]
    assert outcome == BACKGROUND_GOLDEN[system]


@pytest.mark.parametrize("system", sorted(BACKGROUND_GOLDEN))
def test_background_gc_submit_loop_matches_golden(system):
    """One ``submit`` per request replays exactly what ``service`` does."""
    device = background_device(system)
    for request in background_trace():
        device.submit(request)
    assert background_outcome(device, system) == BACKGROUND_GOLDEN[system]


@pytest.mark.parametrize("system", sorted(POOLS))
def test_record_replay_matches_row_replay(system):
    """A record list (converted to rows at the ``run`` edge) and the
    trace's own rows replay to the same digest."""
    trace = background_trace()
    by_rows = SimulatedSSD(BaseFTL(drive_config(), pool=POOLS[system]()))
    assert by_rows.service(trace.rows()) == len(trace)
    by_records = SimulatedSSD(BaseFTL(drive_config(), pool=POOLS[system]()))
    result = by_records.run(list(trace), system=system)
    assert by_rows.ftl.counters.gc_erases > 0
    assert result_digest(result) == result_digest(by_rows.result(system))
