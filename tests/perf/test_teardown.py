"""A finished drive is freed as soon as its last owner drops it.

The drive graph is a tree from the FTL down: the collector, the pool,
the checker and the fault layer hold no reference back to the FTL or to
the :class:`~repro.sim.ssd.SimulatedSSD` above it, so reference counting
alone frees a drive.  Every check runs with the cyclic collector
disabled: a drive kept alive only by a reference cycle would survive
until the next full collection, and the weakrefs below would still
resolve.
"""

import gc
import weakref

import pytest

from repro.experiments import Device, RunConfig
from repro.experiments.runner import ExperimentContext
from repro.faults import FaultConfig
from repro.ftl.dvp_ftl import SYSTEMS
from repro.ftl.ftl import BaseFTL
from repro.perf.parallel import run_specs
from repro.perf.snapshot import (
    capture_live_state,
    default_prefill_cache,
    restore_live_state,
)
from repro.perf.spec import RunSpec
from repro.sim.background import BackgroundGCSSD

SCALE = 0.01
ENTRIES = 64

SETUPS = {
    "bare": RunConfig(scale=SCALE),
    "checker": RunConfig(scale=SCALE, check_interval=500),
    "faults": RunConfig(
        scale=SCALE,
        faults=FaultConfig(
            seed=3, program_failure_prob=0.01, read_error_prob=0.01
        ),
    ),
}


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.for_workload("web", SCALE)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()  # start from a heap without earlier tests' garbage
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _finished(system, context, config, reuse_prefill=False):
    device = Device(system, context.config, ENTRIES)
    device.precondition(context.profile, reuse_prefill=reuse_prefill)
    device.attach(config)
    device.step(context.trace.rows())
    device.finalize(workload="web")
    return device


def _refs(device):
    """Weakrefs to the drive's FTL and timing device.  Pass ``device`` as a
    temporary outside any ``assert`` (pytest's rewriting keeps the
    operands of an assert alive), so it is dropped when this returns."""
    return weakref.ref(device.ftl), weakref.ref(device.ssd)


def _freed(refs):
    return [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_finished_drive_is_freed(system, setup, context, no_cyclic_gc):
    refs = _refs(_finished(system, context, SETUPS[setup]))
    assert _freed(refs)


def test_restored_prefill_drive_is_freed(context, no_cyclic_gc):
    cache = default_prefill_cache()
    _finished("mq-dvp", context, SETUPS["bare"], reuse_prefill=True)
    hits = cache.hits
    refs = _refs(
        _finished("mq-dvp", context, SETUPS["bare"], reuse_prefill=True)
    )
    assert cache.hits == hits + 1  # the second drive was restored
    assert _freed(refs)


def test_background_gc_drive_is_freed(context, no_cyclic_gc):
    device = Device("mq-dvp", context.config, ENTRIES)
    device.precondition(context.profile, reuse_prefill=False)
    ssd = BackgroundGCSSD(device.ftl)
    ssd.service(context.trace.rows())
    refs = weakref.ref(device.ftl), weakref.ref(ssd)
    del device, ssd
    assert _freed(refs)


def test_live_state_round_trip_is_freed(context, no_cyclic_gc):
    rows = list(context.trace.rows())
    half = len(rows) // 2
    device = Device("adaptive-dvp", context.config, ENTRIES)
    device.precondition(context.profile, reuse_prefill=False)
    device.attach(SETUPS["bare"])
    device.step(rows[:half])
    blob = capture_live_state(device.ftl, device.ssd)
    refs = _refs(device)
    del device
    assert _freed(refs)
    ftl, ssd = restore_live_state(blob)
    ssd.service(rows[half:])
    refs = weakref.ref(ftl), weakref.ref(ssd)
    del ftl, ssd
    assert _freed(refs)


def test_run_specs_batch_leaves_no_ftl(no_cyclic_gc):
    def live_ftls():
        return {id(o) for o in gc.get_objects() if isinstance(o, BaseFTL)}

    before = live_ftls()
    results = run_specs([
        RunSpec("desktop", system, scale=SCALE)
        for system in ("baseline", "mq-dvp", "dedup")
    ])
    assert len(results) == 3
    assert live_ftls() <= before
