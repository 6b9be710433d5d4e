"""Shared fixtures: small drives, tiny workloads, deterministic traces."""

import pytest

from repro.flash.config import SSDConfig
from repro.traces.profiles import TableIITargets, WorkloadProfile


@pytest.fixture
def scratch_cwd(tmp_path_factory, monkeypatch):
    """Run from an empty scratch directory.

    ``repro lint`` keeps its flow facts cache in ``./.lint-flow-cache``
    by default; lint CLI tests use this so facts for their temporary
    trees never land in the checkout's cache.
    """
    path = tmp_path_factory.mktemp("cwd")
    monkeypatch.chdir(path)
    return path


@pytest.fixture
def tiny_config() -> SSDConfig:
    """A drive small enough to fill within a test: 2x2 chips, 1 plane each,
    8 blocks of 16 pages per plane -> 1024 raw pages."""
    return SSDConfig(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=16,
        overprovision=0.15,
    )


@pytest.fixture
def small_config() -> SSDConfig:
    """Bigger than tiny_config, still fast: 4096 raw pages."""
    return SSDConfig(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=32,
        pages_per_block=32,
        overprovision=0.15,
    )


def make_profile(**overrides) -> WorkloadProfile:
    """A small, fast workload profile with sensible defaults."""
    defaults = dict(
        name="test",
        targets=TableIITargets(0.7, 0.3, 0.5),
        new_value_prob=0.3,
        value_zipf_s=1.1,
        lpn_zipf_s=1.1,
        read_zipf_s=1.2,
        cold_read_frac=0.5,
        cold_region_factor=1.5,
        working_set_pages=600,
        num_requests=4000,
        mean_interarrival_us=100.0,
        seed=7,
    )
    defaults.update(overrides)
    return WorkloadProfile(**defaults)


@pytest.fixture
def tiny_profile() -> WorkloadProfile:
    return make_profile()
