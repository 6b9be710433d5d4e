"""Fleet determinism: jobs=1 and jobs=N mint bit-identical shard digests.

The fleet's contract mirrors the matrix engine's: every shard is a pure
function of its :class:`~repro.fleet.ShardSpec`, results collect in
shard order, and the per-shard ``result_digest`` tuples must match
across any worker count.  Chunked stepping must also be invisible: the
chunk size only bounds batch memory, never the outcome.
"""

import os

import pytest

import repro.fleet.fleet as fleet_mod
import repro.fleet.ring as ring_mod
import repro.perf.spec as perf_spec
from repro.fleet import FleetSpec, execute_shard, run_fleet
from repro.fleet.aggregate import aggregate_fleet
from repro.kv import kv_result_digest
from repro.perf.parallel import run_specs
from repro.perf.spec import result_digest

SCALE = 0.02
SPEC = FleetSpec(workload="mail", system="mq-dvp", shards=4, scale=SCALE)


@pytest.mark.fleet_smoke
class TestFleetDeterminism:
    def test_jobs_1_vs_jobs_8_bit_identical(self):
        serial = run_fleet(SPEC, jobs=1)
        parallel = run_fleet(SPEC, jobs=8)
        assert serial.shard_digests == parallel.shard_digests
        assert serial.fleet_digest == parallel.fleet_digest
        # jobs are capped at the shard count: 8 workers for 4 long-lived
        # shards would fork 4 idle processes.
        assert parallel.jobs <= SPEC.shards

    def test_serial_path_matches_execute_shard_by_hand(self):
        fleet = run_fleet(SPEC, jobs=1)
        by_hand = [execute_shard(SPEC.shard(i)) for i in range(SPEC.shards)]
        assert fleet.shard_digests == tuple(
            result_digest(r) for r in by_hand
        )

    def test_chunk_size_is_invisible(self):
        import dataclasses

        small = run_fleet(
            dataclasses.replace(SPEC, chunk_requests=64), jobs=1
        )
        large = run_fleet(
            dataclasses.replace(SPEC, chunk_requests=1_000_000), jobs=1
        )
        assert small.shard_digests == large.shard_digests

    def test_checker_does_not_perturb_digests(self):
        import dataclasses

        plain = run_fleet(SPEC, jobs=1)
        checked = run_fleet(
            dataclasses.replace(SPEC, check_interval=250, oracle=True),
            jobs=1,
        )
        assert plain.shard_digests == checked.shard_digests

    def test_shard_labels_carry_fleet_coordinates(self):
        fleet = run_fleet(SPEC, jobs=1)
        labels = [r.workload for r in fleet.shard_results]
        assert labels == [
            f"mail/shard{i}of{SPEC.shards}" for i in range(SPEC.shards)
        ]


@pytest.mark.fleet_smoke
class TestFleetCoverage:
    def test_shards_partition_the_trace(self):
        """Every trace request lands on exactly one shard."""
        from repro.experiments.runner import ExperimentContext

        fleet = run_fleet(SPEC, jobs=1)
        context = ExperimentContext.for_workload("mail", SCALE)
        assert sum(fleet.shard_requests) == len(context.trace)

    def test_single_shard_fleet_equals_whole_trace(self):
        """A 1-shard fleet routes everything to shard 0."""
        from repro.experiments.runner import ExperimentContext

        one = run_fleet(
            FleetSpec(
                workload="mail", system="mq-dvp", shards=1, scale=SCALE
            ),
            jobs=1,
        )
        context = ExperimentContext.for_workload("mail", SCALE)
        assert one.shard_requests == (len(context.trace),)


@pytest.mark.fleet_smoke
class TestFanOutBinding:
    """``run_fleet`` is ``run_specs`` over shard jobs plus
    ``aggregate_fleet``, and the functions it reaches are looked up at
    call time — the traced bench patches them the same way."""

    def test_run_fleet_is_aggregate_over_run_specs(self):
        shards = [SPEC.shard(i) for i in range(SPEC.shards)]
        by_parts = aggregate_fleet(SPEC, run_specs(shards, jobs=2), jobs=2)
        fleet = run_fleet(SPEC, jobs=2)
        assert fleet.jobs == by_parts.jobs == 2
        assert fleet.shard_digests == by_parts.shard_digests
        assert fleet.fleet_digest == by_parts.fleet_digest

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_patched_execute_shard_runs_for_every_shard(
        self, jobs, monkeypatch, tmp_path
    ):
        original = fleet_mod.execute_shard

        def marking(spec):
            (tmp_path / f"shard{spec.index}").write_text(str(os.getpid()))
            return original(spec)

        monkeypatch.setattr(fleet_mod, "execute_shard", marking)
        run_fleet(SPEC, jobs=jobs)
        pids = [
            int((tmp_path / f"shard{i}").read_text())
            for i in range(SPEC.shards)
        ]
        if jobs == 1:
            assert set(pids) == {os.getpid()}
        else:  # the wrapper ran inside the forked workers
            assert os.getpid() not in pids

    def test_patched_result_digest_reaches_shards_and_kv(self, monkeypatch):
        original = perf_spec.result_digest
        calls = []

        def counting(result):
            calls.append(result.workload)
            return original(result)

        monkeypatch.setattr(perf_spec, "result_digest", counting)
        fleet = run_fleet(SPEC, jobs=1)
        assert calls == [r.workload for r in fleet.shard_results]
        kv_result_digest(fleet.shard_results[0], {"puts": 1})
        assert len(calls) == SPEC.shards + 1


@pytest.mark.fleet_smoke
class TestRingPassOncePerFleet:
    """The ring pass runs once per fleet: in-process for ``jobs=1``, in
    the parent (``ShardSpec.prewarm``) for ``jobs=2`` — forked workers
    inherit the memoised owners and never route the space again."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ring_pass_count(self, jobs, monkeypatch, tmp_path):
        monkeypatch.setattr(ring_mod, "_ASSIGNMENTS", {})
        log = tmp_path / "passes"
        original = ring_mod.HashRing._route

        def logged(self, total_pages):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(self, total_pages)

        monkeypatch.setattr(ring_mod.HashRing, "_route", logged)
        fleet = run_fleet(SPEC, jobs=jobs)
        assert fleet.jobs == jobs
        assert log.read_text().split() == [str(os.getpid())]
