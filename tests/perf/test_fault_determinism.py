"""Fault-layer determinism: seeded faults are bit-identical across jobs,
fault-free runs are digest-identical to the pre-fault-layer build, and
crash recovery reconstructs the exact pre-crash mapping.

The ``GOLDEN`` digests below were minted on the commit *before* the fault
layer and RunConfig redesign existed (same scale, same workloads).  They
pin the hard compatibility contract of ISSUE 3: a run with
``faults=None`` must hash byte-for-byte like a build without
:mod:`repro.faults` at all.
"""

import pytest

from repro.experiments import RunConfig
from repro.experiments.runner import ExperimentContext, run_matrix, run_system
from repro.faults import FaultConfig
from repro.perf.spec import result_digest

SCALE = 0.004
WORKLOADS = ("web", "trans")
SYSTEMS = ("baseline", "mq-dvp")

#: Digests of fault-free runs recorded before repro.faults existed.
GOLDEN = {
    ("web", "baseline"): "c23c33db77812f500af4d3b4ac8e78b496d320b0635d33799007343d931e1b18",
    ("web", "mq-dvp"): "63fc3747bfb4186582efafb9fe7e8ccb66b54f58bf991735c28a4a40df18b959",
    ("web", "dedup"): "52bb4be4f5776ebf17e561a13d364a2f1b4fcac66152e8776c7423f35f80508a",
    ("trans", "baseline"): "8da8b6741b0c9ce7b2563a38f2c996c3c1c086dd10bad7c79baf1652d53e9804",
    ("trans", "mq-dvp"): "d8f8a4ccce8b00cacd3e99c46c60b733da49ffde61986391a039dc9a988ac04b",
    ("trans", "dedup"): "902e2058cd42417fdfc6e9b4fbe058a65e0b249c2d2d623d5726d633c6a2708c",
}

FAULTS = FaultConfig(
    seed=11,
    program_failure_prob=0.005,
    erase_failure_prob=0.01,
    read_error_prob=0.02,
)

#: Digests of ``FAULTS`` runs, minted while fault-injected writes and
#: trims still ran the FTL's per-call copy of the write path.
FAULTED_GOLDEN = {
    ("web", "baseline"): "387ac5c41a49e22ffc06700a0e00165e44a071c9ce9754cbcdc6c60be82a0cea",
    ("web", "mq-dvp"): "eed13c9572e8349dfbd7f0925a3d33159048267801e9ecbf27f3ec04b80f199a",
    ("web", "dedup"): "13e93c07d4254890d6b8df8e64deeaa5d70e58ebaad506803cf5f0a01ec15b70",
    ("trans", "baseline"): "995e3522461096833d9ea8a7d524cc5808bfd535877fa004be90dde93a1bc892",
    ("trans", "mq-dvp"): "cb4fc3b253078d579724856ec26d4928ca2887b10428d815fc78225f0d67c770",
    ("trans", "dedup"): "295a491995cb5bd64204dabd7b88367049dcaef89eb729a479f4c6512ab07633",
}


def _digests(results):
    return {
        (w, s): result_digest(results[w][s])
        for w in results
        for s in results[w]
    }


class TestFaultFreeCompatibility:
    @pytest.mark.parametrize("workload,system", sorted(GOLDEN))
    def test_disabled_faults_match_pre_fault_layer_digests(
        self, workload, system
    ):
        context = ExperimentContext.for_workload(workload, SCALE)
        result = run_system(system, context, config=RunConfig(scale=SCALE))
        assert result.fault_stats is None
        assert result_digest(result) == GOLDEN[(workload, system)]


class TestFaultDeterminism:
    @pytest.mark.parametrize("workload,system", sorted(FAULTED_GOLDEN))
    def test_faulted_digest_matches_golden(self, workload, system):
        context = ExperimentContext.for_workload(workload, SCALE)
        result = run_system(
            system, context, config=RunConfig(scale=SCALE, faults=FAULTS)
        )
        assert result.fault_stats["program_failures"] > 0
        assert result_digest(result) == FAULTED_GOLDEN[(workload, system)]

    def test_same_seed_same_digest_across_jobs(self):
        cfg = RunConfig(scale=SCALE, faults=FAULTS)
        serial = _digests(
            run_matrix(WORKLOADS, SYSTEMS, config=cfg.replace(jobs=1))
        )
        parallel = _digests(
            run_matrix(WORKLOADS, SYSTEMS, config=cfg.replace(jobs=8))
        )
        assert serial == parallel

    def test_faults_actually_fired(self):
        context = ExperimentContext.for_workload("web", SCALE)
        result = run_system(
            "mq-dvp", context, config=RunConfig(scale=SCALE, faults=FAULTS)
        )
        stats = result.fault_stats
        assert stats is not None
        assert stats["read_errors"] > 0

    def test_different_seed_different_digest(self):
        context = ExperimentContext.for_workload("web", SCALE)
        a = run_system(
            "mq-dvp", context, config=RunConfig(scale=SCALE, faults=FAULTS)
        )
        b = run_system(
            "mq-dvp",
            context,
            config=RunConfig(scale=SCALE, faults=FAULTS.with_seed(12)),
        )
        assert result_digest(a) != result_digest(b)


class TestCrashRecoveryDeterminism:
    CRASH = FaultConfig(seed=0, crash_after_requests=1000)
    #: web mq-dvp under ``CRASH``, minted on the per-request replay path.
    GOLDEN = "8f3567c57876ae93a75c1ade60fa1d6b82beca039c5ae5ebc5e269652a796c12"

    def test_crash_run_recovers_and_is_reproducible(self):
        context = ExperimentContext.for_workload("web", SCALE)
        cfg = RunConfig(scale=SCALE, faults=self.CRASH)
        # crash_and_recover verifies the rebuilt L2P against the pre-crash
        # table internally and raises RecoveryError on any difference, so
        # a completed run *is* the L2P-equality assertion.
        first = run_system("mq-dvp", context, config=cfg)
        second = run_system("mq-dvp", context, config=cfg)
        assert first.fault_stats["crashes"] == 1
        assert first.fault_stats["recoveries"] == 1
        assert first.fault_stats["mean_recovery_us"] > 0
        assert result_digest(first) == result_digest(second) == self.GOLDEN

    def test_crash_digest_stable_across_jobs(self):
        cfg = RunConfig(scale=SCALE, faults=self.CRASH)
        serial = _digests(
            run_matrix(["web"], ["mq-dvp"], config=cfg.replace(jobs=1))
        )
        parallel = _digests(
            run_matrix(["web"], ["mq-dvp"], config=cfg.replace(jobs=2))
        )
        assert serial == parallel
