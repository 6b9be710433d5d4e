"""Preconditioning and fleet goldens at small scale.

Bulk preconditioning (``BaseFTL.preload``), the once-per-fleet ring pass
and the direct chunked shard routing must change no simulator decision.
The digests below were minted before those three changes, with the
per-page ``write`` loop in ``prefill``/``Device.precondition_pages``, the
per-shard ring pass and ``dataclasses.replace`` routing.  Each must
reproduce byte-for-byte.

``ftl_state_digest`` hashes the post-prefill FTL tables directly, so a
drift in preconditioning is caught before replay could mask it.
"""

import hashlib

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.runner import ExperimentContext, prefill, run_system
from repro.fleet import FleetSpec, run_fleet
from repro.ftl.dvp_ftl import build_system
from repro.perf.spec import result_digest

PREFILL_SCALE = 0.02

FLEETS = {
    "mail/mq-dvp/4": FleetSpec("mail", "mq-dvp", shards=4, scale=0.02),
    "web/baseline/3": FleetSpec("web", "baseline", shards=3, scale=0.02),
    "desktop/dedup/2": FleetSpec("desktop", "dedup", shards=2, scale=0.02),
    "mail/adaptive-dvp/2/shared": FleetSpec(
        "mail", "adaptive-dvp", shards=2, scale=0.02, pool_mode="shared"
    ),
}

PREFILL_SYSTEMS = (
    "baseline", "mq-dvp", "lxssd", "adaptive-dvp", "dedup", "dftl-mq-dvp",
)

RUN_SYSTEMS = ("baseline", "mq-dvp", "adaptive-dvp", "dftl-mq-dvp")


def ftl_state_digest(ftl) -> str:
    """SHA-256 over every table preconditioning writes, in order."""
    mapping = ftl.mapping
    allocator = ftl.allocator
    pool = ftl.pool
    parts = [
        ftl.counters,
        ftl.write_clock,
        list(mapping._l2p),
        list(mapping._owner),
        bytes(mapping._pop),
        mapping._mapped,
        [
            (bytes(b.states), b.write_pointer, b.valid_count,
             b.invalid_count, b.erase_count)
            for b in ftl.array.blocks
        ],
        list(allocator._active),
        [list(q) for q in allocator.free_blocks],
        allocator.plane_of_next_write(),
        list(ftl.oob_records()),
        ftl._oob_seq,
        sorted((ppn, int(fp)) for ppn, fp in ftl._ppn_fp.items()),
        [(int(fp), pop) for fp, pop in ftl._write_popularity.items()],
    ]
    if pool is not None:
        parts.append(len(pool))
        parts.append(getattr(pool, "_window_events", None))
    return hashlib.sha256(repr(parts).encode("ascii")).hexdigest()


#: Minted on the commit before bulk preconditioning and one-pass routing.
FLEET_GOLDEN = {
    "mail/mq-dvp/4":
        "fb0db976ebd130bddbc84848ef340c6626af6103fe2d52f55c803b1a5dcc8200",
    "web/baseline/3":
        "32dd9cf895d3037ad32a70fd45549dc2b6c0cb550cd179d462da4b2b5bee84d8",
    "desktop/dedup/2":
        "628dffee9efb43246793ab6fa7d92e0546979a507681ff0ef551ed9ea8e25440",
    "mail/adaptive-dvp/2/shared":
        "2c8c70c95e01d02b5190c70b8f2c713082f2af1d0799054a5351dfe2a24a596c",
}

PREFILL_GOLDEN = {
    "baseline":
        "8b508de6e32466ceb26031f739a8ff2e15160063f611643df24edafa01995f2e",
    "mq-dvp":
        "d3dbf75acc235502a755791804a60d8baeba89291fa991b48abcabc816b9f0fc",
    "lxssd":
        "d3dbf75acc235502a755791804a60d8baeba89291fa991b48abcabc816b9f0fc",
    "adaptive-dvp":
        "44cc75dd6d9cb851c89bb8a5a6568f7cecce68ec9a4cef6868d3eea5a8f4a833",
    "dedup":
        "8b508de6e32466ceb26031f739a8ff2e15160063f611643df24edafa01995f2e",
    "dftl-mq-dvp":
        "d3dbf75acc235502a755791804a60d8baeba89291fa991b48abcabc816b9f0fc",
}

RUN_GOLDEN = {
    "baseline":
        "642503affd6ffd1e61772e9edd208d5851024d01471304d632cacb73c5cade89",
    "mq-dvp":
        "887bac9b6a85be85344a6f68bf679e39c591dab21eae875580f8c944b8be6e22",
    "adaptive-dvp":
        "f1b39cbf34f39978a31c8084a347645b4fb556a26f9e91606f6ea3c640955a23",
    "dftl-mq-dvp":
        "6d3c0097dee908c2e4b816bcf0bc29a2f8563f8a33134f797d8238e9fb5f3a45",
}


@pytest.mark.fleet_smoke
@pytest.mark.parametrize("name", sorted(FLEETS))
def test_fleet_digest_matches_golden(name):
    assert run_fleet(FLEETS[name], jobs=1).fleet_digest == FLEET_GOLDEN[name]


@pytest.mark.parametrize("system", PREFILL_SYSTEMS)
def test_prefill_state_matches_golden(system):
    context = ExperimentContext.for_workload("mail", PREFILL_SCALE)
    ftl = build_system(system, context.config, 64)
    assert prefill(ftl, context.profile) == context.profile.total_pages
    assert ftl_state_digest(ftl) == PREFILL_GOLDEN[system]


@pytest.mark.parametrize("system", RUN_SYSTEMS)
def test_direct_prefill_run_matches_golden(system):
    context = ExperimentContext.for_workload("mail", PREFILL_SCALE)
    result = run_system(
        system, context,
        config=RunConfig(scale=PREFILL_SCALE, reuse_prefill=False),
    )
    assert result_digest(result) == RUN_GOLDEN[system]
