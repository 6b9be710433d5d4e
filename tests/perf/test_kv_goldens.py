"""KV goldens at small scale: every zoo workload end to end.

The KV front end (``KVStore.translate``, the zoo generators, the inline
packer's page identities) and ``BaseFTL.trim`` are tuned hot paths; none
may change a simulator decision.  The digests and store counters below
were minted before the flat ``translate`` loop, the table-driven zoo
draws, the per-slot pack terms and the fused trim, and each must
reproduce byte-for-byte.  ``kv_result_digest`` already covers the
counters; pinning them too makes a drift readable.
"""

import pytest

from repro.kv import KVSpec, execute_kv_spec

GOLDEN_SCALE = 0.2

#: ``kv_counters`` keys, in the order the tuples below list them.
COUNTER_KEYS = (
    "gets", "get_misses", "buffer_hits", "puts", "inserts", "deletes",
    "delete_misses", "scans", "scanned_keys", "flash_reads", "flash_writes",
    "flash_trims", "pack_seals", "pack_repacks", "pack_trims", "inline_live",
    "extent_live",
)

#: ``"workload/system"`` -> (digest, counters in COUNTER_KEYS order).
KV_GOLDEN = {
    "ycsb-a/mq-dvp": (
        "7c30aa691d380f296af66501f7551262"
        "1756642167bd580ac6c758f79559ec86",
        (1759, 0, 97, 1841, 0, 0, 0, 0, 0,
         2153, 950, 820, 342, 295, 307, 472, 128),
    ),
    "ycsb-a/baseline": (
        "1eb3c69418c465a1fda552909658766d"
        "e4792bb24a274203a837f0d2055ded67",
        (1759, 0, 97, 1841, 0, 0, 0, 0, 0,
         2153, 950, 820, 342, 295, 307, 472, 128),
    ),
    "ycsb-b/mq-dvp": (
        "8a8b5e065ddf6bae22ba09ba980f823e"
        "3d2468be45386f1cb32d3f9b48574a81",
        (3419, 0, 318, 181, 0, 0, 0, 0, 0,
         3581, 79, 63, 23, 6, 7, 476, 124),
    ),
    "ycsb-b/baseline": (
        "4a248bc602bf64d13efd5611de0650de"
        "624224f1db05137e2354a889bab75072",
        (3419, 0, 318, 181, 0, 0, 0, 0, 0,
         3581, 79, 63, 23, 6, 7, 476, 124),
    ),
    "ycsb-c/mq-dvp": (
        "cb62b92974cc93a6162770532a6715d1"
        "0095a12b9d80172437a9ddf2bb6da285",
        (3600, 0, 0, 0, 0, 0, 0, 0, 0,
         3820, 0, 0, 0, 0, 0, 473, 127),
    ),
    "ycsb-c/baseline": (
        "96c5554f5169e5c1aca5a91359dc35aa"
        "0fcd3ba7b5a858e4cff0a07f4dcdfb58",
        (3600, 0, 0, 0, 0, 0, 0, 0, 0,
         3820, 0, 0, 0, 0, 0, 473, 127),
    ),
    "ycsb-d/mq-dvp": (
        "e1d6506b561a17e99bb4504749c22bfd"
        "e474750086bcf5a870bcbb36b646662c",
        (3443, 0, 670, 157, 157, 0, 0, 0, 0,
         3041, 61, 0, 25, 0, 0, 619, 138),
    ),
    "ycsb-d/baseline": (
        "3ade51a098757038230e0dc493257689"
        "8023f8b77c9082c012f2859a8512d450",
        (3443, 0, 670, 157, 157, 0, 0, 0, 0,
         3041, 61, 0, 25, 0, 0, 619, 138),
    ),
    "ycsb-e/mq-dvp": (
        "af5c63cd387a7e1315f6bd78eedfc9c7"
        "488536b21daf0f5e0c6481742a1ea201",
        (0, 0, 24, 179, 179, 0, 0, 3421, 43289,
         47877, 72, 0, 28, 0, 0, 627, 152),
    ),
    "ycsb-e/baseline": (
        "951355c49be58a1aaa57ecca82a32950"
        "fda6c51beb05520189a1d4bff4de3965",
        (0, 0, 24, 179, 179, 0, 0, 3421, 43289,
         47877, 72, 0, 28, 0, 0, 627, 152),
    ),
    "trim-heavy/mq-dvp": (
        "e4942101660a6761f02828265624df5a"
        "c72ac777315f1b6ada2c7c1d7d3c53de",
        (1050, 0, 46, 1281, 1281, 1269, 0, 0, 0,
         1222, 389, 347, 271, 218, 225, 553, 59),
    ),
    "trim-heavy/baseline": (
        "0fd07a8e1fb1e71f4d00e522300686c2"
        "fb0aed9f60a949138a71ed3567333546",
        (1050, 0, 46, 1281, 1281, 1269, 0, 0, 0,
         1222, 389, 347, 271, 218, 225, 553, 59),
    ),
    "diurnal/mq-dvp": (
        "d2ca21cb68d137bf44fb9d20a64a711c"
        "475c65e456c1b347843adea768cadd74",
        (1871, 0, 109, 2104, 189, 225, 0, 0, 0,
         2274, 1005, 920, 394, 344, 354, 556, 128),
    ),
    "diurnal/baseline": (
        "26f0642c3fedbc569e3ea2add5da6138"
        "7dfdf3a2fb5cd2d9a7265229a68a9231",
        (1871, 0, 109, 2104, 189, 225, 0, 0, 0,
         2274, 1005, 920, 394, 344, 354, 556, 128),
    ),
    "ycsb-a/dftl-mq-dvp": (
        "9ff7bb14f835b8340e2aefad52c89d2e"
        "f94d734c25f3e9bf9b4f553652658e95",
        (1759, 0, 97, 1841, 0, 0, 0, 0, 0,
         2153, 950, 820, 342, 295, 307, 472, 128),
    ),
}


@pytest.mark.kv_smoke
@pytest.mark.parametrize("cell", sorted(KV_GOLDEN))
def test_kv_golden(cell):
    workload, system = cell.split("/")
    kv = execute_kv_spec(
        KVSpec(workload=workload, system=system, scale=GOLDEN_SCALE)
    )
    digest, counters = KV_GOLDEN[cell]
    assert tuple(kv.kv_counters) == COUNTER_KEYS
    assert tuple(kv.kv_counters.values()) == counters
    assert kv.digest == digest
