"""Regression tests for the OOB-replay trim boundary (faults/recovery.py).

The replay drops an LPN's newest copy when ``trims[lpn] >= seq``.  On a
well-formed journal the two records can never carry *equal* sequence
numbers (``_oob_seq`` is one monotonic clock shared by page and trim
records), so the boundary only matters for adjacent seqs — and, on a
malformed journal, for the tie itself, where trim-wins is the fail-safe
direction (never resurrect possibly-discarded data).
"""

import pytest

from repro.core.hashing import fingerprint_of_value as fp
from repro.faults.recovery import rebuild_mapping
from repro.ftl.ftl import BaseFTL


class TestAdjacentSequences:
    def test_trim_immediately_after_write_drops_lpn(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ftl.write(4, fp(1))          # page record at seq s
        ftl.trim(4)                  # trim record at seq s+1
        rebuilt = rebuild_mapping(ftl)
        assert rebuilt.lookup(4) is None

    def test_write_immediately_after_trim_survives(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ftl.write(4, fp(1))
        ftl.trim(4)                  # trim at seq s
        outcome = ftl.write(4, fp(2))  # page record at seq s+1
        rebuilt = rebuild_mapping(ftl)
        assert rebuilt.lookup(4) == outcome.program_ppn

    def test_trim_write_trim_chain(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ftl.write(7, fp(1))
        ftl.trim(7)
        ftl.write(7, fp(2))
        ftl.trim(7)
        assert rebuild_mapping(ftl).lookup(7) is None

    def test_replay_matches_live_table(self, tiny_config):
        """The full-journal promise the checker audits continuously."""
        ftl = BaseFTL(tiny_config)
        for i in range(120):
            ftl.write(i % 10, fp(i))
            if i % 7 == 0:
                ftl.trim((i + 3) % 10)
        assert (
            rebuild_mapping(ftl).forward_items()
            == ftl.mapping.forward_items()
        )


class TestEqualSequenceTieBreak:
    def test_forged_tie_drops_the_copy(self, tiny_config):
        """Equal seqs are unreachable on a well-formed journal; when
        forged, the copy must lose (trim wins ties — fail safe)."""
        ftl = BaseFTL(tiny_config)
        ftl.write(5, fp(1))
        ppn = ftl.mapping.lookup(5)
        _, seq = dict(ftl.oob_records())[ppn]
        ftl._oob_trims[5] = seq      # malformed: same clock value
        assert rebuild_mapping(ftl).lookup(5) is None

    def test_older_trim_does_not_drop_newer_copy(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ftl.write(5, fp(1))
        ppn = ftl.mapping.lookup(5)
        _, seq = dict(ftl.oob_records())[ppn]
        ftl._oob_trims[5] = seq - 1  # trim strictly older than the copy
        assert rebuild_mapping(ftl).lookup(5) == ppn
