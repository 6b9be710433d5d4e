"""Synthetic trace goldens at small scale, and the cached legacy ranker.

``generate_trace`` is a tuned hot loop: its draw helpers and
``expovariate`` are inlined, its Zipf ranks come from
``zipf_legacy_ranker`` and it fills four columns instead of building
request records.  None of that may change a trace.  The digests below
were minted on the generator before it was flattened (three ``_draw_*``
helpers, ``rng.expovariate``, ``zipf_rank_legacy`` per draw, one record
per request) and each must reproduce byte-for-byte from the columns:
every request's arrival time (as its exact float hex), op, LPN and value
id.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.profiles import PROFILES
from repro.traces.synthetic import generate_trace
from repro.traces.zipf import zipf_legacy_ranker, zipf_rank_legacy

GOLDEN_SCALE = 0.02

#: Profile name -> SHA-256 over the trace at ``GOLDEN_SCALE``.
TRACE_GOLDEN = {
    "desktop":
        "8585c1677a21e1909dbcd730ba835dcd79bb628e8db990aeed0b3e9c397817c7",
    "hadoop":
        "f9feca4b66f069544b821eff380b71b682cfc7fc9d4d932f359418e6c1191ba2",
    "home":
        "75b767780ee5a185c1f4852252e7d0210b5c8a5c59664302214b2bc866964345",
    "mail":
        "5316a802fe403f11c3e573bd95d829c86222db5b344649166a413e9c439177fd",
    "trans":
        "d459e4c63776c38e848a336befd2da8ce511b9802b950eba41c449b3c26dccf2",
    "web":
        "5bad160288c4b11e95498ff0586303360f6e71b9462a64efb7c25d7f878cc2df",
}

#: mail with scan bursts switched on (no block profile sets them).
SCAN_GOLDEN = (
    "d4b65eae015d92699ba88c2fe76ded4f1d699e239602ea02483fb0ddc41a3077"
)


def trace_digest(profile) -> str:
    digest = hashlib.sha256()
    for arrival_us, op, lpn, value_id in generate_trace(profile).rows():
        digest.update(repr((
            arrival_us.hex(), op.value, lpn, value_id,
        )).encode("ascii"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_matches_golden(name):
    profile = PROFILES[name].scaled(GOLDEN_SCALE)
    assert trace_digest(profile) == TRACE_GOLDEN[name]


def test_scan_burst_trace_matches_golden():
    profile = replace(
        PROFILES["mail"].scaled(GOLDEN_SCALE),
        scan_every_writes=500, scan_length=64,
    )
    assert trace_digest(profile) == SCAN_GOLDEN


class TestZipfLegacyRanker:
    """``zipf_legacy_ranker(rng, s)(n)`` is ``zipf_rank_legacy(rng, n, s)``,
    draw for draw."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        s=st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.0 + 1e-12, 1.15, 1.55]),
        # Runs of one n (the cached term) and changes of n, including the
        # n == 1 case that consumes no randomness.
        ns=st.lists(
            st.tuples(st.integers(min_value=1, max_value=10**6),
                      st.integers(min_value=1, max_value=5)),
            min_size=1, max_size=30,
        ),
    )
    def test_matches_zipf_rank_legacy(self, seed, s, ns):
        cached, reference = random.Random(seed), random.Random(seed)
        draw = zipf_legacy_ranker(cached, s)
        for n, repeats in ns:
            for _ in range(repeats):
                assert draw(n) == zipf_rank_legacy(reference, n, s)
        assert cached.getstate() == reference.getstate()

    @pytest.mark.parametrize("s", [1.0, 1.15])
    def test_n_one_consumes_nothing(self, s):
        cached, reference = random.Random(5), random.Random(5)
        draw = zipf_legacy_ranker(cached, s)
        assert [draw(1) for _ in range(4)] == [1, 1, 1, 1]
        assert draw(7) == zipf_rank_legacy(reference, 7, s)
        assert draw(1) == 1
        assert cached.getstate() == reference.getstate()

    @pytest.mark.parametrize("s", [1.0, 1.15])
    def test_invalid_n(self, s):
        for first in (True, False):
            draw = zipf_legacy_ranker(random.Random(1), s)
            if not first:
                assert draw(3) >= 1
            for n in (0, -1):
                with pytest.raises(ValueError):
                    draw(n)
