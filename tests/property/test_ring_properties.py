"""Property tests for the fleet's consistent-hash ring.

The load-bearing property is *stability*: growing a fleet from N to N+1
shards must move only about K/N of K keys (the slices the new shard's
virtual nodes carve out) and never reroute a key between two shards that
existed in both rings.  A naive ``lpn % N`` router moves ~(N-1)/N of the
keys on every resize — exactly what consistent hashing exists to avoid.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import HashRing


class TestDeterminism:
    def test_routing_is_stable_across_instances(self):
        a = HashRing(5)
        b = HashRing(5)
        assert [a.shard_of(k) for k in range(2000)] == [
            b.shard_of(k) for k in range(2000)
        ]

    def test_seed_changes_routing(self):
        a = HashRing(5, seed=0)
        b = HashRing(5, seed=1)
        assert [a.shard_of(k) for k in range(500)] != [
            b.shard_of(k) for k in range(500)
        ]

    def test_every_shard_owns_keys(self):
        ring = HashRing(8)
        owners = set(ring.assignments(4000))
        assert owners == set(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(4, replicas=0)


class TestStability:
    """Changing the shard count moves ~K/N keys, not ~K."""

    @settings(max_examples=20, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_grow_by_one_moves_about_one_nth(self, shards, seed):
        keys = 6000
        before = HashRing(shards, seed=seed).assignments(keys)
        after = HashRing(shards + 1, seed=seed).assignments(keys)
        moved = sum(1 for b, a in zip(before, after) if b != a)
        expected = keys / (shards + 1)
        # Virtual-node placement is random-ish, so allow generous slack
        # around the ideal 1/(N+1) share — but far below the ~100% a
        # modulo router would move.
        assert moved < 3.0 * expected
        assert moved > 0.2 * expected

    @settings(max_examples=20, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_moved_keys_only_move_to_the_new_shard(self, shards, seed):
        keys = 3000
        before = HashRing(shards, seed=seed).assignments(keys)
        after = HashRing(shards + 1, seed=seed).assignments(keys)
        for b, a in zip(before, after):
            if b != a:
                # A key that moved must have moved to the newly added
                # shard; keys never shuffle between surviving shards.
                assert a == shards


class TestBalance:
    def test_virtual_nodes_smooth_the_split(self):
        ring = HashRing(4, replicas=64)
        counts = collections.Counter(ring.assignments(20_000))
        mean = 20_000 / 4
        for shard, count in counts.items():
            assert 0.5 * mean < count < 1.6 * mean, (
                f"shard {shard} owns {count} of 20000 keys"
            )

    def test_more_replicas_balance_at_least_roughly_as_well(self):
        def spread(replicas):
            ring = HashRing(4, replicas=replicas)
            counts = collections.Counter(ring.assignments(8000))
            return max(counts.values()) - min(counts.values())

        # Not strictly monotone per-seed, but 256 replicas should never
        # be wildly worse than 4.
        assert spread(256) < 2 * spread(4) + 800


class TestAssignmentsPass:
    """The hoisted ring pass is ``shard_of`` for every page, memoised."""

    @settings(max_examples=30, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=9),
        replicas=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**40),
        total_pages=st.integers(min_value=0, max_value=1500),
    )
    def test_pass_equals_shard_of_for_every_lpn(
        self, shards, replicas, seed, total_pages
    ):
        ring = HashRing(shards, replicas=replicas, seed=seed)
        owners = ring.assignments(total_pages)
        assert owners == tuple(ring.shard_of(lpn) for lpn in range(total_pages))

    def test_memo_shares_one_immutable_tuple(self):
        owners = HashRing(3, seed=11).assignments(700)
        assert isinstance(owners, tuple)
        assert HashRing(3, seed=11).assignments(700) is owners
        assert HashRing(3, seed=12).assignments(700) != owners
