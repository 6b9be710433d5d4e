"""Property-based tests for the Multi-Queue algorithm."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.mq import MQEntry, MultiQueue, queue_index_for_popularity


@given(
    popularity=st.integers(min_value=0, max_value=10**6),
    num_queues=st.integers(min_value=1, max_value=16),
)
def test_queue_index_always_in_range(popularity, num_queues):
    index = queue_index_for_popularity(popularity, num_queues)
    assert 0 <= index < num_queues


@given(
    pops=st.lists(st.integers(min_value=0, max_value=300), min_size=2),
)
def test_queue_index_monotone_in_popularity(pops):
    """More popular never means a lower target queue."""
    ordered = sorted(pops)
    indexes = [queue_index_for_popularity(p, 8) for p in ordered]
    assert indexes == sorted(indexes)


class MQMachine(RuleBasedStateMachine):
    """Random insert/access/remove/evict/resize sequences keep MQ consistent."""

    def __init__(self):
        super().__init__()
        self.mq = MultiQueue(capacity=8, num_queues=4)
        self.now = 0
        self.resident = set()

    keys = st.integers(min_value=0, max_value=20)

    @rule(key=keys)
    def insert_or_access(self, key):
        self.now += 1
        if key in self.mq:
            self.mq.access(key, self.now)
        else:
            evicted = self.mq.insert(key, f"payload-{key}", self.now)
            if evicted is not None:
                self.resident.discard(evicted[0])
            self.resident.add(key)

    @rule(key=keys)
    def remove(self, key):
        payload = self.mq.remove(key)
        if payload is not None:
            self.resident.discard(key)

    @rule()
    def evict(self):
        evicted = self.mq.evict_one()
        if evicted is not None:
            self.resident.discard(evicted[0])

    @rule(key=keys, popularity=st.integers(min_value=0, max_value=255))
    def restore_popularity(self, key, popularity):
        self.now += 1
        if key in self.mq:
            self.mq.set_popularity(key, popularity, self.now)

    @rule(capacity=st.integers(min_value=1, max_value=16))
    def resize(self, capacity):
        for key, _payload in self.mq.set_capacity(capacity):
            self.resident.discard(key)

    @invariant()
    def capacity_respected(self):
        assert len(self.mq) <= self.mq.capacity

    @invariant()
    def internal_consistency(self):
        self.mq.check_invariants()

    @invariant()
    def shadow_set_matches(self):
        assert self.resident == {
            k for q in range(4) for k in self.mq.keys_in_queue(q)
        }


TestMQMachine = MQMachine.TestCase
TestMQMachine.settings = settings(max_examples=40, stateful_step_count=60)


class ReferenceMQ:
    """The multi-queue without a head cache: every update scans the head
    of every queue, and the hottest entry is tracked by key equality."""

    def __init__(self, capacity, num_queues, default_lifetime):
        self.capacity = capacity
        self.num_queues = num_queues
        self.queues = [OrderedDict() for _ in range(num_queues)]
        self.entries = {}
        self.hottest_key = None
        self.hottest_interval = default_lifetime
        self.promotions = self.demotions = self.evictions = 0

    def insert(self, key, payload, now, popularity=1):
        evicted = None
        if len(self.entries) >= self.capacity:
            evicted = self.evict_one()
        entry = MQEntry(payload, max(1, popularity), 0, last_access=now)
        entry.expire_time = now + self.hottest_interval
        self.entries[key] = entry
        self.queues[0][key] = None
        self._touch(key, entry, now)
        return evicted

    def access(self, key, now):
        entry = self.entries.get(key)
        if entry is None:
            return None
        entry.popularity += 1
        target = queue_index_for_popularity(entry.popularity, self.num_queues)
        del self.queues[entry.queue_index][key]
        if target > entry.queue_index:
            entry.queue_index += 1
            self.promotions += 1
        self.queues[entry.queue_index][key] = None
        entry.prev_access, entry.last_access = entry.last_access, now
        entry.expire_time = now + self.hottest_interval
        self._touch(key, entry, now)
        return entry.payload

    def set_popularity(self, key, popularity, now):
        entry = self.entries[key]
        entry.popularity = max(1, popularity)
        target = queue_index_for_popularity(entry.popularity, self.num_queues)
        del self.queues[entry.queue_index][key]
        if target > entry.queue_index:
            self.promotions += 1
        elif target < entry.queue_index:
            self.demotions += 1
        entry.queue_index = target
        self.queues[target][key] = None
        entry.expire_time = now + self.hottest_interval
        self._touch(key, entry, now)

    def _touch(self, key, entry, now):
        hottest = self.entries.get(self.hottest_key)
        if hottest is None or entry.popularity >= hottest.popularity:
            self.hottest_key = key
        if key == self.hottest_key and entry.prev_access >= 0:
            if entry.last_access - entry.prev_access > 0:
                self.hottest_interval = entry.last_access - entry.prev_access
        for index in range(1, self.num_queues):
            queue = self.queues[index]
            if not queue:
                continue
            head = next(iter(queue))
            entry = self.entries[head]
            if entry.expire_time <= now:
                del queue[head]
                entry.queue_index = index - 1
                self.queues[index - 1][head] = None
                entry.expire_time = now + self.hottest_interval
                self.demotions += 1

    def evict_one(self):
        for queue in self.queues:
            if queue:
                key, _ = queue.popitem(last=False)
                entry = self.entries.pop(key)
                if key == self.hottest_key:
                    self.hottest_key = None
                self.evictions += 1
                return key, entry.payload
        return None

    def remove(self, key):
        entry = self.entries.pop(key, None)
        if entry is None:
            return None
        del self.queues[entry.queue_index][key]
        if key == self.hottest_key:
            self.hottest_key = None
        return entry.payload

    def set_capacity(self, capacity):
        self.capacity = capacity
        evicted = []
        while len(self.entries) > self.capacity:
            evicted.append(self.evict_one())
        return evicted


class MQReferenceMachine(RuleBasedStateMachine):
    """The head-cached MultiQueue against :class:`ReferenceMQ`: the same
    ops, with clock jumps and short lifetimes so heads expire often, leave
    identical queues, counters and hottest interval after every op."""

    keys = st.integers(min_value=0, max_value=24)

    @initialize(
        capacity=st.integers(min_value=1, max_value=12),
        num_queues=st.integers(min_value=1, max_value=8),
        lifetime=st.integers(min_value=1, max_value=16),
    )
    def build(self, capacity, num_queues, lifetime):
        self.mq = MultiQueue(capacity, num_queues, default_lifetime=lifetime)
        self.ref = ReferenceMQ(capacity, num_queues, lifetime)
        self.now = 0

    def tick(self, jump):
        self.now += jump
        return self.now

    @rule(key=keys, jump=st.integers(min_value=1, max_value=20))
    def insert_or_access(self, key, jump):
        now = self.tick(jump)
        if key in self.mq:
            assert self.mq.access(key, now) == self.ref.access(key, now)
        else:
            payload = f"payload-{key}"
            assert self.mq.insert(key, payload, now) == self.ref.insert(
                key, payload, now
            )

    @rule(key=keys, jump=st.integers(min_value=1, max_value=20),
          popularity=st.integers(min_value=0, max_value=255))
    def insert_popular(self, key, jump, popularity):
        if key not in self.mq:
            now = self.tick(jump)
            payload = f"payload-{key}"
            assert self.mq.insert(key, payload, now, popularity) == (
                self.ref.insert(key, payload, now, popularity)
            )

    @precondition(lambda self: len(self.mq) > 0)
    @rule(data=st.data(), jump=st.integers(min_value=0, max_value=20),
          popularity=st.integers(min_value=0, max_value=255))
    def restore_popularity(self, data, jump, popularity):
        key = data.draw(st.sampled_from(sorted(self.ref.entries)))
        now = self.tick(jump)
        self.mq.set_popularity(key, popularity, now)
        self.ref.set_popularity(key, popularity, now)

    @rule(key=keys)
    def remove(self, key):
        assert self.mq.remove(key) == self.ref.remove(key)

    @rule()
    def evict(self):
        assert self.mq.evict_one() == self.ref.evict_one()

    @rule(capacity=st.integers(min_value=1, max_value=16))
    def resize(self, capacity):
        assert self.mq.set_capacity(capacity) == self.ref.set_capacity(
            capacity
        )

    @invariant()
    def matches_reference(self):
        mq, ref = self.mq, self.ref
        assert [mq.keys_in_queue(i) for i in range(mq.num_queues)] == [
            list(queue) for queue in ref.queues
        ]
        assert (mq.promotions, mq.demotions, mq.evictions) == (
            ref.promotions, ref.demotions, ref.evictions
        )
        assert mq.hottest_interval == ref.hottest_interval
        for key, entry in ref.entries.items():
            assert mq.entry(key) == entry
        mq.check_invariants()


TestMQReference = MQReferenceMachine.TestCase
TestMQReference.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
