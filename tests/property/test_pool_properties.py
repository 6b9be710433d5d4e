"""Property-based tests for all dead-value pool variants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveMQDeadValuePool
from repro.core.dvp import (
    InfiniteDeadValuePool,
    LBARecencyPool,
    LRUDeadValuePool,
    MQDeadValuePool,
)
from repro.core.hashing import fingerprint_of_value as fp


POOL_FACTORIES = {
    "lru": lambda: LRUDeadValuePool(8),
    "mq": lambda: MQDeadValuePool(8),
    "lba": lambda: LBARecencyPool(8),
    "infinite": InfiniteDeadValuePool,
}

# An operation stream: (op, value, ppn/lpn payload)
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "discard"]),
        st.integers(min_value=0, max_value=15),   # value id
        st.integers(min_value=0, max_value=30),   # lpn
    ),
    max_size=120,
)


def run_ops(pool, operations, shadow=None, after_op=None):
    """Drive a pool with an op stream, mirroring FTL usage patterns.

    Maintains the ground truth: the set of (value, ppn) pairs that are
    currently dead and tracked nowhere else.  Returns the shadow dict
    value -> set of live-in-pool ppns according to pool responses.
    ``after_op(shadow)`` runs after every op; a ``clear`` op is a power
    loss (``clear_volatile``).
    """
    shadow = {} if shadow is None else shadow
    next_ppn = 0
    now = 0
    for op, value, lpn in operations:
        now += 1
        if op == "insert":
            # Shadowed first: an adaptive pool may drop it before returning.
            shadow.setdefault(value, set()).add(next_ppn)
            dropped = pool.insert_garbage(
                fp(value), next_ppn, now, popularity=value + 1, lpn=lpn
            )
            for d in dropped:
                for ppns in shadow.values():
                    ppns.discard(d)
            next_ppn += 1
        elif op == "lookup":
            hit = pool.lookup_for_write(fp(value), now)
            if hit is not None:
                assert hit in shadow.get(value, set()), (
                    "pool returned a PPN never inserted for this value"
                )
                shadow[value].discard(hit)
        elif op == "clear":
            pool.clear_volatile()
            shadow.clear()
        else:  # discard
            ppns = shadow.get(value, set())
            if ppns:
                target = next(iter(ppns))
                if pool.discard_ppn(fp(value), target):
                    ppns.discard(target)
        if after_op is not None:
            after_op(shadow)
    return shadow


@given(operations=ops)
@settings(max_examples=60)
def test_lru_pool_sound(operations):
    run_ops(LRUDeadValuePool(8), operations)


@given(operations=ops)
@settings(max_examples=60)
def test_mq_pool_sound(operations):
    run_ops(MQDeadValuePool(8), operations)


@given(operations=ops)
@settings(max_examples=60)
def test_lba_pool_sound(operations):
    run_ops(LBARecencyPool(8), operations)


@given(operations=ops)
@settings(max_examples=60)
def test_infinite_pool_exact(operations):
    """The infinite pool tracks the shadow state *exactly*: a lookup hits
    iff the shadow has a dead copy."""
    pool = InfiniteDeadValuePool()
    shadow = {}
    next_ppn = 0
    now = 0
    for op, value, lpn in operations:
        now += 1
        if op == "insert":
            pool.insert_garbage(fp(value), next_ppn, now, lpn=lpn)
            shadow.setdefault(value, set()).add(next_ppn)
            next_ppn += 1
        elif op == "lookup":
            hit = pool.lookup_for_write(fp(value), now)
            if shadow.get(value):
                assert hit in shadow[value]
                shadow[value].discard(hit)
            else:
                assert hit is None
        else:
            ppns = shadow.get(value, set())
            if ppns:
                target = next(iter(ppns))
                assert pool.discard_ppn(fp(value), target)
                ppns.discard(target)
    assert pool.tracked_ppn_count() == sum(len(s) for s in shadow.values())


@given(operations=ops)
@settings(max_examples=60)
def test_bounded_pools_never_exceed_capacity(operations):
    for name, factory in POOL_FACTORIES.items():
        if name == "infinite":
            continue
        pool = factory()
        run_ops(pool, operations)
        assert len(pool) <= 8


@given(operations=ops)
@settings(max_examples=60)
def test_stats_identities(operations):
    pool = MQDeadValuePool(8)
    run_ops(pool, operations)
    stats = pool.stats
    assert stats.hits + stats.misses == stats.lookups
    assert stats.hits <= stats.insertions


class _DropShadow:
    """Stands in for the FTL's garbage-popularity table, which a pool
    tells about PPNs it drops outside ``insert_garbage`` (adaptive
    shrinks): each one leaves the shadow too."""

    def __init__(self, shadow):
        self.shadow = shadow

    def drop(self, ppn):
        for ppns in self.shadow.values():
            ppns.discard(ppn)


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "lookup", "discard", "clear"]),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=60,
        max_size=160,
    ),
    adaptive=st.booleans(),
)
@settings(max_examples=80)
def test_mq_tracked_ppn_count_follows_the_shadow(operations, adaptive):
    """The MQ pool keeps ``tracked_ppn_count`` as a running total; after
    every op it equals the shadow's PPNs and a walk of the pool, through
    evictions, power loss and an adaptive pool's grows and shrinks."""
    shadow = {}
    if adaptive:
        # A shrink evicts only when occupancy sits between the new
        # capacity and the slack threshold: make that band wide.
        pool = AdaptiveMQDeadValuePool(
            8, min_entries=2, max_entries=32, window=4, grow_factor=2.0,
            slack_threshold=0.95,
        )
        pool.garbage_pop = _DropShadow(shadow)
    else:
        pool = MQDeadValuePool(8)

    def agrees(shadow):
        count = pool.tracked_ppn_count()
        assert count == sum(len(ppns) for ppns in shadow.values())
        assert count == sum(1 for _ in pool.tracked_items())

    run_ops(pool, operations, shadow, agrees)
