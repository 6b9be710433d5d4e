"""Property tests for :class:`LatencyStats` and its incremental sort cache.

A random program interleaves ``record``, ``percentile``, ``mean``,
``maximum`` and ``merged_with`` over a small pool of stats objects and
checks every answer against a naive reference: plain lists of samples,
``sorted()`` for percentiles and ``sum()`` in arrival order for means.
Queries refresh a stats object's cache and later records make it stale
again, so merges regularly see one side (or both) with a stale cache.
Values are compared by their exact bits (``float.hex``), so ``0.0`` and
``-0.0`` ties must also land in the order a stable ``sorted()`` gives.
"""

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LatencySummary
from repro.sim.metrics import LatencyPair, LatencyStats

#: A few repeated values (including a signed-zero pair) make ties common.
latencies = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 100.0]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
slots = st.integers(min_value=0, max_value=7)
percentiles = st.one_of(
    st.sampled_from([50, 99, 100]),
    st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), slots, latencies),
        st.tuples(st.just("record_many"), slots,
                  st.lists(latencies, min_size=1, max_size=20)),
        st.tuples(st.just("percentile"), slots, percentiles),
        st.tuples(st.just("mean"), slots),
        st.tuples(st.just("maximum"), slots),
        st.tuples(st.just("merge"), slots, slots),
        st.tuples(st.just("pickle"), slots),
    ),
    max_size=80,
)


def bits(value):
    return float(value).hex()


def reference_percentile(samples, p):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def check_against(stats, samples):
    """Every query on ``stats`` equals the naive reference exactly."""
    assert stats.count == len(samples)
    assert [bits(x) for x in stats.samples] == [bits(x) for x in samples]
    expected_mean = sum(samples) / len(samples) if samples else 0.0
    assert bits(stats.mean) == bits(expected_mean)
    expected_max = max(samples) if samples else 0.0
    assert bits(stats.maximum) == bits(expected_max)
    for p in (1, 50, 99, 100):
        assert bits(stats.percentile(p)) == bits(reference_percentile(samples, p))


@given(program=operations)
@settings(max_examples=300, deadline=None)
def test_interleaved_operations_match_naive_reference(program):
    pool = [LatencyStats(), LatencyStats()]
    model = [[], []]

    def pick(slot):
        return slot % len(pool)

    for op in program:
        kind, slot = op[0], pick(op[1])
        stats, samples = pool[slot], model[slot]
        if kind == "record":
            stats.record(op[2])
            samples.append(op[2])
        elif kind == "record_many":
            for value in op[2]:
                stats.record(value)
            samples.extend(op[2])
        elif kind == "percentile":
            assert bits(stats.percentile(op[2])) == bits(
                reference_percentile(samples, op[2])
            )
        elif kind == "mean":
            expected = sum(samples) / len(samples) if samples else 0.0
            assert bits(stats.mean) == bits(expected)
        elif kind == "maximum":
            assert bits(stats.maximum) == bits(max(samples) if samples else 0.0)
        elif kind == "merge":
            other = pick(op[2])
            before = (list(samples), list(model[other]))
            pool.append(stats.merged_with(pool[other]))
            model.append(samples + model[other])
            # Merging never disturbs either parent.
            check_against(stats, before[0])
            check_against(pool[other], before[1])
        elif kind == "pickle":
            pool[slot] = pickle.loads(pickle.dumps(stats))
    for stats, samples in zip(pool, model):
        check_against(stats, samples)


@given(
    left=st.lists(latencies, max_size=40),
    right=st.lists(latencies, max_size=40),
    left_cached=st.integers(min_value=0, max_value=40),
    right_cached=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_merge_with_stale_caches_equals_sorted_concatenation(
    left, right, left_cached, right_cached
):
    """Each side's cache covers only a prefix of its samples (queried
    part-way through recording); the merge must still see every sample."""
    parts = []
    for values, cached in ((left, left_cached), (right, right_cached)):
        stats = LatencyStats()
        for index, value in enumerate(values):
            if index == cached:
                stats.percentile(50)  # the cache stops here
            stats.record(value)
        parts.append(stats)
    merged = parts[0].merged_with(parts[1])
    check_against(merged, left + right)
    merged.record(7.0)
    check_against(merged, left + right + [7.0])


@given(
    left=st.lists(latencies, max_size=40),
    right=st.lists(latencies, max_size=40),
    left_cached=st.integers(min_value=0, max_value=40),
    right_cached=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_pair_summary_equals_merged_summary(
    left, right, left_cached, right_cached
):
    """``LatencyPair`` answers from the two sort caches exactly what the
    merged object answers: ties (signed zeros among them), all-zero sides
    and an empty side included, with caches stale or fresh."""
    parts = []
    for values, cached in ((left, left_cached), (right, right_cached)):
        stats = LatencyStats()
        for index, value in enumerate(values):
            if index == cached:
                stats.percentile(50)
            stats.record(value)
        parts.append(stats)
    pair = LatencyPair(*parts)
    merged = parts[0].merged_with(parts[1])
    assert LatencySummary.from_stats(pair) == LatencySummary.from_stats(merged)
    assert bits(pair.mean) == bits(merged.mean)
    assert bits(pair.maximum) == bits(merged.maximum)
    for p in (0.5, 1, 25, 50, 75, 99, 99.9, 100):
        assert bits(pair.percentile(p)) == bits(merged.percentile(p))
    # The view never disturbs its parts.
    check_against(parts[0], left)
    check_against(parts[1], right)


@given(
    zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=6),
    other=st.lists(st.sampled_from([0.0, -0.0, 1.0]), max_size=6),
    zeros_first=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_pair_signed_zero_ties_keep_merge_order(zeros, other, zeros_first):
    """Dense signed-zero ties: the bits of every answer follow the
    stable merge, ``first``'s ties before ``second``'s."""
    first, second = LatencyStats(), LatencyStats()
    for value in zeros:
        (first if zeros_first else second).record(value)
    for value in other:
        (second if zeros_first else first).record(value)
    pair = LatencyPair(first, second)
    merged = first.merged_with(second)
    assert bits(pair.maximum) == bits(merged.maximum)
    assert bits(pair.mean) == bits(merged.mean)
    for p in (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
        assert bits(pair.percentile(p)) == bits(merged.percentile(p))
