"""An outside anchor for DFTL's cached mapping table: Che's approximation.

``CachedMappingTable`` is an LRU over mapping entries.  Under independent
Zipf accesses, Che's approximation (Che, Tung & Wang, JSAC 2002) predicts
an LRU's hit ratio in closed form: solve ``sum(1 - exp(-p_i * T)) = C``
for the characteristic time ``T``, then ``h = sum(p_i * (1 - exp(-p_i *
T)))``.  The table is fed 100k warm-up and 300k measured accesses drawn
with ``random.choices`` over L = 20,000 LPNs (rank i has weight
``1 / i**s``), half of them dirty, seed 1, and its measured hit rate must
land within 0.005 of the prediction.  Dirtiness decides write-backs, not
residency, so it must not move the hit rate.
"""

import math
import random
from functools import lru_cache

import pytest

from repro.ftl.dftl import CachedMappingTable

LPNS = 20_000
WARMUP = 100_000
MEASURED = 300_000
BAND = 0.005


def zipf_probabilities(s):
    weights = [1.0 / (rank ** s) for rank in range(1, LPNS + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def che_hit_rate(probabilities, capacity):
    """Che's approximation for an LRU of ``capacity`` entries."""

    def occupancy(t):
        return sum(1.0 - math.exp(-p * t) for p in probabilities)

    low, high = 0.0, 1.0
    while occupancy(high) < capacity:
        high *= 2.0
    for _ in range(100):
        mid = (low + high) / 2.0
        if occupancy(mid) < capacity:
            low = mid
        else:
            high = mid
    t = (low + high) / 2.0
    return sum(p * (1.0 - math.exp(-p * t)) for p in probabilities)


@lru_cache(maxsize=None)
def access_stream(s):
    rng = random.Random(1)
    lpns = rng.choices(range(LPNS), weights=zipf_probabilities(s),
                       k=WARMUP + MEASURED)
    dirty = [rng.random() < 0.5 for _ in lpns]
    return lpns, dirty


def measured_hit_rate(s, capacity):
    lpns, dirty = access_stream(s)
    table = CachedMappingTable(capacity)
    access = table.access
    for lpn, is_dirty in zip(lpns[:WARMUP], dirty[:WARMUP]):
        access(lpn, is_dirty)
    table.stats.hits = table.stats.misses = 0
    for lpn, is_dirty in zip(lpns[WARMUP:], dirty[WARMUP:]):
        access(lpn, is_dirty)
    assert table.stats.hits + table.stats.misses == MEASURED
    return table.stats.hit_rate


@pytest.mark.parametrize("capacity", [1000, 4000])
@pytest.mark.parametrize("s", [0.0, 0.8, 1.1])
def test_cmt_hit_rate_matches_che(s, capacity):
    predicted = che_hit_rate(zipf_probabilities(s), capacity)
    measured = measured_hit_rate(s, capacity)
    assert measured == pytest.approx(predicted, abs=BAND), (
        f"s={s} C={capacity}: measured {measured:.4f}, "
        f"Che predicts {predicted:.4f}"
    )
