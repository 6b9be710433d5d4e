"""Zipf-distributed sampling for value popularity and LBA locality.

The FIU workloads "exhibit high skewness in value locality, i.e., a small
fraction of values account for a large number of accesses" (Section II-A),
and Figure 3a quantifies it: ~20% of values receive ~80% of writes.  A Zipf
law over creation rank reproduces exactly that shape, with the exponent
``s`` controlling the 80/20 ratio.

Because the synthetic generator's value universe *grows* as the trace is
generated, we need to sample Zipf ranks over a changing ``n`` cheaply.
:func:`zipf_rank` inverts the continuous approximation of the Zipf CDF in
O(1), avoiding any precomputed table; :class:`ZipfSampler` provides the
exact table-based variant for fixed universes (used for LBA selection).
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Callable, List, Optional, Sequence

__all__ = [
    "zipf_rank",
    "zipf_ranker",
    "zipf_legacy_ranker",
    "zipf_rank_legacy",
    "ZipfSampler",
    "top_fraction_share",
]


def zipf_rank(rng: random.Random, n: int, s: float) -> int:
    """Draw a rank in ``[1, n]`` approximately ~ ``rank^-s``.

    Uses the inverse of the continuous CDF over ``[1, n+1)``: for
    ``s != 1`` the cumulative mass up to rank r is proportional to
    ``r^(1-s) - 1``; for ``s == 1`` to ``ln(r)``.  Flooring the continuous
    draw assigns integer rank ``k`` the mass of ``[k, k+1)``, so every
    rank including ``n`` is reachable and rank 1 is not over-weighted.
    The draw is O(1) for any ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    u = rng.random()
    span = n + 1.0
    if abs(s - 1.0) < 1e-9:
        rank = math.exp(u * math.log(span))
    else:
        top = span ** (1.0 - s) - 1.0
        rank = (1.0 + u * top) ** (1.0 / (1.0 - s))
    return min(n, max(1, int(rank)))


def zipf_ranker(rng: random.Random, s: float) -> Callable[[int], int]:
    """:func:`zipf_rank` bound to one generator and exponent, for hot loops.

    ``draw(n)`` returns exactly ``zipf_rank(rng, n, s)`` and consumes
    ``rng`` identically: the same float expressions in the same order, with
    the per-``n`` term (``(n + 1.0) ** (1.0 - s) - 1.0``, or
    ``log(n + 1.0)`` at ``s == 1``) cached for the last ``n`` drawn over.
    A live-key count or content universe changes far less often than it
    is drawn from.
    """
    return _cached_ranker(rng, s, 1.0)


def zipf_legacy_ranker(rng: random.Random, s: float) -> Callable[[int], int]:
    """:func:`zipf_rank_legacy` bound to one generator and exponent: the
    per-``n`` twin :func:`zipf_ranker` is of :func:`zipf_rank`.

    ``draw(n)`` returns exactly ``zipf_rank_legacy(rng, n, s)`` and
    consumes ``rng`` identically, with ``n ** (1.0 - s) - 1.0`` (or
    ``log(n)`` at ``s == 1``) cached for the last ``n`` drawn over.
    """
    return _cached_ranker(rng, s, 0.0)


def _cached_ranker(
    rng: random.Random, s: float, span_offset: float
) -> Callable[[int], int]:
    """The draw both rankers share: the continuous inverse over
    ``[1, n + span_offset)``, floored and clamped to ``[1, n]``.
    ``n + 0.0`` is ``float(n)``, which is what ``n ** x`` and ``log(n)``
    convert an int to, so the legacy terms come out bit-identical."""
    random_ = rng.random
    harmonic = abs(s - 1.0) < 1e-9
    exponent = 0.0 if harmonic else 1.0 / (1.0 - s)
    cached_n: Optional[int] = None   # no n matches: the first draw checks
    top = 0.0

    def draw(n: int) -> int:
        nonlocal cached_n, top
        if n != cached_n:
            if n <= 0:
                raise ValueError("n must be positive")
            span = n + span_offset
            top = math.log(span) if harmonic else span ** (1.0 - s) - 1.0
            cached_n = n
        if n == 1:
            return 1
        if harmonic:
            rank = int(math.exp(random_() * top))
        else:
            rank = int((1.0 + random_() * top) ** exponent)
        if rank > n:
            return n
        return rank if rank > 1 else 1

    return draw


def zipf_rank_legacy(rng: random.Random, n: int, s: float) -> int:
    """The pre-fix draw: continuous inverse over ``[1, n)`` then ``int()``.

    Truncation makes rank ``n`` almost unreachable and oversamples rank 1
    (it receives the whole ``[1, 2)`` interval's mass).  Kept verbatim
    because the block-level synthetic profiles (Table II knobs) were
    calibrated under this sampler and the perf goldens pin the traces it
    produces (the generator draws it through :func:`zipf_legacy_ranker`);
    new code should use :func:`zipf_rank`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    u = rng.random()
    if abs(s - 1.0) < 1e-9:
        rank = math.exp(u * math.log(n))
    else:
        top = n ** (1.0 - s) - 1.0
        rank = (1.0 + u * top) ** (1.0 / (1.0 - s))
    return min(n, max(1, int(rank)))


class ZipfSampler:
    """Exact Zipf sampler over a fixed universe of ``n`` items.

    Builds the cumulative weight table once (O(n)) and samples by binary
    search (O(log n)).  Ranks are 0-based item indexes with item 0 the most
    popular.
    """

    def __init__(self, n: int, s: float):
        if n <= 0:
            raise ValueError("n must be positive")
        if s < 0:
            raise ValueError("s must be non-negative")
        self.n = n
        self.s = s
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += rank ** -s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw a 0-based item index."""
        u = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, u)

    def probability(self, index: int) -> float:
        """Exact probability of drawing ``index``."""
        if not 0 <= index < self.n:
            raise IndexError(index)
        return ((index + 1) ** -self.s) / self._total


def top_fraction_share(counts: Sequence[int], fraction: float) -> float:
    """Share of total mass held by the top ``fraction`` of items.

    The "20% of values account for 80% of writes" check of Figure 3a:
    ``top_fraction_share(write_counts, 0.2)`` ≈ 0.8 for mail-like skew.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if not counts:
        return 0.0
    ordered = sorted(counts, reverse=True)
    k = max(1, int(len(ordered) * fraction))
    total = sum(ordered)
    if total == 0:
        return 0.0
    return sum(ordered[:k]) / total
