"""The keyed workload zoo: streaming YCSB-style generators.

Block traces answer the paper's original question; these generators ask
the ROADMAP's follow-up — does value-locality revival survive when the
host speaks KV?  Every generator yields
:class:`~repro.kv.requests.KVRequest` lazily (never materialising a
trace), so multi-billion-request runs hold only O(live keys) of state,
and composes with :meth:`~repro.kv.store.KVStore.translate` into an
equally lazy page stream.

Shapes:

* **YCSB A–E** — the standard mixes (update-heavy, read-mostly, read-only,
  read-latest, scan-heavy) with zipfian key popularity, a value-size
  distribution spanning inline and multi-page values, and a value
  *content* model with redraw locality (updates rewrite popular existing
  contents with ``1 - new_content_prob``, exactly the recurrence the
  dead-value pool feeds on).
* **trim-heavy** — churn: inserts and deletes dominate, so the keyed
  delete path generates sustained TRIM traffic (Frankie et al.,
  PAPERS.md: trim's effect on effective over-provisioning).
* **diurnal** — N tenants with sinusoidally modulated arrival rates at
  staggered phases (simulated time only), merged lazily into one bursty
  multi-tenant stream with per-tenant key and content namespaces.

Tenant namespaces follow the same contract as
:func:`~repro.traces.transforms.interleave_tenants` after its collision
fix: a tenant emitting a key or content id outside its private space
raises instead of silently aliasing a neighbour's namespace.

Load vs transactions: :func:`load_stream` inserts every initial key
(key ``k`` starts with its own unique content ``k``, like the block
generator's prefill content model); :func:`txn_stream` then draws the
op mix.  The scenario runner applies the load phase as preconditioning
(directly against the FTL, counters reset afterwards) and measures only
the transaction phase.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..traces.zipf import zipf_ranker
from .requests import KVOp, KVRequest, mix64

__all__ = [
    "KVWorkload",
    "KV_WORKLOADS",
    "kv_workload",
    "load_stream",
    "txn_stream",
    "interleave_kv_tenants",
    "TENANT_CONTENT_SPACE",
]

#: Private per-tenant content-id space (mirrors ``interleave_tenants``).
TENANT_CONTENT_SPACE = 1 << 40


@dataclass(frozen=True)
class KVWorkload:
    """One keyed workload shape (frozen, picklable, reseedable)."""

    name: str
    num_keys: int = 3_000           # per tenant, loaded before measuring
    num_requests: int = 18_000      # per tenant, transaction phase
    read_prop: float = 0.0
    update_prop: float = 0.0
    insert_prop: float = 0.0
    delete_prop: float = 0.0
    scan_prop: float = 0.0
    key_zipf_s: float = 0.99        # YCSB's default zipfian constant
    favor_latest: bool = False      # YCSB-D: newest keys are hottest
    scan_length_max: int = 32
    value_sizes: Tuple[int, ...] = (128, 512, 1536, 4096, 12_288)
    value_size_weights: Tuple[float, ...] = (30.0, 30.0, 20.0, 15.0, 5.0)
    new_content_prob: float = 0.3
    content_zipf_s: float = 1.15    # mail-like value-popularity skew
    mean_interarrival_us: float = 120.0
    tenants: int = 1
    diurnal_amplitude: float = 0.0  # 0 = steady arrivals
    diurnal_period_us: float = 4_000_000.0
    seed: int = 1

    def __post_init__(self) -> None:
        props = (self.read_prop + self.update_prop + self.insert_prop
                 + self.delete_prop + self.scan_prop)
        if abs(props - 1.0) > 1e-9:
            raise ValueError(f"op proportions sum to {props}, not 1")
        if self.num_keys <= 0 or self.num_requests <= 0:
            raise ValueError("num_keys and num_requests must be positive")
        if len(self.value_sizes) != len(self.value_size_weights):
            raise ValueError("value_sizes/value_size_weights length mismatch")
        if min(self.value_sizes) <= 0:
            raise ValueError("value sizes must be positive")
        if not 0.0 <= self.new_content_prob <= 1.0:
            raise ValueError("new_content_prob must be in [0, 1]")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.mean_interarrival_us <= 0 or self.diurnal_period_us <= 0:
            raise ValueError("time parameters must be positive")
        if self.scan_prop and self.scan_length_max <= 0:
            raise ValueError("scan_length_max must be positive with scans")

    # -- derived -------------------------------------------------------

    def scaled(self, scale: float) -> "KVWorkload":
        """Shrink (or grow) keys and requests together, like the block
        profiles' ``scaled``."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(
            self,
            num_keys=max(64, int(self.num_keys * scale)),
            num_requests=max(256, int(self.num_requests * scale)),
        )

    def reseeded(self, seed: int) -> "KVWorkload":
        return replace(self, seed=seed)

    @property
    def tenant_key_space(self) -> int:
        """Private per-tenant key range: initial keys plus every insert
        the transaction phase could possibly make."""
        return self.num_keys + self.num_requests + 1

    def estimated_pages(self, page_bytes: int = 4096) -> int:
        """Footprint estimate for drive sizing (with packing slack)."""
        threshold = page_bytes // 2
        weight_sum = sum(self.value_size_weights)
        expected = sum(
            weight * (
                -(-size // page_bytes) if size >= threshold
                else size / page_bytes
            )
            for size, weight in zip(self.value_sizes,
                                    self.value_size_weights)
        ) / weight_sum
        values = self.num_keys + int(self.num_requests * self.insert_prop)
        return int(values * self.tenants * expected * 1.5) + 64


# -- per-tenant building blocks ----------------------------------------


def _rng(workload: KVWorkload, tenant: int, phase: int) -> random.Random:
    """A deterministic per-(workload, tenant, phase) generator."""
    return random.Random(mix64(
        (workload.seed << 20) ^ (tenant << 4) ^ phase
    ))


def _size_drawer(
    workload: KVWorkload, rng: random.Random
) -> Callable[[], int]:
    """``rng.choices(value_sizes, weights=value_size_weights)[0]`` with
    the cumulative weights built once per stream instead of per draw.

    The draw is ``choices``' own weighted path (``bisect`` of
    ``random() * total`` over the running sums, capped at the last
    index), so it returns the same size and consumes ``rng`` the same."""
    sizes = workload.value_sizes
    cum_weights = list(itertools.accumulate(workload.value_size_weights))
    total = cum_weights[-1] + 0.0
    if not 0.0 < total < math.inf:
        raise ValueError("value_size_weights must have a positive, finite sum")
    hi = len(cum_weights) - 1
    random_ = rng.random

    def draw() -> int:
        return sizes[bisect.bisect(cum_weights, random_() * total, 0, hi)]

    return draw


class _ContentModel:
    """Growing content universe with zipfian redraw locality.

    The initial load gives key ``k`` unique content ``k``; transaction
    PUTs then either mint fresh content (``new_content_prob``) or redraw
    an existing one with creation-rank zipf skew — the same shape the
    block generator uses, expressed over KV values.
    """

    __slots__ = ("created", "new_prob", "_random", "_rank")

    def __init__(
        self, created: int, new_prob: float, rng: random.Random, s: float
    ):
        self.created = created
        self.new_prob = new_prob
        self._random = rng.random
        self._rank = zipf_ranker(rng, s)

    def draw(self) -> int:
        if self.created == 0 or self._random() < self.new_prob:
            content_id = self.created
            self.created += 1
            return content_id
        return self._rank(self.created) - 1


def _tenant_load(workload: KVWorkload, tenant: int) -> Iterator[KVRequest]:
    """Insert keys ``0..num_keys-1``, each with its own unique content."""
    draw_size = _size_drawer(workload, _rng(workload, tenant, phase=0))
    interarrival = workload.mean_interarrival_us
    PUT = KVOp.PUT
    clock = 0.0
    for key in range(workload.num_keys):
        yield KVRequest(clock, PUT, key, draw_size(), key)
        clock += interarrival


def _tenant_txns(workload: KVWorkload, tenant: int) -> Iterator[KVRequest]:
    rng = _rng(workload, tenant, phase=1)
    random_ = rng.random
    log = math.log
    randrange = rng.randrange
    draw_size = _size_drawer(workload, rng)
    draw_content = _ContentModel(
        created=workload.num_keys,
        new_prob=workload.new_content_prob,
        rng=rng,
        s=workload.content_zipf_s,
    ).draw
    # Key picks index the live list by zipf rank: rank 1 is the oldest
    # key (stable hot set), or the newest under favor_latest (deletes
    # always pick from the old end).
    key_rank = zipf_ranker(rng, workload.key_zipf_s)
    latest = workload.favor_latest
    live: List[int] = list(range(workload.num_keys))
    next_key = workload.num_keys
    # Phase-staggered sinusoidal rate: tenants peak at different times,
    # in *simulated* microseconds only (wall clock never enters).
    phase = 2.0 * math.pi * tenant / max(1, workload.tenants)
    amplitude = workload.diurnal_amplitude
    period_us = workload.diurnal_period_us
    interarrival = workload.mean_interarrival_us
    scan_length_max = workload.scan_length_max
    cum_read = workload.read_prop
    cum_update = cum_read + workload.update_prop
    cum_insert = cum_update + workload.insert_prop
    cum_delete = cum_insert + workload.delete_prop
    GET, PUT, DELETE, SCAN = KVOp.GET, KVOp.PUT, KVOp.DELETE, KVOp.SCAN
    clock = 0.0
    for _ in range(workload.num_requests):
        rate = 1.0
        if amplitude:
            rate += amplitude * math.sin(
                2.0 * math.pi * clock / period_us + phase
            )
        # rng.expovariate(1.0), inlined: its body is -log(1.0 - random())
        # / lambd, and dividing by 1.0 is exact.
        clock += -log(1.0 - random_()) * interarrival / rate
        draw = random_()
        if draw < cum_read and live:
            count = len(live)
            rank = key_rank(count)
            key = live[count - rank if latest else rank - 1]
            yield KVRequest(clock, GET, key)
        elif draw < cum_update and live:
            count = len(live)
            rank = key_rank(count)
            key = live[count - rank if latest else rank - 1]
            yield KVRequest(clock, PUT, key, draw_size(), draw_content())
        elif draw < cum_insert or not live:
            key = next_key
            next_key += 1
            live.append(key)
            yield KVRequest(clock, PUT, key, draw_size(), draw_content())
        elif draw < cum_delete:
            index = key_rank(len(live)) - 1
            key = live[index]
            live[index] = live[-1]   # swap-pop: O(1), deterministic
            live.pop()
            yield KVRequest(clock, DELETE, key)
        else:
            count = len(live)
            rank = key_rank(count)
            key = live[count - rank if latest else rank - 1]
            yield KVRequest(
                clock, SCAN, key, 0, 0, 1 + randrange(scan_length_max)
            )


# -- multi-tenant composition ------------------------------------------


def interleave_kv_tenants(
    tenants: Sequence[Iterable[KVRequest]],
    key_space: int,
    content_space: int = TENANT_CONTENT_SPACE,
    share_contents: bool = False,
) -> Iterator[KVRequest]:
    """Merge per-tenant KV streams into one arrival-ordered stream with
    private key and content namespaces.

    Same contract as the block layer's
    :func:`~repro.traces.transforms.interleave_tenants` (post collision
    fix): a tenant key or content id that does not fit its private space
    raises — lazily, at the offending request — rather than silently
    aliasing another tenant's namespace.  ``share_contents=True`` keeps
    content ids unshifted, modelling tenants with genuinely common data
    (shared images/base layers) where cross-tenant revival is real.
    """
    if key_space <= 0:
        raise ValueError("key_space must be positive")
    if content_space <= 0:
        raise ValueError("content_space must be positive")

    def shifted(
        stream: Iterable[KVRequest], index: int
    ) -> Iterator[KVRequest]:
        for request in stream:
            if isinstance(request.key, int):
                if request.key >= key_space:
                    raise ValueError(
                        f"tenant {index} key {request.key} does not fit "
                        f"its private key space ({key_space})"
                    )
                key = request.key + index * key_space
            else:
                key = f"tenant{index}/{request.key}"
            content_id = request.content_id
            if request.op is KVOp.PUT and not share_contents:
                if content_id >= content_space:
                    raise ValueError(
                        f"tenant {index} content id {content_id} does not "
                        f"fit its private namespace ({content_space}); "
                        "raise content_space or pass share_contents=True"
                    )
                content_id = content_id + index * content_space
            yield KVRequest(
                request.arrival_us, request.op, key, request.value_bytes,
                content_id, request.scan_length,
            )

    return iter(heapq.merge(
        *(shifted(stream, index) for index, stream in enumerate(tenants)),
        key=lambda request: request.arrival_us,
    ))


# -- public streams ----------------------------------------------------


def load_stream(workload: KVWorkload) -> Iterator[KVRequest]:
    """The initial-population phase: every tenant's keys inserted once."""
    if workload.tenants == 1:
        return _tenant_load(workload, 0)
    return interleave_kv_tenants(
        [_tenant_load(workload, t) for t in range(workload.tenants)],
        key_space=workload.tenant_key_space,
    )


def txn_stream(workload: KVWorkload) -> Iterator[KVRequest]:
    """The measured transaction phase."""
    if workload.tenants == 1:
        return _tenant_txns(workload, 0)
    return interleave_kv_tenants(
        [_tenant_txns(workload, t) for t in range(workload.tenants)],
        key_space=workload.tenant_key_space,
    )


# -- the zoo -----------------------------------------------------------

KV_WORKLOADS: Dict[str, KVWorkload] = {
    "ycsb-a": KVWorkload(
        "ycsb-a", read_prop=0.5, update_prop=0.5, seed=101,
    ),
    "ycsb-b": KVWorkload(
        "ycsb-b", read_prop=0.95, update_prop=0.05, seed=102,
    ),
    "ycsb-c": KVWorkload(
        "ycsb-c", read_prop=1.0, seed=103,
    ),
    "ycsb-d": KVWorkload(
        "ycsb-d", read_prop=0.95, insert_prop=0.05, favor_latest=True,
        seed=104,
    ),
    "ycsb-e": KVWorkload(
        "ycsb-e", scan_prop=0.95, insert_prop=0.05, scan_length_max=24,
        seed=105,
    ),
    "trim-heavy": KVWorkload(
        "trim-heavy", read_prop=0.30, insert_prop=0.35, delete_prop=0.35,
        value_sizes=(128, 512, 1536, 4096),
        value_size_weights=(35.0, 35.0, 20.0, 10.0),
        seed=106,
    ),
    "diurnal": KVWorkload(
        "diurnal", read_prop=0.45, update_prop=0.45, insert_prop=0.05,
        delete_prop=0.05, tenants=3, diurnal_amplitude=0.6,
        num_keys=1_200, num_requests=7_000,   # per tenant
        seed=107,
    ),
}


def kv_workload(name: str) -> KVWorkload:
    try:
        return KV_WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown KV workload {name!r}; choose from "
            f"{sorted(KV_WORKLOADS)}"
        ) from None
