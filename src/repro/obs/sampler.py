"""Time-series sampling of the simulator's internal state.

The sampler is *pull-based*: it is attached to the timing device
(:class:`~repro.sim.ssd.SimulatedSSD`) and reads it, its FTL, pool and
fault model directly.  After every completed host request the device
calls :meth:`on_request` with the request's completion time.  When the
request- or time-interval elapses, one sample is collected and appended
to ``samples`` (and its dict form to the sink, when one is configured —
typically a :class:`~repro.obs.export.JsonlWriter`).

A sample is a ``repro.api/v1`` record of kind ``telemetry.sample``: the
device's :meth:`~repro.sim.ssd.SimulatedSSD.result` so far, with
``meta`` carrying what a final record cannot (sample index, time,
request count, free blocks, pool occupancy, the MQ view; DESIGN.md
"Observability").  Timestamps (``meta["t_us"]``) and request counts are
monotonically non-decreasing across samples.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..api.schema import ResultRecord, record_from_run

__all__ = ["TimeSeriesSampler"]

#: Default sampling cadence: one sample per 1000 completed host requests.
DEFAULT_INTERVAL_REQUESTS = 1000


class TimeSeriesSampler:
    """Snapshot pool/MQ/FTL/GC state on a request or simulated-time cadence.

    Parameters
    ----------
    interval_requests:
        Take a sample every N completed host requests (``None`` disables
        the request trigger).
    interval_us:
        Also take a sample whenever at least M simulated microseconds
        have passed since the previous one (``None`` disables the time
        trigger).  The two triggers are OR-ed.
    sink:
        Optional callable invoked with each sample's ``to_dict()`` form
        as it is taken (e.g. a :class:`~repro.obs.export.JsonlWriter`).
    """

    def __init__(
        self,
        interval_requests: Optional[int] = DEFAULT_INTERVAL_REQUESTS,
        interval_us: Optional[float] = None,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if interval_requests is None and interval_us is None:
            raise ValueError("need a request interval or a time interval")
        if interval_requests is not None and interval_requests <= 0:
            raise ValueError("interval_requests must be positive")
        if interval_us is not None and interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self.interval_requests = interval_requests
        self.interval_us = interval_us
        self.sink = sink
        self.samples: List[ResultRecord] = []
        self.sample_count = 0
        self._device = None
        self._requests = 0
        self._requests_at_last = 0
        self._last_t_us = 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, device) -> "TimeSeriesSampler":
        """Bind the sampler to the timing device whose state it snapshots."""
        self._device = device
        return self

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def on_request(self, now_us: float) -> None:
        """Called by the device once per completed host request."""
        self._requests += 1
        if (
            self.interval_requests is not None
            and self._requests - self._requests_at_last
            >= self.interval_requests
        ):
            self._take(now_us)
            return
        if (
            self.interval_us is not None
            and now_us - self._last_t_us >= self.interval_us
        ):
            self._take(now_us)

    def force_sample(self, now_us: float) -> ResultRecord:
        """Take a sample immediately (used for the end-of-run snapshot)."""
        return self._take(now_us)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def _take(self, now_us: float) -> ResultRecord:
        if self._device is None:
            raise RuntimeError("sampler not attached to a device")
        # Clamp so t_us is monotonically non-decreasing: requests on
        # different chips complete out of arrival order.
        t_us = max(float(now_us), self._last_t_us)
        sample = self._collect(t_us)
        self._last_t_us = t_us
        self._requests_at_last = self._requests
        self.sample_count += 1
        self.samples.append(sample)
        if self.sink is not None:
            self.sink(sample.to_dict())
        return sample

    def _collect(self, t_us: float) -> ResultRecord:
        device = self._device
        ftl = device.ftl
        meta: Dict[str, Any] = {
            "seq": self.sample_count,
            "t_us": t_us,
            "requests": self._requests,
            "gc_invocations": ftl.gc.invocations,
            "write_clock": ftl.write_clock,
            "free_blocks": sum(
                len(blocks) for blocks in ftl.allocator.free_blocks
            ),
        }
        pool = ftl.pool
        if pool is not None:
            stats = pool.stats
            pool_view: Dict[str, Any] = {
                "occupancy": len(pool),
                "tracked_ppns": pool.tracked_ppn_count(),
                "evicted_ppns": stats.evicted_ppns,
                "gc_removals": stats.gc_removals,
            }
            for name in (
                "capacity", "capacity_high_water", "resizes_up",
                "resizes_down",
            ):
                value = getattr(pool, name, None)
                if value is not None:
                    pool_view[name] = value
            meta["pool"] = pool_view
            mq = getattr(pool, "mq", None)
            if mq is not None:
                meta["mq"] = {
                    "queue_lengths": mq.queue_lengths(),
                    "promotions": mq.promotions,
                    "demotions": mq.demotions,
                    "evictions": mq.evictions,
                    "hottest_interval": mq.hottest_interval,
                }
        if ftl.faults is not None:
            meta["spares_remaining"] = ftl.badblocks.spares_remaining
            meta["read_only"] = ftl.read_only
        return record_from_run(
            device.result(),
            kind="telemetry.sample",
            with_digest=False,
            meta=meta,
        )
