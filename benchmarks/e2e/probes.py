"""Timing probes around the simulator's public boundaries.

The benchmark never edits ``repro``: it wraps class and module attributes
in the child process before a rep runs, and every call through a wrapped
attribute becomes a span in a :class:`Recorder`.

Two probe sets exist:

* the **phase** set (``Device.build``/``precondition``/
  ``precondition_pages``/``attach``/``step``) is installed in every rep.
  It is where the end-to-end ``setup_s`` and ``replay_req_per_s`` are
  read from: each call is a timed window (``Device.step`` is fed in
  ``STEP_WINDOW``-request batches), scaled by :class:`HostSpeed`.  A
  rep makes a few dozen such calls, and the speed samples between
  windows are not part of any window;
* the **layer** set adds every per-layer boundary (``SimulatedSSD.submit``,
  the timing model, the FTL host paths, GC, the dead-value pools, the KV
  store, fleet routing and shards, the serve protocol, digesting).  It runs
  only in the traced rep, never in the reps end-to-end metrics come from.

Each span is timed with ``perf_counter_ns``.  Exact aggregates (calls,
total, self = duration minus child spans) are kept for every call, split
by whether the call ran inside ``Device.step``.  Raw spans are kept for
the coarse boundaries and for every ``SAMPLE_EVERY``-th host request
(``SimulatedSSD.submit``) with everything nested in it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Span kinds.  ``coarse`` spans are always kept raw; ``fine`` spans only
#: inside a sampled request; ``request`` marks a host request (sampled
#: every ``SAMPLE_EVERY``); ``step`` marks ``Device.step`` — every span
#: nested in it counts toward the replay aggregates.
COARSE, FINE, REQUEST, STEP = "coarse", "fine", "request", "step"

_now = time.perf_counter_ns

#: Every this many host requests, one is kept raw with all its spans.
SAMPLE_EVERY = 100

#: Requests per timed ``Device.step`` window: short enough that a
#: window's bracketing speed samples see the same host conditions it did.
STEP_WINDOW = 2048

#: Best time of one calibration slice on the box the baseline was minted
#: on (Xeon VM, CPython 3.11).  Scaled times read "seconds at that speed".
REFERENCE_SLICE_NS = 830_000


def _calibration_slice() -> None:
    counts: Dict[int, int] = {}
    for i in range(10_000):
        key = i & 511
        counts[key] = counts.get(key, 0) + i


class HostSpeed:
    """How fast the host runs Python right now.

    Other tenants slow this box by up to 2x for minutes at a time, in
    wall and CPU time alike, so a raw timing says as much about the
    neighbours as about the simulator.  Each timed window is bracketed by
    ~1 ms slices of fixed work; the window is scaled by the reference
    slice time over the mean of its two brackets (README.md, Noise).
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.sample()  # warm-up: a fresh interpreter has not specialised it
        self._last = self.sample()

    @staticmethod
    def sample() -> int:
        start = _now()
        _calibration_slice()
        return _now() - start

    def scale(self, seconds: float) -> float:
        """``seconds`` of a window that just ended, at reference speed."""
        now = self.sample()
        factor = REFERENCE_SLICE_NS / ((self._last + now) / 2)
        self._last = now
        return seconds * factor


class _Frame:
    __slots__ = (
        "name", "start", "child", "span_id", "request", "in_step", "keep_children",
    )

    def __init__(self, name, start, span_id, request, in_step, keep_children):
        self.name = name
        self.start = start
        self.child = 0
        self.span_id = span_id
        self.request = request
        self.in_step = in_step
        self.keep_children = keep_children


class _Thread:
    """One thread's span stack, aggregates and kept spans.  Threads never
    share one, so no update needs a lock (``repro serve`` decodes on its
    event loop and steps devices on a worker thread)."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        #: name -> [calls, total_ns, self_ns]; ``agg`` counts every call,
        #: ``step_agg`` only calls made inside ``Device.step``.
        self.agg: Dict[str, List[int]] = {}
        self.step_agg: Dict[str, List[int]] = {}
        self.spans: List[tuple] = []


def _add(table: Dict[str, List[int]], name: str, total: int, self_ns: int) -> None:
    row = table.get(name)
    if row is None:
        table[name] = [1, total, self_ns]
    else:
        row[0] += 1
        row[1] += total
        row[2] += self_ns


class Recorder:
    """Spans and exact per-name aggregates for one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        #: The process that created the recorder; a forked fleet worker
        #: sees another pid and keeps its own spans (see ``fleet.shard``).
        self.owner_pid = os.getpid()
        #: Write end of a pipe forked fleet workers report their windows
        #: on, as "raw scaled" lines; set by the rep around ``run_fleet``.
        self.report_fd: Optional[int] = None
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.requests = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._threads: List[_Thread] = []
        #: id(Device) -> ns when its ``build()`` returned (KV load phase).
        self._built: Dict[int, int] = {}
        #: ``setup``/``replay`` -> [raw seconds, scaled seconds] per window.
        self.windows: Dict[str, List[List[float]]] = {"setup": [], "replay": []}
        self.speed = HostSpeed()

    def _thread(self) -> _Thread:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _Thread()
            self._threads.append(state)
        return state

    def enter(self, name: str, kind: str) -> _Frame:
        stack = self._thread().stack
        parent = stack[-1] if stack else None
        in_step = kind == STEP or (parent is not None and parent.in_step)
        request = parent.request if parent is not None else -1
        if kind == REQUEST:
            request = self.requests
            self.requests += 1
            keep = keep_children = request % SAMPLE_EVERY == 0
        elif kind == FINE:
            keep = keep_children = parent is not None and parent.keep_children
        else:
            keep, keep_children = True, False
        frame = _Frame(
            name, _now(), next(self._ids) if keep else None,
            request, in_step, keep_children,
        )
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = _now()
        state = self._thread()
        state.stack.pop()
        total = end - frame.start
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent.child += total
        _add(state.agg, frame.name, total, total - frame.child)
        if frame.in_step:
            _add(state.step_agg, frame.name, total, total - frame.child)
        if frame.span_id is not None:
            state.spans.append((
                frame.name, frame.request, frame.span_id,
                parent.span_id if parent is not None else None,
                frame.start, end,
            ))

    def add_interval(self, name: str, start: int, end: int) -> None:
        """Record an interval no single call spans (aggregate only)."""
        _add(self._thread().agg, name, end - start, end - start)

    def window(
        self, phase: str, start: int,
        factor: Optional[float] = None, end: Optional[int] = None,
    ) -> None:
        """Record a timed ``setup``/``replay`` window from ``start`` to
        ``end`` (default: now).

        The window is scaled to reference speed by its bracketing slices,
        or by ``factor`` when the caller measured the speed otherwise.
        """
        seconds = ((_now() if end is None else end) - start) / 1e9
        if self.speed.pid != os.getpid():  # forked: measure this process
            self.speed = HostSpeed()
        scaled = self.speed.scale(seconds) if factor is None else seconds * factor
        self.windows[phase].append([seconds, scaled])
        if self.report_fd is not None and os.getpid() != self.owner_pid:
            os.write(self.report_fd, f"{seconds} {scaled}\n".encode())

    def snapshot(self) -> Dict[str, Any]:
        """Everything this process recorded, JSON-ready."""
        return merge(
            {"agg": t.agg, "step_agg": t.step_agg,
             "spans": [[self.pid, *s] for s in t.spans]}
            for t in self._threads
        )

    def span_lines(self, spans: Iterable[list]) -> Iterable[str]:
        """JSONL lines for raw spans as kept in a snapshot."""
        for pid, name, request, span_id, parent, start, end in spans:
            yield json.dumps({
                "name": name,
                "trace": f"{self.trace_id}/{request}",
                "span": f"{pid}.{span_id}",
                "parent": None if parent is None else f"{pid}.{parent}",
                "pid": pid,
                "start_ns": start,
                "end_ns": end,
            })


def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the aggregates of several threads or processes; keep all spans."""
    merged: Dict[str, Any] = {"agg": {}, "step_agg": {}, "spans": []}
    for snap in snapshots:
        for key in ("agg", "step_agg"):
            table = merged[key]
            for name, (calls, total, self_ns) in snap[key].items():
                row = table.setdefault(name, [0, 0, 0])
                row[0] += calls
                row[1] += total
                row[2] += self_ns
        merged["spans"].extend(snap["spans"])
    return merged


def total_s(snap: Dict[str, Any], name: str) -> float:
    """Seconds inside every call called ``name``."""
    row = snap["agg"].get(name)
    return row[1] / 1e9 if row else 0.0


def raw(snap: Dict[str, Any], name: str) -> List[list]:
    """``[pid, start_ns, end_ns]`` of every kept span called ``name``."""
    return [[s[0], s[5], s[6]] for s in snap["spans"] if s[1] == name]


# -- wrappers -------------------------------------------------------------


def _call(rec: Recorder, name: str, kind: str) -> Callable[[Callable], Callable]:
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = rec.enter(name, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(frame)

        return probe

    return wrap


def _iter(rec: Recorder, name: str) -> Callable[[Callable], Callable]:
    """Time only the work inside each ``next()`` of the returned iterator,
    not what the consumer does between items."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    frame = rec.enter(name, FINE)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        rec.exit(frame)
                    yield item

            return timed()

        return probe

    return wrap


def _patch_method(cls: type, attr: str, wrap: Callable) -> None:
    setattr(cls, attr, wrap(cls.__dict__[attr]))


def _patch_binding(module: str, attr: str, wrap: Callable) -> None:
    """Wrap the function ``module`` looks up as ``attr`` at call time."""
    loaded = importlib.import_module(module)
    setattr(loaded, attr, wrap(getattr(loaded, attr)))


def install_phase_probes(rec: Recorder, windows: bool = True) -> None:
    """The Device lifecycle boundaries end-to-end metrics are read from.

    With ``windows=False`` (a traced server, which times nothing end to
    end) ``Device.step`` keeps its span but is not cut into windows.
    """
    from repro.experiments.device import Device

    def build(fn):
        timed = _call(rec, "device.build", COARSE)(fn)

        @functools.wraps(fn)
        def probe(self, *args, **kwargs):
            start = _now()
            try:
                return timed(self, *args, **kwargs)
            finally:
                rec._built[id(self)] = _now()
                rec.window("setup", start)

        return probe

    def attach(fn):
        timed = _call(rec, "device.attach", COARSE)(fn)

        @functools.wraps(fn)
        def probe(self, *args, **kwargs):
            # Built through the Device API but never preconditioned through
            # it: the caller loaded the drive itself (the KV load phase),
            # so build-to-attach is that device's preconditioning.
            built = rec._built.pop(id(self), None)
            if built is not None:
                rec.add_interval("device.load", built, _now())
                rec.window("setup", built)
            return timed(self, *args, **kwargs)

        return probe

    def precondition(fn):
        timed = _call(rec, "device.precondition", COARSE)(fn)

        @functools.wraps(fn)
        def probe(self, *args, **kwargs):
            rec._built.pop(id(self), None)
            start = _now()
            try:
                return timed(self, *args, **kwargs)
            finally:
                rec.window("setup", start)

        return probe

    def step(fn):
        if not windows:
            return _call(rec, "device.step", STEP)(fn)

        @functools.wraps(fn)
        def probe(self, requests):
            # Feed the batch in fixed windows (stepping in batches is
            # observably identical to one step) and time each window.
            # The pull is inside the span: a lazy stream (KV) does its
            # translation work there.
            iterator, served = iter(requests), 0
            while True:
                start = _now()
                frame = rec.enter("device.step", STEP)
                try:
                    window = list(itertools.islice(iterator, STEP_WINDOW))
                    if window:
                        served += fn(self, window)
                finally:
                    rec.exit(frame)
                if not window:
                    return served
                rec.window("replay", start)

        return probe

    _patch_method(Device, "build", build)
    _patch_method(Device, "attach", attach)
    _patch_method(Device, "precondition", precondition)
    _patch_method(Device, "precondition_pages", precondition)
    _patch_method(Device, "step", step)


def _pool_classes() -> List[type]:
    from repro.core.dvp import PoolBase

    found, todo = [], list(PoolBase.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install_layer_probes(
    rec: Recorder, on_worker_shard: Optional[Callable[[Any], None]] = None
) -> None:
    """Every per-layer boundary of the ledger (traced rep only).

    ``on_worker_shard(spec)`` runs after each ``execute_shard`` in a forked
    fleet worker, with the worker's recorder still live, so the worker can
    persist spans that would otherwise die with the process.
    """
    from repro.flash.timing import TimelineSet
    from repro.fleet.ring import HashRing
    from repro.ftl.ftl import BaseFTL
    from repro.ftl.gc import GarbageCollector
    from repro.kv.store import KVStore
    from repro.serve.client import ServeClient
    from repro.serve.session import TenantSession
    from repro.sim.ssd import SimulatedSSD

    _patch_method(SimulatedSSD, "submit", _call(rec, "sim.submit", REQUEST))
    _patch_method(TimelineSet, "chip_op", _call(rec, "flash.timing", FINE))
    _patch_method(TimelineSet, "hash_op", _call(rec, "flash.timing", FINE))
    for op in ("write", "read", "trim"):
        _patch_method(BaseFTL, op, _call(rec, f"ftl.{op}", FINE))
    _patch_method(GarbageCollector, "maybe_collect", _call(rec, "gc.collect", FINE))
    for cls in _pool_classes():
        for attr, name in (
            ("lookup_for_write", "pool.lookup"),
            ("insert_garbage", "pool.insert"),
            ("discard_ppn", "pool.discard"),
        ):
            if attr in cls.__dict__:
                _patch_method(cls, attr, _call(rec, name, FINE))
    _patch_method(KVStore, "translate", _iter(rec, "kv.translate"))

    generate = _call(rec, "traces.generate", COARSE)
    _patch_binding("repro.perf.trace_cache", "generate_trace", generate)
    for stream in ("load_stream", "txn_stream"):
        _patch_binding("repro.kv.scenario", stream, _iter(rec, "traces.generate"))
    _patch_binding("repro.perf.spec", "result_digest", _call(rec, "perf.digest", COARSE))

    _patch_method(HashRing, "assignments", _call(rec, "fleet.route", COARSE))

    def shard(fn):
        timed = _call(rec, "fleet.shard", COARSE)(fn)

        @functools.wraps(fn)
        def probe(spec):
            worker = os.getpid() != rec.owner_pid
            if worker:  # forked with the parent's state: start clean
                rec.reset()
            result = timed(spec)
            if worker and on_worker_shard is not None:
                on_worker_shard(spec)
            return result

        return probe

    # run_fleet ships execute_shard to its workers by reference; the probe
    # keeps the original's module and name, so it pickles to itself.
    _patch_binding("repro.fleet.fleet", "execute_shard", shard)

    # Server side of the protocol (the client binds its own codec copy,
    # which stays unwrapped: its cost is inside ServeClient.send).
    decode = _call(rec, "serve.decode", FINE)
    _patch_binding("repro.serve.server", "decode_message", decode)
    _patch_binding("repro.serve.server", "request_of_record", decode)
    _patch_binding(
        "repro.serve.server", "encode_message", _call(rec, "serve.encode", COARSE)
    )
    _patch_method(TenantSession, "flush", _call(rec, "serve.step", COARSE))
    _patch_method(
        TenantSession, "metrics_record", _call(rec, "serve.metrics_record", COARSE)
    )
    _patch_method(ServeClient, "send", _call(rec, "serve.client_send", FINE))
