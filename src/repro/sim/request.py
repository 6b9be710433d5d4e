"""Host I/O requests as the simulator consumes them.

Every request is one 4KB page operation — the granularity of the FIU/OSU
traces the paper uses (Section II-A: "All traces contain identical request
sizes of 4KB with 16B hash of the content for each request").  Multi-page
host requests are split into page requests by the trace layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Tuple, Union, overload

from ..core.hashing import Fingerprint, fingerprint_of_value

__all__ = ["OpType", "IORequest", "Row", "Trace", "rows_of", "CompletedRequest"]


class OpType(Enum):
    READ = "R"
    WRITE = "W"
    #: Host discard/TRIM: the logical page's content is dropped.  Not part
    #: of the paper's traces; supported as an FTL substrate feature (the
    #: dead-value pool keeps trimmed content revivable until erased).
    TRIM = "T"


@dataclass(frozen=True, slots=True)
class IORequest:
    """One 4KB host operation.

    ``value_id`` identifies the 4KB content being written (or expected to be
    read); it is the synthetic stand-in for the traces' MD5 digest.  Reads
    carry it only for analysis purposes — the device never checks it.
    """

    arrival_us: float
    op: OpType
    lpn: int
    value_id: int

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def fingerprint(self) -> Fingerprint:
        return fingerprint_of_value(self.value_id)


#: One request as the replay loop reads it:
#: ``(arrival_us, op, lpn, value_id)``, the fields of :class:`IORequest`.
Row = Tuple[float, OpType, int, int]


class Trace(Sequence[IORequest]):
    """A page-granular trace stored as four columns.

    ``arrival_us`` (doubles), ``lpn`` and ``value_id`` (64-bit ints) are
    read-only memoryviews and ``op`` is a tuple of :class:`OpType`, so a
    shared trace (the trace cache hands out one per profile) cannot be
    changed in place.  Replay reads :meth:`rows`; indexing, slicing and
    iteration build :class:`IORequest` records on demand (the API,
    parsers, analysis).
    """

    __slots__ = ("arrival_us", "op", "lpn", "value_id")

    def __init__(self, arrival_us, op: Tuple[OpType, ...], lpn, value_id):
        self.arrival_us, self.op, self.lpn, self.value_id = (
            memoryview(arrival_us).toreadonly(), op,
            memoryview(lpn).toreadonly(), memoryview(value_id).toreadonly(),
        )
        if not len(self.arrival_us) == len(op) == len(self.lpn) == len(self.value_id):
            raise ValueError("trace columns differ in length")

    def rows(self) -> Iterator[Row]:
        """The plain ``(arrival_us, op, lpn, value_id)`` tuples replay reads."""
        return zip(self.arrival_us, self.op, self.lpn, self.value_id)

    def __len__(self) -> int:
        return len(self.op)

    @overload
    def __getitem__(self, index: int) -> IORequest: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[IORequest, "Trace"]:
        if isinstance(index, slice):
            return Trace(self.arrival_us[index], self.op[index],
                         self.lpn[index], self.value_id[index])
        return IORequest(self.arrival_us[index], self.op[index],
                         self.lpn[index], self.value_id[index])

    def __iter__(self) -> Iterator[IORequest]:
        return map(IORequest, self.arrival_us, self.op, self.lpn, self.value_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and list(self.rows()) == list(other.rows())


def rows_of(requests: Iterable[IORequest]) -> Iterator[Row]:
    """Replay rows of ``requests``: a :class:`Trace`'s own :meth:`~Trace.rows`,
    else each record's four fields (the edge where records enter replay)."""
    if isinstance(requests, Trace):
        return requests.rows()
    return ((r.arrival_us, r.op, r.lpn, r.value_id) for r in requests)


@dataclass(frozen=True, slots=True)
class CompletedRequest:
    """A serviced request with its measured latency."""

    request: IORequest
    start_us: float
    finish_us: float
    short_circuited: bool = False
    dedup_hit: bool = False

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.request.arrival_us
