"""JSON-lines trace format: one request per line, self-describing.

The FIU format (:mod:`repro.traces.fiu`) matches the paper's sources; this
format is for tool interchange — each line is a JSON object with explicit
keys, so traces survive round trips through jq/pandas/spreadsheets without
positional-field fragility::

    {"t": 12.5, "op": "W", "lpn": 42, "value": 7}

``value`` is the synthetic content id (omitted for reads where unknown);
``t`` is the arrival time in microseconds.  Unknown keys are ignored on
read, so annotated traces load fine.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, TextIO

from ..sim.request import IORequest, OpType, Row

__all__ = [
    "JSONLFormatError",
    "record_of_request",
    "row_of_record",
    "request_of_record",
    "write_jsonl",
    "iter_jsonl_requests",
]


class JSONLFormatError(ValueError):
    """A malformed JSONL trace line."""


def record_of_request(request: IORequest) -> dict:
    """The self-describing dict form of one request (one JSONL line)."""
    return {
        "t": request.arrival_us,
        "op": request.op.value,
        "lpn": request.lpn,
        "value": request.value_id,
    }


#: Each op by its wire letter; anything else goes to ``OpType`` for the error.
_OP_OF = {op.value: op for op in OpType}


def row_of_record(record: dict) -> Row:
    """Parse one request dict into a replay row ``(arrival_us, op, lpn,
    value_id)``; raises :class:`JSONLFormatError` on bad fields.

    Fields are checked in a fixed order: ``op``, then ``t``, ``lpn`` and
    ``value`` (0 when omitted), so the first bad one names the error.
    The inverse of :func:`record_of_request` (round trips are lossless:
    JSON floats serialise via ``repr``); shared by the trace files and
    the ``repro serve`` wire protocol, so the two surfaces cannot drift
    apart."""
    try:
        op = record["op"]
        try:
            op = _OP_OF[op]
        except (KeyError, TypeError):  # unknown or unhashable
            op = OpType(op)
        return (
            float(record["t"]),
            op,
            int(record["lpn"]),
            int(record.get("value", 0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise JSONLFormatError(str(exc)) from None


def request_of_record(record: dict) -> IORequest:
    """:func:`row_of_record` as an :class:`IORequest`."""
    return IORequest(*row_of_record(record))


def write_jsonl(stream: TextIO, requests: Iterable[IORequest]) -> int:
    """Write a trace as JSON lines; returns the line count."""
    count = 0
    for request in requests:
        stream.write(
            json.dumps(record_of_request(request), separators=(",", ":"))
        )
        stream.write("\n")
        count += 1
    return count


def iter_jsonl_requests(stream: TextIO) -> Iterator[IORequest]:
    """Parse a JSONL trace, skipping blank lines.

    Raises :class:`JSONLFormatError` with the line number on bad input.
    """
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise JSONLFormatError(f"line {lineno}: invalid JSON: {exc}")
        if not isinstance(record, dict):
            raise JSONLFormatError(f"line {lineno}: expected an object")
        try:
            yield request_of_record(record)
        except JSONLFormatError as exc:
            raise JSONLFormatError(f"line {lineno}: {exc}") from None
