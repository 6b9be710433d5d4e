"""Serve ingest against its step-by-step reference (``tests/reference.py``).

The server reads bounded chunks and splits them into lines, decodes
``{``-led lines through the JSON scanner directly and parses ``io``
records into replay rows; the client writes a ``Trace`` from its rows.
Each is held to the path it replaced: the same lines, ``None`` markers
and EOF from any chunking of a byte stream, the same dict or error text
from any line, the same fields or error text from any record, and the
same wire bytes from any trace.
"""

import asyncio
import json
import math
import socket
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.client import ServeClient, _io_line
from repro.serve.protocol import (
    CLIENT_TYPES, MAX_LINE_BYTES, ProtocolError, decode_message,
)
from repro.serve.server import _LineReader
from repro.sim.request import OpType, Trace
from repro.traces.jsonl import JSONLFormatError, row_of_record

from .. import reference

pytestmark = pytest.mark.serve_smoke


# -- the chunked reader ------------------------------------------------

def _filled(size):
    """A ``ping`` line whose content is exactly ``size`` bytes."""
    head = b'{"type":"ping","pad":"'
    return head + b"x" * (size - len(head) - 2) + b'"}\n'


IO_LINE = b'{"lpn":42,"op":"W","t":12.5,"type":"io","value":7}\n'
SHORT_LINES = st.sampled_from([
    IO_LINE,
    b'{"lpn":3,"op":"R","t":0.25,"type":"io","value":0}\n',
    b'{"type":"flush"}\n',
    b'{"type": "ping"}\n',
    b"\n",
    b"not json\n",
])
#: Every line the reader must treat specially, in a drawn order.
SPECIAL_LINES = [
    _filled(MAX_LINE_BYTES),          # served
    _filled(MAX_LINE_BYTES + 1),      # one byte over: discarded
    _filled(2 * MAX_LINE_BYTES + 77),  # spans several chunks
]
LAST_LINES = st.sampled_from([
    b"", b'{"type":"pi', _filled(MAX_LINE_BYTES)[:-1],
    _filled(MAX_LINE_BYTES + 1)[:-1], _filled(MAX_LINE_BYTES + 9)[:-1],
])


@st.composite
def chunked_streams(draw):
    lines = draw(st.lists(SHORT_LINES, max_size=12)) + SPECIAL_LINES
    stream = b"".join(draw(st.permutations(lines))) + draw(LAST_LINES)
    cuts = draw(st.lists(
        st.integers(min_value=1, max_value=len(stream) - 1), max_size=24,
    ))
    # Cuts at the ends of the long line's first part split it mid-way.
    bounds = [0, *sorted(set(cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


async def _through_reader(chunks, consume):
    """``consume(reader)`` while the chunks arrive one per loop pass."""
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)

    async def feed():
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    seen = await consume(reader)
    await feeder
    return seen


async def _reference_lines(reader):
    seen = []
    while seen[-1:] != [b""]:
        seen.append(await reference.read_line(reader))
    return seen


async def _chunked_lines(reader):
    lines, seen = _LineReader(reader), []
    while True:
        chunk = await lines.read()
        assert all(line is None or line for line in chunk)
        seen.extend(chunk)
        if not chunk:
            return seen + [b""]


def _both(chunks):
    return [
        asyncio.run(_through_reader(chunks, consume))
        for consume in (_reference_lines, _chunked_lines)
    ]


@given(chunks=chunked_streams())
@settings(max_examples=60, deadline=None)
def test_chunked_reader_matches_per_line_reader(chunks):
    expected, got = _both(chunks)
    assert got == expected
    assert expected.count(None) >= 2


@pytest.mark.parametrize("size, served", [
    (MAX_LINE_BYTES, True), (MAX_LINE_BYTES + 1, False),
])
def test_limit_is_the_line_without_its_newline(size, served):
    line = _filled(size)
    expected, got = _both([line[:1000], line[1000:], IO_LINE])
    assert got == expected == [line if served else None, IO_LINE, b""]


def test_unterminated_last_line_is_returned_at_eof():
    expected, got = _both([IO_LINE + b'{"type":', b'"flush"}'])
    assert got == expected == [IO_LINE, b'{"type":"flush"}', b""]


def test_no_chunk_is_read_before_the_last_one_is_serviced():
    """Read-ahead is one chunk: what the caller has not asked for stays
    in the stream's buffer."""

    async def check():
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        stream = IO_LINE * (3 * MAX_LINE_BYTES // len(IO_LINE))
        reader.feed_data(stream)
        reader.feed_eof()
        lines = _LineReader(reader)
        first = await lines.read()
        assert len(first) == MAX_LINE_BYTES // len(IO_LINE)
        assert len(await reader.read()) == len(stream) - MAX_LINE_BYTES

    asyncio.run(check())


# -- the decoder --------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
OBJECTS = st.dictionaries(
    st.sampled_from(["type", "t", "op", "lpn", "value", "x"]),
    st.sampled_from(CLIENT_TYPES + ("nope",)) | JSON_VALUES,
    max_size=5,
)
WHITESPACE = st.text(alphabet=" \t\n\r\x0c", max_size=3)


@st.composite
def wire_lines(draw):
    kind = draw(st.sampled_from(["object", "value", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    value = draw(OBJECTS if kind == "object" else JSON_VALUES)
    text = json.dumps(value, separators=draw(st.sampled_from(
        [(",", ":"), (", ", ": ")]
    )))
    text = draw(WHITESPACE) + text + draw(WHITESPACE)
    line = text.encode("utf-8") + draw(st.sampled_from(
        [b"\n", b"", b"x", b"{}", b"\xff", b" 1\n"]
    ))
    cut = draw(st.integers(min_value=0, max_value=len(line)))
    return line if draw(st.booleans()) else line[:cut]


def _outcome(decode, line, allowed):
    try:
        return "ok", repr(decode(line, allowed))
    except ProtocolError as exc:
        return "error", str(exc)


@given(line=wire_lines(), allowed=st.sampled_from([CLIENT_TYPES, None]))
@settings(max_examples=400)
def test_decoder_matches_json_loads(line, allowed):
    assert _outcome(decode_message, line, allowed) == _outcome(
        reference.decode_message, line, allowed
    )


@pytest.mark.parametrize("line", [
    b'{"type":"io","t":NaN}\n', b'{"type":"ping"} \t\r\n',
    b'{"type":"ping"}\x0c\n', b'{"type":"ping"}{"type":"ping"}\n',
    b'{"type":"ping"}\n\n', b'{"type":"\xff"}\n', b'{"type":"ping"',
    b' {"type":"ping"}\n', b'\xef\xbb\xbf{"type":"ping"}\n',
    b'{"type":["ping"]}\n', b'{"a":{"b":[1,2]},"type":"flush"}\n',
])
def test_decoder_edge_lines(line):
    assert _outcome(decode_message, line, CLIENT_TYPES) == _outcome(
        reference.decode_message, line, CLIENT_TYPES
    )


# -- the record parser ---------------------------------------------------

FIELD_VALUES = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(2**70), max_value=2**70) | st.booleans()
    | st.none()
    | st.sampled_from(["W", "R", "T", "w", "r", "X", "", "12.5", "7",
                       "nan", "-inf", "1e3", "abc"])
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
)
RECORDS = st.dictionaries(
    st.sampled_from(["t", "op", "lpn", "value", "type"]), FIELD_VALUES,
)


def _fields(parse, record):
    try:
        got = parse(record)
    except JSONLFormatError as exc:
        return "error", str(exc)
    if not isinstance(got, tuple):
        got = (got.arrival_us, got.op, got.lpn, got.value_id)
    return "ok", repr(got), [type(field) for field in got]


@given(record=RECORDS)
@settings(max_examples=400)
def test_row_of_record_matches_request_of_record(record):
    assert _fields(row_of_record, record) == _fields(
        reference.request_of_record, record
    )


@pytest.mark.parametrize("record", [
    {"t": 1.0, "op": "w", "lpn": 1, "value": 2},       # lower-case op
    {"t": 1.0, "op": "Q", "lpn": 1},                   # unknown op
    {"t": 1.0, "op": ["W"], "lpn": 1},                 # unhashable op
    {"t": 1.0, "op": {"W": 1}, "lpn": 1},
    {"t": "12.5", "op": "W", "lpn": 1, "value": 2},    # string time
    {"t": "soon", "op": "W", "lpn": 1, "value": 2},
    {"t": 1.0, "op": "R", "lpn": True, "value": 2},    # bool lpn
    {"t": 1.0, "op": "R", "lpn": 5},                   # no value
    {"op": "W", "lpn": 1},                             # no time
    {"t": None, "lpn": 1},                             # no op, bad time
])
def test_row_of_record_edge_records(record):
    assert _fields(row_of_record, record) == _fields(
        reference.request_of_record, record
    )


# -- the client -----------------------------------------------------------

TIMES = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
ROWS = st.lists(
    st.tuples(TIMES, st.sampled_from(list(OpType)), INT64, INT64),
    max_size=40,
)


def _trace(rows):
    return Trace(
        array("d", [row[0] for row in rows]), tuple(row[1] for row in rows),
        array("q", [row[2] for row in rows]),
        array("q", [row[3] for row in rows]),
    )


def _streamed_bytes(trace):
    """What ``ServeClient.stream(trace)`` puts on the wire."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        received = []

        def drain():
            peer, _ = listener.accept()
            with peer:
                while True:
                    data = peer.recv(1 << 16)
                    if not data:
                        return
                    received.append(data)

        drainer = threading.Thread(target=drain)
        drainer.start()
        client = ServeClient(*listener.getsockname())
        assert client.stream(trace) == len(trace)
        client.close()  # writes what is still buffered
        drainer.join(timeout=30)
        assert not drainer.is_alive()
    return b"".join(received)


@given(rows=ROWS)
@settings(max_examples=40, deadline=None)
def test_streamed_trace_bytes_match_io_lines(rows):
    trace = _trace(rows)
    assert _streamed_bytes(trace) == b"".join(_io_line(r) for r in trace)


def test_non_finite_and_negative_zero_times_stream_like_send():
    trace = _trace([
        (math.nan, OpType.WRITE, 1, 2), (math.inf, OpType.READ, 3, 4),
        (-math.inf, OpType.TRIM, 5, 6), (-0.0, OpType.WRITE, 7, 8),
        (1.5, OpType.WRITE, 9, 10),
    ])
    sent = _streamed_bytes(trace)
    assert sent == b"".join(_io_line(r) for r in trace)
    assert b'"t":NaN' in sent and b'"t":-Infinity' in sent
    assert b'"t":-0.0' in sent
