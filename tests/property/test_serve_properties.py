"""The serve client's ``io`` line template is ``encode_message``, byte for
byte, and steps aside for every field it cannot print the same way."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import client as serve_client
from repro.serve.client import _io_line
from repro.serve.protocol import encode_message
from repro.sim.request import IORequest, OpType
from repro.traces.jsonl import record_of_request


def reference(request):
    return encode_message(dict(record_of_request(request), type="io"))


#: Finite floats of every magnitude, so ``repr`` needs exponents both
#: ways (1e-07, 1e+16, 5e-324), plus negative zero.
finite_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, 5e-324, 1.7976931348623157e308,
                     123456789.123, 0.1]),
)
ints = st.integers(min_value=-(2**70), max_value=2**70)


@given(t=finite_times, op=st.sampled_from(list(OpType)), lpn=ints,
       value=ints)
def test_template_matches_encode_message(t, op, lpn, value):
    request = IORequest(t, op, lpn, value)
    assert _io_line(request) == reference(request)


@pytest.mark.parametrize("fields", [
    (math.nan, 1, 2),
    (math.inf, 1, 2),
    (-math.inf, 1, 2),
    (5, 1, 2),              # an int time prints as "5", not "5.0"
    (1.5, True, 2),         # a bool prints as "true"
    (1.5, 1, False),
    (1.5, 1.0, 2),
])
def test_other_fields_fall_back_to_encode_message(fields, monkeypatch):
    t, lpn, value = fields
    request = IORequest(t, OpType.WRITE, lpn, value)
    expected = reference(request)
    calls = []

    def counted(message):
        calls.append(message)
        return encode_message(message)

    monkeypatch.setattr(serve_client, "encode_message", counted)
    assert _io_line(request) == expected
    assert len(calls) == 1


def test_template_is_taken_for_plain_requests(monkeypatch):
    monkeypatch.setattr(serve_client, "encode_message", None)
    line = _io_line(IORequest(12.5, OpType.WRITE, 42, 7))
    assert line == b'{"lpn":42,"op":"W","t":12.5,"type":"io","value":7}\n'
