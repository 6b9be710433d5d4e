"""The serve wire protocol: line-delimited JSON over a stream socket.

Every message is one JSON object on one line, tagged with ``type``.
Client → server::

    {"type": "open", "tenant": "t1", "workload": "mail",
     "system": "mq-dvp", "scale": 0.05, "shards": 1, ...}
    {"type": "io", "t": 12.5, "op": "W", "lpn": 42, "value": 7}
    {"type": "flush"}      # step buffered requests, reply metrics
    {"type": "close"}      # finish the session, reply the final record
    {"type": "detach"}     # keep the session (checkpointed), reply bye
    {"type": "ping"}
    {"type": "shutdown"}   # ask the server to drain and exit

``io`` lines reuse the JSONL trace record shape verbatim
(:func:`repro.traces.jsonl.record_of_request`), so a trace file *is* a
valid request stream — and they are deliberately **not** acknowledged:
the server reads one bounded chunk of lines at a time and reads no more
until every line of it is processed, so TCP flow control is the
per-tenant backpressure.
A client may hold ``io`` lines back — unacknowledged and buffered until
the next control message — and the bundled
:class:`~repro.serve.client.ServeClient` does, so a window leaves in a
few large writes.  Every other client message forces that buffer onto
the wire, so ``flush`` is the one sync point: the acknowledgement
barrier whose ``metrics`` reply proves every prior ``io`` line was
serviced.  Both ends run with ``TCP_NODELAY``, so a control message is
never held back waiting for the ACK of an earlier segment.

Server → client replies are tagged the same way: ``opened``,
``metrics``, ``result``, ``bye``, ``pong``, ``error``, ``draining``.
``metrics``/``result`` carry a ``record`` field holding a
``repro.api/v1`` :class:`~repro.api.ResultRecord` dict — the same
unified schema every other surface in the repo emits.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "CLIENT_TYPES",
    "SERVER_TYPES",
    "ProtocolError",
    "encode_message",
    "decode_message",
]

#: Carried in ``opened`` replies; readers refuse unknown versions.
PROTOCOL_VERSION = 1

#: The longest message line the server reads, not counting its newline
#: (asyncio's default stream limit), and the most it reads at once.  A
#: longer line is discarded whole and answered with an ``error``; the
#: connection keeps serving.
MAX_LINE_BYTES = 1 << 16

CLIENT_TYPES = (
    "open", "io", "flush", "close", "detach", "ping", "shutdown",
)
SERVER_TYPES = (
    "opened", "metrics", "result", "bye", "pong", "error", "draining",
)


class ProtocolError(ValueError):
    """A malformed or out-of-place protocol message."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire line (JSON + newline) for ``message``."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


_raw_decode = json.JSONDecoder().raw_decode
_whitespace = json.decoder.WHITESPACE.match


def _loads(line: bytes) -> Any:
    """``json.loads(line.decode("utf-8"))``.  A line that opens with
    ``{`` goes straight to ``JSONDecoder.raw_decode`` (the scan
    ``json.loads`` runs) and is done when only JSON whitespace follows
    the value; every other line, and any that path rejects, takes
    ``json.loads`` for its error text."""
    if line[:1] == b"{":
        try:
            text = line.decode("utf-8")
            obj, end = _raw_decode(text)
        except ValueError:  # UnicodeDecodeError, JSONDecodeError
            pass
        else:
            if _whitespace(text, end).end() == len(text):
                return obj
    return json.loads(line.decode("utf-8"))


def decode_message(
    line: bytes, allowed: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` on bad input.

    ``allowed`` restricts the accepted ``type`` tags — the server passes
    :data:`CLIENT_TYPES`, the client :data:`SERVER_TYPES` — so a peer
    speaking a different vocabulary fails loudly instead of being
    half-understood.
    """
    try:
        obj = _loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("expected a JSON object")
    kind = obj.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("missing message type")
    if allowed is not None and kind not in allowed:
        raise ProtocolError(f"unexpected message type {kind!r}")
    return obj
