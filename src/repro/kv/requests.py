"""Keyed operations and deterministic key/content mixing.

The KV layer speaks its own request language — GET/PUT/DELETE/SCAN over
string or integer keys with byte-sized values — and translates it into
the simulator's 4KB page operations (replay rows, :data:`~repro.sim.request.Row`).
This module holds the request type plus the deterministic integer mixing
everything above the page layer uses to derive ``value_id`` content
identities.  Python's builtin ``hash`` is banned here (string hashing is
randomised per process, which would break digest determinism across
runs and worker processes); keys mix through SHA-256 / splitmix64
instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Union

__all__ = ["KVOp", "KVRequest", "Key", "key_to_int", "mix64"]

#: A KV key: integers (orderable, scannable) or strings (hashed).
Key = Union[int, str]

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finaliser: a deterministic 64-bit bijection.

    Used to spread structured integers (key ranks, content sequence
    numbers, page indexes) over the ``value_id`` space so distinct KV
    contents never alias the block-trace content universe by accident.
    """
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def key_to_int(key: Key) -> int:
    """A deterministic 64-bit integer identity for a key.

    Integer keys map through :func:`mix64`; string keys through SHA-256
    (never ``hash()``, which is per-process randomised for strings).
    """
    if type(key) is int and key >= 0:   # the common case, checked first
        return mix64(key)
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise TypeError(f"keys are int or str, not {type(key).__name__}")
    if isinstance(key, int):
        if key < 0:
            raise ValueError("integer keys must be non-negative")
        return mix64(key)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class KVOp(Enum):
    GET = "G"
    PUT = "P"
    DELETE = "D"
    SCAN = "S"


@dataclass(frozen=True, slots=True)
class KVRequest:
    """One keyed operation.

    ``value_bytes``/``content_id`` describe the value a PUT carries
    (``content_id`` is the KV analogue of the block traces' ``value_id``:
    two PUTs with the same content id write identical bytes, which is
    what value-locality revival feeds on).  ``scan_length`` bounds a SCAN
    (int keys only: the following keys in key order).
    """

    arrival_us: float
    op: KVOp
    key: Key
    value_bytes: int = 0
    content_id: int = 0
    scan_length: int = 0

    def __post_init__(self) -> None:
        if self.arrival_us < 0:
            raise ValueError("arrival_us must be non-negative")
        if self.op is KVOp.PUT and self.value_bytes <= 0:
            raise ValueError("PUT requires value_bytes > 0")
        if self.op is KVOp.SCAN and self.scan_length <= 0:
            raise ValueError("SCAN requires scan_length > 0")
