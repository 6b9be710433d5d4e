"""Content fingerprints for 4KB values.

The paper identifies a page's *value* (its 4KB content) by a 16-byte hash
(MD5 in the FIU traces, SHA-1 in the OSU ones) and stores those hashes in
the dead-value pool rather than the content itself.  The simulator mostly
deals in synthetic values: a unique integer ``value_id`` stands in for one
unique 4KB content.  This module maps both synthetic ids and raw bytes to
:class:`Fingerprint` objects, the single currency used by the pools, the
dedup FTL and the analysis code.

Fingerprints compare and hash by digest, so two values collide exactly when
their digests collide — which for synthetic ids never happens, because the
digest embeds the id.

Representation: a :class:`Fingerprint` *is* an ``int`` (columnar-state
rework, ISSUE 6).  A synthetic id is stored as itself; a raw 16-byte
digest is stored as its 128-bit big-endian value with bit 128 set, which
keeps the two key spaces disjoint; instances carry no ``__dict__``/slot
storage at all.  Hashing is
``int.__hash__``, at C speed.  Equality is not: ``Fingerprint.__eq__``
below is Python code.  A dict probe in the pool, MQ and dedup tables
stays in C when it meets the very instance it was keyed with (dicts test
identity before ``__eq__``), which interning makes the common case; an
explicit ``==`` always runs the Python method, so hot paths compare by
identity instead (the MQ tracks its hottest entry and queue heads by
``MQEntry`` identity).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial
from typing import Iterator, Sequence, Union

__all__ = [
    "Fingerprint",
    "fingerprint_of_value",
    "fingerprints_of_values",
    "fingerprint_of_bytes",
    "DIGEST_SIZE",
]

#: Size of a stored fingerprint in bytes (matches the 16B MD5 hashes in the
#: FIU traces, see paper Section II-A).
DIGEST_SIZE = 16

#: Bit 128: set on bytes-keyed fingerprints so a digest whose value happens
#: to equal a synthetic id can never compare equal to it.
_BYTES_TAG = 1 << (8 * DIGEST_SIZE)


class Fingerprint(int):
    """A 16-byte content fingerprint.

    Wraps either a synthetic ``value_id`` (fast path used by generated
    traces) or a real digest of raw bytes.  Instances are immutable,
    hashable and compare equal iff their digests are equal.  Equality is
    restricted to other fingerprints: a fingerprint never compares equal
    to a plain ``int``, even though it is one underneath.
    """

    __slots__ = ()

    def __new__(cls, key: Union[int, bytes]) -> "Fingerprint":
        if isinstance(key, bytes):
            if len(key) != DIGEST_SIZE:
                raise ValueError(
                    f"digest must be {DIGEST_SIZE} bytes, got {len(key)}"
                )
            return int.__new__(cls, _BYTES_TAG | int.from_bytes(key, "big"))
        if isinstance(key, int):
            if key < 0:
                raise ValueError("synthetic value ids must be non-negative")
            if key >= _BYTES_TAG:
                raise ValueError(
                    f"synthetic value ids must fit in {8 * DIGEST_SIZE} bits"
                )
            return int.__new__(cls, key)
        raise TypeError(f"fingerprint key must be int or bytes, got {type(key)!r}")

    @property
    def key(self) -> Union[int, bytes]:
        """The underlying key: an ``int`` value id or a 16-byte digest."""
        value = int(self)
        if value >= _BYTES_TAG:
            return (value - _BYTES_TAG).to_bytes(DIGEST_SIZE, "big")
        return value

    @property
    def digest(self) -> bytes:
        """A canonical 16-byte digest (materialised once per fingerprint)."""
        return _digest_of(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fingerprint):
            return int.__eq__(self, other)
        # Plain False, not NotImplemented: the reflected int comparison
        # would otherwise declare Fingerprint(5) == 5.
        return False

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Fingerprint):
            return int.__ne__(self, other)
        return True

    __hash__ = int.__hash__

    def __repr__(self) -> str:
        value = int(self)
        if value >= _BYTES_TAG:
            digest = (value - _BYTES_TAG).to_bytes(DIGEST_SIZE, "big")
            return f"Fingerprint(digest={digest.hex()})"
        return f"Fingerprint(value_id={value})"

    def __reduce__(self):
        # Round-trip through the validating constructor; default int
        # pickling would drop the subclass distinction on some paths.
        return (Fingerprint, (self.key,))


#: Interning bound for synthetic-id fingerprints.  Hot value ids (popular
#: rewrites) repeat millions of times across a matrix; interning returns
#: one shared immutable instance instead of re-allocating per request.
#: The per-LPN initial values preconditioning writes are *not* interned
#: (:func:`fingerprints_of_values`): no trace re-derives one, so they
#: would only push the trace's hot values out of the cache.
INTERN_CACHE_SIZE = 1 << 18


@lru_cache(maxsize=INTERN_CACHE_SIZE)
def _digest_of(fp: Fingerprint) -> bytes:
    value = int(fp)
    if value >= _BYTES_TAG:
        return (value - _BYTES_TAG).to_bytes(DIGEST_SIZE, "big")
    return value.to_bytes(DIGEST_SIZE, "big")


@lru_cache(maxsize=INTERN_CACHE_SIZE)
def fingerprint_of_value(value_id: int) -> Fingerprint:
    """Fingerprint of a synthetic value id.

    Synthetic traces number every distinct 4KB content with an integer; two
    requests carry the same ``value_id`` exactly when the paper's traces
    would carry the same MD5.  Instances are interned (this function is
    the LRU itself, so replay pays one call per write), so hot ids reuse
    one shared immutable object.
    """
    return Fingerprint(value_id)


#: ``Fingerprint(value_id)`` without the per-call validation, for ids
#: :func:`fingerprints_of_values` has already checked in bulk.
_unchecked_fingerprint = partial(int.__new__, Fingerprint)


def fingerprints_of_values(value_ids: Sequence[int]) -> Iterator[Fingerprint]:
    """Fingerprints of many one-shot synthetic value ids, not interned.

    Equal to ``map(fingerprint_of_value, value_ids)``, for ids no trace
    ever repeats: the ``initial_value_of`` ids preconditioning writes once
    per page.  The ids are checked once up front (plain ints in the
    synthetic range; a ``range`` by its ends) and the fingerprints are
    built lazily, each a fresh instance that never enters the intern
    cache.
    """
    if isinstance(value_ids, range):
        ends = (value_ids[0], value_ids[-1]) if value_ids else ()
    else:
        if set(map(type, value_ids)) - {int}:
            raise TypeError("synthetic value ids must be ints")
        ends = (min(value_ids), max(value_ids)) if value_ids else ()
    if ends and (min(ends) < 0 or max(ends) >= _BYTES_TAG):
        raise ValueError(
            f"synthetic value ids must lie in [0, 2**{8 * DIGEST_SIZE})"
        )
    return map(_unchecked_fingerprint, value_ids)


def fingerprint_of_bytes(data: bytes) -> Fingerprint:
    """MD5 fingerprint of a raw 4KB chunk (real-trace / real-data path)."""
    return Fingerprint(hashlib.md5(data).digest())
