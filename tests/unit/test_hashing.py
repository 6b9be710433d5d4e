"""Unit tests for content fingerprints."""

import pytest

from repro.core.hashing import (
    DIGEST_SIZE,
    Fingerprint,
    fingerprint_of_bytes,
    fingerprint_of_value,
    fingerprints_of_values,
)


class TestFingerprintConstruction:
    def test_int_key(self):
        fp = Fingerprint(42)
        assert fp.key == 42

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            Fingerprint(-1)

    def test_bytes_key_must_be_digest_sized(self):
        with pytest.raises(ValueError):
            Fingerprint(b"short")

    def test_bytes_key_accepted(self):
        digest = bytes(range(DIGEST_SIZE))
        assert Fingerprint(digest).key == digest

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            Fingerprint("not-a-key")  # type: ignore[arg-type]


class TestFingerprintEquality:
    def test_equal_ids_equal_fingerprints(self):
        assert fingerprint_of_value(7) == fingerprint_of_value(7)

    def test_distinct_ids_differ(self):
        assert fingerprint_of_value(7) != fingerprint_of_value(8)

    def test_hashable_and_usable_as_dict_key(self):
        d = {fingerprint_of_value(1): "a"}
        assert d[fingerprint_of_value(1)] == "a"

    def test_not_equal_to_other_types(self):
        assert fingerprint_of_value(1) != 1

    def test_int_and_equivalent_digest_do_not_collide_accidentally(self):
        fp_int = fingerprint_of_value(5)
        fp_bytes = Fingerprint((5).to_bytes(DIGEST_SIZE, "big"))
        # Same canonical digest, but identity is by key.
        assert fp_int.digest == fp_bytes.digest


class TestDigests:
    def test_int_digest_is_16_bytes(self):
        assert len(fingerprint_of_value(123456).digest) == DIGEST_SIZE

    def test_bytes_digest_roundtrip(self):
        fp = fingerprint_of_bytes(b"x" * 4096)
        assert len(fp.digest) == DIGEST_SIZE

    def test_same_content_same_digest(self):
        assert fingerprint_of_bytes(b"a" * 100) == fingerprint_of_bytes(b"a" * 100)

    def test_different_content_different_digest(self):
        assert fingerprint_of_bytes(b"a") != fingerprint_of_bytes(b"b")

    def test_repr_mentions_value_id(self):
        assert "42" in repr(fingerprint_of_value(42))

    def test_digest_is_memoised_for_int_keys(self):
        fp = Fingerprint(77)
        assert fp.digest is fp.digest  # materialised once, then cached

    def test_digest_matches_to_bytes(self):
        assert Fingerprint(77).digest == (77).to_bytes(DIGEST_SIZE, "big")


class TestInterning:
    def test_hot_ids_share_one_instance(self):
        assert fingerprint_of_value(12345) is fingerprint_of_value(12345)

    def test_direct_construction_not_interned(self):
        # The constructor stays a plain allocation; only the factory interns.
        assert Fingerprint(9) == fingerprint_of_value(9)
        assert Fingerprint(9) is not Fingerprint(9)

    def test_negative_id_still_rejected_through_factory(self):
        with pytest.raises(ValueError):
            fingerprint_of_value(-3)


class TestBulkFingerprints:
    def test_equal_to_the_interned_factory(self):
        for ids in (range(1 << 40, (1 << 40) + 50), [7, 0, 1 << 40, 7]):
            bulk = list(fingerprints_of_values(ids))
            assert bulk == [fingerprint_of_value(i) for i in ids]
            assert all(type(fp) is Fingerprint for fp in bulk)
            assert [fp.key for fp in bulk] == list(ids)

    def test_empty(self):
        assert list(fingerprints_of_values(range(0))) == []
        assert list(fingerprints_of_values([])) == []

    @pytest.mark.parametrize("ids", [
        range(-1, 5), range(5, -2, -1), [3, -1],
        range((1 << 128) - 1, (1 << 128) + 1), [1 << 128],
    ])
    def test_out_of_range_rejected_up_front(self, ids):
        with pytest.raises(ValueError):
            fingerprints_of_values(ids)

    @pytest.mark.parametrize("ids", [[1, 2.0], [True], ["5"]])
    def test_non_int_rejected(self, ids):
        with pytest.raises(TypeError):
            fingerprints_of_values(ids)
