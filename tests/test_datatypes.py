"""Value-codec tests, including order preservation (hypothesis)."""

import struct
from datetime import date, datetime

import pytest
from hypothesis import given, strategies as st

from repro.hbase.bytes_util import encode_key, prefix_stop, split_key
from repro.relational.datatypes import (
    DataType,
    encode_value,
    value_decoder,
    value_encoder,
    value_size_bytes,
)
from tests.reference.storage import decode_key, encode_value_reference

INTS = st.integers(min_value=-(2**62), max_value=2**62)
TEXT = st.text(max_size=64)


class TestScalarCodec:
    @given(INTS)
    def test_int_roundtrip(self, v):
        assert value_decoder(DataType.INT)(encode_value(DataType.INT, v)) == v

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_roundtrip(self, v):
        assert value_decoder(DataType.FLOAT)(encode_value(DataType.FLOAT, v)) == v

    @given(TEXT)
    def test_varchar_roundtrip(self, v):
        assert (
            value_decoder(DataType.VARCHAR)(encode_value(DataType.VARCHAR, v)) == v
            or v == ""  # empty string encodes like NULL, as in HBase
        )

    def test_null_encodes_empty(self):
        for dtype in DataType:
            assert encode_value(dtype, None) == b""
            assert value_decoder(dtype)(b"") is None

    @given(INTS, INTS)
    def test_int_encoding_preserves_order(self, a, b):
        ea, eb = encode_value(DataType.INT, a), encode_value(DataType.INT, b)
        assert (a < b) == (ea < eb)

    @given(st.integers(min_value=0, max_value=3_000_000),
           st.integers(min_value=0, max_value=3_000_000))
    def test_date_encoding_preserves_order(self, a, b):
        ea, eb = encode_value(DataType.DATE, a), encode_value(DataType.DATE, b)
        assert (a < b) == (ea < eb)

    def test_size_accounting(self):
        assert value_size_bytes(DataType.INT, 5) == 8
        assert value_size_bytes(DataType.VARCHAR, "abc") == 3


def outcome(encode, *args):
    """The bytes, or the type of the exception the value is refused with."""
    try:
        return encode(*args)
    except (TypeError, ValueError, OverflowError, struct.error) as exc:
        return type(exc)


ANY_VALUE = (
    st.none()
    | st.integers(-(1 << 63), (1 << 63) - 1)
    | st.floats(allow_nan=False)
    | st.floats(min_value=-1e-3, max_value=1e-3)
    | st.booleans()
    | st.text(max_size=8)
    | st.dates()
    | st.datetimes()
)


class TestCompiledEncoder:
    @given(st.sampled_from(list(DataType)), ANY_VALUE)
    def test_matches_the_dtype_chain_for_every_type_and_value(self, dtype, value):
        expected = outcome(encode_value_reference, dtype, value)
        assert outcome(value_encoder(dtype), value) == expected
        assert outcome(encode_value, dtype, value) == expected

    @pytest.mark.parametrize("dtype", list(DataType))
    @pytest.mark.parametrize(
        "value",
        [None, 0, 1, -1, -(1 << 40), 2.5, -2.5, 1e-9, -1e-9, True, False,
         date(2017, 9, 5), datetime(2017, 9, 5, 12, 30), "", "7", "text",
         # the ends of the biased 64-bit range and one past each
         (1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1,
         # IEEE specials and the smallest subnormal
         float("inf"), float("-inf"), float("nan"), -0.0, 5e-324,
         # strings a numeric encoder parses or refuses, and non-ASCII text
         "-1", "2.5", "\x00", "\u00e9",
         # the first and the epoch day of the ordinal calendar
         date(1, 1, 1), date(1970, 1, 1), datetime(9999, 12, 31, 23, 59)],
    )
    def test_pinned_values(self, dtype, value):
        assert outcome(value_encoder(dtype), value) == outcome(
            encode_value_reference, dtype, value
        )


KEY_TYPES = st.sampled_from([DataType.INT, DataType.VARCHAR])


class TestCompositeKeys:
    @given(st.lists(st.tuples(KEY_TYPES, st.integers(0, 10**9) | TEXT),
                    min_size=1, max_size=4))
    def test_key_roundtrip(self, parts):
        dtypes, values = [], []
        for dtype, value in parts:
            if dtype is DataType.INT and isinstance(value, str):
                value = len(value)
            if dtype is DataType.VARCHAR and isinstance(value, int):
                value = str(value)
            dtypes.append(dtype)
            values.append(value)
        key = encode_key(dtypes, values)
        decoded = decode_key(dtypes, key)
        expected = tuple(None if v == "" else v for v in values)
        assert decoded == expected

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_key([DataType.INT], [1, 2])
        with pytest.raises(ValueError):
            decode_key([DataType.INT, DataType.INT],
                       encode_key([DataType.INT], [1]))

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_int_composite_keys_sort_like_tuples(self, a, b):
        dtypes = [DataType.INT, DataType.INT]
        ka = encode_key(dtypes, [a, b])
        kb = encode_key(dtypes, [b, a])
        assert ((a, b) < (b, a)) == (ka < kb)

    def test_embedded_delimiter_escaped(self):
        dtypes = [DataType.VARCHAR, DataType.VARCHAR]
        key = encode_key(dtypes, ["a\x00b", "c"])
        assert decode_key(dtypes, key) == ("a\x00b", "c")
        assert len(split_key(key)) == 2

    @given(INTS, TEXT)
    def test_prefix_stop_orders_after_every_key_with_the_prefix(self, k, rest):
        prefix = encode_key([DataType.INT], [k])
        stop = prefix_stop(prefix)
        key = encode_key([DataType.INT, DataType.VARCHAR], [k, rest])
        assert prefix <= key < stop
        assert stop < encode_key([DataType.INT], [k + 1])
