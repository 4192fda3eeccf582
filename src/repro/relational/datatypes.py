"""Value types and byte encodings.

The simulated HBase stores opaque byte strings; this module provides the
(order-preserving where it matters) encodings used for row keys and cell
values, plus size accounting used for Table III (database sizes).
"""

from __future__ import annotations

import enum
import struct
from datetime import date, datetime
from typing import Any, Callable


class DataType(enum.Enum):
    """SQL-ish column types supported by the engines."""

    INT = "int"
    FLOAT = "float"
    VARCHAR = "varchar"
    DATE = "date"


_INT_BIAS = 1 << 63  # order-preserving encoding for signed integers


_PACK_Q = struct.Struct(">Q").pack
_PACK_D = struct.Struct(">d").pack


# ``None`` encodes to the empty byte string for every type (the engines
# treat absent cells and NULLs identically, like HBase does).
def _encode_int(value: Any) -> bytes:
    return b"" if value is None else _PACK_Q(int(value) + _INT_BIAS)


def _encode_float(value: Any) -> bytes:
    return b"" if value is None else _PACK_D(float(value))


def _encode_varchar(value: Any) -> bytes:
    return b"" if value is None else str(value).encode("utf-8")


def _encode_date(value: Any) -> bytes:
    if isinstance(value, (date, datetime)):
        value = value.toordinal()
    return _encode_int(value)


_ENCODERS: dict[DataType, Callable[[Any], bytes]] = {
    DataType.INT: _encode_int,
    DataType.FLOAT: _encode_float,
    DataType.VARCHAR: _encode_varchar,
    DataType.DATE: _encode_date,
}


def value_encoder(dtype: DataType) -> Callable[[Any], bytes]:
    """:func:`encode_value` pre-bound to ``dtype``."""
    return _ENCODERS[dtype]


def encode_value(dtype: DataType, value: Any) -> bytes:
    """Encode ``value`` as bytes. Integer/date encodings preserve order;
    ``None`` encodes to ``b""``."""
    return _ENCODERS[dtype](value)


_UNPACK_Q = struct.Struct(">Q").unpack
_UNPACK_D = struct.Struct(">d").unpack


# The decoders take ``None`` (absent cell) as well as ``b""`` (NULL):
# both decode to ``None``, so a row decoder needs no branch of its own.
def _decode_int(data: bytes | None) -> Any:
    return _UNPACK_Q(data)[0] - _INT_BIAS if data else None


def _decode_float(data: bytes | None) -> Any:
    return _UNPACK_D(data)[0] if data else None


def _decode_varchar(data: bytes | None) -> Any:
    return data.decode("utf-8") if data else None


_DECODERS: dict[DataType, Callable[[bytes | None], Any]] = {
    DataType.INT: _decode_int,
    DataType.DATE: _decode_int,
    DataType.FLOAT: _decode_float,
    DataType.VARCHAR: _decode_varchar,
}


def value_decoder(dtype: DataType) -> Callable[[bytes | None], Any]:
    """The inverse of :func:`value_encoder` (dates decode to ordinals);
    also maps an absent cell (``None``) to ``None``."""
    return _DECODERS[dtype]


def value_size_bytes(dtype: DataType, value: Any) -> int:
    """Size of the encoded value, for storage accounting."""
    return len(encode_value(dtype, value))
