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
    BIGINT = "bigint"
    FLOAT = "float"
    VARCHAR = "varchar"
    DATE = "date"
    DATETIME = "datetime"
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.BIGINT, DataType.FLOAT)


_INT_BIAS = 1 << 63  # order-preserving encoding for signed integers


def encode_value(dtype: DataType, value: Any) -> bytes:
    """Encode ``value`` as bytes. Integer/date encodings preserve order.

    ``None`` encodes to the empty byte string for every type (the engines
    treat absent cells and NULLs identically, like HBase does).
    """
    if value is None:
        return b""
    if dtype in (DataType.INT, DataType.BIGINT):
        return struct.pack(">Q", int(value) + _INT_BIAS)
    if dtype is DataType.FLOAT:
        return struct.pack(">d", float(value))
    if dtype is DataType.VARCHAR:
        return str(value).encode("utf-8")
    if dtype is DataType.DATE:
        if isinstance(value, (date, datetime)):
            value = value.toordinal()
        return struct.pack(">Q", int(value) + _INT_BIAS)
    if dtype is DataType.DATETIME:
        if isinstance(value, datetime):
            value = value.timestamp()
        return struct.pack(">d", float(value))
    if dtype is DataType.BOOL:
        return b"\x01" if value else b"\x00"
    raise TypeError(f"unsupported dtype: {dtype}")


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


def _decode_bool(data: bytes | None) -> Any:
    return data != b"\x00" if data else None


_DECODERS: dict[DataType, Callable[[bytes | None], Any]] = {
    DataType.INT: _decode_int,
    DataType.BIGINT: _decode_int,
    DataType.DATE: _decode_int,
    DataType.FLOAT: _decode_float,
    DataType.DATETIME: _decode_float,
    DataType.VARCHAR: _decode_varchar,
    DataType.BOOL: _decode_bool,
}


def value_decoder(dtype: DataType) -> Callable[[bytes | None], Any]:
    """:func:`decode_value` pre-bound to ``dtype``; also maps an absent
    cell (``None``) to ``None``."""
    return _DECODERS[dtype]


def decode_value(dtype: DataType, data: bytes) -> Any:
    """Inverse of :func:`encode_value` (dates decode to ordinals)."""
    return _DECODERS[dtype](data)


def value_size_bytes(dtype: DataType, value: Any) -> int:
    """Size of the encoded value, for storage accounting."""
    return len(encode_value(dtype, value))
