"""Row-key encoding: order-preserving delimited concatenation.

The baseline schema transformation (paper Sec. II-D) builds a row key as
"a delimited concatenation of the value of attributes" in the key. We
encode each component with the order-preserving codecs from
:mod:`repro.relational.datatypes` and join with a ``0x00`` delimiter;
``0x00`` bytes inside a component are escaped as ``0x00 0xFF`` so that
the concatenation remains prefix-safe and order-preserving for the
fixed-width numeric encodings used in keys.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

from repro.relational.datatypes import DataType, encode_value

DELIM = b"\x00"
ESCAPE = b"\x00\xff"

# a 0x00 that does not start an escape pair is a component boundary
_SPLIT_UNESCAPED_DELIM = re.compile(rb"\x00(?!\xff)").split


def _escape(component: bytes) -> bytes:
    return component.replace(DELIM, ESCAPE)


def encode_key(dtypes: Sequence[DataType], values: Iterable[Any]) -> bytes:
    """Encode a composite key from typed components."""
    values = list(values)
    if len(values) != len(dtypes):
        raise ValueError(f"key arity mismatch: {len(values)} values, {len(dtypes)} types")
    parts = [_escape(encode_value(dt, v)) for dt, v in zip(dtypes, values)]
    return DELIM.join(parts)


def join_key(components: Iterable[bytes]) -> bytes:
    """:func:`encode_key` of components already encoded: what
    :func:`split_key` takes apart."""
    return DELIM.join([_escape(part) for part in components])


def split_key(key: bytes) -> list[bytes]:
    """Split a composite key into its unescaped components."""
    return [part.replace(ESCAPE, DELIM) for part in _SPLIT_UNESCAPED_DELIM(key)]


def prefix_stop(prefix: bytes) -> bytes:
    """Exclusive stop row for scanning all keys starting with ``prefix``."""
    return prefix + b"\xff\xff\xff\xff\xff\xff\xff\xff"
