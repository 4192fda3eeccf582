"""The storage reference: one region model, the merge it reads with, the
value codec ``encode_value`` compiles, and the decode / re-encode round
trip (``result_to_row_reference`` / ``row_to_put_reference``) that the
stored-row write paths are held byte-identical to."""

from __future__ import annotations

import struct
from datetime import date, datetime

from repro.hbase.bytes_util import split_key
from repro.hbase.cell import Result
from repro.hbase.ops import Put
from repro.hbase.store import MemStore
from repro.phoenix.catalog import CF, ROW_MARKER_QUALIFIER, CatalogEntry
from repro.relational.datatypes import DataType, value_decoder

FAMILIES = [b"cf", b"fx"]
QUALIFIERS = [b"a", b"b", b"c"]
ALL_COLUMNS = [(family, qualifier) for family in FAMILIES for qualifier in QUALIFIERS]
PROJECTIONS = [
    None,
    [(b"cf", b"a")],
    [(b"cf", b"a"), (b"fx", b"b"), (b"cf", b"c")],
]


class ModelEntry:
    """One row in one component: insertion-ordered versions, row tombstone."""

    def __init__(self, cells=None):
        self.cells = cells if cells is not None else {}
        self.row_tombstone_ts = None


def newest_first(versions):
    """Stable: equal timestamps keep insertion order."""
    return sorted(versions, key=lambda tv: -tv[0])


def reference_merge_row(sources, max_versions, time_range=None, columns=None):
    """The visible cells of one row over ``sources`` (newest component
    first): copy every version of every projected column, stable-sort,
    drop what a row tombstone covers or ``time_range`` excludes,
    keep the newest ``max_versions``. ``None`` when nothing is visible."""
    row_ts = max(
        (s.row_tombstone_ts for s in sources if s.row_tombstone_ts is not None),
        default=None,
    )

    merged = {}
    for s in sources:
        for key, versions in s.cells.items():
            if columns is not None and key not in columns:
                continue
            merged.setdefault(key, []).extend(newest_first(versions))

    visible = {}
    lo, hi = time_range if time_range is not None else (0, 0)
    for key, versions in merged.items():
        kept = []
        for ts, value in newest_first(versions):
            if row_ts is not None and ts <= row_ts:
                continue
            if time_range is not None and not (lo <= ts < hi):
                continue
            kept.append((ts, value))
            if len(kept) >= max_versions:
                break
        if kept:
            visible[key] = kept
    return visible or None


def reference_scan(region, columns=None, max_versions=1, time_range=None):
    """Per-row point-merge scan of a real region: one ``_sources_for`` +
    :func:`reference_merge_row` per key (the seed read path)."""
    wanted = frozenset(columns) if columns is not None else None
    out = []
    for row in region.iter_keys(region.start_key, region.end_key):
        visible = reference_merge_row(
            region._sources_for(row), max(max_versions, 1), time_range, wanted
        )
        if visible is not None:
            out.append((row, visible))
    return out


def reference_size(row, visible):
    """``Result.size_bytes`` as first written: every cell pays the row
    key, 8 bytes of framing, its column name and its value."""
    return sum(
        len(row) + 8 + len(family) + len(qualifier) + len(value)
        for (family, qualifier), versions in visible.items()
        for _, value in versions
    )


def newest(result, columns):
    """The newest value of each of ``columns`` (``None`` when absent),
    read the way a row decoder reads them: ``Result.newest_into``."""
    row = {}
    result.newest_into(row, [(column, column, _raw) for column in columns])
    return [row[column] for column in columns]


def _raw(value):
    return value


def reading(result):
    """What a result says about itself, short of its ``cells``."""
    return (
        result.size_bytes,
        result.column_count,
        newest(result, ALL_COLUMNS),
        [result.value(*column) for column in ALL_COLUMNS],
    )


def reference_reading(row, visible):
    """:func:`reading` of a result holding exactly ``visible``."""
    heads = [
        visible[column][0][1] if column in visible else None
        for column in ALL_COLUMNS
    ]
    return (reference_size(row, visible), len(visible), heads, heads)


class ModelRegion:
    """Memstore + HFiles as plain dicts of :class:`ModelEntry`."""

    def __init__(self, max_versions):
        self.max_versions = max_versions
        self.mem = {}
        self.files = []  # oldest first, like Region.hfiles

    def _entry(self, row):
        return self.mem.setdefault(row, ModelEntry())

    def put(self, row, cells, default_ts):
        entry = self._entry(row)
        for column, value, ts in cells:
            entry.cells.setdefault(column, []).append(
                (default_ts if ts is None else ts, value)
            )

    def delete(self, row, ts):
        entry = self._entry(row)
        if entry.row_tombstone_ts is None or ts > entry.row_tombstone_ts:
            entry.row_tombstone_ts = ts

    def flush(self):
        if self.mem:
            self.files.append(self.mem)
            self.mem = {}

    def compact(self):
        """Fold visibility into the physical state: shadowed versions and
        every tombstone disappear."""
        merged = {row: ModelEntry(cells) for row, cells in self.visible().items()}
        self.mem = {}
        self.files = [merged] if merged else []

    def sources(self, row):
        components = [self.mem, *reversed(self.files)]
        return [c[row] for c in components if row in c]

    def visible(self):
        """row -> the newest ``max_versions`` visible versions per column,
        rows in key order."""
        rows = sorted({row for c in (self.mem, *self.files) for row in c})
        out = {}
        for row in rows:
            cells = reference_merge_row(self.sources(row), self.max_versions)
            if cells is not None:
                out[row] = cells
        return out


def encode_value_reference(dtype: DataType, value) -> bytes:
    """The per-call dtype chain ``encode_value`` used to be."""
    bias = 1 << 63
    if value is None:
        return b""
    if dtype is DataType.INT:
        return struct.pack(">Q", int(value) + bias)
    if dtype is DataType.FLOAT:
        return struct.pack(">d", float(value))
    if dtype is DataType.VARCHAR:
        return str(value).encode("utf-8")
    if dtype is DataType.DATE:
        if isinstance(value, (date, datetime)):
            value = value.toordinal()
        return struct.pack(">Q", int(value) + bias)
    raise TypeError(f"unsupported dtype: {dtype}")


def split_key_reference(key: bytes) -> list[bytes]:
    """The byte-at-a-time loop ``split_key`` used to be."""
    out: list[bytes] = []
    cur = bytearray()
    i = 0
    n = len(key)
    while i < n:
        b = key[i]
        if b == 0:
            if i + 1 < n and key[i + 1] == 0xFF:  # escaped 0x00
                cur.append(0)
                i += 2
                continue
            out.append(bytes(cur))
            cur.clear()
            i += 1
            continue
        cur.append(b)
        i += 1
    out.append(bytes(cur))
    return out


_INT_BIAS = 1 << 63


def decode_value_reference(dtype: DataType, data: bytes):
    """The per-cell dtype chain ``decode_value`` used to be."""
    if data == b"":
        return None
    if dtype in (DataType.INT, DataType.DATE):
        return struct.unpack(">Q", data)[0] - _INT_BIAS
    if dtype is DataType.FLOAT:
        return struct.unpack(">d", data)[0]
    if dtype is DataType.VARCHAR:
        return data.decode("utf-8")
    raise TypeError(f"unsupported dtype: {dtype}")


def result_to_row_reference(entry: CatalogEntry, result: Result) -> dict:
    """What ``CatalogEntry.result_to_row`` used to do, cell by cell."""
    parts = split_key_reference(result.row)
    assert len(parts) == len(entry.key_attrs)
    row = {
        a: decode_value_reference(entry.dtypes[a], p)
        for a, p in zip(entry.key_attrs, parts)
    }
    for attr in entry.attrs:
        if attr in entry.key_attrs:
            continue
        raw = result.value(CF, attr.encode())
        row[attr] = (
            decode_value_reference(entry.dtypes[attr], raw)
            if raw is not None
            else None
        )
    return row


def row_to_put_reference(entry: CatalogEntry, row: dict) -> Put:
    """The ``Put.add`` loop ``CatalogEntry.row_to_put`` used to be."""
    put = Put(entry.encode_key(row))
    for attr in entry.value_attrs:
        value = encode_value_reference(entry.dtypes[attr], row.get(attr))
        put.add(CF, attr.encode(), value)
    if not entry.value_attrs:
        put.add(CF, ROW_MARKER_QUALIFIER, b"")
    return put


def decode_key(dtypes, key: bytes) -> tuple:
    """The inverse of ``encode_key``: a composite key's typed components."""
    parts = split_key(key)
    if len(parts) != len(dtypes):
        raise ValueError(
            f"key arity mismatch: {len(parts)} components, {len(dtypes)} types"
        )
    return tuple(value_decoder(dt)(p) for dt, p in zip(dtypes, parts))


def new_entry():
    """An empty ``RowEntry``, built the one way the memstore builds one."""
    return MemStore().entry(b"", create=True)


def put_cell(entry, family: bytes, qualifier: bytes, ts: int, value: bytes) -> None:
    """One cell into a ``RowEntry`` by ``MemStore.apply_put`` itself, the
    one statement of version order (``newest_first`` stays the oracle)."""
    memstore = MemStore()
    memstore._entries[b""] = entry
    memstore.apply_put(b"", [((family, qualifier), value, ts)], ts, 0)
