"""Property test: compaction under tombstones vs a dict reference model.

Random (seeded) sequences of puts, row deletes, flushes and major
compactions are applied both to a real :class:`Region` and to
``tests.reference.storage.ModelRegion``, a plain-dict model of HBase
visibility semantics (newest ``max_versions`` versions newer than every
covering tombstone). After every compaction —
and at the end — the region's scan, point reads, row count and size
accounting must match the model row for row. This pins the guarantee
chaos recovery leans on: compaction may drop tombstones and shadowed
versions, but never a visible cell.
"""

from __future__ import annotations

import random

import pytest

from repro.hbase.region import Region
from tests.reference.storage import ModelRegion

CF = b"cf"
QUALIFIERS = [b"qa", b"qb", b"qc"]
ROWS = [b"r%02d" % i for i in range(8)]


def build_region(max_versions: int) -> Region:
    return Region(
        table_name="prop",
        start_key=b"",
        end_key=None,
        max_versions=max_versions,
        flush_threshold_rows=10_000,  # flushes only when the test says so
    )


def assert_region_matches_model(region: Region, model: ModelRegion) -> None:
    expected = model.visible()
    actual = {
        row: dict(result.cells)
        for row, result in region.scan(max_versions=region.max_versions)
        if result is not None
    }
    assert actual == expected
    assert region.row_count() == len(expected)
    # point reads agree with the streaming scan for present & absent rows
    for row in ROWS:
        result = region.read_row(row, max_versions=region.max_versions)
        if row in expected:
            assert result is not None and dict(result.cells) == expected[row]
        else:
            assert result is None


@pytest.mark.parametrize("max_versions", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_put_delete_compact_sequences(seed: int, max_versions: int):
    rng = random.Random(1000 * max_versions + seed)
    region = build_region(max_versions)
    model = ModelRegion(max_versions)
    ts = 0
    compactions = 0
    for step in range(400):
        r = rng.random()
        row = rng.choice(ROWS)
        qualifier = rng.choice(QUALIFIERS)
        ts += 1
        if r < 0.62:
            value = b"v%d" % ts
            cells = [((CF, qualifier), value, ts)]
            region.put_row(row, cells, ts)
            model.put(row, cells, ts)
        elif r < 0.79:
            region.delete_row(row, ts)
            model.delete(row, ts)
        elif r < 0.93:
            region.flush()  # physical reshuffle, no visibility change
            model.flush()
        else:
            region.major_compact()
            model.compact()
            compactions += 1
            assert_region_matches_model(region, model)
            # compaction recomputes the exact size; the approximate
            # accounting must land on the same number
            assert region._approx_size_bytes == region._component_size_bytes()
            assert len(region.hfiles) <= 1
    assert compactions > 0  # the sequence genuinely exercised compaction
    region.major_compact()
    model.compact()
    assert_region_matches_model(region, model)


def test_compaction_drops_tombstones_but_preserves_visible_rows():
    """Deterministic spot check of the exact property chaos recovery
    relies on: after deletes + compaction, deleted rows are physically
    gone while surviving rows keep their newest values."""
    region = build_region(1)
    model = ModelRegion(1)
    for i, row in enumerate(ROWS):
        region.put_row(row, [((CF, b"qa"), b"old", i + 1)], i + 1)
        model.put(row, [((CF, b"qa"), b"old", i + 1)], i + 1)
    region.put_row(ROWS[0], [((CF, b"qa"), b"new", 100)], 100)
    model.put(ROWS[0], [((CF, b"qa"), b"new", 100)], 100)
    region.delete_row(ROWS[1], 101)
    model.delete(ROWS[1], 101)
    region.major_compact()
    model.compact()
    assert_region_matches_model(region, model)
    assert region.read_row(ROWS[0]).value(CF, b"qa") == b"new"
    size_after = region._approx_size_bytes
    assert size_after == region._component_size_bytes()
    # a second compaction is a no-op on an already-folded region
    region.major_compact()
    assert region._approx_size_bytes == size_after
