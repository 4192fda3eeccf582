"""Executable specifications the suites diff the simulator against, each
defined once and imported as ``tests.reference.<module>`` — never by a
bare name, which loads a second copy (``TestImportGraph`` in
``tests/test_bench.py`` holds this, and that no test module imports
another).

``storage`` is the reference for the HBase region read path:
``ModelRegion`` (memstore and HFiles as dicts of insertion-ordered
versions and tombstones), ``reference_merge_row`` (the copy-everything,
stable-sort, filter merge with projection and ``time_range``),
``reference_scan`` (one such merge per key of a real region), what a
``Result`` says about itself (``reference_size``, ``newest``,
``reading``), and ``encode_value_reference`` for the value codec.

``cache`` is the reference for the region server's row cache:
``ModelRowCache``, one LRU dict keyed ``(region, row)`` and charged in
bytes by ``entry_size``.

``sql`` is the reference for statements on all five systems, both
planners and the federation mediator: the Company rows in load order
(region placement and recorded digests depend on it) with
``load_company``; ``ref_execute`` over ``QuerySpec``, built on
``reference_sort`` / ``reference_group_by`` (the references of
``StreamingSort`` / ``HashGroupBy``); ``ref_write`` over ``WriteSpec``,
as ``compile_write`` reads it; and ``canonical`` / ``query_battery``,
the fingerprint TPC-W results are compared by. ``generators`` holds
``generate_query`` (its RNG stream is pinned by recorded digests),
``generate_write`` and the four-client TPC-W mix.

The dialect the SQL model encodes: anything compared with NULL is false
(filters, column comparisons, join keys); NULLs sort first ascending,
last descending, stably; DISTINCT and GROUP BY treat NULLs as one value;
aggregates skip NULL inputs, an aggregate over no non-NULL input is NULL
(``COUNT`` is 0), and a global aggregate over no rows yields no row. A
write names one row by its full key: an UPDATE or DELETE of an absent
key writes 0 rows, an INSERT's omitted columns are NULL. A column/value
count mismatch is refused with ``WorkloadError``, then a column the
table lacks (INSERT column, SET or WHERE) with ``SqlError``, then a
WHERE conjunct on a non-key column or an unbound key attribute with
``UnsupportedStatementError``; a refused write stores nothing.

Left out: derived tables, ``*``, text aggregates, floats and the empty
string (the HBase-backed systems store it as NULL). Open for the
composition oracle (ROADMAP item 2): an
INSERT of a present key and an UPDATE of a key attribute. Neither is
generated and the model takes no position on either.
"""
