"""A Phoenix-style SQL skin over the simulated HBase (paper Sec. II-D).

The client-embedded driver transforms SQL into a series of HBase scans:

* :mod:`repro.phoenix.catalog` — physical metadata: which HBase table
  backs each relation, index, materialized view and view-index, and how
  row keys are encoded (delimited concatenation of key attributes);
* :mod:`repro.phoenix.ddl` — the **baseline schema transformation**:
  every relation and every covered index becomes an HBase table, all
  attributes in a single column family;
* :mod:`repro.phoenix.planner` / :mod:`repro.phoenix.plans` —
  access-path selection (point get, key prefix scan, covered index
  scan, full scan), join order, the logical plan tree;
* :mod:`repro.phoenix.operators` / :mod:`repro.phoenix.executor` — the
  physical operators every plan is lowered to (index nested-loop and
  hash joins, sort/group/limit) and the connection that runs them;
* :mod:`repro.phoenix.writes` — single-row INSERT/UPDATE/DELETE with
  base-table index maintenance.
"""

from repro.phoenix.catalog import Catalog, CatalogEntry
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection

__all__ = [
    "Catalog",
    "CatalogEntry",
    "PhoenixConnection",
    "create_baseline_schema",
]
