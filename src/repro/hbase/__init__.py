"""A simulated, multi-node HBase.

Faithful to the architecture the paper relies on (Sec. II-C):

* tables of rows **sorted by row key**, columns grouped into column
  families, cells carrying multiple timestamped versions;
* a data-manipulation API of four primitives — :class:`Get`,
  :class:`Put`, :class:`Scan`, :class:`Delete` — plus the atomic
  ``checkAndPut`` used for row locks;
* region servers hosting key-ranged regions (memstore + HFiles + WAL),
  a master assigning regions, and major compaction;
* single-row ACID with read-committed semantics.

Every operation charges virtual time through the owning
:class:`~repro.sim.clock.Simulation`: RPC round trips, server-side row
work, WAL syncs and result-transfer bytes. Response-time experiments
measure elapsed virtual time.
"""

from repro.hbase.bytes_util import encode_key
from repro.hbase.cell import Result
from repro.hbase.client import HBaseClient, HTable
from repro.hbase.cluster import HBaseCluster, RegionBalancer
from repro.hbase.ops import Delete, Get, Put, Scan
from repro.hbase.filters import (
    ColumnValueFilter,
    FilterBase,
)
from repro.hbase.replication import (
    ReplicationManager,
    ReplicationShipper,
)

__all__ = [
    "ColumnValueFilter",
    "Delete",
    "FilterBase",
    "Get",
    "HBaseClient",
    "HBaseCluster",
    "HTable",
    "Put",
    "RegionBalancer",
    "ReplicationManager",
    "ReplicationShipper",
    "Result",
    "Scan",
    "encode_key",
]
