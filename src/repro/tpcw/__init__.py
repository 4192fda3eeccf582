"""TPC-W benchmark substrate (paper Sec. IX).

The transactional web benchmark's database tier: the full 10-relation
schema, a deterministic scalable data generator (NUM_ITEMS = 10 x
NUM_CUST, Customer:Orders = 1:10, as the paper configures), the 11 join
queries of Fig. 15, the 13 write statements of Fig. 16, and the
3-relation micro-benchmark of Sec. IX-B. The soundex queries and the
multi-row shopping-cart DELETE are excluded exactly as the paper
excludes them.
"""

from repro.tpcw.schema import TPCW_ROOTS, tpcw_schema
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS
from repro.tpcw.workload import tpcw_workload
from repro.tpcw.generator import TpcwDataGenerator
from repro.tpcw.serving import ServingWorkload, ZipfianPopulation
from repro.tpcw.microbench import (
    MICRO_ROOTS,
    MicrobenchDataGenerator,
    micro_schema,
    micro_workload,
)

__all__ = [
    "JOIN_QUERIES",
    "MICRO_ROOTS",
    "MicrobenchDataGenerator",
    "ServingWorkload",
    "TPCW_ROOTS",
    "TpcwDataGenerator",
    "WRITE_STATEMENTS",
    "ZipfianPopulation",
    "micro_schema",
    "micro_workload",
    "tpcw_schema",
    "tpcw_workload",
]
