"""The five workloads, by the name ``BENCHMARK.json`` gives them."""

from perfbench.workloads.contended_txn import ContendedTxn
from perfbench.workloads.fed_route import FedRoute
from perfbench.workloads.scan_join import ScanJoin
from perfbench.workloads.serving_zipf import ServingZipf
from perfbench.workloads.tpcw_serial import TpcwSerial

WORKLOADS = {
    cls.name: cls
    for cls in (TpcwSerial, ScanJoin, ContendedTxn, ServingZipf, FedRoute)
}
