"""Order-independent oracle for the SELECT engine.

``ORACLE`` was recorded at commit e1b40f1 — the last one with the
per-row ``PlanNode.execute`` generators as the default engine — by
running this file as a script; its ``VoltDB`` rows and
``VOLTDB_GENERATED`` at c6675a6, the last one where VoltDB evaluated a
SELECT with its own join loop and tail. With ``jitter_fraction=0.0`` a
statement's virtual ms is a plain sum of its charges, so it does not
depend on the order the engine makes them in: any engine that reads the
same rows from the same stores and ships the same bytes reproduces every
number below. The jittered anchors in ``BENCH_PR1.json`` cannot tell a
re-deal of the jitter draws from a change of physics; this table can.

ms are compared with ``rel=1e-9``: a stopwatch delta taken at a
different absolute clock value differs in the last bits.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.bench.tpcw_lab import TpcwLab
from repro.errors import UnsupportedStatementError
from repro.tpcw import JOIN_QUERIES
from tests.conftest import build_company_system
from tests.reference.generators import generate_query

SCALE = 40
SEED = 171001792
PARAM_SETS = 3
SYSTEMS = ("Baseline", "Synergy", "MVCC-A", "MVCC-UA", "VoltDB")
GENERATED = 100

#: perfbench ``scan-join``'s six ad-hoc statements.
AD_HOC: dict[str, tuple[str, tuple]] = {
    "limit-join": (
        "SELECT o.o_id, o2.o_id FROM Orders as o, Orders as o2 "
        "WHERE o.o_date = o2.o_date and o.o_id <> o2.o_id LIMIT 64",
        (),
    ),
    "count-all": ("SELECT COUNT(*) FROM Order_line", ()),
    "group-top": (
        "SELECT ol_i_id, SUM(ol_qty) FROM Order_line GROUP BY ol_i_id "
        "ORDER BY SUM(ol_qty) DESC LIMIT 10",
        (),
    ),
    "filter-top": (
        "SELECT i_id, i_title, i_cost FROM Item WHERE i_cost > ? "
        "ORDER BY i_cost DESC, i_id LIMIT 20",
        (50.0,),
    ),
    "join-agg": (
        "SELECT c.c_id, SUM(o.o_total) FROM Customer as c, Orders as o "
        "WHERE c.c_id = o.o_c_id GROUP BY c.c_id "
        "ORDER BY SUM(o.o_total) DESC LIMIT 10",
        (),
    ),
    "distinct": ("SELECT DISTINCT i_subject FROM Item", ()),
}


def row_digest(rows: list[dict]) -> str:
    """Digest of a result as a multiset of rows."""
    lines = sorted(repr(sorted(row.items())) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def measure(system_name: str) -> dict[str, list]:
    """``{statement: [ms, row count, digest]}`` of every oracle
    statement on one freshly loaded, un-jittered system."""
    lab = TpcwLab(num_customers=SCALE, seed=SEED, jitter_fraction=0.0)
    system = lab.build_system(system_name)
    lab.populate(system)
    out: dict[str, list] = {}
    for rep in range(PARAM_SETS):
        for qid in JOIN_QUERIES:
            if not system.supports(qid):
                continue  # VoltDB: Q3, Q7, Q9, Q10 under every scheme
            rows, ms = system.timed_id(qid, lab.generator.params_for_query(qid, rep))
            out[f"{qid}#{rep}"] = [ms, len(rows), row_digest(rows)]
    for label, (sql, params) in AD_HOC.items():
        try:
            rows, ms = system.timed(sql, params)
        except UnsupportedStatementError:
            continue  # VoltDB: limit-join is not on a partitioning column
        out[label] = [ms, len(rows), row_digest(rows)]
    return out


def measure_generated() -> list[list]:
    """``[ms, row count, digest]`` of the first ``GENERATED`` random
    Company-schema statements on an un-jittered, all-replicated VoltDB."""
    system = build_company_system("VoltDB")
    rng = random.Random(SEED)
    out = []
    for _ in range(GENERATED):
        spec = generate_query(rng)
        rows, ms = system.timed(spec.sql, spec.params)
        out.append([ms, len(rows), row_digest(rows)])
    return out


ORACLE: dict[str, dict[str, list]] = {
    "Baseline": {
        "Q1#0": [24.331777343750012, 3, "4806ca837342"],
        "Q2#0": [23.503453124999936, 1, "54e803725e26"],
        "Q3#0": [23.398461718749992, 1, "1b8e2e791443"],
        "Q4#0": [36.015375000000105, 16, "5e0b0ee70e14"],
        "Q5#0": [36.015374999999906, 16, "5e0b0ee70e14"],
        "Q6#0": [21.7460734375, 1, "1381e47b9d1e"],
        "Q7#0": [25.183680468750026, 1, "885ed0fb5f53"],
        "Q8#0": [23.42855156250002, 2, "4f72e3b69f50"],
        "Q9#0": [21.767451562500014, 1, "ccdf28afc1d8"],
        "Q10#0": [75.85547734375479, 15, "ffee0ecee174"],
        "Q11#0": [37.09621015625055, 5, "6b249bce5030"],
        "Q1#1": [23.437804687500147, 2, "b8e9e87bc58e"],
        "Q2#1": [23.503277343750426, 1, "c90653df42b5"],
        "Q3#1": [23.398473437500172, 1, "47f836ba3092"],
        "Q4#1": [36.909226562501885, 17, "6793db6a6f76"],
        "Q5#1": [36.91342187500186, 17, "63da7123426a"],
        "Q6#1": [21.746366406249933, 1, "d8b3deca3ad3"],
        "Q7#1": [25.18356328124969, 1, "e7dfe61ef201"],
        "Q8#1": [24.317440624999676, 3, "d390f102deac"],
        "Q9#1": [21.76751015624984, 1, "353c5f1758ff"],
        "Q10#1": [76.6673164062687, 16, "9e7ea4d7dfdb"],
        "Q11#1": [35.38225546877254, 4, "03a09f9f3c2f"],
        "Q1#2": [26.119242187499708, 5, "8a4cca18473f"],
        "Q2#2": [23.503160156250033, 1, "d79e6fc047d8"],
        "Q3#2": [23.398473437499774, 1, "7dc431f4895d"],
        "Q4#2": [36.921273437498826, 17, "f35f78f9d90b"],
        "Q5#2": [36.03791015624893, 16, "0ad339153e4e"],
        "Q6#2": [21.74643671874992, 1, "a826b60c5033"],
        "Q7#2": [25.183668749999697, 1, "0488dff787db"],
        "Q8#2": [25.206505468749697, 4, "ee1c1174c637"],
        "Q9#2": [21.76763906249994, 1, "0e0ec2a91c18"],
        "Q10#2": [77.60573437501864, 17, "ca9a815d7b8d"],
        "Q11#2": [42.193110156226794, 5, "8a5de17514a4"],
        "limit-join": [34.43539062497371, 64, "e705d8b78db1"],
        "count-all": [35.49800625001399, 1, "d31ba629dfb2"],
        "group-top": [35.69200625001395, 10, "4defbf8cf603"],
        "filter-top": [33.0542507812454, 20, "6b39b11b2f48"],
        "join-agg": [95.75516406245606, 10, "3d3a49c329a8"],
        "distinct": [35.155019531253174, 24, "15cefa66d16f"],
    },
    "Synergy": {
        "Q1#0": [19.722855468750005, 3, "4806ca837342"],
        "Q2#0": [19.89009374999997, 1, "54e803725e26"],
        "Q3#0": [20.52568359374998, 1, "1b8e2e791443"],
        "Q4#0": [20.048765625000065, 16, "5e0b0ee70e14"],
        "Q5#0": [20.04876562500006, 16, "5e0b0ee70e14"],
        "Q6#0": [18.871613281249992, 1, "1381e47b9d1e"],
        "Q7#0": [23.148480468750037, 1, "885ed0fb5f53"],
        "Q8#0": [19.693906250000026, 2, "4f72e3b69f50"],
        "Q9#0": [19.733851562500035, 1, "ccdf28afc1d8"],
        "Q10#0": [30.123292968745886, 15, "430b370d4c69"],
        "Q11#0": [31.85941015624627, 5, "6b249bce5030"],
        "Q1#1": [19.698605468750117, 2, "b8e9e87bc58e"],
        "Q2#1": [19.88991796875024, 1, "c90653df42b5"],
        "Q3#1": [20.52569531250009, 1, "47f836ba3092"],
        "Q4#1": [20.06853515625039, 17, "6793db6a6f76"],
        "Q5#1": [20.07392578125041, 17, "63da7123426a"],
        "Q6#1": [18.871976562500038, 1, "d8b3deca3ad3"],
        "Q7#1": [23.148363281250283, 1, "e7dfe61ef201"],
        "Q8#1": [19.715460937500097, 3, "d390f102deac"],
        "Q9#1": [19.73391015625009, 1, "353c5f1758ff"],
        "Q10#1": [30.157121093758633, 16, "453c750b0bcc"],
        "Q11#1": [30.1638554687579, 4, "03a09f9f3c2f"],
        "Q1#2": [19.77136718750012, 5, "8a4cca18473f"],
        "Q2#2": [19.889800781250074, 1, "d79e6fc047d8"],
        "Q3#2": [20.525695312499806, 1, "7dc431f4895d"],
        "Q4#2": [20.084167968750194, 17, "f35f78f9d90b"],
        "Q5#2": [20.078050781250226, 16, "0ad339153e4e"],
        "Q6#2": [18.87204687499991, 1, "a826b60c5033"],
        "Q7#2": [23.148468749999665, 1, "0488dff787db"],
        "Q8#2": [19.737191406249963, 4, "ee1c1174c637"],
        "Q9#2": [19.73403906249996, 1, "0e0ec2a91c18"],
        "Q10#2": [30.614488281258673, 17, "212b68399f94"],
        "Q11#2": [36.913910156257316, 5, "8a5de17514a4"],
        "limit-join": [28.771390625008507, 64, "e705d8b78db1"],
        "count-all": [29.568406250023372, 1, "d31ba629dfb2"],
        "group-top": [29.762406250023332, 10, "4defbf8cf603"],
        "filter-top": [25.611050781257518, 20, "6b39b11b2f48"],
        "join-agg": [90.36316406250307, 10, "3d3a49c329a8"],
        "distinct": [26.435019531257467, 24, "15cefa66d16f"],
    },
    "MVCC-A": {
        "Q1#0": [21.78525546875001, 3, "4806ca837342"],
        "Q2#0": [22.098093749999983, 1, "54e803725e26"],
        "Q3#0": [22.54568359374999, 1, "1b8e2e791443"],
        "Q4#0": [22.381565624999965, 16, "5e0b0ee70e14"],
        "Q5#0": [22.381565624999965, 16, "5e0b0ee70e14"],
        "Q6#0": [20.89321328125, 1, "1381e47b9d1e"],
        "Q7#0": [25.183680468750026, 1, "885ed0fb5f53"],
        "Q8#0": [21.730706250000054, 2, "4f72e3b69f50"],
        "Q9#0": [21.767451562500014, 1, "ccdf28afc1d8"],
        "Q10#0": [36.51369296874975, 15, "430b370d4c69"],
        "Q11#0": [37.09621015625055, 5, "6b249bce5030"],
        "Q1#1": [21.740205468750105, 2, "b8e9e87bc58e"],
        "Q2#1": [22.097917968750323, 1, "c90653df42b5"],
        "Q3#1": [22.545695312500072, 1, "47f836ba3092"],
        "Q4#1": [22.422135156250533, 17, "6793db6a6f76"],
        "Q5#1": [22.42752578125055, 17, "63da7123426a"],
        "Q6#1": [20.893576562500016, 1, "d8b3deca3ad3"],
        "Q7#1": [25.183563281250315, 1, "e7dfe61ef201"],
        "Q8#1": [21.770660937500054, 3, "d390f102deac"],
        "Q9#1": [21.76751015625007, 1, "353c5f1758ff"],
        "Q10#1": [36.59712109375255, 16, "453c750b0bcc"],
        "Q11#1": [35.3822554687726, 4, "03a09f9f3c2f"],
        "Q1#2": [21.875367187500046, 5, "8a4cca18473f"],
        "Q2#2": [22.097800781250157, 1, "d79e6fc047d8"],
        "Q3#2": [22.545695312499788, 1, "7dc431f4895d"],
        "Q4#2": [22.437767968750336, 17, "f35f78f9d90b"],
        "Q5#2": [22.41085078125036, 16, "0ad339153e4e"],
        "Q6#2": [20.893646874999945, 1, "a826b60c5033"],
        "Q7#2": [25.183668749999697, 1, "0488dff787db"],
        "Q8#2": [21.810791406250132, 4, "ee1c1174c637"],
        "Q9#2": [21.76763906249994, 1, "0e0ec2a91c18"],
        "Q10#2": [37.42648828127574, 17, "212b68399f94"],
        "Q11#2": [42.19311015627227, 5, "8a5de17514a4"],
        "limit-join": [34.435390625026, 64, "e705d8b78db1"],
        "count-all": [35.498006250014214, 1, "d31ba629dfb2"],
        "group-top": [35.692006250014174, 10, "4defbf8cf603"],
        "filter-top": [33.05425078125404, 20, "6b39b11b2f48"],
        "join-agg": [95.75516406248164, 10, "3d3a49c329a8"],
        "distinct": [35.155019531253174, 24, "15cefa66d16f"],
    },
    "MVCC-UA": {
        "Q1#0": [24.331777343750012, 3, "4806ca837342"],
        "Q2#0": [23.503453124999936, 1, "54e803725e26"],
        "Q3#0": [23.398461718749992, 1, "1b8e2e791443"],
        "Q4#0": [36.015375000000105, 16, "5e0b0ee70e14"],
        "Q5#0": [36.015374999999906, 16, "5e0b0ee70e14"],
        "Q6#0": [21.7460734375, 1, "1381e47b9d1e"],
        "Q7#0": [25.183680468750026, 1, "885ed0fb5f53"],
        "Q8#0": [23.42855156250002, 2, "4f72e3b69f50"],
        "Q9#0": [21.767451562500014, 1, "ccdf28afc1d8"],
        "Q10#0": [34.502375781250464, 15, "430b370d4c69"],
        "Q11#0": [37.09621015625055, 5, "6b249bce5030"],
        "Q1#1": [23.437804687500147, 2, "b8e9e87bc58e"],
        "Q2#1": [23.503277343750426, 1, "c90653df42b5"],
        "Q3#1": [23.398473437500172, 1, "47f836ba3092"],
        "Q4#1": [36.909226562501885, 17, "6793db6a6f76"],
        "Q5#1": [36.91342187500186, 17, "63da7123426a"],
        "Q6#1": [21.746366406250104, 1, "d8b3deca3ad3"],
        "Q7#1": [25.183563281250315, 1, "e7dfe61ef201"],
        "Q8#1": [24.317440624999676, 3, "d390f102deac"],
        "Q9#1": [21.76751015624984, 1, "353c5f1758ff"],
        "Q10#1": [34.52800390627294, 16, "453c750b0bcc"],
        "Q11#1": [35.38225546877254, 4, "03a09f9f3c2f"],
        "Q1#2": [26.119242187499708, 5, "8a4cca18473f"],
        "Q2#2": [23.503160156250033, 1, "d79e6fc047d8"],
        "Q3#2": [23.398473437499774, 1, "7dc431f4895d"],
        "Q4#2": [36.921273437498826, 17, "f35f78f9d90b"],
        "Q5#2": [36.03791015624893, 16, "0ad339153e4e"],
        "Q6#2": [21.74643671874992, 1, "a826b60c5033"],
        "Q7#2": [25.183668749999697, 1, "0488dff787db"],
        "Q8#2": [25.206505468749697, 4, "ee1c1174c637"],
        "Q9#2": [21.76763906249994, 1, "0e0ec2a91c18"],
        "Q10#2": [34.771996093773055, 17, "212b68399f94"],
        "Q11#2": [42.19311015627227, 5, "8a5de17514a4"],
        "limit-join": [34.435390625026, 64, "e705d8b78db1"],
        "count-all": [35.498006250014214, 1, "d31ba629dfb2"],
        "group-top": [35.69200625001406, 10, "4defbf8cf603"],
        "filter-top": [33.0542507812454, 20, "6b39b11b2f48"],
        "join-agg": [95.75516406245606, 10, "3d3a49c329a8"],
        "distinct": [35.155019531253174, 24, "15cefa66d16f"],
    },
    "VoltDB": {
        "Q1#0": [12.2436, 3, "4806ca837342"],
        "Q2#0": [12.2466, 1, "54e803725e26"],
        "Q4#0": [12.0792, 16, "5e0b0ee70e14"],
        "Q5#0": [12.0792, 16, "5e0b0ee70e14"],
        "Q6#0": [12.0612, 1, "1381e47b9d1e"],
        "Q8#0": [12.242400000000004, 2, "4f72e3b69f50"],
        "Q11#0": [25.22999999999999, 5, "6b249bce5030"],
        "Q1#1": [12.242400000000004, 2, "b8e9e87bc58e"],
        "Q2#1": [12.2466, 1, "c90653df42b5"],
        "Q4#1": [12.080399999999997, 17, "6793db6a6f76"],
        "Q5#1": [12.080399999999997, 17, "63da7123426a"],
        "Q6#1": [12.061200000000014, 1, "d8b3deca3ad3"],
        "Q8#1": [12.243599999999986, 3, "d390f102deac"],
        "Q11#1": [25.223399999999998, 4, "03a09f9f3c2f"],
        "Q1#2": [12.24600000000001, 5, "8a4cca18473f"],
        "Q2#2": [12.2466, 1, "d79e6fc047d8"],
        "Q4#2": [12.080399999999997, 17, "f35f78f9d90b"],
        "Q5#2": [12.079199999999986, 16, "0ad339153e4e"],
        "Q6#2": [12.061199999999957, 1, "a826b60c5033"],
        "Q8#2": [12.244799999999998, 4, "ee1c1174c637"],
        "Q11#2": [25.245000000000005, 5, "8a5de17514a4"],
        "count-all": [12.736800000000017, 1, "d31ba629dfb2"],
        "group-top": [12.736800000000017, 10, "4defbf8cf603"],
        "filter-top": [12.240000000000009, 20, "6b39b11b2f48"],
        "join-agg": [12.504000000000019, 10, "3d3a49c329a8"],
        "distinct": [12.240000000000009, 24, "15cefa66d16f"],
    },
}

#: ``measure_generated()`` at c6675a6.
VOLTDB_GENERATED: list[list] = [
    [12.015, 0, "e3b0c44298fc"],
    [12.0078, 0, "e3b0c44298fc"],
    [12.013200000000001, 10, "a5cdc4bbe24c"],
    [12.018, 0, "e3b0c44298fc"],
    [12.051000000000002, 5, "1f441107d98c"],
    [12.001800000000003, 0, "e3b0c44298fc"],
    [12.009, 0, "e3b0c44298fc"],
    [12.005399999999995, 2, "a2ec963bfdeb"],
    [12.011399999999995, 0, "e3b0c44298fc"],
    [12.004800000000003, 3, "529f0b7d5c5f"],
    [12.063000000000002, 75, "196a589327ce"],
    [12.008999999999986, 0, "e3b0c44298fc"],
    [12.009600000000006, 0, "e3b0c44298fc"],
    [12.002999999999986, 2, "16e4162421f2"],
    [12.019800000000004, 0, "e3b0c44298fc"],
    [12.014999999999986, 10, "d89757dc245f"],
    [12.013200000000012, 2, "3a600b408bc2"],
    [12.014999999999986, 0, "e3b0c44298fc"],
    [12.005400000000009, 0, "e3b0c44298fc"],
    [12.019800000000004, 0, "e3b0c44298fc"],
    [12.001200000000011, 2, "ea38033d25ce"],
    [12.009000000000015, 0, "e3b0c44298fc"],
    [12.013199999999983, 5, "e81bb050c669"],
    [12.004799999999989, 3, "10c4fd0e3fdb"],
    [12.001800000000003, 0, "e3b0c44298fc"],
    [12.01139999999998, 0, "e3b0c44298fc"],
    [12.062999999999988, 3, "72f1af0a3d07"],
    [12.009000000000015, 4, "45b03c4853b7"],
    [12.013199999999983, 5, "73b32d46c8ad"],
    [12.019799999999975, 0, "e3b0c44298fc"],
    [12.004799999999989, 0, "e3b0c44298fc"],
    [12.024000000000001, 0, "e3b0c44298fc"],
    [12.024000000000001, 2, "481976cff8d4"],
    [12.008399999999995, 0, "e3b0c44298fc"],
    [12.005400000000009, 0, "e3b0c44298fc"],
    [12.031200000000013, 15, "d9d1c41eefb5"],
    [12.014999999999986, 1, "7cb02b51077e"],
    [12.005400000000009, 2, "44b5860533ce"],
    [12.009599999999978, 1, "a56f6a600431"],
    [12.005400000000009, 0, "e3b0c44298fc"],
    [12.0, 0, "e3b0c44298fc"],
    [12.005999999999972, 10, "dc1330afd4ec"],
    [12.005999999999915, 1, "f652e354dfa9"],
    [12.062999999999988, 75, "378f864e2f32"],
    [12.011999999999944, 0, "e3b0c44298fc"],
    [12.010200000000054, 0, "e3b0c44298fc"],
    [12.001800000000003, 0, "e3b0c44298fc"],
    [12.004800000000046, 3, "6a3ba6286ca4"],
    [12.007799999999975, 3, "ff1713515079"],
    [12.004800000000046, 3, "c218dc12ad3e"],
    [12.019800000000032, 1, "8c2795e63170"],
    [12.019800000000032, 1, "6787e1f5d6e6"],
    [12.014999999999986, 0, "e3b0c44298fc"],
    [12.073800000000006, 3, "69cfb3a324f9"],
    [12.001800000000003, 3, "ece048c251de"],
    [12.013199999999983, 0, "e3b0c44298fc"],
    [12.005400000000009, 1, "5f72b06ddd05"],
    [12.024000000000001, 15, "cd3399dfc9ac"],
    [12.003000000000043, 5, "14c3c86c9496"],
    [12.022199999999998, 2, "3ec3f856fed2"],
    [12.10979999999995, 0, "e3b0c44298fc"],
    [12.00120000000004, 0, "e3b0c44298fc"],
    [12.013799999999947, 4, "2c79dcc00610"],
    [12.114000000000033, 0, "e3b0c44298fc"],
    [12.009000000000015, 0, "e3b0c44298fc"],
    [12.005400000000009, 1, "72a1dc1721a5"],
    [12.00120000000004, 2, "fd0c185ab168"],
    [12.024000000000001, 1, "c231b80ef73a"],
    [12.04200000000003, 50, "c64f80c570cb"],
    [12.005400000000009, 0, "e3b0c44298fc"],
    [12.005400000000009, 1, "e42e69f5e3fb"],
    [12.008400000000051, 2, "ccb265010e31"],
    [12.013199999999983, 10, "c2e1a437f247"],
    [12.009000000000015, 0, "e3b0c44298fc"],
    [12.01139999999998, 0, "e3b0c44298fc"],
    [12.00120000000004, 2, "ccf62a895267"],
    [12.013199999999983, 10, "c606ab92bead"],
    [12.011999999999944, 2, "c1222b024d6b"],
    [12.014400000000023, 0, "e3b0c44298fc"],
    [12.009000000000015, 15, "8359e425e578"],
    [12.014999999999986, 7, "e796c2c1300c"],
    [12.114000000000033, 10, "b5fc3891953c"],
    [12.014999999999986, 5, "bc6289ff2a26"],
    [12.001800000000003, 0, "e3b0c44298fc"],
    [12.022799999999961, 7, "752107ec5eee"],
    [12.010800000000131, 0, "e3b0c44298fc"],
    [12.008399999999938, 2, "76dd3a93dade"],
    [12.005400000000009, 2, "ea38033d25ce"],
    [12.019800000000032, 4, "b28f71761db7"],
    [12.010800000000017, 0, "e3b0c44298fc"],
    [12.022200000000112, 1, "1d6091716d3d"],
    [12.075000000000045, 0, "e3b0c44298fc"],
    [12.005400000000009, 0, "e3b0c44298fc"],
    [12.006000000000085, 0, "e3b0c44298fc"],
    [12.019800000000032, 3, "695a2a80e5a1"],
    [12.013200000000097, 1, "2f74905f05f3"],
    [12.013799999999947, 4, "411116264326"],
    [12.023999999999887, 15, "a80adfd5b11d"],
    [12.006000000000085, 10, "f36a50447f53"],
    [12.041999999999916, 1, "f58ba19cc89f"],
]


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_unjittered_statements_match_the_recorded_engine(system_name):
    measured = measure(system_name)
    expected = ORACLE[system_name]
    assert measured.keys() == expected.keys()
    for statement, (ms, count, digest) in expected.items():
        got_ms, got_count, got_digest = measured[statement]
        where = f"{system_name}/{statement}"
        assert (got_count, got_digest) == (count, digest), where
        assert got_ms == pytest.approx(ms, rel=1e-9), where


def test_unjittered_generated_statements_match_recorded_voltdb():
    measured = measure_generated()
    assert len(measured) == len(VOLTDB_GENERATED)
    for i, (ms, count, digest) in enumerate(VOLTDB_GENERATED):
        got_ms, got_count, got_digest = measured[i]
        assert (got_count, got_digest) == (count, digest), f"generated #{i}"
        assert got_ms == pytest.approx(ms, rel=1e-9), f"generated #{i}"


if __name__ == "__main__":
    print(json.dumps({name: measure(name) for name in SYSTEMS}, indent=1))
    print(json.dumps(measure_generated()))
