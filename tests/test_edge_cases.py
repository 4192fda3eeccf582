"""Edge cases and failure injection across layers."""

import pytest

from repro.errors import (
    PlanError,
    ReproError,
    SchemaError,
    SqlError,
    TransactionError,
    WorkloadError,
)
from repro.hbase.ops import Get, Put, Scan
from repro.phoenix.catalog import CF
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection
from repro.relational.company import company_schema
from repro.sql.parser import parse_statement
from tests.conftest import execute_write
from tests.reference.sql import load_company


class TestPhoenixEdges:
    def test_unbound_parameter_raises(self, company_conn):
        with pytest.raises(PlanError):
            company_conn.execute_query(
                "SELECT * FROM Employee WHERE EID = ?", ()
            )

    def test_query_on_unknown_relation(self, company_conn):
        with pytest.raises(SchemaError):
            company_conn.execute_query("SELECT * FROM Nope")

    def test_insert_unknown_attribute(self, company_conn):
        with pytest.raises(SqlError, match="Bogus"):
            execute_write(
                company_conn, "INSERT INTO Employee (EID, Bogus) VALUES (?, ?)", (1, 2)
            )

    def test_insert_arity_mismatch(self, company_conn):
        with pytest.raises(WorkloadError):
            execute_write(
                company_conn, "INSERT INTO Department (DNo, DName) VALUES (?)", (1,)
            )

    def test_plan_of_text_follows_analyze(self, client):
        """A plan is never kept: text planned before ``analyze()`` is
        replanned after it, exactly like its AST (the str-keyed plan
        cache this replaces returned the pre-statistics plan)."""
        conn = PhoenixConnection(
            client, create_baseline_schema(client, company_schema())
        )
        load_company(conn.writer)
        text = (
            "SELECT * FROM Works_On as w, Department as d, Employee as e "
            "WHERE e.EID = w.WO_EID AND e.E_DNo = d.DNo"
        )
        before = conn.plan(text).explain()
        conn.analyze()
        after = conn.plan(text).explain()
        assert after == conn.plan(parse_statement(text)).explain()
        assert after != before  # the statistics do change this plan

    def test_empty_table_scan(self, company_conn):
        assert company_conn.execute_query("SELECT * FROM Dependent "
                                          "WHERE DP_EID = ?", (999,)) == []

    def test_null_fk_join_produces_no_row(self, company_conn):
        execute_write(
            company_conn, "INSERT INTO Employee (EID, EName) VALUES (?, ?)", (77, "nofk")
        )
        rows = company_conn.execute_query(
            "SELECT * FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and e.EID = ?", (77,)
        )
        assert rows == []

    def test_order_by_with_nulls(self, company_conn):
        execute_write(
            company_conn, "INSERT INTO Address (AID, City) VALUES (?, ?)", (80, None)
        )
        rows = company_conn.execute_query(
            "SELECT AID, City FROM Address ORDER BY City DESC"
        )
        assert rows[-1]["City"] is None  # NULLs last under DESC


class TestSynergyEdges:
    def test_write_to_view_rejected(self, company_synergy):
        with pytest.raises((SchemaError, ReproError)):
            company_synergy.execute(
                "INSERT INTO MV_Address__Employee (EID) VALUES (?)", (1,)
            )

    def test_no_live_slaves(self, company_synergy):
        for slave in company_synergy.txlayer.slaves:
            slave.crash()
        with pytest.raises(TransactionError):
            company_synergy.execute(
                "INSERT INTO Address (AID) VALUES (?)", (999,)
            )

    def test_insert_duplicate_key_overwrites(self, company_synergy):
        """HBase semantics: a Put on an existing row key overwrites (no
        uniqueness enforcement, matching the paper's store)."""
        company_synergy.execute(
            "INSERT INTO Department (DNo, DName) VALUES (?, ?)", (1, "redef")
        )
        rows = company_synergy.execute(
            "SELECT DName FROM Department WHERE DNo = ?", (1,)
        )
        assert rows == [{"DName": "redef"}]

    def test_update_view_row_count_bounded(self, company_synergy):
        """An update of Employee touches exactly the view rows carrying
        that employee, not the whole view."""
        sim = company_synergy.sim
        before = {
            k: v for k, v in sim.metrics.counters().items()
            if ".rows_written" in k
        }
        company_synergy.execute(
            "UPDATE Employee SET EName = ? WHERE EID = ?", ("bounded", 4)
        )
        written = sum(
            v - before.get(k, 0)
            for k, v in sim.metrics.counters().items()
            if ".rows_written" in k
        )
        # base + idx rows + ~3 WO view rows x (mark, write, unmark) + A-E view
        assert written < 40


class TestHBaseEdges:
    def test_scan_empty_range(self, client):
        t = client.create_table("empty")
        assert list(t.scan(Scan(start_row=b"a", stop_row=b"b"))) == []

    def test_get_after_delete_before_compaction(self, client):
        from repro.hbase.ops import Delete as HDelete

        t = client.create_table("dd")
        p = Put(b"k")
        p.add(CF, b"v", b"1")
        t.put(p)
        for region in client.cluster.descriptor("dd").regions:
            region.flush()
        t.delete(HDelete(b"k"))
        assert t.get(Get(b"k")) is None  # tombstone wins over flushed cell

    def test_versions_readable_with_max_versions(self, client):
        t = client.create_table("mv", max_versions=3)
        for i in range(4):
            p = Put(b"k")
            p.add(CF, b"v", f"v{i}".encode())
            t.put(p)
        result = t.get(Get(b"k", max_versions=3))
        versions = [v for _, v in result.cells[(CF, b"v")]]
        assert versions == [b"v3", b"v2", b"v1"]

    def test_parser_rejects_view_name_with_dash(self):
        """Physical view names avoid '-' precisely because it is not a
        SQL identifier character; MV_A__B parses, A-B does not."""
        parse_statement("SELECT * FROM MV_Address__Employee")
        from repro.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM Address-Employee")
