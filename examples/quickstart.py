"""Quickstart: the paper's Company walkthrough, end to end.

Builds a Synergy deployment over the Company schema (paper Fig. 2) with
roots {Address, Department}, prints the rooted trees and selected views
(Figs. 4-6), loads data, and runs reads (rewritten over views) and
writes (through the single-lock transaction layer).

    python examples/quickstart.py
"""

from repro.relational.company import (
    COMPANY_ROOTS,
    company_schema,
    company_workload,
)
from repro.systems import SynergySystem


def main() -> None:
    system = SynergySystem(company_schema(), company_workload(), COMPANY_ROOTS)

    print("=== Rooted trees & selected views (paper Figs. 4-6) ===")
    print(system.describe())

    print("\n=== Workload rewritten over views ===")
    for sid, sql in system.statements.items():
        print(f"  {sid}: {sql}")

    # -- load a small database (parents before children) --------------------
    for aid in range(1, 6):
        system.load_row("Address", {"AID": aid, "Street": f"{aid} Main St",
                                    "City": "Nashville", "Zip": "37201"})
    for dno in (1, 2):
        system.load_row("Department", {"DNo": dno, "DName": f"Dept{dno}"})
    for eid in range(1, 11):
        system.load_row("Employee", {"EID": eid, "EName": f"emp{eid}",
                                     "EHome_AID": (eid % 5) + 1,
                                     "EOffice_AID": 1, "E_DNo": (eid % 2) + 1})
    for pno in (1, 2, 3):
        system.load_row("Project", {"PNo": pno, "PName": f"proj{pno}",
                                    "P_DNo": (pno % 2) + 1})
    for eid in range(1, 11):
        for pno in (1, 2, 3):
            if (eid + pno) % 2 == 0:
                system.load_row("Works_On", {"WO_EID": eid, "WO_PNo": pno,
                                             "Hours": 10 * pno})
    system.finish_load()

    print("\n=== Reads (answered from materialized views) ===")
    for sid, params in (("W1", (3,)), ("W2", (1,)), ("W3", (30,))):
        rows, ms = system.timed(system.statements[sid], params)
        print(f"  {sid}: {len(rows)} rows in {ms:.2f} virtual ms; "
              f"first: {rows[0] if rows else None}")

    print("\n=== Writes (single hierarchical lock each) ===")
    _, ms = system.timed(
        "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
        (1, 2, 99),
    )
    print(f"  insert Works_On: {ms:.2f} virtual ms "
          "(locks employee 1's home-address root key)")
    _, ms = system.timed(
        "UPDATE Employee SET EName = ? WHERE EID = ?", ("renamed", 1)
    )
    print(f"  update Employee: {ms:.2f} virtual ms (6-step marked update)")

    rows = system.execute(
        "SELECT EName, Hours FROM MV_Employee__Works_On "
        "WHERE WO_EID = ? and WO_PNo = ?", (1, 2),
    )
    print(f"  view row after both writes: {rows[0]}")
    print(f"\nDatabase size: {system.db_size_bytes() / 1e3:.1f} KB "
          f"across base tables, views and view-indexes")


if __name__ == "__main__":
    main()
