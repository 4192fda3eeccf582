"""The SQL reference: the Company rows, a naive relational model that
evaluates generated SELECTs and executes generated writes over them, and
the fingerprint by which TPC-W results are compared across systems."""

from __future__ import annotations

import operator

from repro.errors import SqlError, UnsupportedStatementError, WorkloadError
from repro.sql.ast import DerivedTable, Insert, Param, Select, Statement, Update
from repro.tpcw.queries import JOIN_QUERIES

TABLES = {
    "Address": ("AID", "Street", "City", "Zip"),
    "Department": ("DNo", "DName"),
    "Employee": ("EID", "EName", "EHome_AID", "EOffice_AID", "E_DNo"),
    "Project": ("PNo", "PName", "P_DNo"),
    "Works_On": ("WO_EID", "WO_PNo", "Hours"),
    "Dependent": ("DP_EID", "DPName", "DPHome_AID"),
}
INT_ATTRS = {
    "Address": ("AID",),
    "Department": ("DNo",),
    "Employee": ("EID", "EHome_AID", "EOffice_AID", "E_DNo"),
    "Project": ("PNo", "P_DNo"),
    "Works_On": ("WO_EID", "WO_PNo", "Hours"),
    "Dependent": ("DP_EID", "DPHome_AID"),
}
KEYS = {
    "Address": ("AID",),
    "Department": ("DNo",),
    "Employee": ("EID",),
    "Project": ("PNo",),
    "Works_On": ("WO_EID", "WO_PNo"),
    "Dependent": ("DP_EID", "DPName"),
}


def company_rows() -> dict[str, list[dict]]:
    """The small deterministic Company database, as plain dicts in load
    order (region placement and recorded digests depend on that order)."""
    rows: dict[str, list[dict]] = {t: [] for t in TABLES}
    for aid in range(1, 6):
        rows["Address"].append({"AID": aid, "Street": f"{aid} Main St",
                                "City": "Nashville", "Zip": "37201"})
    for dno in (1, 2):
        rows["Department"].append({"DNo": dno, "DName": f"Dept{dno}"})
    for eid in range(1, 11):
        rows["Employee"].append({"EID": eid, "EName": f"emp{eid}",
                                 "EHome_AID": (eid % 5) + 1,
                                 "EOffice_AID": 1, "E_DNo": (eid % 2) + 1})
    for pno in (1, 2, 3):
        rows["Project"].append({"PNo": pno, "PName": f"proj{pno}",
                                "P_DNo": (pno % 2) + 1})
    for eid in range(1, 11):
        for pno in (1, 2, 3):
            if (eid + pno) % 2 == 0:
                rows["Works_On"].append({"WO_EID": eid, "WO_PNo": pno,
                                         "Hours": 10 * pno})
    for eid in (1, 2):
        rows["Dependent"].append({"DP_EID": eid, "DPName": f"dep{eid}",
                                  "DPHome_AID": eid + 1})
    return rows


def load_company(target) -> None:
    """Load :func:`company_rows` into anything with ``load_row`` (a
    system, an engine, a mediator) or ``insert_row`` (a writer)."""
    add = getattr(target, "load_row", None) or getattr(target, "insert_row")
    for table, rows in company_rows().items():
        for row in rows:
            add(table, row)


# ------------------------------------------------------------ operators
class _OrderKey:
    """Total order over heterogeneous/None values, with DESC support."""

    __slots__ = ("value", "desc")

    def __init__(self, value, desc):
        self.value = value
        self.desc = desc

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.desc  # NULLs first ASC, last DESC
        if b is None:
            return self.desc
        return (a > b) if self.desc else (a < b)

    def __eq__(self, other):
        return isinstance(other, _OrderKey) and self.value == other.value


def reference_sort(rows, keys):
    """``rows`` stably sorted on ``((binding, attr), desc)`` keys, NULLs
    first ascending."""
    return sorted(
        rows,
        key=lambda row: tuple(
            _OrderKey(row.get(source), desc) for source, desc in keys
        ),
    )


def _finish_aggregate(func, state):
    n, total, mn, mx = state
    if func == "COUNT":
        return n
    if n == 0:
        return None
    if func == "SUM":
        return total
    if func == "MIN":
        return mn
    if func == "MAX":
        return mx
    return total / n  # AVG


def reference_group_by(rows, group_keys, aggregates):
    """One output row per group in first-seen order: the group keys of
    its first row, then each ``(out_name, func, source)`` aggregate under
    ``("", out_name)``. NULL inputs are skipped (``source`` ``None`` is
    ``*``); no input rows, no groups."""
    reps, states = {}, {}
    for row in rows:
        key = tuple(row.get(g) for g in group_keys)
        if key not in reps:
            reps[key] = row
            states[key] = [[0, 0, None, None] for _ in aggregates]
        for state, (_, _, source) in zip(states[key], aggregates):
            v = 1 if source is None else row.get(source)
            if v is None:
                continue
            state[0] += 1
            state[1] += v
            if state[2] is None or v < state[2]:
                state[2] = v
            if state[3] is None or v > state[3]:
                state[3] = v
    results = []
    for key, rep in reps.items():
        out = {g: rep.get(g) for g in group_keys}
        for state, (out_name, func, _) in zip(states[key], aggregates):
            out[("", out_name)] = _finish_aggregate(func, state)
        results.append(out)
    return results


# ------------------------------------------------------------ statements
_OPS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


def _cmp(op: str, left, right) -> bool:
    """Anything compared with NULL is false."""
    return left is not None and right is not None and _OPS[op](left, right)


def ref_execute(spec, data: dict[str, list[dict]]) -> list[tuple]:
    """Evaluate a :class:`~tests.reference.generators.QuerySpec` with
    naive nested loops over plain dicts."""
    combos: list[dict[str, dict]] = [{}]
    for alias, table in spec.bindings:
        combos = [{**c, alias: row} for c in combos for row in data[table]]
    rows = [
        {(a, x): v for a, row in c.items() for x, v in row.items()}
        for c in combos
        if all(_cmp("=", c[a1][x], c[a2][y]) for a1, x, a2, y in spec.joins)
        and all(_cmp(op, c[a][attr], v) for a, attr, op, v in spec.filters)
        and all(_cmp(op, c[a][x], c[a][y]) for a, x, op, y in spec.column_filters)
    ]
    if spec.aggregates:
        aggregates = [
            (f"{func}({alias}.{attr})", func, None if alias is None else (alias, attr))
            for func, alias, attr in spec.aggregates
        ]
        return [
            tuple(out.values())
            for out in reference_group_by(rows, spec.group_keys, aggregates)
        ]
    out = [tuple(row[c] for c in spec.columns) for row in rows]
    if spec.distinct:
        out = list(dict.fromkeys(out))
    if spec.order:
        keys = [(("", i), desc) for i, desc in spec.order]
        by_position = [{("", i): v for i, v in enumerate(r)} for r in out]
        out = [tuple(r.values()) for r in reference_sort(by_position, keys)]
    return out if spec.limit is None else out[: spec.limit]


def ref_write(data: dict[str, list[dict]], spec) -> int:
    """Execute a :class:`~tests.reference.generators.WriteSpec` on
    ``data``; returns the rows written (0 for an absent key). Refuses as
    ``compile_write`` does, before anything is stored: an INSERT whose
    columns and values differ in number with ``WorkloadError``, a column
    the table lacks with ``SqlError``, a WHERE conjunct on a non-key
    column or a key attribute left unbound with
    ``UnsupportedStatementError``."""
    key = KEYS[spec.table]
    values = [value for value, _inline in spec.values]
    if spec.kind == "INSERT" and len(spec.columns) != len(values):
        raise WorkloadError(f"INSERT {spec.table}: arity mismatch")
    named = [*spec.columns, *(attr for attr, _value, _inline in spec.where)]
    if any(attr not in TABLES[spec.table] for attr in named):
        raise SqlError(f"{spec.table}: unknown column")
    if spec.kind == "INSERT":
        bound = dict(zip(spec.columns, values))
    else:
        bound = {attr: value for attr, value, _inline in spec.where}
        if any(attr not in key for attr in bound):
            raise UnsupportedStatementError(f"{spec.table}: non-key conjunct")
    if any(k not in bound for k in key):
        raise UnsupportedStatementError(f"{spec.table}: unbound key attribute")
    rows = data[spec.table]
    if spec.kind == "INSERT":
        rows.append({attr: bound.get(attr) for attr in TABLES[spec.table]})
        return 1
    at = [i for i, row in enumerate(rows) if all(row[k] == bound[k] for k in key)]
    if not at:
        return 0
    if spec.kind == "DELETE":
        del rows[at[0]]
    else:
        rows[at[0]].update(zip(spec.columns, values))
    return 1


# ------------------------------------------------------------ TPC-W results
#: The identifying columns of each TPC-W query's rows. Q10 is keyed on
#: ``i_id`` alone: its aggregate is named differently per view rewrite.
QUERY_KEYS = {
    "Q1": ("ol_o_id", "ol_id", "i_id"),
    "Q2": ("o_id", "c_id"),
    "Q3": ("c_id", "addr_id", "co_id"),
    "Q4": ("i_id", "a_id"),
    "Q5": ("i_id", "a_id"),
    "Q6": ("i_id", "a_id"),
    "Q7": ("o_id", "c_id"),
    "Q8": ("scl_sc_id", "scl_i_id", "i_id"),
    "Q9": ("i_id",),
    "Q10": ("i_id",),
    "Q11": ("ol_i_id",),
}


def canonical(qid: str, rows) -> list[tuple]:
    return sorted(tuple(r.get(k) for k in QUERY_KEYS[qid]) for r in rows)


def query_battery(system, lab, reps=(0, 1)) -> dict:
    """Canonical rows of every query ``system`` supports at several
    parameter draws: the row-for-row fingerprint of its state."""
    out = {}
    for qid in JOIN_QUERIES:
        if not system.supports(qid):
            continue
        for rep in reps:
            params = lab.generator.params_for_query(qid, rep)
            rows = system.execute(system.statement(qid), params)
            out[(qid, rep)] = canonical(qid, rows)
    return out


def count_params(stmt: Statement) -> int:
    """Number of ``?`` placeholders in the statement: the right sides of
    its WHERE conjuncts, its INSERT values or SET values, and those of
    its derived tables."""
    if isinstance(stmt, Insert):
        values = list(stmt.values)
    else:
        values = [c.right for c in stmt.where]
    if isinstance(stmt, Update):
        values += [v for _, v in stmt.assignments]
    nested = 0
    if isinstance(stmt, Select):
        nested = sum(
            count_params(item.select)
            for item in stmt.from_items
            if isinstance(item, DerivedTable)
        )
    return sum(isinstance(v, Param) for v in values) + nested
