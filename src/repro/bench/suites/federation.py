"""Routed vs pinned single-system execution through the federation mediator."""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from repro.bench.harness import ExperimentResult, Grid, summarize
from repro.bench.suite import Flag, Smoke, Suite, mean
from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.federation import Mediator
from repro.sim import DeterministicScheduler, run_transaction
from repro.tpcw import JOIN_QUERIES, WRITE_STATEMENTS

#: Routing modes swept by the Federation experiment. The pinned modes
#: run the identical mediator code path restricted to one backend in
#: whole-statement mode — the single-system baseline the routed modes
#: are compared against (and must match row for row).
FEDERATION_MODES = ("routed-auto", "routed-split", "pin-Synergy", "pin-VoltDB")

#: Identifying columns per query, shared by every backend's result
#: shape. Q10 compares on i_id only: the aggregate's *name* differs
#: between view-rewritten and base-table plans (``SUM(v0.ol_qty)`` vs
#: ``SUM(ol.ol_qty)``) even though its value is identical. Q11 compares
#: the sorted aggregate *scores*: its ``ORDER BY SUM(..) DESC LIMIT 5``
#: can tie at the rank-5 boundary, where engines legitimately pick
#: different tie members — the score multiset is the invariant.
FEDERATION_QUERY_KEYS = {
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
    "Q11": None,  # tie-prone top-5: compare aggregate scores
}


def _federation_canonical(qid: str, rows: list[dict]) -> list[tuple]:
    keys = FEDERATION_QUERY_KEYS[qid]
    if keys is None:
        return sorted(
            (v,)
            for r in rows
            for k, v in r.items()
            if k.startswith("SUM(")
        )
    return sorted(tuple(r.get(k) for k in keys) for r in rows)


def _federation_backends(lab: TpcwLab, progress=None) -> dict:
    say = progress or (lambda _msg: None)
    backends = {}
    for name in SYSTEM_NAMES:
        say(f"[federation] populating {name}")
        system = lab.build_system(name)
        lab.populate(system)
        backends[name] = system
    return backends


def _federation_mediator(mode: str, backends: dict, lab: TpcwLab):
    seed = lab.seed
    if mode == "routed-auto":
        return Mediator(backends, lab.schema, lab.workload, seed=seed, mode="auto")
    if mode == "routed-split":
        return Mediator(backends, lab.schema, lab.workload, seed=seed, mode="split")
    assert mode.startswith("pin-"), mode
    return Mediator(
        backends, lab.schema, lab.workload, seed=seed,
        mode="whole", pin=mode[len("pin-"):],
    )


def _federation_battery(mediator, lab: TpcwLab, repetitions: int):
    """(virtual times per qid, rep-0 canonical digests) for every query
    the mediator supports under its routing mode."""
    times: dict[str, list[float]] = {}
    digests: dict[str, list[tuple]] = {}
    for rep in range(repetitions):
        for qid in JOIN_QUERIES:
            if not mediator.supports(qid):
                continue
            params = lab.generator.params_for_query(qid, rep)
            rows, ms = mediator.timed_id(qid, params)
            times.setdefault(qid, []).append(ms)
            if rep == 0:
                digests[qid] = _federation_canonical(qid, rows)
    return times, digests


def _federation_schedule(mediator, clients: int, txns_per_client: int):
    """A multi-client federated write/read mix over DISJOINT key slices
    (client i owns item/customer/cart i+1), driven through the
    deterministic scheduler with one FederatedSession per client. Writes
    broadcast to every backend, so the backends stay convergent."""
    scheduler = DeterministicScheduler(mediator.sim)
    for c in range(clients):
        session = mediator.open_session(f"c{c}")
        i_id, c_id, sc_id = c + 1, c + 1, c + 1
        txns = []
        for t in range(txns_per_client):
            stamp = 1000 * (c + 1) + t
            txns.append([
                ("SELECT * FROM Item WHERE i_id = ?", (i_id,)),
                (WRITE_STATEMENTS["W9"], (stamp, i_id)),
            ])
            txns.append([
                (WRITE_STATEMENTS["W13"],
                 (float(stamp), float(stamp) / 2, float(t), c_id)),
            ])
            txns.append([(WRITE_STATEMENTS["W11"], (float(stamp), sc_id))])

        def program(client, session=session, txns=txns):
            for txn in txns:
                yield from run_transaction(client, session, txn)

        scheduler.add_client(f"c{c}", program)
    return scheduler.run()


def run_federation(
    num_customers: int = 30,
    repetitions: int = 4,
    clients: int = 4,
    progress: Callable[[str], None] | None = None,
) -> list[ExperimentResult]:
    """Routed vs pinned-single-system execution through the federation
    mediator ("Federation" — deliberately NOT an anchored experiment),
    plus each mode's routing and advisor counters ("FederationRouting").

    One set of populated backends is shared by every mode: the query
    battery is read-only, so routed results must match the pinned
    references row for row (asserted here; the counters report how many
    queries were compared). All series are virtual-time or counts, so
    two runs with the same seed produce byte-identical JSON — the
    advisor's whole decision log included, as a digest. A scheduled
    multi-client write mix runs last — it mutates the shared backends
    through broadcast writes."""
    say = progress or (lambda _msg: None)
    lab = TpcwLab(num_customers=num_customers, repetitions=repetitions)
    backends = _federation_backends(lab, progress)

    result = ExperimentResult(
        "Federation",
        "Federated routing vs pinned single-system execution",
        "query",
    )
    result.x_values = list(JOIN_QUERIES)
    grid = Grid("mode", FEDERATION_MODES, routing=(
        "FederationRouting", "Routing and advisor counters per mode", "count",
    ))
    digests: dict[str, dict] = {}
    for mode in FEDERATION_MODES:
        say(f"[federation] battery mode={mode}")
        mediator = _federation_mediator(mode, backends, lab)
        times, digests[mode] = _federation_battery(mediator, lab, repetitions)
        series = result.add_series(mode)
        for qid in JOIN_QUERIES:
            series.set(qid, summarize(times[qid]) if qid in times else None)
        routed: dict[str, int] = {}
        spread: dict[str, set] = {}
        for record in mediator.route_log:
            for a in record.assignments:
                routed[a["backend"]] = routed.get(a["backend"], 0) + 1
                spread.setdefault(record.statement_id, set()).add(a["backend"])
        decisions = mediator.advisor.decision_log
        log = json.dumps(mediator.advisor.log_dicts(), sort_keys=True)
        for label, value in (
            ("statements on 2+ backends",
             sum(len(used) >= 2 for used in spread.values())),
            ("advisor decisions", len(decisions)),
            ("decisions overridden by the EWMA",
             sum(bool(d.rerouted) for d in decisions)),
            # 48 bits, exact as a JSON number
            ("decision log digest",
             int(hashlib.sha256(log.encode()).hexdigest()[:12], 16)),
        ):
            grid.set("routing", label, mode, value)
        result.note(f"{mode}: sub-plans per backend {routed}")

    reference = digests["pin-Synergy"]
    for mode, battery in digests.items():
        compared = [qid for qid in battery if qid in reference]
        for qid in compared:
            if battery[qid] != reference[qid]:
                raise AssertionError(
                    f"federation: {mode} disagrees with pin-Synergy on {qid}"
                )
        grid.set("routing", "queries matching pin-Synergy", mode, len(compared))

    say(f"[federation] scheduled mix: {clients} clients")
    mediator = _federation_mediator("routed-auto", backends, lab)
    report = _federation_schedule(mediator, clients, txns_per_client=3)
    result.note(
        f"scheduled mix: {clients} clients, {report.committed} transactions "
        f"committed in {report.steps} interleaved steps, "
        f"{len(mediator.route_log)} routed statements"
    )
    return [result, grid.finish()["routing"]]


def _split(e, counter: str) -> float:
    return mean(e, "FederationRouting", counter, "routed-split")


FEDERATION = Suite(
    "federation",
    lambda opts, say: run_federation(
        num_customers=opts.federation_scale,
        repetitions=opts.federation_reps,
        clients=opts.federation_clients,
        progress=say,
    ),
    flags=(
        Flag("federation_scale", int, 30, "TPC-W customers"),
        Flag("federation_reps", int, 4, "repetitions per query"),
        Flag("federation_clients", int, 4,
             "virtual clients in the scheduled write mix"),
    ),
    smoke=Smoke(
        # the advisor's decision log is held by the gate's byte-identical
        # rerun: its digest is a FederationRouting series
        flags="--federation-scale 25 --federation-reps 4",
        checks=(
            ("split-routed rows diverged from the pinned single system",
             lambda e: _split(e, "queries matching pin-Synergy")
             == len(e["Federation"]["x_values"])),
            ("no statement ever spanned two backends",
             lambda e: _split(e, "statements on 2+ backends") >= 1),
            ("the advisor never decided anything",
             lambda e: _split(e, "advisor decisions") > 0),
        ),
    ),
)
