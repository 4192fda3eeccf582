"""Cross-system federation mediator.

The five evaluated systems run side by side everywhere else in the
repo; this module lets them cooperate. A :class:`Mediator` fronts a
registry of :class:`~repro.systems.base.EvaluatedSystem` backends and,
per workload statement, follows the decomposer → planner → non-blocking
executor shape of a federated query processor:

* **decompose** — a SELECT either routes *whole* to one backend, or is
  split into per-binding single-table sub-plans (one fragment per FROM
  binding, pushable filters included; derived tables become their own
  fragments) that may land on *different* backends;
* **plan** — the route is chosen from each backend's truthful
  ``supports()`` plus a cost signal: Phoenix-backed systems are priced
  with :class:`~repro.phoenix.planner.CostBasedPlanner` estimates over
  their own catalogs (so Synergy's view rewrites genuinely change
  its price), VoltDB with an arithmetic model over its in-memory row
  counts; any other backend has no price. The online
  :class:`~repro.federation.advisor.RoutingAdvisor` overrides estimates
  whose observed EWMA has diverged;
* **execute** — fragments are *lazy streaming pulls*: each sub-plan
  executes on its backend only when the merge tree first pulls from it
  (a satisfied LIMIT early-closes unexecuted fragments). The merge tree
  is a plan-node tree composed by the single-system planner's own
  :class:`~repro.phoenix.planner.SelectComposer` and lowered by
  ``compile_plan`` to the non-blocking streaming operators, so routed
  execution is row-for-row identical to single-system execution
  (pinned by the equivalence suite).

One module per step: :mod:`.decompose` (pure: analysed SELECT + params
-> fragments), :mod:`.estimate` (phoenix / voltdb prices),
:mod:`.merge` (fragment leaves -> plan-node tree), :mod:`.session`
(:class:`FederatedSession`); this module routes and executes.

Writes broadcast to every supporting backend — that is what keeps the
backends convergent and routing row-equivalent. Virtual time: the
mediator has its own jitter-free :class:`Simulation`; backend
executions advance it by the backend's observed virtual latency, merge
operators charge it directly, and under a scheduled multi-client run
each backend is a serial resource at the mediator (two clients routed
to the same backend queue; different backends overlap).

Everything is opt-in: nothing here is imported by the anchored
experiment paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import FederationError
from repro.federation.advisor import RoutingAdvisor
from repro.federation.decompose import Fragment, decompose, split_eligible
from repro.federation.estimate import estimate_ms
from repro.federation.merge import MergeHost, plan_merge
from repro.federation.session import FederatedSession
from repro.phoenix.executor import stream_rows
from repro.phoenix.planner import SelectComposer
from repro.phoenix.plans import (
    ExecutionContext,
    PlanNode,
    Row,
    SourceNode,
    tuple_getter,
)
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sim.rng import derive_seed
from repro.sql.analyzer import AnalyzedSelect, analyze_select
from repro.sql.ast import Select, Statement
from repro.sql.parser import parse_statement
from repro.systems.base import EvaluatedSystem, SystemDescription, SystemSession


# ---------------------------------------------------------------- route log
@dataclass
class RouteRecord:
    """One routed statement, JSON-friendly and fully deterministic."""

    seq: int
    statement_id: str
    mode: str  # "whole" | "split" | "broadcast"
    assignments: list[dict] = field(default_factory=list)
    """Per sub-plan: fragment label, backend, executed flag, virtual ms."""
    total_ms: float = 0.0


# ---------------------------------------------------------------- mediator
class Mediator(EvaluatedSystem):
    """Federated execution over an ordered backend registry.

    ``mode`` picks the decomposition policy: ``"auto"`` (split a
    multi-binding SELECT when the summed best fragment estimates beat
    the best whole-statement estimate, or when no backend supports the
    whole statement), ``"whole"`` (never split) or ``"split"`` (always
    split eligible statements). ``pin`` restricts routing to one
    backend — the pinned-single-system baseline the bench sweeps
    against, running through the identical mediator code path.
    """

    description = SystemDescription(
        name="Federation",
        mv_selection="Delegated to backends",
        concurrency_control="Delegated to backends",
    )

    def __init__(
        self,
        backends: Mapping[str, EvaluatedSystem],
        schema: Schema,
        workload: Workload | None = None,
        seed: int = 171001792,
        mode: str = "auto",
        pin: str | None = None,
    ) -> None:
        if not backends:
            raise FederationError("mediator needs at least one backend")
        if mode not in ("auto", "whole", "split"):
            raise FederationError(f"unknown decomposition mode {mode!r}")
        if pin is not None and pin not in backends:
            raise FederationError(f"pinned backend {pin!r} is not registered")
        self.backends: dict[str, EvaluatedSystem] = dict(backends)
        self.schema = schema
        self.mode = mode
        self.pin = pin
        first = next(iter(self.backends.values()))
        self._sim = Simulation(
            cost=first.sim.cost,
            seed=derive_seed(seed, "federation/sim"),
            jitter_fraction=0.0,
        )
        self._composer = SelectComposer()
        self._host = MergeHost(self._sim)
        self.advisor = RoutingAdvisor()
        self.route_log: list[RouteRecord] = []
        self._statements: dict[str, str] = {}
        self._by_text: dict[str, str] = {}
        self._estimates: dict[tuple[str, str], float] = {}
        if workload is not None:
            for stmt in workload:
                self._statements[stmt.statement_id] = stmt.sql
                self._by_text.setdefault(stmt.sql, stmt.statement_id)

    # -- evaluated-system surface --------------------------------------------------
    @property
    def sim(self) -> Simulation:
        return self._sim

    def statement(self, statement_id: str) -> str:
        return self._statements[statement_id]

    def supports(self, statement_id: str) -> bool:
        sql = self._statements.get(statement_id)
        if sql is None:
            return False
        if any(
            self._backend_supports(name, statement_id, sql)
            for name in self._routable()
        ):
            return True
        # nobody takes it whole: only a SELECT can still run, split
        _, analyzed = self._parse(sql)
        return (
            analyzed is not None
            and self.mode != "whole"
            and split_eligible(analyzed)
        )

    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        for backend in self.backends.values():
            backend.load_row(relation, row)

    def finish_load(self) -> None:
        for backend in self.backends.values():
            backend.finish_load()
        self._sim.reset_clock()

    def db_size_bytes(self) -> int:
        return sum(b.db_size_bytes() for b in self.backends.values())

    def open_session(self, client_name: str = "client") -> "FederatedSession":
        return FederatedSession(self, client_name)

    # -- execution ----------------------------------------------------------------
    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        return self._execute(sql, params, sessions=None)

    def _execute(
        self,
        sql: str,
        params: tuple[Any, ...],
        sessions: "dict[str, SystemSession] | None",
    ) -> Any:
        # accept either a statement id or statement text (the base
        # class's timed_id resolves ids to text before calling execute)
        if sql in self._statements:
            sid: str | None = sql
            canonical = self._statements[sql]
        else:
            sid = self._by_text.get(sql)
            canonical = sql
        stmt, analyzed = self._parse(canonical)
        sw = self._sim.stopwatch()
        if isinstance(stmt, Select):
            rows, record = self._route_select(
                sid or canonical, sid, canonical, analyzed, params
            )
        else:
            rows, record = self._broadcast_write(
                sid or canonical, sid, canonical, params, sessions
            )
        record.total_ms = sw.stop()
        self.route_log.append(record)
        return rows

    # -- select routing -----------------------------------------------------------
    def _route_select(
        self,
        label: str,
        sid: str | None,
        canonical: str,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
    ) -> tuple[list[dict], RouteRecord]:
        record = RouteRecord(
            seq=len(self.route_log), statement_id=label, mode="whole"
        )
        whole = self._whole_candidates(sid, canonical)
        # decomposed once: the estimate and the execution share the fragments
        fragments = (
            decompose(analyzed, params)
            if self.mode != "whole" and split_eligible(analyzed)
            else None
        )
        use_split = False
        if self.mode == "split":
            use_split = fragments is not None
        elif self.mode == "auto":
            if not whole:
                use_split = True
            elif fragments is not None:
                use_split = self._split_estimate(label, fragments) < min(
                    self.advisor.advised_cost(label, name, est)[0]
                    for name, est in whole
                )
        if use_split:
            if fragments is None:
                raise FederationError(
                    f"{label}: statement cannot be decomposed"
                )
            record.mode = "split"
            rows = self._execute_split(label, analyzed, params, fragments, record)
            return rows, record
        if not whole:
            raise FederationError(
                f"{label}: no backend supports the whole statement "
                "and it cannot be decomposed"
            )
        chosen = self.advisor.choose(label, whole, self._sim.clock.now_ms)
        rows, ms = self._run_on_backend(
            chosen,
            self._backend_text(chosen, sid, canonical),
            params,
            advisor_key=label,
        )
        record.assignments.append(
            {"fragment": "*", "backend": chosen, "executed": True, "ms": ms}
        )
        return rows, record

    def _execute_split(
        self,
        label: str,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
        fragments: list[Fragment],
        record: RouteRecord,
    ) -> list[dict]:
        needed = self._composer.needed_attrs(analyzed)
        leaves: dict[str, PlanNode] = {}
        for fragment in fragments:
            candidates = [
                (name, self._estimate(name, fragment.sql))
                for name in self._routable()
                if self.backends[name].supports_sql(fragment.sql)
            ]
            chosen = self.advisor.choose(
                f"{label}#{fragment.binding}", candidates, self._sim.clock.now_ms
            )
            slot = {
                "fragment": fragment.binding,
                "backend": chosen,
                "executed": False,
                "ms": 0.0,
            }
            record.assignments.append(slot)
            wanted = needed[fragment.binding]
            attrs = tuple(
                a for a in fragment.attrs if wanted is None or a in wanted
            )
            leaves[fragment.binding] = SourceNode(
                fetch=partial(
                    self._fetch_fragment, label, fragment, attrs, chosen, slot
                ),
                label=f"FRAGMENT {fragment.binding} @ {chosen}",
                schema=tuple((fragment.binding, a) for a in attrs),
            )
        planned = plan_merge(self._composer, analyzed, leaves)
        return list(stream_rows(planned, ExecutionContext(self._host, params)))

    def _fetch_fragment(
        self,
        label: str,
        fragment: Fragment,
        attrs: tuple[str, ...],
        backend: str,
        slot: dict,
    ) -> list[Row]:
        """Run one fragment on its assigned backend — called by its leaf
        at the merge tree's FIRST pull, so a fragment a satisfied LIMIT
        never reaches never runs (its slot keeps ``executed: False``) —
        and import the backend's shaped rows as tuples of their
        ``attrs``, the columns the merge tree reads. The fragment text
        stays ``SELECT *``: a narrower one would move the backend's
        access-path choice and so its virtual time."""
        binding = fragment.binding
        rows, ms = self._run_on_backend(
            backend, fragment.sql, fragment.params, advisor_key=f"{label}#{binding}"
        )
        slot["executed"] = True
        slot["ms"] = ms
        return list(map(tuple_getter(attrs), rows))

    def _split_estimate(self, label: str, fragments: list[Fragment]) -> float:
        total = 0.0
        for fragment in fragments:
            frag_label = f"{label}#{fragment.binding}"
            best = min(
                self.advisor.advised_cost(
                    frag_label, name, self._estimate(name, fragment.sql)
                )[0]
                for name in self._routable()
                if self.backends[name].supports_sql(fragment.sql)
            )
            total += best
        return total

    # -- write broadcast ------------------------------------------------------------
    def _broadcast_write(
        self,
        label: str,
        sid: str | None,
        canonical: str,
        params: tuple[Any, ...],
        sessions: "dict[str, SystemSession] | None",
    ) -> tuple[Any, RouteRecord]:
        record = RouteRecord(
            seq=len(self.route_log), statement_id=label, mode="broadcast"
        )
        targets = [
            name
            for name in self._routable()
            if self._backend_supports(name, sid, canonical)
        ]
        if not targets:
            raise FederationError(f"{label}: no backend supports this write")
        result: Any = None
        slowest = 0.0
        with self._occupying(targets):
            for name in targets:
                text = self._backend_text(name, sid, canonical)
                if sessions is not None:
                    sw = self.backends[name].sim.stopwatch()
                    out = sessions[name].execute(text, params)
                    ms = sw.stop()
                else:
                    out, ms = self.backends[name].timed(text, params)
                self.advisor.observe(label, name, ms)
                record.assignments.append(
                    {"fragment": "*", "backend": name, "executed": True, "ms": ms}
                )
                slowest = max(slowest, ms)
                if result is None:
                    result = out
            # the fan-out is concurrent in virtual time: the mediator waits
            # for the slowest backend, not the sum
            self._sim.wait(slowest, "federation.broadcast")
        return result, record

    # -- backend execution ----------------------------------------------------------
    def _run_on_backend(
        self,
        name: str,
        sql: str,
        params: tuple[Any, ...],
        advisor_key: str,
    ) -> tuple[Any, float]:
        """Execute one sub-plan on a backend, advancing the mediator
        clock by the observed virtual latency."""
        with self._occupying((name,)):
            rows, ms = self.backends[name].timed(sql, params)
            self.advisor.observe(advisor_key, name, ms)
            self._sim.wait(ms, f"federation.backend.{name}")
        return rows, ms

    @contextmanager
    def _occupying(self, names: Sequence[str]) -> Iterator[None]:
        """Under multi-client scheduling each backend is a serial
        resource at the mediator: queue (in virtual time) until every
        named backend is free, and hold them until the block's clock."""
        ctx = self._sim.concurrency
        resources = [("federation", name) for name in names]
        if ctx is not None:
            ctx.serial_enter(resources, self._sim, "federation.queue_wait")
        yield
        if ctx is not None:
            ctx.serial_exit(resources, self._sim)

    # -- candidates and estimates ----------------------------------------------------
    def _routable(self) -> tuple[str, ...]:
        if self.pin is not None:
            return (self.pin,)
        return tuple(self.backends)

    def _whole_candidates(
        self, sid: str | None, canonical: str
    ) -> list[tuple[str, float]]:
        out = []
        for name in self._routable():
            if not self._backend_supports(name, sid, canonical):
                continue
            out.append(
                (name, self._estimate(name, self._backend_text(name, sid, canonical)))
            )
        return out

    def _backend_text(self, name: str, sid: str | None, canonical: str) -> str:
        """The statement text a backend executes: its own (possibly
        view-rewritten) registered text for workload ids, the canonical
        text for ad-hoc SQL."""
        if sid is None:
            return canonical
        try:
            return self.backends[name].statement(sid)
        except KeyError:
            return canonical

    def _backend_supports(
        self, name: str, sid: str | None, canonical: str
    ) -> bool:
        if sid is not None:
            return self.backends[name].supports(sid)
        return self.backends[name].supports_sql(canonical)

    def _estimate(self, name: str, sql: str) -> float:
        key = (name, sql)
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        ms = estimate_ms(self.backends[name], self._parse(sql)[1])
        self._estimates[key] = ms
        return ms

    def _parse(self, sql: str) -> tuple[Statement, AnalyzedSelect | None]:
        """The statement and, for a SELECT, its analysis."""
        stmt = parse_statement(sql)
        analyzed = (
            analyze_select(stmt, self.schema) if isinstance(stmt, Select) else None
        )
        return stmt, analyzed


__all__ = [
    "FederatedSession",
    "FederationError",
    "FederationWriteHazardError",
    "Mediator",
    "RouteRecord",
]
