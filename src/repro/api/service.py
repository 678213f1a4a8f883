"""The ICDB component service: shared engine state, per-client sessions
and the one handler of each request kind.

The paper's ICDB is a component server that many synthesis tools call
concurrently.  :class:`ComponentService` is that server: it owns the state
every client shares (component catalog, cell library, relational database,
design-data file store, instance registry, tool manager, knowledge server
and the result cache) and executes the typed requests of
:mod:`repro.api.messages`, wrapping every result or failure in a
:class:`~repro.api.messages.Response` envelope with timing metadata.

Each CQL command has one program that executes it (Section 2.3): here
each request kind has one function in :data:`HANDLERS`, and
:meth:`ComponentService.execute` -- the funnel every request passes,
local or remote -- dispatches with one table lookup.

Each client holds a :class:`Session`: a lightweight object owning the
*per-client* state -- the current design and its transaction context --
that the old monolithic facade kept in a single server-global
``current_design``.  Sessions can run concurrently: instance naming and
registration are serialized by the shared
:class:`~repro.core.instances.InstanceManager`, database writes by the
service lock, and design isolation follows from each instance recording
the design of the session that created it.  The classic operations a
session offers are the shared :class:`~repro.api.surface.ClassicOps`
surface, the same methods a :class:`~repro.net.client.RemoteClient` has.

:class:`ICDB`, the paper's single-client facade, is a session of its own
private service.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..components.catalog import (
    ComponentCatalog,
    ComponentImplementation,
    standard_catalog,
)
from ..constraints import Constraints
from ..core.gencache import GenerationCache
from ..core.generation import EmbeddedGenerator, ToolManager, default_tool_manager
from ..core.icdb import IcdbError
from ..core.instances import (
    ComponentInstance,
    InstanceManager,
    TARGET_LAYOUT,
    TARGET_LOGIC,
)
from ..core.knowledge import KnowledgeServer
from ..core.progress import OperationCancelled, observed
from ..db import (
    DESIGNS,
    DESIGN_FILES,
    DESIGN_INSTANCES,
    INSTANCES,
    Database,
    DesignDataStore,
    new_database,
)
from ..layout.generator import ComponentLayout, generate_layout
from ..netlist.cif import layout_to_cif
from ..techlib import CellLibrary, standard_cells
from .cache import DEFAULT_CONSTRAINTS, ResultCache, clone_instance
from .errors import (
    E_BAD_REQUEST,
    E_BUSY,
    E_CANCELLED,
    E_CONFLICT,
    E_NOT_FOUND,
    E_TIMEOUT,
    E_UNAVAILABLE,
    IcdbErrorInfo,
    error_from_exception,
)
from ..obs.metrics import Clock, MetricsRegistry, SYSTEM_CLOCK
from ..obs.reqlog import RequestLog, get_logger
from ..sim.verify import check_equivalence, simulate_vectors
from .messages import (
    COMPONENT_DETAILS,
    FUNCTION_QUERY_WANTS,
    JOB_CONTROL_KINDS,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_TERMINAL_STATES,
    BatchRequest,
    CancelJob,
    CheckEquivalence,
    ComponentQuery,
    ComponentRequest,
    DesignOp,
    FunctionQuery,
    GetMetrics,
    InstanceQuery,
    JobEvent,
    JobStatus,
    LayoutRequest,
    Ping,
    PlanQuery,
    PROTOCOL_VERSION,
    Request,
    Response,
    SubmitJob,
    Simulate,
    WarmCache,
)
from .planner import (
    Planner,
    PlanResult,
    match_implementations,
    select_implementation,
    validate_attribute_names,
)
from .query import (
    AttributePredicate,
    FunctionPredicate,
    QuerySpec,
    TypePredicate,
)
from .surface import ClassicOps


def instance_summary(
    instance: ComponentInstance, detail: str = "full"
) -> Dict[str, object]:
    """The JSON-safe wire summary of a generated instance.

    This is what a :class:`~repro.api.messages.ComponentRequest` answers
    with.  ``detail="full"`` carries the renders and figures a client needs
    without another round trip, plus the structured delay and shape data a
    remote client rebuilds report objects from; ``detail="summary"`` only
    the identity and headline numbers (the projection bulk pipelined
    clients ask for to keep response frames small).
    """
    # The name-independent headline facts are identical for every clone of
    # one synthesized netlist; they are built once and shared through the
    # instance's render cache (hot on the pipelined cached path).  A
    # refined instance (a generated layout, a non-logic target) computes
    # them directly: its facts no longer match its clone family's.
    refined = instance.layout is not None or instance.target != TARGET_LOGIC
    fragment = None if refined else instance.render_cache.get("summary_fragment")
    if fragment is None:
        fragment = {
            "implementation": instance.implementation,
            "component_type": instance.component_type,
            "target": instance.target,
            "clock_width": float(instance.clock_width),
            "area_um2": float(instance.area),
            "cells": int(instance.netlist.cell_count()),
            "met_constraints": instance.met_constraints(),
        }
        if not refined:
            instance.render_cache["summary_fragment"] = fragment
    summary: Dict[str, object] = dict(fragment)
    summary["instance"] = instance.name
    summary["cached"] = bool(instance.cached)
    summary["design"] = instance.design
    if instance.constraint_violations:
        summary["met_constraints"] = instance.met_constraints()
    if detail == "summary":
        return summary
    detail_fragment = instance.render_cache.get("detail_fragment")
    if detail_fragment is None:
        report = instance.delay_report
        detail_fragment = {
            "shape_alternatives": [
                {
                    "strips": int(record.strips),
                    "width": float(record.width),
                    "height": float(record.height),
                }
                for record in instance.shape.alternatives
            ],
            "delay_detail": {
                "clock_width": float(report.clock_width),
                "is_sequential": bool(report.is_sequential),
                "min_pulse_width": float(report.min_pulse_width),
                "clock_to_output": dict(report.clock_to_output),
                "setup_times": dict(report.setup_times),
                "comb_delays": dict(report.comb_delays),
            },
        }
        instance.render_cache["detail_fragment"] = detail_fragment
    summary.update(
        {
            "parameters": dict(instance.parameters),
            "functions": list(instance.functions),
            "delay": instance.render_delay(),
            "area": instance.render_area_records(),
            "shape_function": instance.render_shape(),
            "violations": list(instance.constraint_violations),
            "files": dict(instance.files),
            "shape_alternatives": detail_fragment["shape_alternatives"],
            "delay_detail": detail_fragment["delay_detail"],
        }
    )
    return summary


class RequestDedupe:
    """Per-session at-most-once execution of retried mutations.

    A resilient client stamps mutating requests with a transport-level
    ``request_id`` and may resend one after an ambiguous failure (the
    connection died between send and reply).  :meth:`begin` reserves the
    id: the first arrival executes; a concurrent duplicate *blocks* until
    the original finishes (the dangerous race is a retry arriving on a
    new connection while the original is still executing) and then
    returns its recorded response.  Only *successful* responses are
    recorded -- a failed attempt provably did not mutate, so its retry is
    allowed to execute again.

    The store is bounded: oldest completed entries are evicted first, so
    the at-most-once guarantee spans the retry window (seconds), not
    unbounded history.
    """

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._cond = threading.Condition()
        #: request_id -> recorded response dict, or None while in flight.
        self._entries: "OrderedDict[str, Optional[Dict[str, Any]]]" = OrderedDict()

    def begin(self, request_id: str) -> Optional[Dict[str, Any]]:
        """Reserve ``request_id``; the recorded response if already done.

        Returns ``None`` when the caller should execute (first arrival,
        or the original attempt failed).  Every ``None`` return MUST be
        paired with a :meth:`finish` call, or duplicates wait forever.
        """
        with self._cond:
            while True:
                if request_id not in self._entries:
                    self._entries[request_id] = None  # in flight
                    return None
                recorded = self._entries[request_id]
                if recorded is not None:
                    self._entries.move_to_end(request_id)
                    return recorded
                self._cond.wait()  # original still executing

    def finish(self, request_id: str, response: Optional[Dict[str, Any]]) -> None:
        """Record the outcome; ``None`` (failure) releases the id."""
        with self._cond:
            if response is None:
                self._entries.pop(request_id, None)
            else:
                self._entries[request_id] = response
                while len(self._entries) > self.capacity:
                    oldest, recorded = next(iter(self._entries.items()))
                    if recorded is None:
                        break  # never evict an in-flight reservation
                    del self._entries[oldest]
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._entries)


class Session(ClassicOps):
    """One client's view of the component service.

    A session owns the per-client design context (``current_design`` and
    its transaction state) while sharing the service's catalog, database,
    store, instance registry and result cache.  The classic ICDB
    operations come from :class:`~repro.api.surface.ClassicOps` and run
    through :meth:`execute` like every other request; the bodies that
    execute them are the :data:`HANDLERS` of this module.
    """

    #: Local answers are the registered instances themselves, so a
    #: ``request_component`` never pays for the full wire render.
    component_detail = "summary"

    def __init__(self, service: "ComponentService", session_id: str, client: str = ""):
        self.service = service
        self.session_id = session_id
        self.client = client
        self.current_design: str = ""
        #: At-most-once store for client-retried mutations (sessions
        #: survive reconnects, so the dedupe window does too).
        self.dedupe = RequestDedupe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.session_id!r}, design={self.current_design!r})"

    # ------------------------------------------------------ shared state views

    @property
    def catalog(self) -> ComponentCatalog:
        return self.service.catalog

    @property
    def instances(self) -> InstanceManager:
        return self.service.instances

    @property
    def database(self) -> Database:
        return self.service.database

    # ----------------------------------------------------------- typed entry

    def execute(self, request: Request) -> Response:
        """Execute a typed request in this session's context."""
        return self.service.execute(request, self)

    def submit(self, request: Request, label: str = "") -> "LocalJobHandle":
        """Submit ``request`` as an asynchronous job of this session."""
        descriptor = self.service.jobs.submit(request, self, label=label)
        return LocalJobHandle(self, descriptor)

    # ------------------------------------------------------------ local hooks

    def _component_instance(self, summary: Dict[str, Any]) -> ComponentInstance:
        return self.instances.get(str(summary["instance"]))

    def _layout_answer(self, value: Dict[str, Any]) -> ComponentLayout:
        return self.instances.get(str(value["instance"])).layout

    def plan(self, spec: QuerySpec) -> PlanResult:
        """Plan in process: the live result keeps each failed candidate's
        original exception, which ``area_time_tradeoff`` re-raises."""
        return Planner(self).plan(spec)

    # ------------------------------------------------------ registry lookups

    def instance(self, name: str) -> ComponentInstance:
        return self.instances.get(name)

    def implementations_of_type(self, component_type: str) -> List[str]:
        return [impl.name for impl in self.catalog.by_component_type(component_type)]


# ---------------------------------------------------------------------------
# The request handlers: one program per request kind
# ---------------------------------------------------------------------------


def _component_query(service: "ComponentService", session: Session, request: ComponentQuery):
    # The filter terms lower to query-IR predicates: component to a
    # TypePredicate, functions to a FunctionPredicate, attributes to an
    # AttributePredicate (a name no catalog implementation defines raises
    # E_INVALID).
    attributes = request.attributes
    if attributes:
        # Validate on every branch -- the functions-of-one-implementation
        # answer ignores attribute *values*, but a name outside the
        # catalog vocabulary is a typo either way.
        validate_attribute_names(service.catalog, attributes)
    name = request.implementation
    if name is not None:
        registry = service.instances if name in service.instances else service.catalog
        return {"function": list(registry.get(name).functions)}, False
    predicates: List[object] = []
    if request.component is not None:
        predicates.append(TypePredicate(component=request.component))
    if request.functions:
        predicates.append(FunctionPredicate(tuple(request.functions)))
    if attributes:
        # The predicate filters on attribute *support*; the values ride
        # along untouched (they only matter at generation time).
        predicates.append(AttributePredicate(attributes=dict(attributes)))
    candidates = match_implementations(service.catalog, predicates)
    return {
        "implementation": sorted(impl.name for impl in candidates),
        "component": sorted({impl.component_type for impl in candidates}),
    }, False


def _function_query(service: "ComponentService", session: Session, request: FunctionQuery):
    # One FunctionPredicate: the same matching a plan's enumerate stage runs.
    if request.want not in FUNCTION_QUERY_WANTS:
        raise IcdbError(
            f"unknown function_query want {request.want!r}; "
            f"expected one of {FUNCTION_QUERY_WANTS}"
        )
    matches = match_implementations(
        service.catalog, (FunctionPredicate(tuple(request.functions)),)
    )
    if request.want == "component":
        seen: List[str] = []
        for implementation in matches:
            if implementation.component_type not in seen:
                seen.append(implementation.component_type)
        return seen, False
    return [implementation.name for implementation in matches], False


def _instance_query(service: "ComponentService", session: Session, request: InstanceQuery):
    # Only the asked-for reports are rendered: connect_component asks for
    # ("connect",) and never pays for the VHDL netlist.
    name, fields = request.name, request.fields
    instance = service.instances.get(name)
    if not fields or "files" in fields:
        service.materialize_artifacts(name)
    producers = {
        "function": lambda: list(instance.functions),
        "delay": instance.render_delay,
        "area": instance.render_area_records,
        "shape_function": instance.render_shape,
        "clock_width": lambda: instance.clock_width,
        "VHDL_net_list": instance.vhdl_netlist,
        "VHDL_head": instance.vhdl_head,
        "connect": lambda: instance.connection_info,
        "files": lambda: dict(instance.files),
        "met_constraints": instance.met_constraints,
        "violations": lambda: list(instance.constraint_violations),
    }
    if fields:
        unknown = [field for field in fields if field not in producers]
        if unknown:
            raise IcdbError(
                f"unknown instance_query fields {unknown}", code=E_NOT_FOUND
            )
        return {field: producers[field]() for field in fields}, False
    return {key: produce() for key, produce in producers.items()}, False


def _request_component(
    service: "ComponentService", session: Session, request: ComponentRequest
):
    if request.detail not in COMPONENT_DETAILS:
        raise IcdbError(
            f"unknown request detail {request.detail!r}; "
            f"expected one of {COMPONENT_DETAILS}",
            code=E_BAD_REQUEST,
        )
    # Constraints are immutable by convention (with_updates returns
    # copies), so the no-constraints case shares one default object.
    constraints = (
        request.constraints if request.constraints is not None else DEFAULT_CONSTRAINTS
    )
    if request.strategy is not None:
        constraints = constraints.with_updates(strategy=request.strategy)
    target = request.target
    if target not in (TARGET_LOGIC, TARGET_LAYOUT):
        raise IcdbError(f"unknown generation target {target!r}")
    instances = service.instances
    functions = list(request.functions) or None

    if request.iif is not None:
        name = request.instance_name or instances.new_name("custom")
        instance = service.generator.generate_from_iif(
            request.iif, request.parameters, constraints, name, target, functions or ()
        )
    elif request.structure is not None:
        name = request.instance_name or instances.new_name(request.structure.name)
        instance = service.generator.generate_from_structure(
            request.structure,
            lambda ref: instances.get(ref.component).netlist,
            constraints,
            name,
            target,
        )
    else:
        chosen = service.choose_implementation(
            request.component_name, request.implementation, functions
        )
        overrides = dict(request.parameters or {})
        overrides.update(chosen.attributes_to_parameters(request.attributes))
        key = (
            service.cache.signature(chosen.name, overrides, constraints, target)
            if request.use_cache
            else None
        )
        template = service.cache.lookup(key) if key is not None else None
        name = request.instance_name or instances.new_name(chosen.name)
        if template is not None:
            instance = clone_instance(template, name)
        else:
            # Cold generation: let the fleet compute the heavy stages
            # out of process first.  On success the generator call
            # below replays as a warm memo hit; on any failure (no
            # workers, death, timeout) it simply runs cold here --
            # the dispatcher never raises into this path.
            if service.fleet is not None:
                service.fleet.prewarm(chosen, overrides, constraints, name)
            instance = service.generator.generate_from_implementation(
                chosen, overrides, constraints, name, target
            )
            if key is not None:
                service.cache.store(key, instance)

    instance.design = session.current_design
    service.register_instance(instance)
    return instance_summary(instance, detail=request.detail), instance.cached


def _plan_query(service: "ComponentService", session: Session, request: PlanQuery):
    return session.plan(request.query).to_dict(), False


def _request_layout(service: "ComponentService", session: Session, request: LayoutRequest):
    name = request.name
    instance = service.instances.get(name)
    strips = request.strips
    if strips is None and request.alternative is not None:
        strips = instance.shape.alternative(request.alternative).strips
    layout = generate_layout(
        instance.netlist,
        strips=strips,
        port_positions=request.port_positions,
        # The netlist may be a shared template (a result-cache clone or
        # a generation-cache flow hit); the layout and its CIF must
        # carry *this* instance's name.
        name=name,
    )
    instance.layout = layout
    instance.target = TARGET_LAYOUT
    cif = layout_to_cif(layout)
    cif_path = service.store.write(name, "cif", cif)
    instance.files["cif"] = str(cif_path)
    with service.lock:
        files_table = service.database.table(DESIGN_FILES)
        # One DESIGN_FILES row per (instance, kind): a regenerated layout
        # replaces the recorded path instead of inserting a duplicate.
        if files_table.select({"instance": name, "kind": "cif"}):
            files_table.update({"instance": name, "kind": "cif"}, path=str(cif_path))
        else:
            files_table.insert(instance=name, kind="cif", path=str(cif_path))
        service.database.table(INSTANCES).update(
            {"name": name},
            area=float(layout.area),
            width=float(layout.width),
            height=float(layout.height),
            strips=int(layout.strips),
            target=TARGET_LAYOUT,
        )
    return {
        "instance": name,
        "cif_layout": cif,
        "area": float(layout.area),
        "width": float(layout.width),
        "height": float(layout.height),
        "strips": int(layout.strips),
    }, False


def _simulate(service: "ComponentService", session: Session, request: Simulate):
    service.metrics.counter("sim.requests").inc()
    service.metrics.counter("sim.vectors").inc(len(request.vectors))
    instance = service.instances.get(request.name)
    outputs = simulate_vectors(
        instance.flat,
        instance.netlist,
        request.vectors,
        engine=request.engine,
        clock=request.clock,
    )
    return {
        "instance": request.name,
        "engine": request.engine,
        "clock": request.clock,
        "vectors": outputs,
    }, False


def _check_equivalence(
    service: "ComponentService", session: Session, request: CheckEquivalence
):
    service.metrics.counter("verify.checks").inc()
    candidate = service.instances.get(request.name)
    specification = (
        service.instances.get(request.reference) if request.reference else candidate
    )
    result = check_equivalence(
        specification.flat,
        candidate.netlist,
        mode=request.mode,
        clock=request.clock,
        max_exhaustive=request.max_exhaustive,
        samples=request.samples,
        cycles=request.cycles,
        lanes=request.lanes,
        seed=request.seed,
    )
    answer: Dict[str, object] = {
        "instance": request.name,
        "reference": request.reference or request.name,
    }
    answer.update(result.to_dict())
    return answer, False


def _design_op(service: "ComponentService", session: Session, request: DesignOp):
    op = request.op
    design = request.design or session.current_design
    database = service.database
    if op == "start_design":
        if not request.design:
            raise IcdbError("a design name is required")
        with service.lock:
            table = database.table(DESIGNS)
            if table.get(name=request.design) is not None:
                raise IcdbError(
                    f"design {request.design!r} already exists", code=E_CONFLICT
                )
            table.insert(name=request.design, status="open", transaction_open=False)
        session.current_design = request.design
        return {"design": request.design}, False
    if op == "put_in_list":
        if not design:
            raise IcdbError("no design is active")
        service.instances.get(request.instance)  # raises if unknown
        with service.lock:
            table = database.table(DESIGN_INSTANCES)
            key = {"design": design, "instance": request.instance}
            if table.select(key):
                table.update(key, kept=True)
            else:
                table.insert(design=design, instance=request.instance, kept=True)
        return {"design": design, "instance": request.instance}, False
    if op == "component_list":
        rows = database.table(DESIGN_INSTANCES).select({"design": design, "kept": True})
        return {"design": design, "instances": [row["instance"] for row in rows]}, False
    with service.lock:
        if database.table(DESIGNS).get(name=design) is None:
            raise IcdbError(f"design {design!r} has not been started", code=E_NOT_FOUND)
        if op == "start_transaction":
            database.table(DESIGNS).update({"name": design}, transaction_open=True)
            session.current_design = design
            return {"design": design}, False
        # Ending a transaction deletes the design's instances not in its
        # component list; ending the design deletes every one left.
        doomed = {"design": design}
        if op == "end_transaction":
            doomed["kept"] = False
        removed = []
        for entry in database.table(DESIGN_INSTANCES).select(doomed):
            service.delete_instance(entry["instance"])
            removed.append(entry["instance"])
        database.table(DESIGN_INSTANCES).delete(doomed)
        if op == "end_transaction":
            database.table(DESIGNS).update({"name": design}, transaction_open=False)
        else:
            database.table(DESIGNS).update(
                {"name": design}, status="closed", transaction_open=False
            )
    if op == "end_design" and session.current_design == design:
        session.current_design = ""
    return {"design": design, "removed": removed}, False


def _batch(service: "ComponentService", session: Session, request: BatchRequest):
    responses = service.execute_batch(request.flattened(), session)
    return [response.to_dict() for response in responses], False


def _submit_job(service: "ComponentService", session: Session, request: SubmitJob):
    assert request.request is not None  # enforced by __post_init__
    return service.jobs.submit(request.request, session, label=request.label), False


def _job_status(service: "ComponentService", session: Session, request: JobStatus):
    # The wait happens on the *calling* thread (a connection thread or an
    # in-process client), never on a job worker slot; the session scopes
    # the lookup to its own jobs.
    return service.jobs.status(
        request.job_id,
        wait=request.wait,
        timeout_ms=request.timeout_ms,
        include_events=request.include_events,
        events_since=request.events_since,
        session=session,
    ), False


def _cancel_job(service: "ComponentService", session: Session, request: CancelJob):
    return service.jobs.cancel(request.job_id, session=session), False


def _get_metrics(service: "ComponentService", session: Session, request: GetMetrics):
    # Snapshot is taken before execute() counts this request, so an
    # otherwise-idle snapshot is internally consistent.
    return service.metrics.snapshot(
        prefixes=request.prefixes,
        include_histograms=request.include_histograms,
    ), False


def _ping(service: "ComponentService", session: Session, request: Ping):
    health = service.health()
    if request.echo:
        health["echo"] = request.echo
    return health, False


def _warm_cache(service: "ComponentService", session: Session, request: WarmCache):
    """Prime stage memos, in fleet workers when a fleet is attached.

    Each entry resolves to one or more catalog implementations (an
    explicit ``implementation`` name, or a ``component`` / ``functions``
    region) and warms every one through the normal memoized pipeline.
    Nothing is registered; re-warming is a no-op beyond the memo lookups,
    which is why the kind is idempotent.  Unresolvable entries are
    reported, not fatal: warming is an optimization, a typo must not fail
    the batch around it.
    """
    catalog = service.catalog
    warmed = 0
    errors: List[str] = []
    for entry in request.entries:
        implementations: List[ComponentImplementation] = []
        try:
            if entry.get("implementation"):
                implementations = [catalog.get(str(entry["implementation"]))]
            else:
                if entry.get("component"):
                    implementations = catalog.by_component_type(str(entry["component"]))
                else:
                    implementations = catalog.implementations()
                functions = entry.get("functions")
                if functions:
                    implementations = [
                        impl for impl in implementations if impl.performs(functions)
                    ]
                if not entry.get("component") and not functions:
                    raise IcdbError(
                        "a warm_cache entry needs 'implementation', "
                        "'component' or 'functions'"
                    )
            if not implementations:
                raise IcdbError("no catalog implementation matches")
            constraints = (
                Constraints.from_dict(entry["constraints"])
                if entry.get("constraints")
                else DEFAULT_CONSTRAINTS
            )
            for implementation in implementations:
                overrides = dict(entry.get("parameters") or {})
                overrides.update(
                    implementation.attributes_to_parameters(entry.get("attributes"))
                )
                name = entry.get("name")
                # Through the fleet when one is attached, so its warm-skip
                # set learns the entry; locally when it cannot take it.
                if service.fleet is None or not service.fleet.prewarm(
                    implementation, overrides, constraints, name
                ):
                    service.generator.warm_implementation(
                        implementation, overrides, constraints, name=name
                    )
                warmed += 1
        except Exception as exc:  # noqa: BLE001 - per-entry reporting
            errors.append(str(exc))
    return {"warmed": warmed, "errors": errors}, False


#: The one program that executes each request kind, keyed like
#: :data:`~repro.api.messages.REQUEST_TYPES`: ``(service, session,
#: request) -> (value, cached)``.  ``cached`` marks a result-cache hit.
HANDLERS: Dict[str, Callable[["ComponentService", Session, Any], Tuple[Any, bool]]] = {
    ComponentQuery.kind: _component_query,
    FunctionQuery.kind: _function_query,
    InstanceQuery.kind: _instance_query,
    ComponentRequest.kind: _request_component,
    PlanQuery.kind: _plan_query,
    LayoutRequest.kind: _request_layout,
    Simulate.kind: _simulate,
    CheckEquivalence.kind: _check_equivalence,
    DesignOp.kind: _design_op,
    BatchRequest.kind: _batch,
    SubmitJob.kind: _submit_job,
    JobStatus.kind: _job_status,
    CancelJob.kind: _cancel_job,
    GetMetrics.kind: _get_metrics,
    Ping.kind: _ping,
    WarmCache.kind: _warm_cache,
}


class ComponentService:
    """The shared ICDB engine behind every session and the legacy facade."""

    def __init__(
        self,
        catalog: Optional[ComponentCatalog] = None,
        cell_library: Optional[CellLibrary] = None,
        database: Optional[Database] = None,
        store: Optional[DesignDataStore] = None,
        store_root: Optional[Union[str, Path]] = None,
        cache: Optional[ResultCache] = None,
        clone_artifacts: str = "lazy",
        job_workers: Optional[int] = None,
        job_queue_limit: int = 1024,
        generation_cache: Optional["GenerationCache"] = None,
        metrics: Optional[MetricsRegistry] = None,
        request_log: Optional[RequestLog] = None,
        clock: Optional[Clock] = None,
        durable_store: Optional["DurableStore"] = None,
    ):
        if clone_artifacts not in ("lazy", "eager"):
            raise IcdbError(
                f"clone_artifacts must be 'lazy' or 'eager', got {clone_artifacts!r}"
            )
        #: Optional write-ahead durability (:class:`repro.store.DurableStore`):
        #: when given, the service runs on its recovered database (unless an
        #: explicit ``database`` overrides it) and every mutation is
        #: journaled before application.  Recovery happens *here*, before
        #: any catalog loading or traffic.
        self.durable_store = durable_store
        if durable_store is not None and database is None:
            database = durable_store.open()
        #: Wall time for display, monotonic time for every duration; the
        #: seam tests replace with a scriptable clock.
        self.clock = clock or SYSTEM_CLOCK
        self.started_at = self.clock.time()
        self._started_mono = self.clock.monotonic()
        #: Named health contributors merged into :meth:`health` answers.
        #: The hosting server registers one (live sessions, drain / shed
        #: state); anything else running on this service may add more.
        self._health_sources: Dict[str, Callable[[], Dict[str, Any]]] = {}
        #: The process-observable state of this service: owned request /
        #: error counters and latency histograms, plus pull collectors
        #: over the caches' and job manager's own accounting (so the
        #: export always equals the in-process counters, see repro.obs).
        self.metrics = metrics or MetricsRegistry(clock=self.clock)
        #: Optional per-request structured log (one JSON line per request,
        #: local or remote -- every request funnels through :meth:`execute`).
        self.request_log = request_log
        # Hot-path instrument handles, resolved once: execute() runs per
        # request (batch members included), so it must not pay a registry
        # name lookup per counter touch.
        self._obs_total = self.metrics.counter("requests.total")
        self._obs_cached = self.metrics.counter("requests.cached")
        self._obs_errors = self.metrics.counter("requests.errors")
        self._obs_latency = self.metrics.histogram("request.latency_ms")
        self._obs_kind_counters: Dict[str, Any] = {}
        self.catalog = catalog or standard_catalog(fresh=True)
        self.cell_library = cell_library or standard_cells()
        self.database = database or new_database()
        self.store = store or DesignDataStore(store_root)
        self.instances = InstanceManager()
        self.tool_manager: ToolManager = default_tool_manager()
        self.generator = EmbeddedGenerator(
            self.cell_library, generation_cache=generation_cache
        )
        self.knowledge = KnowledgeServer(
            self.catalog, self.database, self.store, self.tool_manager
        )
        self.knowledge.load_catalog()
        if self.database.has_table(INSTANCES):
            # Rows recovered from a durable store (or a loaded database)
            # outlive their in-memory instances; bar their names so fresh
            # requests never collide with surviving relational rows.
            self.instances.reserve(
                [row["name"] for row in self.database.table(INSTANCES).rows]
            )
        self.cache = cache or ResultCache()
        #: Artifact persistence policy for cache-served clones: ``"lazy"``
        #: records the file paths and defers the writes until
        #: :meth:`materialize_artifacts` (or deletes them unwritten);
        #: ``"eager"`` writes every clone's files on generation like the
        #: template path does.  Lazy is the default: a clone's artifacts
        #: are pure functions of the shared template renders plus the
        #: instance name, so files nobody reads cost nothing.
        self.clone_artifacts = clone_artifacts
        #: Serializes writes to the relational database and design tables.
        self.lock = threading.RLock()
        #: Lazily persisted instances awaiting artifact materialization,
        #: keyed by instance name.
        self._pending_artifacts: Dict[str, ComponentInstance] = {}
        self._pending_lock = threading.Lock()
        self._session_counter = 0
        self._default_session: Optional[Session] = None
        #: The bounded asynchronous job scheduler: submitted requests run
        #: on its worker pool; the network layer's blocking requests are
        #: submit+wait over the same path.  Worker threads start lazily on
        #: the first submission.
        self.jobs = JobManager(
            self,
            workers=job_workers if job_workers is not None else DEFAULT_JOB_WORKERS,
            max_queued=job_queue_limit,
            clock=self.clock,
        )
        #: Optional :class:`~repro.fleet.dispatcher.FleetDispatcher` --
        #: attached via :meth:`attach_fleet`, never constructed here (the
        #: dispatcher imports this package and starts worker processes).
        #: ``None`` means every generation runs in-process.
        self.fleet = None
        # Export the accounting the stack already keeps: the collectors
        # read the caches' / manager's own counters at snapshot time
        # (their invariants -- hits + misses == lookups, entries ==
        # stores - evictions -- therefore hold *through* the export).
        self.metrics.register_collector("cache.result", self.cache.stats)
        self.metrics.register_collector("gencache", self.generation_stats)
        self.metrics.register_collector("jobs", self.jobs.stats)
        self.metrics.gauge("instances.count", lambda: len(self.instances))
        if durable_store is not None:
            # store.journal.* / store.snapshot.* / store.recovery.* counters
            # plus the journal append/fsync latency histograms.
            durable_store.bind_metrics(self.metrics)

    # ------------------------------------------------------------------- fleet

    def attach_fleet(self, dispatcher) -> None:
        """Attach a fleet dispatcher; its counters export as ``fleet.*``.

        From here on, cold catalog generations (direct, job and plan
        fan-out paths alike) try the fleet first and fall back to
        in-process generation when no worker answers.
        """
        self.fleet = dispatcher
        self.metrics.register_collector("fleet", dispatcher.stats)

    # ---------------------------------------------------------------- sessions

    def create_session(self, client: str = "") -> Session:
        """A new session with its own design context."""
        return Session(self, self._next_session_id(), client=client)

    def _next_session_id(self) -> str:
        with self.lock:
            self._session_counter += 1
            return f"session-{self._session_counter}"

    @property
    def default_session(self) -> Session:
        """The session used when :meth:`execute` is called without one."""
        with self.lock:
            if self._default_session is None:
                self._default_session = self.create_session(client="default")
            return self._default_session

    # ------------------------------------------------------------ typed entry

    def execute(self, request: Request, session: Optional[Session] = None) -> Response:
        """Execute one typed request; never raises, always an envelope.

        This is also the observability funnel: the connection fast path,
        the job worker path and the local classic operations all come
        through here, so the request counters, the latency histogram and
        the structured request log see every request exactly once.
        """
        session = session or self.default_session
        cache = self.cache
        # Lock-free integer reads: exact enough for per-request log
        # deltas (the authoritative totals stay under the cache lock).
        hits_before, misses_before = cache.hits, cache.misses
        start = time.perf_counter()
        try:
            value, cached = self._dispatch(request, session)
        except Exception as exc:  # noqa: BLE001 - mapped to structured errors
            response = Response(
                ok=False,
                error=error_from_exception(exc),
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
                session_id=session.session_id,
                request_kind=request.kind,
                exception=exc,
            )
        else:
            response = Response(
                ok=True,
                value=value,
                cached=cached,
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
                session_id=session.session_id,
                request_kind=request.kind,
            )
        self._observe(
            request,
            response,
            cache.hits - hits_before,
            cache.misses - misses_before,
        )
        return response

    def _observe(
        self,
        request: Request,
        response: Response,
        hits_delta: int,
        misses_delta: int,
    ) -> None:
        """Count and log one finished request (must never raise)."""
        self._obs_total.inc()
        kind_counter = self._obs_kind_counters.get(request.kind)
        if kind_counter is None:
            # Racy get-or-create is fine: the registry itself is the
            # locked get-or-create, so both racers cache the same object.
            kind_counter = self._obs_kind_counters[request.kind] = (
                self.metrics.counter(f"requests.kind.{request.kind}")
            )
        kind_counter.inc()
        if response.cached:
            self._obs_cached.inc()
        error_code: Optional[str] = None
        if not response.ok:
            error_code = response.error.code if response.error else "UNKNOWN"
            self._obs_errors.inc()
            self.metrics.counter(f"requests.error.{error_code}").inc()
        self._obs_latency.observe(response.elapsed_ms)
        log = self.request_log
        if log is not None:
            # Positional call: this is the hot path (see RequestLog).
            log.record(
                request.kind,
                response.session_id,
                response.ok,
                response.elapsed_ms,
                error_code,
                response.cached,
                hits_delta,
                misses_delta,
            )

    def _dispatch(self, request: Request, session: Session):
        handler = HANDLERS.get(request.kind)
        if handler is None:
            raise IcdbError(f"unsupported request type {type(request).__name__!r}")
        return handler(self, session, request)

    # ----------------------------------------------------------------- health

    def register_health_source(
        self, name: str, source: Callable[[], Dict[str, Any]]
    ) -> None:
        """Merge ``source()`` under ``name`` into every :meth:`health`."""
        self._health_sources[name] = source

    def health(self) -> Dict[str, Any]:
        """The service's health dict (what a typed ``ping`` answers).

        Always cheap: counters and queue depths, never catalog or
        database scans.  A failing health source reports its error in
        place instead of failing the probe -- a health endpoint that can
        itself go down is worse than none.
        """
        info: Dict[str, Any] = {
            "status": "ok",
            "server_time": self.clock.time(),
            "uptime_s": max(0.0, self.clock.monotonic() - self._started_mono),
            "protocol": PROTOCOL_VERSION,
            "jobs": self.jobs.stats(),
            "instances": len(self.instances),
        }
        store = self.durable_store
        if store is not None:
            report = store.recovery_report
            info["store"] = {
                "last_seq": store.last_seq,
                "recovery": report.to_dict() if report is not None else None,
            }
        for name, source in self._health_sources.items():
            try:
                info[name] = source()
            except Exception as exc:  # noqa: BLE001 - a probe must not fail
                info[name] = {"error": repr(exc)}
        net = info.get("net")
        if isinstance(net, dict) and net.get("draining"):
            info["status"] = "draining"
        return info

    def execute_batch(
        self, requests: Sequence[Request], session: Optional[Session] = None
    ) -> List[Response]:
        """Execute several requests in order under one service-lock hold.

        This is the pipelining fast path: a batch pays for one lock
        acquisition, one wire frame and one thread wake-up regardless of
        its length.  The batch is atomic with respect to other sessions'
        database writes; heavyweight uncached generations inside a large
        batch therefore serialize concurrent writers and are better sent
        individually.
        """
        session = session or self.default_session
        with self.lock:
            return [self.execute(request, session) for request in requests]

    # -------------------------------------------------------- engine internals

    def choose_implementation(
        self,
        component_name: Optional[str],
        implementation: Optional[str],
        functions: Optional[Sequence[str]],
    ) -> ComponentImplementation:
        """Resolve a request to one catalog implementation (Section 3.2.2).

        An explicit ``implementation`` short-circuits; otherwise the
        request is a *single-winner static plan*: the (component name,
        functions) pair lowers to query-IR predicates and
        :func:`~repro.api.planner.select_implementation` ranks the
        matches -- exact-name preference, then fewest extra functions,
        ties broken by name.  Byte-identical to the historical inline
        resolution for every existing flow.
        """
        if implementation is not None:
            return self.catalog.get(implementation)
        return select_implementation(self.catalog, component_name, functions)

    def register_instance(self, instance: ComponentInstance) -> None:
        """Register a generated instance and persist its design data."""
        self.instances.add(instance)
        self._persist_instance(instance)

    #: Artifact kinds persisted for every instance (plus ``connect`` /
    #: ``cif`` when the instance carries connection info / a layout).
    _BASE_ARTIFACT_KINDS = ("flat_iif", "vhdl", "vhdl_head", "delay", "shape", "area")

    def _artifact_kinds(self, instance: ComponentInstance) -> Tuple[str, ...]:
        kinds = self._BASE_ARTIFACT_KINDS
        if instance.connection_info:
            kinds = kinds + ("connect",)
        if instance.layout is not None:
            kinds = kinds + ("cif",)
        return kinds

    def _artifact_producers(
        self, instance: ComponentInstance
    ) -> Dict[str, Callable[[], str]]:
        """Producers of every artifact the instance persists, by kind."""
        producers: Dict[str, Callable[[], str]] = {
            "flat_iif": instance.flat_milo,
            "vhdl": instance.vhdl_netlist,
            "vhdl_head": instance.vhdl_head,
            "delay": lambda: instance.render_delay() + "\n",
            "shape": lambda: instance.render_shape() + "\n",
            "area": lambda: instance.render_area_records() + "\n",
        }
        if instance.connection_info:
            producers["connect"] = lambda: instance.connection_info + "\n"
        if instance.layout is not None:
            producers["cif"] = lambda: layout_to_cif(instance.layout)
        return producers

    def _persist_instance(self, instance: ComponentInstance) -> None:
        lazy = instance.cached and self.clone_artifacts == "lazy"
        if lazy:
            # A clone's artifacts derive from renders shared with its
            # template; record the paths now, write the bytes on demand
            # (the producers themselves are built at materialization).
            instance.files = self.store.paths_for(
                instance.name, self._artifact_kinds(instance)
            )
            with self._pending_lock:
                self._pending_artifacts[instance.name] = instance
        else:
            instance.files = {
                kind: str(self.store.write(instance.name, kind, produce()))
                for kind, produce in self._artifact_producers(instance).items()
            }

        with self.lock:
            table = self.database.table(INSTANCES)
            table.insert(
                name=instance.name,
                implementation=instance.implementation,
                component_type=instance.component_type,
                parameters=dict(instance.parameters),
                functions=list(instance.functions),
                target=instance.target,
                clock_width=float(instance.clock_width),
                area=float(instance.area),
                width=float(instance.area_record.width),
                height=float(instance.area_record.height),
                strips=int(instance.area_record.strips),
                cells=int(instance.netlist.cell_count()),
                transistors=instance.transistor_units(),
                design=instance.design,
            )
            if not lazy:
                files_table = self.database.table(DESIGN_FILES)
                for kind, path in instance.files.items():
                    files_table.insert(instance=instance.name, kind=kind, path=path)
            if instance.design:
                self.database.table(DESIGN_INSTANCES).insert(
                    design=instance.design, instance=instance.name, kept=False
                )

    def materialize_artifacts(self, name: Optional[str] = None) -> List[str]:
        """Write the deferred artifact files of lazily persisted instances.

        ``name`` restricts materialization to one instance; the default
        flushes everything pending.  Returns the names whose files were
        written.  Idempotent: already-materialized (or eagerly persisted)
        instances are no-ops.
        """
        with self._pending_lock:
            if name is None:
                pending = list(self._pending_artifacts.values())
            elif name in self._pending_artifacts:
                pending = [self._pending_artifacts[name]]
            else:
                pending = []
        written: List[str] = []
        for instance in pending:
            # The pending entry stays in place until the files exist, so a
            # concurrent materialize for the same instance either writes
            # the identical bytes again (deterministic producers) or finds
            # nothing left to do -- it never observes recorded paths whose
            # files are missing.
            producers = self._artifact_producers(instance)
            for kind, produce in producers.items():
                self.store.write(instance.name, kind, produce())
            with self._pending_lock:
                self._pending_artifacts.pop(instance.name, None)
            with self.lock:
                # A concurrent transaction delete may have collected the
                # instance between the pending pop and here; recording
                # rows for it would resurrect orphans.
                registered = (
                    self.database.table(INSTANCES).get(name=instance.name)
                    is not None
                )
                if registered:
                    files_table = self.database.table(DESIGN_FILES)
                    for kind in producers:
                        path = str(self.store.path_for(instance.name, kind))
                        if files_table.select(
                            {"instance": instance.name, "kind": kind}
                        ):
                            files_table.update(
                                {"instance": instance.name, "kind": kind}, path=path
                            )
                        else:
                            files_table.insert(
                                instance=instance.name, kind=kind, path=path
                            )
            if not registered:
                self.store.remove_instance(instance.name)
                continue
            written.append(instance.name)
        return written

    def delete_instance(self, name: str) -> None:
        """Remove an instance from the registry, database and file store."""
        self.instances.remove(name)
        with self._pending_lock:
            # Never-read lazy artifacts die unwritten.
            self._pending_artifacts.pop(name, None)
        with self.lock:
            self.database.table(INSTANCES).delete({"name": name})
            self.database.table(DESIGN_FILES).delete({"instance": name})
        self.store.remove_instance(name)

    # ----------------------------------------------------------------- report

    @property
    def generation_cache(self) -> GenerationCache:
        """The generator's stage-level memo (shared by all sessions)."""
        return self.generator.generation_cache

    def generation_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage generation cache counters plus a ``total`` aggregate.

        Mirrors :meth:`~repro.core.gencache.CountedLruCache.stats`: each
        stage holds ``hits + misses == lookups`` and
        ``entries == stores - evictions`` at any instant.  Empty when the
        cache has been explicitly disabled (``generation_cache = None`` on
        the generator -- the switch ``run_flow`` honors).
        """
        cache = self.generation_cache
        if cache is None:
            return {}
        return cache.stats()

    def summary(self) -> str:
        return (
            f"ICDB: {len(self.catalog)} implementations, "
            f"{len(self.instances)} generated instances, "
            f"{len(self.cell_library)} library cells"
        )


class ICDB(Session):
    """The intelligent component database system (single-client facade).

    The component server of the paper's Figure 1 as one object: a session
    of its own private :class:`ComponentService`.  It keeps the classic
    eager artifact persistence -- its callers read ``instance.files``
    paths straight off the disk -- and the accessors those callers read
    beyond the session's.
    """

    def __init__(
        self,
        catalog: Optional[ComponentCatalog] = None,
        cell_library: Optional[CellLibrary] = None,
        database: Optional[Database] = None,
        store: Optional[DesignDataStore] = None,
        store_root: Optional[Union[str, Path]] = None,
        clone_artifacts: str = "eager",
    ):
        service = ComponentService(
            catalog=catalog,
            cell_library=cell_library,
            database=database,
            store=store,
            store_root=store_root,
            clone_artifacts=clone_artifacts,
        )
        super().__init__(service, service._next_session_id(), client="icdb-facade")

    @property
    def knowledge(self) -> KnowledgeServer:
        return self.service.knowledge

    @property
    def cache(self) -> ResultCache:
        return self.service.cache

    def summary(self) -> str:
        return self.service.summary()


# ---------------------------------------------------------------------------
# The job scheduler
# ---------------------------------------------------------------------------

#: Default size of a service's job worker pool.  The paper's generators are
#: external tools (MILO, LES, ...) the server *waits on*, so a handful of
#: workers keeps several generations in flight without oversubscribing the
#: interpreter for the pure-Python stages.
DEFAULT_JOB_WORKERS = 4


class JobRecord:
    """Server-side state of one submitted job (owned by the JobManager).

    All mutable fields are guarded by the manager's condition variable;
    ``cancel_event`` alone is read lock-free by the worker's progress
    observer on every generation checkpoint.
    """

    __slots__ = (
        "job_id",
        "session",
        "request",
        "label",
        "quiet",
        "state",
        "submitted_at",
        "started_at",
        "finished_at",
        "submitted_mono",
        "started_mono",
        "finished_mono",
        "progress",
        "stage",
        "seq",
        "events",
        "response",
        "cancel_event",
    )

    def __init__(
        self,
        job_id: str,
        session: Session,
        request: Request,
        label: str,
        quiet: bool,
        max_events: int,
        clock: Optional[Clock] = None,
    ):
        clock = clock or SYSTEM_CLOCK
        self.job_id = job_id
        self.session = session
        self.request = request
        self.label = label
        #: Quiet jobs are the blocking submit+wait path: no event history,
        #: no subscriber pushes -- the caller is already holding the result.
        self.quiet = quiet
        self.state = JOB_QUEUED
        #: Wall timestamps are for *display only* (descriptors, logs); the
        #: ``*_mono`` twins are the authoritative source for every duration
        #: so an NTP step mid-job cannot produce negative queue/run times.
        self.submitted_at = clock.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.submitted_mono = clock.monotonic()
        self.started_mono: Optional[float] = None
        self.finished_mono: Optional[float] = None
        self.progress = 0.0
        self.stage = ""
        self.seq = 0
        self.events: "deque[JobEvent]" = deque(maxlen=max_events)
        self.response: Optional[Response] = None
        self.cancel_event = threading.Event()


class JobManager:
    """Bounded asynchronous scheduler for service requests.

    Submitted requests become first-class *jobs*: they run on a fixed pool
    of daemon worker threads, carry monotonic progress events, can be
    cancelled cooperatively at generation / layout checkpoints, and retain
    a bounded result + event history after finishing, so a client that
    reconnects (or never watched) can still collect the outcome.

    Ordering: jobs enter one FIFO ready queue at submission, so jobs of
    one session *start* in submit order (per-session FIFO) while jobs of
    different sessions run in parallel up to the pool width.  Dispatched
    jobs may overlap -- the engine already serializes naming, database and
    cache access.

    The blocking request path of the network layer is :meth:`run_sync`:
    submit + wait over the same queue and workers, byte-identical to
    direct execution because the job's stored :class:`Response` *is* the
    envelope ``ComponentService.execute`` produced.
    """

    def __init__(
        self,
        service: ComponentService,
        workers: int = DEFAULT_JOB_WORKERS,
        max_queued: int = 1024,
        max_retained: int = 512,
        max_events_per_job: int = 256,
        clock: Optional[Clock] = None,
    ):
        if workers < 1:
            raise IcdbError(f"job worker count must be >= 1, got {workers}")
        self.service = service
        #: Time source for every timestamp and deadline in this manager.
        #: Tests substitute a :class:`repro.obs.metrics.ManualClock` to pin
        #: wait/timeout behaviour deterministically.
        self.clock = clock or SYSTEM_CLOCK
        self.workers = workers
        self.max_queued = max_queued
        self.max_retained = max_retained
        self.max_events_per_job = max_events_per_job
        self._cond = threading.Condition()
        self._queue: "deque[str]" = deque()
        self._jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._counter = 0
        self._submitted = 0
        #: How often :meth:`run_many` degraded a submission to inline
        #: execution because the ready queue was full -- the signal that
        #: plan fan-outs are outrunning the pool (raise the queue limit
        #: or the worker count when this grows).
        self._inline_overflows = 0
        self._threads: List[threading.Thread] = []
        self._subscribers: Dict[int, Tuple[str, Callable[[Dict[str, Any]], None]]] = {}
        self._subscriber_counter = 0
        self._shutdown = False
        #: Marks job worker threads: code that fans work out over this
        #: pool *and waits for it* (the query planner) must not do so from
        #: a worker, or plans could occupy every slot waiting for inner
        #: jobs no slot is left to run.
        self._worker_flag = threading.local()
        #: Non-terminal job count per session id -- the O(1) answer to
        #: :meth:`session_has_work` (hot: every blocking network request
        #: asks it to decide between the direct and the FIFO job path).
        self._active_by_session: Dict[str, int] = {}

    # ------------------------------------------------------------- submission

    def submit(
        self,
        request: Request,
        session: Session,
        label: str = "",
        quiet: bool = False,
    ) -> Dict[str, Any]:
        """Queue ``request`` as a job of ``session``; answer its descriptor.

        Raises ``E_BUSY`` when the ready queue is at capacity and
        ``E_UNAVAILABLE`` after :meth:`shutdown`.
        """
        if request.kind in JOB_CONTROL_KINDS:
            raise IcdbError(
                f"a {request.kind!r} request cannot run as a job",
                code=E_BAD_REQUEST,
            )
        with self._cond:
            if self._shutdown:
                raise IcdbError("the job manager is shut down", code=E_UNAVAILABLE)
            if len(self._queue) >= self.max_queued:
                # The hint scales with how much work each worker already
                # owns: a deep queue on a narrow pool needs a longer
                # backoff than a briefly-full wide one.
                raise IcdbError(
                    f"job queue is full ({self.max_queued} queued); retry later",
                    code=E_BUSY,
                    retry_after_ms=min(
                        5000.0, max(100.0, len(self._queue) * 50.0 / self.workers)
                    ),
                )
            self._counter += 1
            self._submitted += 1
            job_id = f"job-{self._counter}"
            record = JobRecord(
                job_id,
                session,
                request,
                label,
                quiet,
                self.max_events_per_job,
                clock=self.clock,
            )
            self._jobs[job_id] = record
            sid = session.session_id
            self._active_by_session[sid] = self._active_by_session.get(sid, 0) + 1
            self._retire_locked()
            self._queue.append(job_id)
            self._ensure_workers_locked()
            event = self._emit_locked(record, stage="submit", message="job queued")
            subscribers = self._subscribers_locked(record)
            descriptor = self._descriptor_locked(record)
            self._cond.notify_all()
        self._deliver(subscribers, event)
        return descriptor

    def run_sync(self, request: Request, session: Session) -> Response:
        """Submit + wait: the blocking request path over the job queue.

        Returns the exact :class:`Response` envelope the service produced
        (byte-identical to direct execution).  The job is quiet -- no
        events are recorded or pushed, it is invisible to the job-control
        requests -- and is not retained afterwards.
        """
        descriptor = self.submit(request, session, quiet=True)
        job_id = str(descriptor["job_id"])
        with self._cond:
            record = self._jobs[job_id]
            while record.state not in JOB_TERMINAL_STATES:
                if self._shutdown:
                    raise IcdbError(
                        "the job manager shut down mid-request", code=E_UNAVAILABLE
                    )
                self._cond.wait()
            response = record.response
            self._jobs.pop(job_id, None)
        assert response is not None
        return response

    def run_many(
        self, requests: Sequence[Request], session: Session
    ) -> List[Response]:
        """Fan ``requests`` out over the worker pool; envelopes in order.

        The planner's cross-candidate parallel path.  Each request runs
        as a *quiet* job: quiet jobs are exempt from retention eviction
        (:meth:`_retire_locked` skips them) and are popped here by their
        collector, so a slow first candidate can never cause later,
        already-finished candidates to be evicted out from under the
        waiting plan.  A request the queue cannot take (``E_BUSY``)
        degrades to direct execution on the calling thread -- every
        request is answered, none is half-submitted.
        """
        job_ids: List[Optional[str]] = []
        responses: List[Optional[Response]] = [None] * len(requests)
        for request in requests:
            try:
                descriptor = self.submit(request, session, quiet=True)
            except IcdbError as exc:
                if exc.code != E_BUSY:
                    raise
                job_ids.append(None)
            else:
                job_ids.append(str(descriptor["job_id"]))
        # Queue-overflow requests execute inline while the workers chew
        # through the submitted ones.
        for index, (request, job_id) in enumerate(zip(requests, job_ids)):
            if job_id is None:
                with self._cond:
                    self._inline_overflows += 1
                responses[index] = self.service.execute(request, session)
        with self._cond:
            for index, job_id in enumerate(job_ids):
                if job_id is None:
                    continue
                record = self._jobs[job_id]
                while record.state not in JOB_TERMINAL_STATES:
                    if self._shutdown:
                        raise IcdbError(
                            "the job manager shut down mid-request",
                            code=E_UNAVAILABLE,
                        )
                    self._cond.wait()
                responses[index] = record.response
                self._jobs.pop(job_id, None)
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------ inspection

    def status(
        self,
        job_id: str,
        wait: bool = False,
        timeout_ms: Optional[float] = None,
        include_events: bool = False,
        events_since: int = 0,
        session: Optional[Session] = None,
    ) -> Dict[str, Any]:
        """The job's descriptor; with ``wait``, block until terminal.

        A ``wait`` whose ``timeout_ms`` expires raises ``E_TIMEOUT`` (the
        job keeps running); an unknown job id -- or, when ``session`` is
        given, another session's job -- raises ``E_NOT_FOUND``.
        """
        # Deadline arithmetic is monotonic (and routed through the clock
        # seam so tests can script it); note the loop's order: the state
        # is re-checked under the lock *before* the deadline, so a job
        # that reached a terminal state during the wait always wins over
        # a simultaneous timeout -- no lost wake-up can surface as a
        # spurious E_TIMEOUT for a finished job.
        deadline = (
            self.clock.monotonic() + timeout_ms / 1000.0
            if timeout_ms is not None
            else None
        )
        with self._cond:
            record = self._record_locked(job_id, session)
            if wait:
                while record.state not in JOB_TERMINAL_STATES:
                    if self._shutdown:
                        raise IcdbError(
                            "the job manager is shut down", code=E_UNAVAILABLE
                        )
                    if deadline is None:
                        self._cond.wait()
                        continue
                    remaining = deadline - self.clock.monotonic()
                    if remaining <= 0:
                        raise IcdbError(
                            f"timed out after {timeout_ms:g} ms waiting for "
                            f"job {job_id!r} (state {record.state!r})",
                            code=E_TIMEOUT,
                        )
                    self._cond.wait(remaining)
            return self._descriptor_locked(
                record, include_events=include_events, events_since=events_since
            )

    def response(
        self, job_id: str, session: Optional[Session] = None
    ) -> Optional[Response]:
        """The stored envelope of a terminal job (``None`` while running).

        In-process callers use this instead of the descriptor's
        ``"response"`` dict: the live envelope still carries the original
        exception, so legacy error paths re-raise exactly what a direct
        call would have raised.
        """
        with self._cond:
            return self._record_locked(job_id, session).response

    def events(
        self, job_id: str, since: int = 0, session: Optional[Session] = None
    ) -> List[Dict[str, Any]]:
        """The retained event history of a job (entries with seq > since)."""
        with self._cond:
            record = self._record_locked(job_id, session)
            return [e.to_dict() for e in record.events if e.seq > since]

    def session_has_work(self, session_id: str) -> bool:
        """True while any job of the session is queued or running (O(1))."""
        with self._cond:
            return self._active_by_session.get(session_id, 0) > 0

    def on_worker_thread(self) -> bool:
        """True when called from one of this manager's worker threads.

        The deadlock guard for nested fan-out: a plan running *as* a job
        generates its candidates inline instead of submitting them back
        to the pool it is itself occupying a slot of.
        """
        return getattr(self._worker_flag, "active", False)

    def stats(self) -> Dict[str, int]:
        with self._cond:
            running = sum(
                1 for r in self._jobs.values() if r.state == JOB_RUNNING
            )
            return {
                "workers": self.workers,
                "queued": len(self._queue),
                "running": running,
                "retained": len(self._jobs),
                "submitted": self._submitted,
                "inline_overflows": self._inline_overflows,
            }

    # ----------------------------------------------------------- cancellation

    def cancel(
        self, job_id: str, session: Optional[Session] = None
    ) -> Dict[str, Any]:
        """Cooperatively cancel a job; answer its (possibly final) descriptor.

        Queued jobs are cancelled on the spot.  Running jobs get their
        cancel flag set and stop at the next generation / layout
        checkpoint; requests without checkpoints (queries, design ops) may
        still complete normally.  Terminal jobs are left untouched.  With
        ``session``, only the owning session's jobs are addressable.
        """
        with self._cond:
            record = self._record_locked(job_id, session)
            if record.state in JOB_TERMINAL_STATES:
                return self._descriptor_locked(record)
            record.cancel_event.set()
            if record.state == JOB_QUEUED:
                record.state = JOB_CANCELLED
                record.finished_at = self.clock.time()
                record.finished_mono = self.clock.monotonic()
                self._count_terminal(record)
                self._settle_locked(record)
                record.response = Response(
                    ok=False,
                    error=IcdbErrorInfo(
                        code=E_CANCELLED,
                        message=f"job {job_id} cancelled before it started",
                        exception_type="OperationCancelled",
                    ),
                    session_id=record.session.session_id,
                    request_kind=record.request.kind,
                )
                event = self._emit_locked(
                    record, stage="cancel", message="cancelled while queued"
                )
                self._cond.notify_all()
            else:
                event = self._emit_locked(
                    record, stage="cancel", message="cancellation requested"
                )
            subscribers = self._subscribers_locked(record)
            descriptor = self._descriptor_locked(record)
        self._deliver(subscribers, event)
        return descriptor

    # ------------------------------------------------------------ event push

    def subscribe(
        self, session_id: str, callback: Callable[[Dict[str, Any]], None]
    ) -> int:
        """Receive every event of the session's jobs; returns an unsubscribe
        token.  Callbacks run on worker threads and must not block long."""
        with self._cond:
            self._subscriber_counter += 1
            token = self._subscriber_counter
            self._subscribers[token] = (session_id, callback)
            return token

    def unsubscribe(self, token: int) -> None:
        with self._cond:
            self._subscribers.pop(token, None)

    # --------------------------------------------------------------- lifecycle

    def shutdown(self) -> None:
        """Stop the workers after their current jobs; wake all waiters."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)

    # ---------------------------------------------------------------- internal

    def _record_locked(
        self, job_id: str, session: Optional[Session] = None
    ) -> JobRecord:
        """Resolve a job id for a caller.

        Quiet (blocking-path) jobs are internal bookkeeping, never part of
        the addressable id space; and when ``session`` is given (every
        request that arrived through the typed entry points), only that
        session's jobs resolve -- another session's job id answers the
        same ``E_NOT_FOUND`` as a nonexistent one, so ids leak nothing.
        Trusted in-process callers (tests, operators) pass no session.
        """
        record = self._jobs.get(job_id)
        if (
            record is None
            or record.quiet
            or (
                session is not None
                and record.session.session_id != session.session_id
            )
        ):
            raise IcdbError(f"unknown job {job_id!r}", code=E_NOT_FOUND)
        return record

    def _count_terminal(self, record: JobRecord) -> None:
        """Export counters/histograms for a job that just went terminal.

        Called with the manager's lock held; the metric instruments take
        only their own short per-instrument locks, so this cannot deadlock
        against a snapshot (the registry's collectors re-enter ``stats()``
        which takes ``self._cond`` -- but never from under an instrument
        lock).
        """
        metrics = self.service.metrics
        if record.state == JOB_DONE:
            metrics.counter("jobs.done").inc()
        elif record.state == JOB_CANCELLED:
            metrics.counter("jobs.cancelled").inc()
        else:
            metrics.counter("jobs.failed").inc()
        if record.finished_mono is None:
            return
        if record.started_mono is not None:
            queue_s = record.started_mono - record.submitted_mono
            metrics.histogram("jobs.run_ms").observe(
                (record.finished_mono - record.started_mono) * 1000.0
            )
        else:
            queue_s = record.finished_mono - record.submitted_mono
        metrics.histogram("jobs.queue_ms").observe(queue_s * 1000.0)

    def _settle_locked(self, record: JobRecord) -> None:
        """A job reached a terminal state: drop its active-session count."""
        sid = record.session.session_id
        remaining = self._active_by_session.get(sid, 0) - 1
        if remaining > 0:
            self._active_by_session[sid] = remaining
        else:
            self._active_by_session.pop(sid, None)

    def _ensure_workers_locked(self) -> None:
        while len(self._threads) < self.workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"icdb-job-worker-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _retire_locked(self) -> None:
        """Evict the oldest *terminal* jobs beyond the retention bound."""
        if len(self._jobs) <= self.max_retained:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.max_retained:
                break
            record = self._jobs[job_id]
            # Quiet (blocking-path) jobs are popped by their waiter in
            # run_sync, never retired -- retiring one would lose the
            # response out from under the thread waiting on it.
            if record.state in JOB_TERMINAL_STATES and not record.quiet:
                del self._jobs[job_id]

    def _descriptor_locked(
        self,
        record: JobRecord,
        include_events: bool = False,
        events_since: int = 0,
    ) -> Dict[str, Any]:
        descriptor: Dict[str, Any] = {
            "job_id": record.job_id,
            "label": record.label,
            "kind": record.request.kind,
            "session_id": record.session.session_id,
            "state": record.state,
            "submitted_at": record.submitted_at,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
            "progress": record.progress,
            "stage": record.stage,
            "seq": record.seq,
            "cancel_requested": record.cancel_event.is_set(),
        }
        # Durations come from the monotonic twins, never from wall-clock
        # subtraction: a backwards NTP step between submit and finish must
        # not surface as a negative queue/run time.
        if record.started_mono is not None:
            descriptor["queue_ms"] = (
                record.started_mono - record.submitted_mono
            ) * 1000.0
            if record.finished_mono is not None:
                descriptor["run_ms"] = (
                    record.finished_mono - record.started_mono
                ) * 1000.0
        elif record.finished_mono is not None:
            # Cancelled while queued: it spent its whole life in the queue.
            descriptor["queue_ms"] = (
                record.finished_mono - record.submitted_mono
            ) * 1000.0
        if record.state in JOB_TERMINAL_STATES and record.response is not None:
            descriptor["response"] = record.response.to_dict()
        if include_events:
            descriptor["events"] = [
                e.to_dict() for e in record.events if e.seq > events_since
            ]
        return descriptor

    def _emit_locked(
        self, record: JobRecord, stage: str = "", message: str = ""
    ) -> Optional[Dict[str, Any]]:
        if record.quiet:
            return None
        record.seq += 1
        event = JobEvent(
            job_id=record.job_id,
            seq=record.seq,
            state=record.state,
            stage=stage or record.stage,
            progress=record.progress,
            message=message,
            timestamp=self.clock.time(),
        )
        record.events.append(event)
        return event.to_dict()

    def _subscribers_locked(
        self, record: JobRecord
    ) -> List[Callable[[Dict[str, Any]], None]]:
        if record.quiet or not self._subscribers:
            return []
        session_id = record.session.session_id
        return [
            callback
            for (sid, callback) in self._subscribers.values()
            if sid == session_id
        ]

    def _deliver(
        self,
        subscribers: List[Callable[[Dict[str, Any]], None]],
        event: Optional[Dict[str, Any]],
    ) -> None:
        if event is None:
            return
        for callback in subscribers:
            try:
                callback(event)
            except Exception as exc:  # noqa: BLE001 - a dead connection must not kill a job
                # ...but dropping the event silently hid real bugs; count
                # it and leave a trace for anyone running at DEBUG.
                self.service.metrics.counter("jobs.event_drops").inc()
                get_logger("repro.api.service").debug(
                    "job_event_drop",
                    job_id=event.get("job_id"),
                    seq=event.get("seq"),
                    error=repr(exc),
                )

    def _progress(self, record: JobRecord, stage: str, fraction: float) -> None:
        with self._cond:
            record.stage = stage
            record.progress = max(record.progress, min(max(float(fraction), 0.0), 1.0))
            event = self._emit_locked(record, stage=stage)
            subscribers = self._subscribers_locked(record)
        self._deliver(subscribers, event)

    def _worker_loop(self) -> None:
        self._worker_flag.active = True
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._cond.wait()
                if self._shutdown:
                    return
                job_id = self._queue.popleft()
                record = self._jobs.get(job_id)
                if record is None or record.state != JOB_QUEUED:
                    continue  # cancelled while queued, or a forgotten sync job
                record.state = JOB_RUNNING
                record.started_at = self.clock.time()
                record.started_mono = self.clock.monotonic()
                event = self._emit_locked(record, stage="start", message="job started")
                subscribers = self._subscribers_locked(record)
            self._deliver(subscribers, event)
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        if record.quiet:
            # The blocking path: quiet jobs are not addressable (the
            # job-control lookups treat them as unknown), so cancellation
            # is impossible by construction and nobody watches progress --
            # skip the observer bookkeeping entirely on this hot path.
            response = self.service.execute(record.request, record.session)
        else:

            def observer(stage: str, fraction: float) -> None:
                if record.cancel_event.is_set():
                    raise OperationCancelled(
                        f"job {record.job_id} cancelled at checkpoint {stage!r}"
                    )
                self._progress(record, stage, fraction)

            with observed(observer):
                # execute() maps every exception -- including the
                # observer's OperationCancelled -- to an error envelope.
                response = self.service.execute(record.request, record.session)
        with self._cond:
            record.response = response
            record.finished_at = self.clock.time()
            record.finished_mono = self.clock.monotonic()
            if response.ok:
                record.state = JOB_DONE
                record.progress = 1.0
            elif response.error is not None and response.error.code == E_CANCELLED:
                record.state = JOB_CANCELLED
            else:
                record.state = JOB_FAILED
            self._count_terminal(record)
            self._settle_locked(record)
            event = self._emit_locked(
                record,
                stage="end",
                message=(
                    "job finished"
                    if response.ok
                    else (response.error.message if response.error else "job failed")
                ),
            )
            subscribers = self._subscribers_locked(record)
            self._retire_locked()
            self._cond.notify_all()
        self._deliver(subscribers, event)


class LocalJobHandle:
    """Futures-style view of a job submitted through a local session.

    Mirrors the remote :class:`~repro.net.client.JobHandle` surface:
    ``result(timeout)``, ``cancel()``, ``events()``, ``wait()``,
    ``instance()``.  Timeouts are seconds; an expired wait raises an
    ``E_TIMEOUT`` :class:`~repro.core.icdb.IcdbError` while the job keeps
    running.
    """

    def __init__(self, session: Session, descriptor: Dict[str, Any]):
        self._session = session
        self.descriptor = dict(descriptor)
        self.job_id = str(descriptor["job_id"])
        self.label = str(descriptor.get("label") or "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalJobHandle({self.job_id!r}, state={self.state!r})"

    @property
    def state(self) -> str:
        return str(self.descriptor.get("state") or JOB_QUEUED)

    @property
    def progress(self) -> float:
        return float(self.descriptor.get("progress") or 0.0)

    def status(self) -> Dict[str, Any]:
        self.descriptor = self._session.job_status(self.job_id)
        return self.descriptor

    def done(self) -> bool:
        return self.status()["state"] in JOB_TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        self.descriptor = self._session.job_status(
            self.job_id,
            wait=True,
            timeout_ms=None if timeout is None else timeout * 1000.0,
        )
        return self.descriptor

    def response(self, timeout: Optional[float] = None) -> Response:
        self.wait(timeout)
        response = self._session.service.jobs.response(
            self.job_id, session=self._session
        )
        assert response is not None
        return response

    def result(self, timeout: Optional[float] = None):
        """The job's result value; re-raises the original engine error."""
        return self.response(timeout).unwrap()

    def instance(self, timeout: Optional[float] = None) -> ComponentInstance:
        """For component jobs: wait, then answer the registered instance."""
        summary = self.result(timeout)
        return self._session.instances.get(str(summary["instance"]))

    def cancel(self) -> Dict[str, Any]:
        self.descriptor = self._session.cancel_job(self.job_id)
        return self.descriptor

    def events(self, since: int = 0) -> List[Dict[str, Any]]:
        return self._session.service.jobs.events(
            self.job_id, since=since, session=self._session
        )
