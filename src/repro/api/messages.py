"""Typed request / response envelopes for every ICDB server operation.

The paper's ICDB is a *component server*: many synthesis tools call it
concurrently through the ``ICDB()`` / CQL interface.  This module defines
the wire contract of that server as frozen dataclasses, one per operation:

========================  =================================================
request type              server operation
========================  =================================================
:class:`ComponentQuery`   ``component_query`` (implementations / functions)
:class:`FunctionQuery`    ``function_query`` (by executed functions)
:class:`InstanceQuery`    ``instance_query`` / ``connect_component``
:class:`ComponentRequest` ``request_component`` (generate an instance)
:class:`PlanQuery`        declarative component query / design-space plan
:class:`LayoutRequest`    layout generation for an existing instance
:class:`Simulate`         batch vector simulation of an existing instance
:class:`CheckEquivalence` flat-vs-gate equivalence check of an instance
:class:`DesignOp`         design / transaction / component-list management
:class:`SubmitJob`        run any request as an asynchronous server job
:class:`JobStatus`        poll (or wait for) a job; fetch its events
:class:`CancelJob`        cooperatively cancel a queued / running job
:class:`WarmCache`        prime generation-stage memos
========================  =================================================

Two more wire dataclasses are not requests: :class:`JobEvent` is the
server-pushed progress record of a running job, and
:class:`AttachSession` is the alternative opening handshake frame that
resumes an existing session by token (sessions are decoupled from
connections; see :mod:`repro.net`).

Every request and the :class:`Response` envelope round-trip through
``to_dict()`` -> JSON -> ``from_dict()``, so a socket or HTTP transport can
be layered on later without touching the service.  Responses carry
``ok`` / ``value`` / ``error`` (a structured
:class:`~repro.api.errors.IcdbErrorInfo`), timing metadata and a
cache-provenance flag; for the in-process transport they additionally keep
the original exception so legacy call paths re-raise exactly what the old
facade raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type

from ..constraints import Constraints, PortPosition
from ..core.icdb import IcdbError
from ..core.instances import TARGET_LOGIC
from ..netlist.structural import StructuralNetlist
from ..sim.verify import EQUIVALENCE_MODES, SIM_ENGINES
from .errors import E_BAD_REQUEST, E_PROTOCOL, IcdbErrorInfo
from .query import QuerySpec

#: Version of the wire contract spoken by :mod:`repro.net`.  Bump when a
#: frame or envelope changes incompatibly; the handshake rejects mismatches.
#: Version 2: job-oriented async API (submit/status/cancel requests,
#: server-pushed ``job_event`` frames) and session tokens with the
#: ``attach`` resume handshake.
PROTOCOL_VERSION = 2


def _tuple(value) -> Tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class Request:
    """Base class: every server operation is one frozen request object."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Request":
        raise NotImplementedError


@dataclass(frozen=True)
class ComponentQuery(Request):
    """The CQL ``component_query``.

    With ``component`` (and optionally ``functions``): which implementations
    match.  With ``implementation`` (an implementation or generated-instance
    name): which functions it executes.
    """

    kind: ClassVar[str] = "component_query"

    component: Optional[str] = None
    implementation: Optional[str] = None
    functions: Tuple[str, ...] = ()
    attributes: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "component": self.component,
            "implementation": self.implementation,
            "functions": list(self.functions),
            "attributes": dict(self.attributes) if self.attributes else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComponentQuery":
        return cls(
            component=data.get("component"),
            implementation=data.get("implementation"),
            functions=_tuple(data.get("functions")),
            attributes=dict(data["attributes"]) if data.get("attributes") else None,
        )


#: Valid ``want`` values of a :class:`FunctionQuery`.
FUNCTION_QUERY_WANTS = ("implementation", "component")


@dataclass(frozen=True)
class FunctionQuery(Request):
    """The CQL ``function_query``: what can execute *all* given functions."""

    kind: ClassVar[str] = "function_query"

    functions: Tuple[str, ...] = ()
    want: str = "implementation"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "functions": list(self.functions), "want": self.want}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FunctionQuery":
        return cls(
            functions=_tuple(data.get("functions")),
            want=data.get("want", "implementation"),
        )


@dataclass(frozen=True)
class InstanceQuery(Request):
    """The CQL ``instance_query`` (and ``connect_component``).

    ``fields`` optionally restricts the answer to the named report fields
    (e.g. ``("connect",)``); empty means everything known.
    """

    kind: ClassVar[str] = "instance_query"

    name: str = ""
    fields: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "fields": list(self.fields)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InstanceQuery":
        return cls(name=data.get("name", ""), fields=_tuple(data.get("fields")))


#: Valid ``detail`` projections of a :class:`ComponentRequest` answer.
COMPONENT_DETAILS = ("full", "summary")


@dataclass(frozen=True)
class ComponentRequest(Request):
    """The CQL ``request_component``: generate a component instance.

    Exactly one of the three specification types of Section 3.2.2 applies:
    a component / implementation name plus attributes, an IIF description,
    or a structural netlist of existing instances.  ``use_cache`` opts out
    of the canonical-signature result cache for the catalog-based path.
    ``detail`` selects the answer projection: ``"full"`` carries every
    render a client may want (delay / area / shape reports, file paths);
    ``"summary"`` only the instance identity and headline numbers, which
    bulk pipelined clients use to keep response frames small.
    """

    kind: ClassVar[str] = "request_component"

    component_name: Optional[str] = None
    implementation: Optional[str] = None
    iif: Optional[str] = None
    structure: Optional[StructuralNetlist] = None
    functions: Tuple[str, ...] = ()
    attributes: Optional[Dict[str, Any]] = None
    constraints: Optional[Constraints] = None
    strategy: Optional[str] = None
    target: str = TARGET_LOGIC
    instance_name: Optional[str] = None
    parameters: Optional[Dict[str, int]] = None
    use_cache: bool = True
    detail: str = "full"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "component_name": self.component_name,
            "implementation": self.implementation,
            "iif": self.iif,
            "structure": self.structure.to_dict() if self.structure else None,
            "functions": list(self.functions),
            "attributes": dict(self.attributes) if self.attributes else None,
            "constraints": self.constraints.to_dict() if self.constraints else None,
            "strategy": self.strategy,
            "target": self.target,
            "instance_name": self.instance_name,
            "parameters": dict(self.parameters) if self.parameters else None,
            "use_cache": self.use_cache,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComponentRequest":
        return cls(
            component_name=data.get("component_name"),
            implementation=data.get("implementation"),
            iif=data.get("iif"),
            structure=(
                StructuralNetlist.from_dict(data["structure"])
                if data.get("structure")
                else None
            ),
            functions=_tuple(data.get("functions")),
            attributes=dict(data["attributes"]) if data.get("attributes") else None,
            constraints=(
                Constraints.from_dict(data["constraints"])
                if data.get("constraints")
                else None
            ),
            strategy=data.get("strategy"),
            target=data.get("target", TARGET_LOGIC),
            instance_name=data.get("instance_name"),
            parameters=(
                {key: int(value) for key, value in data["parameters"].items()}
                if data.get("parameters")
                else None
            ),
            use_cache=bool(data.get("use_cache", True)),
            detail=data.get("detail", "full"),
        )


@dataclass(frozen=True)
class PlanQuery(Request):
    """A declarative component query: select, bound, sweep, rank.

    ``query`` is a :class:`~repro.api.query.QuerySpec` -- predicates over
    the catalog, metric bounds, an objective (single-metric, weighted or
    Pareto) and the design-space enumeration (sweep axes or explicit
    points).  The server plans it (:mod:`repro.api.planner`): candidates
    are pruned with cheap pre-generation checks, survivors generate
    through the cached engine -- fanned out over the job worker pool --
    and the answer is the full :class:`~repro.api.planner.PlanResult`
    wire form: every candidate report, the ranked winners, the Pareto
    front, and the ``explain`` planning report.

    Plans cannot ride in a batch: a batch holds the service lock for its
    whole execution, while a plan fans its candidates out across job
    workers that need that lock to register instances.  Submitting a plan
    *as a job* is fine -- on a worker thread the planner generates
    inline.
    """

    kind: ClassVar[str] = "plan_query"

    query: QuerySpec = field(default_factory=QuerySpec)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "query": self.query.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanQuery":
        return cls(query=QuerySpec.from_dict(data.get("query") or {}))


@dataclass(frozen=True)
class LayoutRequest(Request):
    """Generate (and store) the layout of an existing instance.

    ``alternative`` is the 1-based index into the instance's shape function,
    as in the paper's ``alternative:3`` layout request.
    """

    kind: ClassVar[str] = "request_layout"

    name: str = ""
    alternative: Optional[int] = None
    strips: Optional[int] = None
    port_positions: Tuple[PortPosition, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "alternative": self.alternative,
            "strips": self.strips,
            "port_positions": [p.to_dict() for p in self.port_positions],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayoutRequest":
        return cls(
            name=data.get("name", ""),
            alternative=data.get("alternative"),
            strips=data.get("strips"),
            port_positions=tuple(
                PortPosition.from_dict(item)
                for item in (data.get("port_positions") or ())
            ),
        )


@dataclass(frozen=True)
class Simulate(Request):
    """Batch-simulate test vectors on an existing instance.

    The server runs the named instance's bit-parallel engine
    (:mod:`repro.sim.batch`) over the vectors -- one lane per vector --
    and answers one output assignment per vector.  ``engine`` selects the
    model (:data:`~repro.sim.verify.SIM_ENGINES`): ``"gates"`` simulates
    the synthesized gate netlist, ``"flat"`` the flat IIF reference.
    Without a ``clock`` every vector is an independent experiment from
    reset; with one, the vectors are the consecutive per-cycle stimuli of
    a single trace.
    """

    kind: ClassVar[str] = "simulate"

    name: str = ""
    vectors: Tuple[Dict[str, int], ...] = ()
    engine: str = "gates"
    clock: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in SIM_ENGINES:
            raise IcdbError(
                f"unknown simulation engine {self.engine!r}; expected one "
                f"of {SIM_ENGINES}",
                code=E_BAD_REQUEST,
            )
        object.__setattr__(
            self,
            "vectors",
            tuple(
                {str(name): 1 if value else 0 for name, value in vector.items()}
                for vector in self.vectors
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "vectors": [dict(vector) for vector in self.vectors],
            "engine": self.engine,
            "clock": self.clock,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Simulate":
        vectors = data.get("vectors") or ()
        if not isinstance(vectors, (list, tuple)) or any(
            not isinstance(vector, Mapping) for vector in vectors
        ):
            raise IcdbError(
                "simulate 'vectors' must be a list of input assignments",
                code=E_BAD_REQUEST,
            )
        clock = data.get("clock")
        return cls(
            name=str(data.get("name") or ""),
            vectors=tuple(dict(vector) for vector in vectors),
            engine=str(data.get("engine") or "gates"),
            clock=str(clock) if clock is not None else None,
        )


@dataclass(frozen=True)
class CheckEquivalence(Request):
    """Check an instance's gate netlist against a flat reference.

    With no ``reference`` the instance is checked against its *own* flat
    IIF form (did synthesis preserve the function?); with one, the
    referenced instance's flat form is the specification -- the planner's
    ``require_equivalent_to`` bound and cross-implementation comparisons
    use this.  ``mode`` is one of
    :data:`~repro.sim.verify.EQUIVALENCE_MODES`: ``"auto"`` picks the
    sequential lock-step check when either side holds state, the
    combinational sweep otherwise.  The answer embeds the
    :class:`~repro.sim.vectors.EquivalenceResult` wire form, including a
    counterexample vector on failure.
    """

    kind: ClassVar[str] = "check_equivalence"

    name: str = ""
    reference: Optional[str] = None
    mode: str = "auto"
    clock: Optional[str] = None
    max_exhaustive: int = 10
    samples: int = 256
    cycles: int = 32
    lanes: int = 64
    seed: int = 1990

    def __post_init__(self) -> None:
        if self.mode not in EQUIVALENCE_MODES:
            raise IcdbError(
                f"unknown equivalence mode {self.mode!r}; expected one of "
                f"{EQUIVALENCE_MODES}",
                code=E_BAD_REQUEST,
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "reference": self.reference,
            "mode": self.mode,
            "clock": self.clock,
            "max_exhaustive": self.max_exhaustive,
            "samples": self.samples,
            "cycles": self.cycles,
            "lanes": self.lanes,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckEquivalence":
        reference = data.get("reference")
        clock = data.get("clock")
        try:
            numbers = {
                field_name: int(data.get(field_name, default))
                for field_name, default in (
                    ("max_exhaustive", 10),
                    ("samples", 256),
                    ("cycles", 32),
                    ("lanes", 64),
                    ("seed", 1990),
                )
            }
        except (TypeError, ValueError):
            raise IcdbError(
                "check_equivalence sizing fields must be integers",
                code=E_BAD_REQUEST,
            )
        return cls(
            name=str(data.get("name") or ""),
            reference=str(reference) if reference is not None else None,
            mode=str(data.get("mode") or "auto"),
            clock=str(clock) if clock is not None else None,
            **numbers,
        )


#: Valid operations of a :class:`DesignOp`.
DESIGN_OPS = (
    "start_design",
    "start_transaction",
    "put_in_list",
    "component_list",
    "end_transaction",
    "end_design",
)


@dataclass(frozen=True)
class DesignOp(Request):
    """Design / transaction / component-list management.

    ``op`` is one of :data:`DESIGN_OPS`; ``design`` defaults to the
    session's current design; ``instance`` is required by ``put_in_list``.
    """

    kind: ClassVar[str] = "design_op"

    op: str = ""
    design: str = ""
    instance: str = ""

    def __post_init__(self) -> None:
        if self.op not in DESIGN_OPS:
            raise IcdbError(
                f"unknown design operation {self.op!r}; expected one of {DESIGN_OPS}",
                code=E_BAD_REQUEST,
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "op": self.op,
            "design": self.design,
            "instance": self.instance,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignOp":
        return cls(
            op=data.get("op", ""),
            design=data.get("design", ""),
            instance=data.get("instance", ""),
        )


@dataclass(frozen=True)
class BatchRequest(Request):
    """A pipelined batch: several requests executed in one server pass.

    The server executes the member requests in order against one session
    -- the whole sequence ``repeat`` times over -- under a single
    acquisition of the service lock, and answers with one
    :class:`Response` whose ``value`` is the list of the member responses'
    ``to_dict()`` forms (``repeat * len(requests)`` of them, in execution
    order).  ``repeat`` is the ``executemany`` of the protocol: bulk
    generators asking for N identical cached components ship and parse the
    request once instead of N times.  Batches cannot nest.
    """

    kind: ClassVar[str] = "batch"

    #: Ceiling on ``repeat * len(requests)``: a batch holds the service
    #: lock for its whole execution, so one frame must not be able to
    #: queue unbounded work (or allocate an unbounded flattened tuple).
    MAX_TOTAL_REQUESTS: ClassVar[int] = 10_000

    requests: Tuple[Request, ...] = ()
    repeat: int = 1

    def __post_init__(self) -> None:
        if any(isinstance(member, BatchRequest) for member in self.requests):
            raise IcdbError("batch requests cannot be nested", code=E_BAD_REQUEST)
        # Job control is connection-level: a batch holds the service lock
        # for its whole execution, and a waiting job_status inside it would
        # deadlock against the very job it awaits.
        offenders = [m.kind for m in self.requests if m.kind in JOB_CONTROL_KINDS]
        if offenders:
            raise IcdbError(
                f"job-control requests cannot ride in a batch: {offenders}",
                code=E_BAD_REQUEST,
            )
        # A batch holds the service lock for its whole execution; a plan
        # fans candidates out across job workers that need that lock to
        # register instances -- waiting on them from inside the batch
        # would deadlock.
        if any(isinstance(member, PlanQuery) for member in self.requests):
            raise IcdbError(
                "plan_query requests cannot ride in a batch "
                "(a plan fans out across the job worker pool)",
                code=E_BAD_REQUEST,
            )
        if not isinstance(self.repeat, int) or self.repeat < 1:
            raise IcdbError(
                f"batch repeat must be a positive integer, got {self.repeat!r}",
                code=E_BAD_REQUEST,
            )
        total = self.repeat * len(self.requests)
        if total > self.MAX_TOTAL_REQUESTS:
            raise IcdbError(
                f"batch of {total} requests exceeds the "
                f"{self.MAX_TOTAL_REQUESTS}-request limit",
                code=E_BAD_REQUEST,
            )

    def flattened(self) -> Tuple[Request, ...]:
        """The full request sequence with ``repeat`` applied."""
        if self.repeat == 1:
            return self.requests
        return self.requests * self.repeat

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "requests": [member.to_dict() for member in self.requests],
            "repeat": self.repeat,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchRequest":
        members = data.get("requests") or ()
        if not isinstance(members, (list, tuple)):
            raise IcdbError("batch 'requests' must be a list", code=E_BAD_REQUEST)
        repeat = data.get("repeat", 1)
        if not isinstance(repeat, int) or isinstance(repeat, bool):
            raise IcdbError(
                f"batch repeat must be an integer, got {repeat!r}", code=E_BAD_REQUEST
            )
        return cls(
            requests=tuple(request_from_dict(member) for member in members),
            repeat=repeat,
        )


#: Job lifecycle states, in the order a job moves through them.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: States a job never leaves once reached.
JOB_TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@dataclass(frozen=True)
class SubmitJob(Request):
    """Run any service request as an asynchronous server-side job.

    The answer is a *job descriptor* (``job_id``, ``state``, timing and
    progress fields), returned immediately; the wrapped request executes
    on the service's bounded worker pool.  Jobs of one session are
    dispatched in submit order (per-session FIFO); jobs of different
    sessions run in parallel.  Job-control requests cannot themselves be
    submitted as jobs, and neither can batches containing them.
    """

    kind: ClassVar[str] = "submit_job"

    request: Optional[Request] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.request is None:
            raise IcdbError(
                "submit_job requires a wrapped 'request'", code=E_BAD_REQUEST
            )
        if isinstance(self.request, (SubmitJob, JobStatus, CancelJob)):
            raise IcdbError(
                f"a {self.request.kind!r} request cannot be submitted as a job",
                code=E_BAD_REQUEST,
            )

    def to_dict(self) -> Dict[str, Any]:
        assert self.request is not None
        return {
            "kind": self.kind,
            "request": self.request.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitJob":
        inner = data.get("request")
        if not isinstance(inner, Mapping):
            raise IcdbError(
                "submit_job requires a 'request' object", code=E_BAD_REQUEST
            )
        return cls(
            request=request_from_dict(inner), label=str(data.get("label") or "")
        )


@dataclass(frozen=True)
class JobStatus(Request):
    """Poll one job's descriptor; optionally wait and fetch its events.

    ``wait=True`` blocks server-side until the job reaches a terminal
    state or ``timeout_ms`` expires (an ``E_TIMEOUT`` error envelope; the
    job itself is unaffected).  ``include_events`` attaches the retained
    event history (entries with ``seq > events_since``) to the
    descriptor.  A terminal descriptor carries the job's full
    :class:`Response` envelope under ``"response"``.
    """

    kind: ClassVar[str] = "job_status"

    job_id: str = ""
    wait: bool = False
    timeout_ms: Optional[float] = None
    include_events: bool = False
    events_since: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "wait": self.wait,
            "timeout_ms": self.timeout_ms,
            "include_events": self.include_events,
            "events_since": self.events_since,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        timeout = data.get("timeout_ms")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise IcdbError(
                    "job_status 'timeout_ms' must be a number", code=E_BAD_REQUEST
                )
        try:
            since = int(data.get("events_since") or 0)
        except (TypeError, ValueError):
            raise IcdbError(
                "job_status 'events_since' must be an integer", code=E_BAD_REQUEST
            )
        return cls(
            job_id=str(data.get("job_id") or ""),
            wait=bool(data.get("wait", False)),
            timeout_ms=timeout,
            include_events=bool(data.get("include_events", False)),
            events_since=since,
        )


@dataclass(frozen=True)
class CancelJob(Request):
    """Cooperatively cancel a job.

    A queued job is cancelled immediately; a running job stops at its next
    generation / layout checkpoint (its worker slot is freed and no
    instance or artifact is left behind).  Cancelling a terminal job is a
    no-op answering the final descriptor.
    """

    kind: ClassVar[str] = "cancel_job"

    job_id: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "job_id": self.job_id}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CancelJob":
        return cls(job_id=str(data.get("job_id") or ""))


@dataclass(frozen=True)
class GetMetrics(Request):
    """Export the service's metrics registry snapshot.

    Answers the :meth:`repro.obs.MetricsRegistry.snapshot` dict:
    ``version`` / ``time`` plus flat ``counters`` (owned counters merged
    with the collector-pulled cache / job / session accounting),
    ``gauges`` and fixed-bucket ``histograms``.  ``prefixes`` keeps only
    metric names starting with any given prefix (empty = everything);
    ``include_histograms=False`` drops the bucket arrays for cheap
    high-frequency polling.
    """

    kind: ClassVar[str] = "get_metrics"

    prefixes: Tuple[str, ...] = ()
    include_histograms: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "prefixes": list(self.prefixes),
            "include_histograms": self.include_histograms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GetMetrics":
        prefixes = data.get("prefixes")
        if prefixes is not None and not isinstance(prefixes, (list, tuple, str)):
            raise IcdbError(
                "get_metrics 'prefixes' must be a list of strings",
                code=E_BAD_REQUEST,
            )
        return cls(
            prefixes=tuple(str(p) for p in _tuple(prefixes)),
            include_histograms=bool(data.get("include_histograms", True)),
        )


@dataclass(frozen=True)
class Ping(Request):
    """Liveness and health probe.

    Unlike the frame-level ``ping``/``pong`` (a pure codec round trip),
    this is a *typed* request: it travels the full request path and
    answers the service's health dict -- status (``ok`` / ``draining``),
    uptime, protocol version, job queue depths, durable-store recovery
    state and whatever health sources the hosting server registered
    (live session counts, drain / shed state).  ``echo`` is returned
    verbatim, so a client can correlate probes.
    """

    kind: ClassVar[str] = "ping"

    echo: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "echo": self.echo}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Ping":
        echo = data.get("echo")
        if echo is not None and not isinstance(echo, str):
            raise IcdbError("ping 'echo' must be a string", code=E_BAD_REQUEST)
        return cls(echo=echo or "")


@dataclass(frozen=True)
class JobEvent:
    """One progress record of a job (pushed as a ``job_event`` frame).

    ``seq`` is monotonic per job (starting at 1); ``state`` is the job
    state after the event; ``stage`` / ``progress`` describe the pipeline
    checkpoint that produced it.  ``timestamp`` is server wall-clock
    seconds (``time.time()``).
    """

    job_id: str = ""
    seq: int = 0
    state: str = JOB_QUEUED
    stage: str = ""
    progress: float = 0.0
    message: str = ""
    timestamp: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "stage": self.stage,
            "progress": self.progress,
            "message": self.message,
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "JobEvent":
        return JobEvent(
            job_id=str(data.get("job_id") or ""),
            seq=int(data.get("seq") or 0),
            state=str(data.get("state") or JOB_QUEUED),
            stage=str(data.get("stage") or ""),
            progress=float(data.get("progress") or 0.0),
            message=str(data.get("message") or ""),
            timestamp=float(data.get("timestamp") or 0.0),
        )


@dataclass(frozen=True)
class AttachSession:
    """The alternative opening frame: resume an existing session by token.

    The ``hello`` / ``welcome`` handshake issues a ``session_token``; a
    later connection opens with ``attach`` instead of ``hello`` to bind to
    that same server-side session -- its design context and its jobs
    (running or finished) survive the connection that submitted them.
    """

    protocol: int = PROTOCOL_VERSION
    token: str = ""
    client: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "attach",
            "protocol": self.protocol,
            "token": self.token,
            "client": self.client,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "AttachSession":
        try:
            protocol = int(data.get("protocol", 0))
        except (TypeError, ValueError):
            raise IcdbError("attach 'protocol' must be an integer", code=E_PROTOCOL)
        return AttachSession(
            protocol=protocol,
            token=str(data.get("token") or ""),
            client=str(data.get("client") or ""),
        )


@dataclass(frozen=True)
class WarmCache(Request):
    """Prime the server's generation-stage memo for catalog elaborations.

    Each entry is a plain mapping selecting what to warm: either an
    explicit ``implementation`` name, or a ``component`` /``functions``
    pair the catalog resolves (every matching implementation is warmed),
    plus optional ``attributes`` / ``parameters`` overrides, an optional
    ``constraints`` dict and an optional ``name`` labelling the template
    the way the eventual requester would.  Warming runs the expand /
    synth / size / estimate stages through the normal memo *without*
    registering anything, so it is idempotent and safe to retry blindly.
    A fleet-attached server computes each entry in a worker child.
    """

    kind: ClassVar[str] = "warm_cache"

    entries: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "entries": [dict(entry) for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WarmCache":
        raw = data.get("entries") or ()
        if isinstance(raw, Mapping):
            raw = (raw,)
        return cls(entries=tuple(dict(entry) for entry in raw))


#: Request kinds that control jobs rather than doing work themselves.
#: Transports execute these inline on the connection (a waiting
#: ``JobStatus`` must never occupy a job worker slot), and they are
#: rejected inside batches (a batch holds the service lock, which the
#: awaited job may need).
JOB_CONTROL_KINDS = (SubmitJob.kind, JobStatus.kind, CancelJob.kind)


#: Request kinds that are safe to retry blindly after an ambiguous
#: transport failure: re-executing one cannot change service state
#: beyond what a single execution would (queries, metrics, simulation
#: re-computation, job inspection; ``cancel_job`` is idempotent -- a
#: second cancel of the same job is a no-op).  Everything else mutates
#: (registers instances, layouts, designs or jobs) and must only be
#: retried when the failure provably preceded the send, or under a
#: transport-level ``request_id`` the server dedupes.
IDEMPOTENT_KINDS = (
    ComponentQuery.kind,
    FunctionQuery.kind,
    InstanceQuery.kind,
    Simulate.kind,
    CheckEquivalence.kind,
    JobStatus.kind,
    CancelJob.kind,
    GetMetrics.kind,
    Ping.kind,
    WarmCache.kind,
)


#: The complement of :data:`IDEMPOTENT_KINDS`: kinds whose execution
#: changes service state (registers instances, layouts, designs or
#: jobs), so a blind retry could double-apply.  Every wire kind must
#: appear in exactly one of the two tuples -- a classification test
#: walks :data:`REQUEST_TYPES` and fails on any kind left out, so a new
#: request type cannot ship unclassified (an unclassified kind would
#: silently get the reconnecting client's no-blind-retry treatment,
#: which is safe but masks the omission).
MUTATING_KINDS = (
    ComponentRequest.kind,
    PlanQuery.kind,
    LayoutRequest.kind,
    DesignOp.kind,
    BatchRequest.kind,
    SubmitJob.kind,
)


#: Registry of request types by wire kind.
REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.kind: cls
    for cls in (
        ComponentQuery,
        FunctionQuery,
        InstanceQuery,
        ComponentRequest,
        PlanQuery,
        LayoutRequest,
        Simulate,
        CheckEquivalence,
        DesignOp,
        BatchRequest,
        SubmitJob,
        JobStatus,
        CancelJob,
        GetMetrics,
        Ping,
        WarmCache,
    )
}


def request_from_dict(data: Mapping[str, Any]) -> Request:
    """Rebuild any request from its ``to_dict()`` form (transport entry)."""
    if not isinstance(data, Mapping):
        raise IcdbError(
            f"a request must be a mapping, got {type(data).__name__}",
            code=E_BAD_REQUEST,
        )
    kind = data.get("kind")
    request_type = REQUEST_TYPES.get(kind or "")
    if request_type is None:
        raise IcdbError(f"unknown request kind {kind!r}", code=E_BAD_REQUEST)
    return request_type.from_dict(data)


@dataclass(frozen=True)
class Hello:
    """The client's opening frame of a transport connection.

    Carries the protocol version the client speaks and a client label the
    server records on the session it creates for this connection.
    """

    protocol: int = PROTOCOL_VERSION
    client: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "hello", "protocol": self.protocol, "client": self.client}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Hello":
        try:
            protocol = int(data.get("protocol", 0))
        except (TypeError, ValueError):
            raise IcdbError("hello 'protocol' must be an integer", code=E_PROTOCOL)
        return Hello(protocol=protocol, client=str(data.get("client", "")))


@dataclass(frozen=True)
class Welcome:
    """The server's answer to a :class:`Hello` (or ``attach``): the
    session is open.

    ``session_token`` is the resume credential: present it in an
    :class:`AttachSession` frame on a later connection to rebind to this
    session and its jobs.
    """

    protocol: int = PROTOCOL_VERSION
    session_id: str = ""
    server: str = ""
    session_token: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "welcome",
            "protocol": self.protocol,
            "session_id": self.session_id,
            "server": self.server,
            "session_token": self.session_token,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Welcome":
        return Welcome(
            protocol=int(data.get("protocol", 0)),
            session_id=str(data.get("session_id", "")),
            server=str(data.get("server", "")),
            session_token=str(data.get("session_token", "")),
        )


@dataclass
class Response:
    """The envelope every service call returns.

    ``value`` is JSON-serializable (renders and summaries, never live engine
    objects); ``error`` is set when ``ok`` is false.  ``elapsed_ms`` is the
    server-side execution time, ``cached`` marks results served from the
    result cache.  ``exception`` is in-process only (never serialized): the
    original exception, kept so legacy entry points re-raise it unchanged.

    The envelope is a plain (unfrozen) dataclass: responses are built and
    re-parsed once per request on the pipelined hot path, where the
    ``object.__setattr__`` cost of a frozen dataclass is measurable.
    """

    ok: bool
    value: Any = None
    error: Optional[IcdbErrorInfo] = None
    elapsed_ms: float = 0.0
    cached: bool = False
    session_id: str = ""
    request_kind: str = ""
    exception: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> Dict[str, Any]:
        """The wire form; default-valued fields are omitted (sparse
        encoding -- ``from_dict`` restores the defaults), which keeps the
        per-item envelopes of large batch answers small."""
        data: Dict[str, Any] = {
            "ok": self.ok,
            "value": self.value,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.error is not None:
            data["error"] = self.error.to_dict()
        if self.cached:
            data["cached"] = True
        if self.session_id:
            data["session_id"] = self.session_id
        if self.request_kind:
            data["request_kind"] = self.request_kind
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Response":
        return Response(
            ok=bool(data.get("ok")),
            value=data.get("value"),
            error=(
                IcdbErrorInfo.from_dict(data["error"]) if data.get("error") else None
            ),
            elapsed_ms=float(data.get("elapsed_ms") or 0.0),
            cached=bool(data.get("cached", False)),
            session_id=data.get("session_id", ""),
            request_kind=data.get("request_kind", ""),
        )

    def unwrap(self) -> Any:
        """Return ``value`` or raise: the in-process convenience accessor."""
        if self.ok:
            return self.value
        if self.exception is not None:
            raise self.exception
        if self.error is not None:
            self.error.raise_as_exception()
        raise IcdbError("request failed with no error information")
