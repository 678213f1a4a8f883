"""Typed service-layer API for the ICDB component server.

The contract a socket / HTTP transport would speak:

* :mod:`repro.api.messages` -- frozen request dataclasses (one per server
  operation) and the :class:`Response` envelope, all JSON round-trippable
  via ``to_dict()`` / ``from_dict()``;
* :mod:`repro.api.errors` -- structured error codes and payloads;
* :mod:`repro.api.service` -- the :class:`ComponentService` engine and
  per-client :class:`Session` objects;
* :mod:`repro.api.query` -- the declarative component-query IR:
  predicates, metric bounds, objectives (minimize / weighted / Pareto)
  and design-space sweeps, all JSON round-trippable;
* :mod:`repro.api.planner` -- the query planner: candidate enumeration,
  cheap pre-generation pruning, parallel generation over the job worker
  pool, ranking / Pareto fronts and ``explain()`` reports;
* :mod:`repro.api.cache` -- the canonical-signature result cache that
  memoizes catalog-based component generations.

Quick tour::

    from repro.api import ComponentService, ComponentRequest

    service = ComponentService()
    session = service.create_session(client="my-tool")
    response = session.execute(
        ComponentRequest(component_name="counter", functions=("INC",),
                         attributes={"size": 5})
    )
    assert response.ok
    print(response.value["instance"], response.value["clock_width"])
"""

from .cache import ResultCache, clone_instance
from .errors import (
    E_BAD_REQUEST,
    E_BUSY,
    E_CANCELLED,
    E_CONFLICT,
    E_FRAME_TOO_LARGE,
    E_GENERATION_FAILED,
    E_INTERNAL,
    E_INVALID,
    E_NOT_FOUND,
    E_PROTOCOL,
    E_TIMEOUT,
    E_UNAVAILABLE,
    ERROR_CODES,
    IcdbErrorInfo,
    error_from_exception,
)
from .query import (
    METRICS,
    AttributePredicate,
    Bound,
    FunctionPredicate,
    NamePredicate,
    Objective,
    PlanPoint,
    QuerySpec,
    TypePredicate,
    max_area,
    max_cells,
    max_clock_width,
    max_delay,
    minimize,
    pareto,
    parse_objective,
    weighted,
)
from .planner import (
    MAX_PLAN_CANDIDATES,
    CandidateReport,
    Planner,
    PlanResult,
    match_implementations,
    pareto_front,
    select_implementation,
    tradeoff_rows,
    tradeoff_spec,
    validate_attribute_names,
)
from .messages import (
    COMPONENT_DETAILS,
    DESIGN_OPS,
    FUNCTION_QUERY_WANTS,
    JOB_CONTROL_KINDS,
    JOB_STATES,
    JOB_TERMINAL_STATES,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    AttachSession,
    BatchRequest,
    CancelJob,
    CheckEquivalence,
    ComponentQuery,
    ComponentRequest,
    DatabaseDump,
    DesignOp,
    FunctionQuery,
    GetMetrics,
    Hello,
    IDEMPOTENT_KINDS,
    InstanceQuery,
    JobEvent,
    JobStatus,
    LayoutRequest,
    MUTATING_KINDS,
    NewName,
    Ping,
    PlanQuery,
    Request,
    Response,
    Simulate,
    SubmitJob,
    WarmCache,
    Welcome,
    request_from_dict,
)
from .service import (
    ComponentService,
    DEFAULT_JOB_WORKERS,
    JobManager,
    Session,
    instance_summary,
)
from .surface import JobHandle

__all__ = [
    "AttachSession",
    "AttributePredicate",
    "BatchRequest",
    "Bound",
    "COMPONENT_DETAILS",
    "CancelJob",
    "CandidateReport",
    "CheckEquivalence",
    "ComponentQuery",
    "ComponentRequest",
    "ComponentService",
    "DEFAULT_JOB_WORKERS",
    "DESIGN_OPS",
    "DatabaseDump",
    "DesignOp",
    "E_BAD_REQUEST",
    "E_BUSY",
    "E_CANCELLED",
    "E_CONFLICT",
    "E_FRAME_TOO_LARGE",
    "E_GENERATION_FAILED",
    "E_INTERNAL",
    "E_INVALID",
    "E_NOT_FOUND",
    "E_PROTOCOL",
    "E_TIMEOUT",
    "E_UNAVAILABLE",
    "ERROR_CODES",
    "FUNCTION_QUERY_WANTS",
    "FunctionPredicate",
    "FunctionQuery",
    "GetMetrics",
    "Hello",
    "IDEMPOTENT_KINDS",
    "IcdbErrorInfo",
    "InstanceQuery",
    "JOB_CONTROL_KINDS",
    "JOB_STATES",
    "JOB_TERMINAL_STATES",
    "JobEvent",
    "JobHandle",
    "JobManager",
    "JobStatus",
    "LayoutRequest",
    "MUTATING_KINDS",
    "MAX_PLAN_CANDIDATES",
    "METRICS",
    "NamePredicate",
    "NewName",
    "Objective",
    "PROTOCOL_VERSION",
    "Ping",
    "PlanPoint",
    "PlanQuery",
    "PlanResult",
    "Planner",
    "QuerySpec",
    "REQUEST_TYPES",
    "Request",
    "Response",
    "ResultCache",
    "Session",
    "Simulate",
    "SubmitJob",
    "TypePredicate",
    "WarmCache",
    "Welcome",
    "clone_instance",
    "error_from_exception",
    "instance_summary",
    "match_implementations",
    "max_area",
    "max_cells",
    "max_clock_width",
    "max_delay",
    "minimize",
    "pareto",
    "pareto_front",
    "parse_objective",
    "request_from_dict",
    "select_implementation",
    "tradeoff_rows",
    "tradeoff_spec",
    "validate_attribute_names",
    "weighted",
]
