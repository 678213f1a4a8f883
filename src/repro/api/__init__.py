"""Typed service-layer API for the ICDB component server.

The contract a socket / HTTP transport would speak:

* :mod:`repro.api.messages` -- frozen request records (one per server
  operation, declared with :class:`repro.wire.Wire`) and the
  :class:`Response` envelope, all JSON round-trippable via ``to_dict()`` /
  ``from_dict()``;
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

from ..lazy import lazy_exports

# Resolved on first access: a server boots with the modules its first
# requests run, not the whole Figure-8 flow behind them.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".cache": (
        "ResultCache",
        "clone_instance",
    ),
    ".errors": (
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
        "IcdbErrorInfo",
        "error_from_exception",
    ),
    ".query": (
        "METRICS",
        "AttributePredicate",
        "Bound",
        "FunctionPredicate",
        "NamePredicate",
        "Objective",
        "PlanPoint",
        "QuerySpec",
        "TypePredicate",
        "max_area",
        "max_cells",
        "max_clock_width",
        "max_delay",
        "minimize",
        "pareto",
        "parse_objective",
        "weighted",
    ),
    ".planner": (
        "MAX_PLAN_CANDIDATES",
        "CandidateReport",
        "Planner",
        "PlanResult",
        "match_implementations",
        "pareto_front",
        "select_implementation",
        "tradeoff_rows",
        "tradeoff_spec",
        "validate_attribute_names",
    ),
    ".messages": (
        "COMPONENT_DETAILS",
        "DESIGN_OPS",
        "FUNCTION_QUERY_WANTS",
        "JOB_CONTROL_KINDS",
        "JOB_STATES",
        "JOB_TERMINAL_STATES",
        "PROTOCOL_VERSION",
        "REQUEST_TYPES",
        "AttachSession",
        "BatchRequest",
        "CancelJob",
        "CheckEquivalence",
        "ComponentQuery",
        "ComponentRequest",
        "DatabaseDump",
        "DesignOp",
        "FunctionQuery",
        "GetMetrics",
        "Hello",
        "IDEMPOTENT_KINDS",
        "InstanceQuery",
        "JobEvent",
        "JobStatus",
        "LayoutRequest",
        "MUTATING_KINDS",
        "NewName",
        "Ping",
        "PlanQuery",
        "Request",
        "Response",
        "Simulate",
        "SubmitJob",
        "WarmCache",
        "Welcome",
        "request_from_dict",
    ),
    ".service": (
        "ComponentService",
        "DEFAULT_JOB_WORKERS",
        "JobManager",
        "Session",
        "instance_summary",
    ),
    ".surface": (
        "JobHandle",
    ),
})
