"""Reproduction of "An Intelligent Component Database for Behavioral
Synthesis" (Chen & Gajski, DAC 1990).

The package implements ICDB -- a component server for behavioral synthesis
-- together with every substrate the paper relies on:

* :mod:`repro.api` -- the typed service layer: request / response message
  records (:mod:`repro.wire`, JSON round-trippable), structured error codes, the
  :class:`~repro.api.service.ComponentService` engine with per-client
  sessions, and the result cache that memoizes catalog-based generations;
* :mod:`repro.net` -- the component server on the network: a
  length-prefixed JSON wire protocol, the threaded
  :class:`~repro.net.server.ICDBServer` (one connection = one session,
  pipelined batches, ``python -m repro.net.server``) and the
  :class:`~repro.net.client.RemoteClient` with the same classic session
  surface over TCP or an in-process loopback (see ``docs/net.md``);
* :mod:`repro.iif` -- the IIF component description language (parser and
  macro expander);
* :mod:`repro.cql` -- the Component Query Language interface, including the
  paper's ``ICDB()`` call convention (executing through :mod:`repro.api`
  requests);
* :mod:`repro.components` -- the GENUS-style generic component library;
* :mod:`repro.logic`, :mod:`repro.techlib`, :mod:`repro.netlist` -- the
  MILO-like logic optimizer / technology mapper and the cell library;
* :mod:`repro.sizing`, :mod:`repro.estimation`, :mod:`repro.layout` -- the
  transistor sizer, the delay / area / shape estimators, and the strip
  layout generator plus slicing floorplanner;
* :mod:`repro.sim` -- the bit-parallel flat (IIF) and gate-level
  simulators and the equivalence-checking layer behind the ``Simulate`` /
  ``CheckEquivalence`` requests and the planner's
  ``require_equivalent_to`` bound (see ``docs/sim.md``);
* :mod:`repro.db` -- the relational store (INGRES substitute) and the
  design-data file store;
* :mod:`repro.core` -- the backward-compatible :class:`~repro.core.icdb.ICDB`
  facade (a session of its own private service) plus generation,
  instance and knowledge management;
* :mod:`repro.synthesis` -- a small behavioral-synthesis client showing how
  the server is used (Figure 1) and the Figure 13 simple computer.

Quickstart (classic facade)::

    from repro import ICDB, Constraints

    icdb = ICDB()
    counter = icdb.request_component(
        component_name="counter",
        functions=["INC"],
        attributes={"size": 5},
        constraints=Constraints(clock_width=30.0, setup_time=30.0),
    )
    print(counter.render_delay())
    print(counter.render_shape())

Typed service API (multi-client, wire-serializable)::

    from repro.api import ComponentRequest, ComponentService, request_from_dict

    service = ComponentService()
    session = service.create_session(client="hls-tool")

    request = ComponentRequest(
        component_name="counter", functions=("INC",), attributes={"size": 5}
    )
    response = session.execute(request)
    assert response.ok
    print(response.value["instance"], response.value["clock_width"])

    # Every request and response survives a JSON round trip, so a socket or
    # HTTP transport can be layered on without touching the engine:
    import json
    wire = json.dumps(request.to_dict())
    same = request_from_dict(json.loads(wire))
    assert same == request

Querying and design-space exploration (the query planner)::

    from repro.api import (QuerySpec, TypePredicate, FunctionPredicate,
                           max_delay, pareto)

    spec = QuerySpec(
        select=(TypePredicate("Counter"), FunctionPredicate(("INC",))),
        sweep=(("size", (2, 4, 8)),),
        where=(max_delay(40.0),),
        objective=pareto("area", "delay"),
    )
    result = session.plan(spec)      # candidates generate in parallel
    print(result.winner.label, result.winner.metrics)
    print([r.label for r in result.front_reports()])  # the Pareto front
    print(result.explain())          # stages, prunes, cache-hit deltas

The same ``PlanQuery`` flows over the wire (``RemoteClient.plan``) and
through CQL (``command: explore; ...``); ``request_component`` without an
explicit implementation resolves through the planner's single-winner
selection, and ``area_time_tradeoff`` is a plan with explicit points --
see the "Querying and design-space exploration" section of
``docs/api.md``.

Simulation and verification (bit-parallel batch engines)::

    name = response.value["instance"]
    trace = session.simulate(name, [{"ENA": 1, "LOAD": 1}] * 4, clock="CLK")
    verdict = session.check_equivalence(name)   # auto comb / sequential
    assert verdict["equivalent"]

Vectors run packed into big-integer lanes (one bitwise operation per
gate evaluates a whole block of vectors), equivalence checks answer a
counterexample on mismatch, and ``QuerySpec.require_equivalent_to``
makes the planner reject non-equivalent candidates -- ``docs/sim.md``
covers the engines, the tristate/wired-or semantics, and the wire / CQL
surface (``examples/verify_component.py`` is the end-to-end tour).

Sessions are per client: each owns its current design and transaction
state, while the catalog, database, instance registry and result cache are
shared (and lock-protected) across sessions.  Repeated identical
catalog-based ``request_component`` calls are served from the cache -- the
synthesized netlist and estimates are reused under a fresh instance name
(measured by the end-to-end benchmark's ``cached_lookup`` workload).
Requests the result cache cannot serve run through the cold-path
generation engine, which memoizes
expansion, synthesis and estimation stage-by-stage on canonical
signatures over a hash-consed expression IR -- ``docs/performance.md``
describes the three cache layers (result, render, generation) and their
invariants.

Observability: every request is counted and timed into
``service.metrics`` (a :class:`repro.obs.MetricsRegistry`), exported
live over the wire via the typed ``GetMetrics`` request
(``client.metrics()``), streamed as structured JSON request logs
(``--log-requests`` / ``--slow-ms``), and watchable with the stdlib
terminal dashboard ``python -m repro.obs.admin`` --
``docs/observability.md`` is the tour, and
``examples/metrics_dashboard.py`` the scripted version.
"""

from .lazy import lazy_exports

# Resolved on first access: importing one subsystem (``python -m
# repro.net.server``, ``python -m repro.fleet.worker``) must not load
# all the others.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".api": (
        "BatchRequest",
        "ComponentQuery",
        "ComponentRequest",
        "ComponentService",
        "DesignOp",
        "FunctionQuery",
        "Hello",
        "IcdbErrorInfo",
        "InstanceQuery",
        "LayoutRequest",
        "PROTOCOL_VERSION",
        "PlanQuery",
        "PlanResult",
        "Planner",
        "QuerySpec",
        "Response",
        "ResultCache",
        "Session",
        "Welcome",
        "request_from_dict",
    ),
    ".constraints": (
        "Constraints",
        "PortPosition",
        "parse_delay_constraints",
        "parse_port_positions",
    ),
    ".components": ("standard_catalog",),
    ".core": ("ICDB", "ComponentInstance"),
    ".cql": ("InteractiveSession", "OutParam", "make_icdb_call"),
    ".iif": ("Expander", "FlatComponent", "parse_module"),
    ".net": ("ICDBServer", "RemoteClient", "connect", "serve"),
    ".techlib": ("standard_cells",),
})

__version__ = "2.1.0"

__all__ = sorted([*__all__, "__version__"])
