"""The declarative query IR and the component-query planner.

Covers the :mod:`repro.api.query` IR (validation, JSON round trips, the
textual objective grammar), the :mod:`repro.api.planner` stages
(enumerate / prune / generate / rank, Pareto fronts, explain reports,
the parallel fan-out and its on-worker deadlock guard), the rewired
classic surface (``choose_implementation`` tie-breaking,
``component_query`` attribute filtering and determinism, the
planner-backed ``area_time_tradeoff``) and the ``plan_query`` wire path
through the loopback transport.
"""

from __future__ import annotations

import json

import pytest

from jobs_testlib import make_barrier_service

from repro.api import (
    AttributePredicate,
    Bound,
    ComponentService,
    E_INVALID,
    E_NOT_FOUND,
    FunctionPredicate,
    NamePredicate,
    Objective,
    PlanPoint,
    PlanQuery,
    PlanResult,
    QuerySpec,
    SubmitJob,
    BatchRequest,
    TypePredicate,
    match_implementations,
    max_cells,
    max_delay,
    minimize,
    pareto,
    parse_objective,
    select_implementation,
    weighted,
)
from repro.components import standard_catalog
from repro.components.catalog import ComponentCatalog, ComponentImplementation
from repro.core.icdb import IcdbError
from repro.net.client import RemoteClient


@pytest.fixture()
def service(tmp_path):
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "store",
        job_workers=4,
    )
    yield service
    service.jobs.shutdown()


@pytest.fixture()
def session(service):
    return service.create_session(client="planner-tests")


# ---------------------------------------------------------------------------
# The IR
# ---------------------------------------------------------------------------


def test_objective_constructors_and_validation():
    assert minimize("area").kind == "minimize"
    assert pareto("area", "delay").metrics == ("area", "delay")
    assert weighted(area=0.6, delay=0.4).weights == (0.6, 0.4)
    with pytest.raises(IcdbError) as excinfo:
        minimize("beauty")
    assert excinfo.value.code == E_INVALID
    with pytest.raises(IcdbError):
        pareto("area")  # needs two metrics
    with pytest.raises(IcdbError):
        Objective(kind="weighted", metrics=("area", "delay"), weights=(1.0,))
    with pytest.raises(IcdbError):
        Objective(kind="maximize", metrics=("area",))
    with pytest.raises(IcdbError):
        Bound(metric="speed", limit=1.0)


def test_parse_objective_grammar():
    assert parse_objective("area") == minimize("area")
    assert parse_objective("minimize(delay)") == minimize("delay")
    assert parse_objective("pareto(area, delay)") == pareto("area", "delay")
    assert parse_objective("weighted(area:0.6, delay:0.4)") == weighted(
        area=0.6, delay=0.4
    )
    for bad in ("", "pareto(area", "weighted(area)", "teleport(area)"):
        with pytest.raises(IcdbError):
            parse_objective(bad)


def test_query_spec_round_trips_and_normalizes():
    spec = QuerySpec(
        select=(TypePredicate("Counter"), FunctionPredicate(("INC",))),
        where=(max_delay(40.0), max_cells(64)),
        objective=pareto("area", "delay"),
        sweep=(("size", (2, 4, 8)),),
        attributes={"size": 4},
        constraints=None,
        limit=5,
    )
    wire = json.loads(json.dumps(spec.to_dict()))
    assert QuerySpec.from_dict(wire) == spec
    points_spec = QuerySpec(
        points=(PlanPoint(label="p0", parameters={"size": 3}),),
        objective=pareto("area", "delay"),
    )
    wire = json.loads(json.dumps(points_spec.to_dict()))
    assert QuerySpec.from_dict(wire) == points_spec
    # Empty containers normalize to None so the round trip is canonical.
    assert QuerySpec(select=(TypePredicate("x"),), attributes={}).attributes is None
    with pytest.raises(IcdbError):
        QuerySpec(sweep=(("size", ()),))
    with pytest.raises(IcdbError):
        QuerySpec(limit=-1)
    with pytest.raises(IcdbError):
        QuerySpec(target="hologram")
    # Points and sweep axes are mutually exclusive: a sweep riding along
    # with explicit points would be silently ignored otherwise.
    with pytest.raises(IcdbError) as excinfo:
        QuerySpec(
            points=(PlanPoint(label="a", implementation="counter"),),
            sweep=(("size", (2, 4)),),
        )
    assert excinfo.value.code == "BAD_REQUEST"


# ---------------------------------------------------------------------------
# Single-winner selection (choose_implementation)
# ---------------------------------------------------------------------------


def _impl(name, component_type, functions):
    return ComponentImplementation(
        name=name,
        component_type=component_type,
        functions=functions,
        iif_source="",
    )


@pytest.fixture()
def tiebreak_catalog():
    catalog = ComponentCatalog()
    catalog.add(_impl("counter", "Counter", ("INC", "DEC", "COUNTER", "INCREMENT")))
    catalog.add(_impl("up_counter", "Counter", ("INC", "COUNTER", "INCREMENT")))
    catalog.add(_impl("zz_counter", "Counter", ("INC", "COUNTER", "INCREMENT")))
    catalog.add(_impl("incrementer", "Counter", ("INC", "INCREMENT")))
    return catalog


def test_choose_implementation_prefers_exact_name(tiebreak_catalog):
    # 'counter' performs the *most* extra functions, but its name matches
    # the requested component exactly -- exact-name preference wins.
    chosen = select_implementation(tiebreak_catalog, "counter", ["INC"])
    assert chosen.name == "counter"


def test_choose_implementation_prefers_fewest_extra_functions(tiebreak_catalog):
    # No candidate named 'Counter' exists as an implementation name match;
    # the cheapest component that still does the job wins.
    chosen = select_implementation(tiebreak_catalog, None, ["INC", "INCREMENT"])
    assert chosen.name == "incrementer"


def test_choose_implementation_breaks_ties_by_name(tiebreak_catalog):
    # up_counter and zz_counter are function-identical; the name decides.
    chosen = select_implementation(
        tiebreak_catalog, None, ["INC", "COUNTER", "INCREMENT"]
    )
    assert chosen.name == "up_counter"


def test_choose_implementation_falls_back_to_named_implementation():
    catalog = standard_catalog(fresh=True)
    # 'alu' is an implementation name, not a component type.
    chosen = select_implementation(catalog, "alu", None)
    assert chosen.name == "alu"


def test_choose_implementation_not_found_paths(service, tiebreak_catalog):
    with pytest.raises(IcdbError) as excinfo:
        select_implementation(tiebreak_catalog, "Register", None)
    assert excinfo.value.code == E_NOT_FOUND
    assert "no implementation matches" in str(excinfo.value)
    with pytest.raises(IcdbError) as excinfo:
        select_implementation(tiebreak_catalog, "Counter", ["ADD"])
    assert excinfo.value.code == E_NOT_FOUND
    # The service front door reports the same structured error.
    with pytest.raises(IcdbError) as excinfo:
        service.choose_implementation("Register_file", None, ["MUL"])
    assert excinfo.value.code == E_NOT_FOUND


def test_service_choose_implementation_matches_planner(service):
    for component, functions in [
        ("counter", ["INC"]),
        ("Counter", None),
        (None, ["ADD", "SUB"]),
        ("Register", ["STORAGE"]),
    ]:
        assert (
            service.choose_implementation(component, None, functions).name
            == select_implementation(service.catalog, component, functions).name
        )


# ---------------------------------------------------------------------------
# component_query: attribute filtering and determinism
# ---------------------------------------------------------------------------


def test_component_query_filters_by_attribute_support(session):
    result = session.component_query(attributes={"awidth": 2})
    # Only implementations mapping 'awidth' survive the filter.
    assert result["implementation"] == ["barrel_shifter", "register_file"]
    narrowed = session.component_query(
        component="Register_file", attributes={"awidth": 2}
    )
    assert narrowed["implementation"] == ["register_file"]


def test_component_query_unknown_attribute_raises_invalid(session):
    with pytest.raises(IcdbError) as excinfo:
        session.component_query(component="counter", attributes={"sise": 5})
    assert excinfo.value.code == E_INVALID
    assert "sise" in str(excinfo.value)
    # ... instead of being silently dropped as before -- on the
    # functions-of-one-implementation branch too.
    with pytest.raises(IcdbError) as excinfo:
        session.component_query(implementation="counter", attributes={"sise": 5})
    assert excinfo.value.code == E_INVALID


def test_component_query_implementation_list_is_sorted(session):
    result = session.component_query(functions=["INC"])
    assert result["implementation"] == sorted(result["implementation"])
    assert result["component"] == sorted(result["component"])
    # The catalog registers up_counter and ripple_counter before
    # incrementer; the sorted answer is independent of that order.
    assert result["implementation"] == [
        "counter",
        "incrementer",
        "ripple_counter",
        "up_counter",
    ]


def test_match_implementations_composes_predicates(session):
    matches = match_implementations(
        session.catalog,
        (
            TypePredicate("Counter"),
            FunctionPredicate(("INC",)),
            AttributePredicate({"size": 4}),
        ),
    )
    assert {impl.name for impl in matches} == {
        "counter",
        "up_counter",
        "ripple_counter",
        "incrementer",
    }


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _counter_sweep(**overrides) -> QuerySpec:
    fields = dict(
        select=(NamePredicate(("up_counter", "ripple_counter", "incrementer")),),
        sweep=(("size", (2, 3)),),
        objective=pareto("area", "delay"),
    )
    fields.update(overrides)
    return QuerySpec(**fields)


def test_plan_generates_ranks_and_fronts(session):
    result = session.plan(_counter_sweep())
    assert len(result.candidates) == 6
    assert all(report.status == "generated" for report in result.candidates)
    front = result.front_reports()
    assert front and all(report.on_front for report in front)
    # The front is genuinely non-dominated: no generated candidate beats
    # a front member on both metrics.
    for member in front:
        for other in result.generated():
            if other is member:
                continue
            assert not (
                other.metrics["area"] < member.metrics["area"]
                and other.metrics["delay"] < member.metrics["delay"]
            )
    assert result.winner is not None and result.winner.rank == 1
    # Ranks are contiguous over the winners.
    assert [r.rank for r in result.winner_reports()] == list(
        range(1, len(result.winners) + 1)
    )


def test_plan_minimize_and_weighted_objectives(session):
    by_area = session.plan(_counter_sweep(objective=minimize("area")))
    areas = [report.metrics["area"] for report in by_area.winner_reports()]
    assert areas == sorted(areas)
    assert by_area.winner.score == by_area.winner.metrics["area"]

    blended = session.plan(
        _counter_sweep(objective=weighted(area=1.0, delay=1000.0))
    )
    scores = [report.score for report in blended.winner_reports()]
    assert scores == sorted(scores)
    expected = blended.winner.metrics["area"] + 1000.0 * blended.winner.metrics["delay"]
    assert blended.winner.score == pytest.approx(expected)


def test_plan_bounds_mark_infeasible(session):
    unbounded = session.plan(_counter_sweep())
    cutoff = sorted(r.metrics["delay"] for r in unbounded.generated())[2]
    bounded = session.plan(_counter_sweep(where=(max_delay(cutoff),)))
    statuses = {report.label: report.status for report in bounded.candidates}
    infeasible = [label for label, status in statuses.items() if status == "infeasible"]
    assert infeasible, "the delay bound should reject some candidates"
    for report in bounded.candidates:
        if report.status == "infeasible":
            assert report.metrics["delay"] > cutoff
            assert "delay" in report.reason
        assert report.rank is None or report.status == "generated"


def test_plan_limit_truncates_winners(session):
    result = session.plan(_counter_sweep(objective=minimize("area"), limit=2))
    assert len(result.winners) == 2
    assert len(result.generated()) == 6


def test_plan_prunes_unsupported_invalid_and_duplicate(session):
    # 'awidth' is a real catalog attribute, but counters do not map it.
    result = session.plan(
        QuerySpec(
            select=(NamePredicate(("up_counter", "register_file")),),
            attributes={"awidth": 2},
            objective=minimize("area"),
        )
    )
    by_label = {report.implementation: report for report in result.candidates}
    assert by_label["up_counter"].status == "pruned"
    assert "awidth" in by_label["up_counter"].reason
    assert by_label["register_file"].status == "generated"

    # Unknown raw parameters prune before any generation runs.
    result = session.plan(
        QuerySpec(
            select=(NamePredicate(("incrementer",)),),
            parameters={"bogus": 1},
            objective=minimize("area"),
        )
    )
    assert result.candidates[0].status == "pruned"
    assert "bogus" in result.candidates[0].reason

    # A repeated sweep value is the same elaboration twice: one survives.
    result = session.plan(
        QuerySpec(
            select=(NamePredicate(("incrementer",)),),
            sweep=(("size", (3, 3)),),
            objective=minimize("area"),
        )
    )
    statuses = sorted(report.status for report in result.candidates)
    assert statuses == ["generated", "pruned"]
    pruned = next(r for r in result.candidates if r.status == "pruned")
    assert "duplicate" in pruned.reason
    prune_stage = result.explain()["stages"][1]
    assert prune_stage["pruned"] == {"duplicate": 1}


def test_plan_unknown_attribute_raises_invalid(session):
    with pytest.raises(IcdbError) as excinfo:
        session.plan(
            QuerySpec(select=(TypePredicate("Counter"),), sweep=(("sise", (2,)),))
        )
    assert excinfo.value.code == E_INVALID


def test_plan_needs_predicates_or_points(session):
    with pytest.raises(IcdbError) as excinfo:
        session.plan(QuerySpec())
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(IcdbError) as excinfo:
        session.plan(QuerySpec(select=(TypePredicate("Starship"),)))
    assert excinfo.value.code == E_NOT_FOUND


def test_plan_explain_reports_stages_and_cache_hits(session):
    spec = _counter_sweep()
    first = session.plan(spec).explain()
    assert [stage["stage"] for stage in first["stages"]] == [
        "enumerate",
        "prune",
        "generate",
        "rank",
    ]
    generate = first["stages"][2]
    assert generate["generated"] == 6
    assert generate["parallel"] is True
    assert generate["result_cache"]["misses"] == 6
    # Replanning the same spec is served by the result cache: per-stage
    # cache hits land in the explain report.
    again = session.plan(spec).explain()
    assert again["stages"][2]["result_cache"]["hits"] == 6
    assert again["stages"][2]["generation_cache"]["flows"]["misses"] == 0


def test_plan_failed_candidates_are_reported_not_fatal(session, monkeypatch):
    # Force one candidate's generation to blow up mid-plan.
    generator = session.service.generator
    original = generator.generate_from_implementation

    def explode(implementation, parameters, constraints, name, target="logic"):
        if parameters and parameters.get("size") == 3:
            raise RuntimeError("tool crashed")
        return original(implementation, parameters, constraints, name, target)

    monkeypatch.setattr(generator, "generate_from_implementation", explode)
    result = session.plan(
        QuerySpec(
            select=(NamePredicate(("incrementer",)),),
            sweep=(("size", (2, 3)),),
            objective=minimize("area"),
        )
    )
    statuses = {r.label: r.status for r in result.candidates}
    assert statuses == {
        "incrementer[size=2]": "generated",
        "incrementer[size=3]": "failed",
    }
    failed = next(r for r in result.candidates if r.status == "failed")
    assert failed.error and "tool crashed" in failed.error["message"]
    assert result.winners and result.winner.label == "incrementer[size=2]"


def test_parallel_and_serial_plans_are_identical(tmp_path):
    spec = _counter_sweep()
    outcomes = []
    for workers in (1, 4):
        service = ComponentService(
            catalog=standard_catalog(fresh=True),
            store_root=tmp_path / f"w{workers}",
            job_workers=workers,
        )
        try:
            result = service.create_session().plan(spec)
            outcomes.append(
                [
                    (r.label, r.status, r.instance, r.metrics)
                    for r in result.candidates
                ]
            )
        finally:
            service.jobs.shutdown()
    assert outcomes[0] == outcomes[1]


def test_plan_candidates_generate_at_once_on_the_worker_pool(tmp_path):
    # Every flow waits on a 4-party barrier: the plan generates its four
    # candidates only if they fan out over the pool together.
    service = make_barrier_service(tmp_path / "fanout", parties=4, job_workers=4)
    try:
        spec = _counter_sweep(select=(NamePredicate(("up_counter", "incrementer")),))
        response = service.create_session().execute(PlanQuery(query=spec))
        result = PlanResult.from_dict(response.unwrap())
        assert len(result.candidates) == 4
        assert len(result.generated()) == 4
        assert result.explain()["stages"][2]["parallel"] is True
    finally:
        service.jobs.shutdown()


def test_plan_survives_job_retention_pressure(tmp_path):
    # Candidate jobs are quiet: retention eviction must never drop a
    # finished candidate out from under the waiting plan, even with a
    # pathologically small retention bound.
    from repro.api import JobManager

    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "retain"
    )
    service.jobs.shutdown()
    service.jobs = JobManager(service, workers=4, max_retained=1)
    try:
        result = service.create_session().plan(_counter_sweep())
        assert len(result.generated()) == 6
        assert result.explain()["stages"][2]["parallel"] is True
    finally:
        service.jobs.shutdown()


def test_plan_degrades_inline_when_job_queue_is_full(tmp_path):
    # A full job queue must not half-submit the fan-out: overflow
    # candidates execute inline and every configuration is answered.
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "busy",
        job_workers=2,
        job_queue_limit=2,
    )
    try:
        result = service.create_session().plan(_counter_sweep())
        assert len(result.generated()) == 6
        assert not any(report.status == "failed" for report in result.candidates)
    finally:
        service.jobs.shutdown()


def test_plan_as_a_job_generates_inline_without_deadlock(tmp_path):
    # One worker: the plan job occupies the only slot, so the planner must
    # not wait on inner jobs (the on-worker guard generates inline).
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "solo",
        job_workers=1,
    )
    try:
        session = service.create_session()
        handle = session.submit(PlanQuery(query=_counter_sweep()))
        descriptor = handle.wait(timeout=60)
        assert descriptor["state"] == "done"
        result = PlanResult.from_dict(handle.result())
        assert len(result.generated()) == 6
        assert result.explain()["stages"][2]["parallel"] is False
    finally:
        service.jobs.shutdown()


def test_plan_query_rejected_inside_batches():
    with pytest.raises(IcdbError) as excinfo:
        BatchRequest(requests=(PlanQuery(query=_counter_sweep()),))
    assert excinfo.value.code == "BAD_REQUEST"
    # ... but running a plan as a job is allowed.
    SubmitJob(request=PlanQuery(query=_counter_sweep()))


# ---------------------------------------------------------------------------
# area_time_tradeoff through the planner
# ---------------------------------------------------------------------------

TRADEOFF_CONFIGS = [
    ("ripple", {"size": 4, "type": 1}),
    ("synchronous", {"size": 4, "type": 2}),
    ("synchronous_again", {"size": 4, "type": 2}),  # duplicates keep their row
    # A label leading with the implementation name kept its historical
    # double-prefixed instance name ("counter_counter_v2_...").
    ("counter_v2", {"size": 2, "type": 2}),
]


def test_area_time_tradeoff_matches_serial_loop(tmp_path):
    parallel_service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "par"
    )
    serial_service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "ser"
    )
    try:
        rows = parallel_service.create_session().area_time_tradeoff(
            "counter", TRADEOFF_CONFIGS
        )
        # Reference: the historical serial request_component loop.
        session = serial_service.create_session()
        reference = []
        for label, parameters in TRADEOFF_CONFIGS:
            instance = session.request_component(
                implementation="counter",
                parameters=parameters,
                instance_name=session.instances.new_name(f"counter_{label}"),
            )
            reference.append(
                {
                    "label": label,
                    "instance": instance.name,
                    "delay": instance.worst_delay(),
                    "clock_width": instance.clock_width,
                    "area": instance.area,
                    "cells": instance.netlist.cell_count(),
                }
            )
        assert rows == reference
    finally:
        parallel_service.jobs.shutdown()
        serial_service.jobs.shutdown()


def test_area_time_tradeoff_keeps_caller_spelling_in_names(session):
    # catalog.get is case-insensitive; the serial loop named instances
    # from the caller's spelling and the planner must too.
    rows = session.area_time_tradeoff("COUNTER", [("a", {"size": 2})])
    assert rows[0]["instance"].startswith("COUNTER_a_")


def test_area_time_tradeoff_reraises_generation_errors(session):
    with pytest.raises(Exception) as excinfo:
        session.area_time_tradeoff("counter", [("bad", {"bogus_parameter": 1})])
    assert "bogus_parameter" in str(excinfo.value)


# ---------------------------------------------------------------------------
# The wire path
# ---------------------------------------------------------------------------


def test_remote_plan_is_identical_to_local(tmp_path):
    spec = _counter_sweep()
    local_service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "local"
    )
    remote_service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "remote"
    )
    try:
        local = local_service.create_session().plan(spec)
        client = RemoteClient.loopback(remote_service, client="planner-test")
        remote = client.plan(spec)
        assert [r.to_dict() for r in remote.candidates] == [
            r.to_dict() for r in local.candidates
        ]
        assert remote.winners == local.winners
        assert remote.front == local.front
        # The remote explain carries the same stages (timings differ).
        assert [s["stage"] for s in remote.explain()["stages"]] == [
            s["stage"] for s in local.explain()["stages"]
        ]
        client.close()
    finally:
        local_service.jobs.shutdown()
        remote_service.jobs.shutdown()


def test_remote_area_time_tradeoff_matches_local(tmp_path):
    local_service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "local"
    )
    remote_service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "remote"
    )
    try:
        local_rows = local_service.create_session().area_time_tradeoff(
            "counter", TRADEOFF_CONFIGS
        )
        client = RemoteClient.loopback(remote_service, client="tradeoff-test")
        remote_rows = client.area_time_tradeoff("counter", TRADEOFF_CONFIGS)
        assert remote_rows == local_rows
        client.close()
    finally:
        local_service.jobs.shutdown()
        remote_service.jobs.shutdown()


def test_remote_component_query_attribute_errors_are_structured(service):
    client = RemoteClient.loopback(service, client="attr-test")
    with pytest.raises(IcdbError) as excinfo:
        client.component_query(component="counter", attributes={"sise": 5})
    assert excinfo.value.code == E_INVALID
    client.close()


# ---------------------------------------------------------------------------
# CQL explore
# ---------------------------------------------------------------------------


def test_cql_explore_lowers_to_a_plan(session):
    from repro.cql import CqlExecutor

    executor = CqlExecutor(session)
    outputs = executor.execute_text(
        "command: explore; implementation: (up_counter,ripple_counter,incrementer); "
        "sweep: (size:2|3); objective: pareto(area,delay); "
        "winner: ?s; front: ?s[]; candidates: ?s[]; explain: ?s"
    )
    assert outputs["winner"]
    assert outputs["front"]
    assert len(outputs["candidates"]) == 6
    assert {c["status"] for c in outputs["candidates"]} == {"generated"}
    assert [s["stage"] for s in outputs["explain"]["stages"]][0] == "enumerate"


def test_cql_component_query_forwards_attributes(session):
    from repro.cql import CqlExecutor

    executor = CqlExecutor(session)
    outputs = executor.execute_text(
        "command: component_query; attribute: (awidth:2); implementation: ?s[]"
    )
    assert outputs["implementation"] == ["barrel_shifter", "register_file"]
    with pytest.raises(IcdbError) as excinfo:
        executor.execute_text(
            "command: component_query; attribute: (warp_factor:9); "
            "implementation: ?s[]"
        )
    assert excinfo.value.code == E_INVALID


def test_cql_explore_bounds_and_minimize(session):
    from repro.cql import CqlExecutor

    executor = CqlExecutor(session)
    outputs = executor.execute_text(
        "command: explore; component: counter; function: (INC); "
        "sweep: (size:2|4); objective: minimize(area); max_cells: 12; "
        "winner: ?s; instance: ?s[]; candidates: ?s[]"
    )
    assert outputs["winner"]
    assert outputs["instance"]
    for candidate in outputs["candidates"]:
        if candidate["status"] == "infeasible":
            assert candidate["metrics"]["cells"] > 12


# ---------------------------------------------------------------------------
# Equivalence bounds (require_equivalent_to)
# ---------------------------------------------------------------------------


def test_query_spec_equivalence_bound_round_trips():
    spec = QuerySpec(
        select=(NamePredicate(("counter",)),),
        objective=minimize("area"),
        require_equivalent_to="golden",
    )
    wire = json.loads(json.dumps(spec.to_dict()))
    assert QuerySpec.from_dict(wire) == spec
    assert QuerySpec.from_dict(wire).require_equivalent_to == "golden"
    # Absent / empty normalizes to None.
    assert QuerySpec.from_dict(
        QuerySpec(select=(NamePredicate(("counter",)),)).to_dict()
    ).require_equivalent_to is None


def _counter_point(label, **overrides):
    from repro.components.counters import counter_parameters

    return PlanPoint(
        label=label,
        implementation="counter",
        parameters=counter_parameters(size=2, **overrides),
    )


def test_plan_equivalence_bound_prunes_broken_candidate(session):
    from repro.components.counters import DOWN_ONLY, UP_ONLY, counter_parameters

    session.request_component(
        implementation="counter",
        parameters=counter_parameters(size=2, up_or_down=UP_ONLY),
        instance_name="ref_up",
    )
    result = session.plan(
        QuerySpec(
            points=(
                _counter_point("up", up_or_down=UP_ONLY),
                _counter_point("down", up_or_down=DOWN_ONLY),
            ),
            objective=minimize("area"),
            require_equivalent_to="ref_up",
        )
    )
    by_label = {report.label: report for report in result.candidates}
    assert by_label["up"].status == "generated"
    assert by_label["down"].status == "infeasible"
    assert "not equivalent to 'ref_up'" in by_label["down"].reason
    assert "sequential" in by_label["down"].reason
    assert result.winner.label == "up"
    stages = [stage["stage"] for stage in result.explain()["stages"]]
    assert stages == ["enumerate", "prune", "generate", "verify", "rank"]
    verify_stage = result.explain()["stages"][3]
    assert verify_stage["reference"] == "ref_up"
    assert verify_stage["checked"] == 2
    assert verify_stage["rejected"] == 1


def test_plan_without_equivalence_bound_has_no_verify_stage(session):
    result = session.plan(
        QuerySpec(
            points=(_counter_point("only"),),
            objective=minimize("area"),
        )
    )
    stages = [stage["stage"] for stage in result.explain()["stages"]]
    assert "verify" not in stages


def test_plan_equivalence_bound_unknown_reference_raises(session):
    from repro.core.instances import InstanceError

    with pytest.raises(InstanceError):
        session.plan(
            QuerySpec(
                points=(_counter_point("p"),),
                objective=minimize("area"),
                require_equivalent_to="no_such_instance",
            )
        )


def test_cql_explore_with_equivalence_bound(session):
    from repro.cql import CqlExecutor

    executor = CqlExecutor(session)
    reference = executor.execute_text(
        "command: request_component; component: counter; function: (INC);"
        "attribute: (size:2); instance: ?s"
    )["instance"]
    outputs = executor.execute_text(
        "command: explore; component: counter; function: (INC); "
        "sweep: (size:2|3); objective: minimize(area); equivalent_to: %s; "
        "winner: ?s; candidates: ?s[]",
        [reference],
    )
    # 'counter; function: (INC)' resolves to the incrementer implementation,
    # so of the whole counter-family sweep only the same-size incrementer
    # survives the equivalence bound: the other implementations (and the
    # other size) expose different ports or different behavior.
    by_label = {candidate["label"]: candidate for candidate in outputs["candidates"]}
    assert by_label["incrementer[size=2]"]["status"] == "generated"
    rejected = [
        candidate
        for candidate in outputs["candidates"]
        if candidate["label"] != "incrementer[size=2]"
    ]
    assert rejected and all(
        candidate["status"] == "infeasible"
        and "not equivalent" in candidate["reason"]
        for candidate in rejected
    )
    assert outputs["winner"] == "incrementer[size=2]"
