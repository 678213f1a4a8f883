"""Tests for the typed request / response wire format of :mod:`repro.api`."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    CheckEquivalence,
    ComponentQuery,
    ComponentRequest,
    DesignOp,
    FunctionQuery,
    GetMetrics,
    IDEMPOTENT_KINDS,
    IcdbErrorInfo,
    InstanceQuery,
    LayoutRequest,
    MUTATING_KINDS,
    Ping,
    REQUEST_TYPES,
    Response,
    Simulate,
    WarmCache,
    error_from_exception,
    request_from_dict,
)
from repro.api.errors import (
    E_BAD_REQUEST,
    E_CONFLICT,
    E_GENERATION_FAILED,
    E_INTERNAL,
    E_INVALID,
    E_NOT_FOUND,
)
from repro.components.catalog import CatalogError
from repro.constraints import Constraints, PortPosition
from repro.core.generation import GenerationError
from repro.core.icdb import IcdbError
from repro.core.instances import InstanceError
from repro.netlist.structural import StructuralNetlist


def roundtrip(request):
    """to_dict -> JSON -> from_dict, through the registry entry point."""
    wire = json.dumps(request.to_dict())
    return request_from_dict(json.loads(wire))


SAMPLE_REQUESTS = [
    ComponentQuery(component="counter", functions=("INC",)),
    ComponentQuery(implementation="alu"),
    ComponentQuery(attributes={"size": 4}),
    FunctionQuery(functions=("ADD", "SUB"), want="component"),
    FunctionQuery(functions=("MUL",)),
    InstanceQuery(name="counter_1"),
    InstanceQuery(name="counter_1", fields=("connect", "delay")),
    ComponentRequest(component_name="counter", functions=("INC",), attributes={"size": 5}),
    ComponentRequest(implementation="register", parameters={"size": 4}, use_cache=False),
    ComponentRequest(iif="NAME: T;\n{ O = A; }", instance_name="t1", target="layout"),
    LayoutRequest(name="counter_1", alternative=2),
    LayoutRequest(
        name="counter_1",
        strips=3,
        port_positions=(PortPosition(port="CLK", side="left", order=1.0),),
    ),
    DesignOp(op="start_design", design="proj"),
    DesignOp(op="put_in_list", design="proj", instance="counter_1"),
    DesignOp(op="end_transaction"),
    Simulate(name="adder_1", vectors=({"I0[0]": 1, "Cin": 0}, {"I0[0]": 0})),
    Simulate(name="counter_1", vectors=({"ENA": 1},), engine="flat", clock="CLK"),
    CheckEquivalence(name="counter_1"),
    CheckEquivalence(
        name="counter_1",
        reference="golden",
        mode="sequential",
        clock="CLK",
        cycles=8,
        lanes=16,
        seed=7,
    ),
    GetMetrics(),
    GetMetrics(prefixes=("cache.", "jobs"), include_histograms=False),
    Ping(),
    Ping(echo="marco"),
    WarmCache(),
    WarmCache(
        entries=(
            {"implementation": "alu", "parameters": {"size": 8}},
            {"component": "counter", "attributes": {"size": 4}, "name": "c1"},
        ),
    ),
]


@pytest.mark.parametrize(
    "request_obj",
    [pytest.param(r, id=f"{r.kind}-{i}") for i, r in enumerate(SAMPLE_REQUESTS)],
)
def test_every_request_survives_json_round_trip(request_obj):
    assert roundtrip(request_obj) == request_obj


def test_registry_covers_every_cql_operation():
    assert set(REQUEST_TYPES) == {
        "component_query",
        "function_query",
        "instance_query",
        "request_component",
        "plan_query",
        "request_layout",
        "design_op",
        "batch",
        "submit_job",
        "job_status",
        "cancel_job",
        "simulate",
        "check_equivalence",
        "get_metrics",
        "ping",
        "warm_cache",
        "new_name",
        "database_dump",
    }


def test_every_kind_is_classified_for_retry_safety():
    """Every wire kind is exactly one of idempotent / mutating.

    This is the audit the reconnecting client's blind-retry rule rests
    on: a kind missing from both tuples would silently get the cautious
    treatment and mask the omission; a kind in both would be ambiguous.
    Adding a request type without classifying it fails here by name.
    """
    idempotent = set(IDEMPOTENT_KINDS)
    mutating = set(MUTATING_KINDS)
    assert not idempotent & mutating, (
        f"kinds classified both ways: {sorted(idempotent & mutating)}"
    )
    unclassified = set(REQUEST_TYPES) - idempotent - mutating
    assert not unclassified, f"unclassified request kinds: {sorted(unclassified)}"
    unknown = (idempotent | mutating) - set(REQUEST_TYPES)
    assert not unknown, f"classified but unregistered kinds: {sorted(unknown)}"


def test_request_from_dict_unknown_kind():
    with pytest.raises(IcdbError):
        request_from_dict({"kind": "reboot_server"})


def test_design_op_validates_operation():
    with pytest.raises(IcdbError):
        DesignOp(op="drop_all_tables")


def test_component_request_round_trips_constraints_and_structure():
    structure = StructuralNetlist("cluster", inputs=["X"], outputs=["Y"])
    structure.add("a1", "adder_1", {"I0": "X", "O0": "Y"})
    constraints = Constraints(
        clock_width=30.0,
        comb_delay={"O[3]": 40.0},
        output_loads={"O[3]": 10.0},
        strategy="fastest",
        port_positions=(PortPosition(port="CLK", side="left", order=1.0),),
    )
    request = ComponentRequest(structure=structure, constraints=constraints)
    rebuilt = roundtrip(request)
    assert rebuilt.constraints == constraints
    assert rebuilt.structure.name == "cluster"
    assert rebuilt.structure.refs[0].port_map == {"I0": "X", "O0": "Y"}
    assert rebuilt == request


def test_constraints_dict_round_trip_defaults():
    constraints = Constraints()
    assert Constraints.from_dict(constraints.to_dict()) == constraints


def test_response_round_trip_success_and_error():
    ok = Response(
        ok=True,
        value={"instance": "counter_1"},
        elapsed_ms=1.25,
        cached=True,
        session_id="session-1",
        request_kind="request_component",
    )
    assert Response.from_dict(json.loads(json.dumps(ok.to_dict()))) == ok

    failed = Response(
        ok=False,
        error=IcdbErrorInfo(code=E_NOT_FOUND, message="nope", exception_type="InstanceError"),
        request_kind="instance_query",
    )
    rebuilt = Response.from_dict(json.loads(json.dumps(failed.to_dict())))
    assert rebuilt == failed
    assert rebuilt.error.code == E_NOT_FOUND


def test_response_unwrap_returns_value_or_raises():
    assert Response(ok=True, value=42).unwrap() == 42
    original = InstanceError("gone")
    with pytest.raises(InstanceError):
        Response(ok=False, exception=original, error=error_from_exception(original)).unwrap()
    # Without the in-process exception (a deserialized remote envelope), the
    # structured error is re-raised as a coded IcdbError.
    remote = Response.from_dict(
        {"ok": False, "error": {"code": E_CONFLICT, "message": "design exists"}}
    )
    with pytest.raises(IcdbError) as excinfo:
        remote.unwrap()
    assert excinfo.value.code == E_CONFLICT


def test_error_mapping_codes():
    assert error_from_exception(IcdbError("x")).code == E_BAD_REQUEST
    assert error_from_exception(IcdbError("x", code=E_CONFLICT)).code == E_CONFLICT
    assert error_from_exception(InstanceError("missing")).code == E_NOT_FOUND
    assert error_from_exception(CatalogError("missing")).code == E_NOT_FOUND
    assert error_from_exception(GenerationError("boom")).code == E_GENERATION_FAILED
    assert error_from_exception(ValueError("bad")).code == E_BAD_REQUEST
    info = error_from_exception(RuntimeError("surprise"))
    assert info.code == E_INTERNAL
    assert info.exception_type == "RuntimeError"
    # Simulator failures are invalid operations on a real instance, not
    # malformed requests; VerificationError is a ValueError, so bad
    # verification setups map to E_BAD_REQUEST automatically.
    from repro.sim import GateSimulationError, SimulationError, VerificationError

    assert error_from_exception(SimulationError("no value")).code == E_INVALID
    assert error_from_exception(GateSimulationError("no net")).code == E_INVALID
    assert error_from_exception(VerificationError("bad mode")).code == E_BAD_REQUEST


def test_simulation_messages_validate_on_construction():
    with pytest.raises(IcdbError) as excinfo:
        Simulate(name="x", engine="spice")
    assert excinfo.value.code == E_BAD_REQUEST
    with pytest.raises(IcdbError) as excinfo:
        CheckEquivalence(name="x", mode="formal")
    assert excinfo.value.code == E_BAD_REQUEST
    # Vector values normalize to 0/1 ints on construction.
    request = Simulate(name="x", vectors=({"A": 3, "B": 0},))
    assert request.vectors == ({"A": 1, "B": 0},)
    with pytest.raises(IcdbError):
        Simulate.from_dict({"name": "x", "vectors": "oops"})
    with pytest.raises(IcdbError):
        CheckEquivalence.from_dict({"name": "x", "samples": "many"})
