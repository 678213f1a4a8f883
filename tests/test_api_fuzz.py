"""Property / fuzz tests for the wire contract.

Randomized (seeded, dependency-free) round trips for every request and
response type: ``to_dict() -> JSON -> from_dict()`` must be a true
inverse, ``request_from_dict`` must dispatch every kind, and unknown /
malformed payloads must surface as structured
:class:`~repro.core.icdb.IcdbError` codes -- never as raw tracebacks
escaping the service or the wire dispatcher.
"""

from __future__ import annotations

import dataclasses
import json
import random
import string
import typing

import pytest

from repro import wire
from repro.api import (
    AttributePredicate,
    BatchRequest,
    Bound,
    CancelJob,
    CheckEquivalence,
    ComponentQuery,
    WarmCache,
    ComponentRequest,
    ComponentService,
    DESIGN_OPS,
    DatabaseDump,
    DesignOp,
    ERROR_CODES,
    FunctionPredicate,
    FunctionQuery,
    GetMetrics,
    IcdbErrorInfo,
    InstanceQuery,
    JOB_CONTROL_KINDS,
    JOB_STATES,
    JobEvent,
    JobStatus,
    LayoutRequest,
    METRICS,
    NamePredicate,
    NewName,
    Objective,
    Ping,
    PlanPoint,
    PlanQuery,
    QuerySpec,
    REQUEST_TYPES,
    Response,
    Simulate,
    SubmitJob,
    TypePredicate,
    minimize,
    pareto,
    request_from_dict,
)
from repro.api.messages import AttachSession, Hello, Request, Welcome
from repro.api.planner import CandidateReport, PlanResult
from repro.components import standard_catalog
from repro.constraints import Constraints, PortPosition
from repro.core.icdb import IcdbError
from repro.net import RemoteClient
from repro.net.server import FrameDispatcher
from repro.netlist.structural import ComponentRef, StructuralNetlist
from repro.sim import EquivalenceResult

SEED = 0xD_AC_19_90
ROUNDS = 60


def _name(rng: random.Random, prefix: str = "") -> str:
    return prefix + "".join(rng.choices(string.ascii_lowercase + "_", k=rng.randint(1, 10)))


def _names(rng: random.Random, upper: int = 4):
    return tuple(_name(rng) for _ in range(rng.randint(0, upper)))


def _maybe(rng: random.Random, producer, p: float = 0.5):
    return producer() if rng.random() < p else None


def _constraints(rng: random.Random) -> Constraints:
    return Constraints(
        clock_width=_maybe(rng, lambda: round(rng.uniform(1, 200), 3)),
        comb_delay={_name(rng): round(rng.uniform(0, 50), 3)
                    for _ in range(rng.randint(0, 3))},
        default_comb_delay=_maybe(rng, lambda: round(rng.uniform(0, 50), 3)),
        setup_time=_maybe(rng, lambda: round(rng.uniform(0, 50), 3)),
        output_loads={_name(rng): round(rng.uniform(0, 20), 3)
                      for _ in range(rng.randint(0, 3))},
        default_output_load=round(rng.uniform(0, 5), 3),
        strategy=rng.choice([None, "fastest", "cheapest"]),
        strips=_maybe(rng, lambda: rng.randint(1, 12)),
        aspect_ratio=_maybe(rng, lambda: round(rng.uniform(0.2, 5.0), 3)),
        port_positions=tuple(
            PortPosition(
                port=_name(rng).upper(),
                side=rng.choice(["left", "right", "top", "bottom"]),
                order=round(rng.uniform(0, 10), 2),
            )
            for _ in range(rng.randint(0, 3))
        ),
    )


def _structure(rng: random.Random) -> StructuralNetlist:
    netlist = StructuralNetlist(
        name=_name(rng, "net_"),
        inputs=list(dict.fromkeys(_names(rng))),
        outputs=list(dict.fromkeys(_names(rng))),
    )
    for index in range(rng.randint(0, 3)):
        netlist.add(
            f"u{index}",
            _name(rng, "comp_"),
            {_name(rng).upper(): _name(rng) for _ in range(rng.randint(0, 3))},
        )
    return netlist


def _component_query(rng: random.Random) -> ComponentQuery:
    return ComponentQuery(
        component=_maybe(rng, lambda: _name(rng)),
        implementation=_maybe(rng, lambda: _name(rng)),
        functions=_names(rng),
        attributes=_maybe(
            rng, lambda: {_name(rng): rng.randint(0, 64) for _ in range(rng.randint(1, 3))}
        ),
    )


def _function_query(rng: random.Random) -> FunctionQuery:
    return FunctionQuery(
        functions=_names(rng), want=rng.choice(["implementation", "component"])
    )


def _instance_query(rng: random.Random) -> InstanceQuery:
    return InstanceQuery(name=_name(rng), fields=_names(rng))


def _component_request(rng: random.Random) -> ComponentRequest:
    return ComponentRequest(
        component_name=_maybe(rng, lambda: _name(rng)),
        implementation=_maybe(rng, lambda: _name(rng)),
        iif=_maybe(rng, lambda: f"NAME: {_name(rng).upper()};", 0.3),
        structure=_maybe(rng, lambda: _structure(rng), 0.3),
        functions=_names(rng),
        attributes=_maybe(
            rng, lambda: {_name(rng): rng.randint(0, 32) for _ in range(rng.randint(1, 3))}
        ),
        constraints=_maybe(rng, lambda: _constraints(rng)),
        strategy=rng.choice([None, "fastest", "cheapest"]),
        target=rng.choice(["logic", "layout"]),
        instance_name=_maybe(rng, lambda: _name(rng)),
        parameters=_maybe(
            rng, lambda: {_name(rng): rng.randint(0, 16) for _ in range(rng.randint(1, 4))}
        ),
        use_cache=rng.random() < 0.5,
        detail=rng.choice(["full", "summary"]),
    )


def _layout_request(rng: random.Random) -> LayoutRequest:
    return LayoutRequest(
        name=_name(rng),
        alternative=_maybe(rng, lambda: rng.randint(1, 8)),
        strips=_maybe(rng, lambda: rng.randint(1, 8)),
        port_positions=tuple(
            PortPosition(
                port=_name(rng).upper(),
                side=rng.choice(["left", "right", "top", "bottom"]),
                order=float(rng.randint(0, 9)),
            )
            for _ in range(rng.randint(0, 2))
        ),
    )


def _design_op(rng: random.Random) -> DesignOp:
    return DesignOp(
        op=rng.choice(DESIGN_OPS), design=_name(rng), instance=_name(rng)
    )


def _simulate(rng: random.Random) -> Simulate:
    names = tuple(dict.fromkeys(_names(rng, 4))) or ("A",)
    return Simulate(
        name=_name(rng),
        vectors=tuple(
            {name: rng.randint(0, 1) for name in names}
            for _ in range(rng.randint(0, 4))
        ),
        engine=rng.choice(["gates", "flat"]),
        clock=_maybe(rng, lambda: _name(rng).upper(), 0.3),
    )


def _get_metrics(rng: random.Random) -> GetMetrics:
    prefixes = tuple(
        rng.choice(["cache.", "gencache.", "jobs", "requests.", "net.", _name(rng)])
        for _ in range(rng.randint(0, 3))
    )
    return GetMetrics(
        prefixes=prefixes,
        include_histograms=rng.random() < 0.5,
    )


def _check_equivalence(rng: random.Random) -> CheckEquivalence:
    return CheckEquivalence(
        name=_name(rng),
        reference=_maybe(rng, lambda: _name(rng)),
        mode=rng.choice(["auto", "combinational", "sequential"]),
        clock=_maybe(rng, lambda: _name(rng).upper(), 0.3),
        max_exhaustive=rng.randint(0, 12),
        samples=rng.randint(1, 64),
        cycles=rng.randint(1, 16),
        lanes=rng.randint(1, 32),
        seed=rng.randint(0, 2**31),
    )


def _ping(rng: random.Random) -> Ping:
    return Ping(echo=_maybe(rng, lambda: _name(rng)) or "")


GENERATORS = {
    "component_query": _component_query,
    "function_query": _function_query,
    "instance_query": _instance_query,
    "request_component": _component_request,
    "request_layout": _layout_request,
    "simulate": _simulate,
    "check_equivalence": _check_equivalence,
    "design_op": _design_op,
    "get_metrics": _get_metrics,
    "ping": _ping,
}

#: Kinds a batch (and a submitted job) may wrap: everything but batches
#: themselves and the job-control requests.
_WRAPPABLE_KINDS = tuple(GENERATORS)


def _batch(rng: random.Random) -> BatchRequest:
    members = tuple(
        GENERATORS[rng.choice(_WRAPPABLE_KINDS)](rng)
        for _ in range(rng.randint(0, 4))
    )
    return BatchRequest(requests=members, repeat=rng.randint(1, 4))


GENERATORS["batch"] = _batch


def _submit_job(rng: random.Random) -> SubmitJob:
    inner_kind = rng.choice(_WRAPPABLE_KINDS + ("batch",))
    return SubmitJob(
        request=GENERATORS[inner_kind](rng),
        label=_maybe(rng, lambda: _name(rng, "job_")) or "",
    )


def _job_status(rng: random.Random) -> JobStatus:
    # wait=True only ever pairs with a short timeout so the live-service
    # fuzz below can execute any generated request without hanging.
    wait = rng.random() < 0.3
    return JobStatus(
        job_id=_name(rng, "job-"),
        wait=wait,
        timeout_ms=round(rng.uniform(1, 50), 2) if wait else _maybe(
            rng, lambda: round(rng.uniform(1, 1000), 2)
        ),
        include_events=rng.random() < 0.5,
        events_since=rng.randint(0, 20),
    )


def _cancel_job(rng: random.Random) -> CancelJob:
    return CancelJob(job_id=_name(rng, "job-"))


def _objective(rng: random.Random) -> Objective:
    kind = rng.choice(["minimize", "weighted", "pareto"])
    if kind == "minimize":
        return minimize(rng.choice(METRICS))
    metrics = rng.sample(METRICS, rng.randint(2, len(METRICS)))
    if kind == "pareto":
        return pareto(*metrics)
    return Objective(
        kind="weighted",
        metrics=tuple(metrics),
        weights=tuple(round(rng.uniform(0.1, 3.0), 3) for _ in metrics),
    )


def _predicates(rng: random.Random):
    makers = [
        lambda: FunctionPredicate(functions=_names(rng)),
        lambda: TypePredicate(component=_name(rng)),
        lambda: NamePredicate(implementations=_names(rng)),
        lambda: AttributePredicate(
            attributes={_name(rng): rng.randint(0, 16) for _ in range(rng.randint(1, 3))}
        ),
    ]
    return tuple(rng.choice(makers)() for _ in range(rng.randint(0, 3)))


def _plan_point(rng: random.Random) -> PlanPoint:
    return PlanPoint(
        label=_name(rng, "pt_"),
        implementation=_maybe(rng, lambda: _name(rng)),
        parameters={_name(rng): rng.randint(0, 16) for _ in range(rng.randint(0, 3))},
        attributes={_name(rng): rng.randint(0, 16) for _ in range(rng.randint(0, 2))},
    )


def _plan_query(rng: random.Random) -> PlanQuery:
    # Points and sweep axes are mutually exclusive by construction.
    if rng.random() < 0.5:
        sweep = tuple(
            (_name(rng), tuple(rng.randint(1, 16) for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(0, 2))
        )
        points = ()
    else:
        sweep = ()
        points = tuple(_plan_point(rng) for _ in range(rng.randint(0, 3)))
    spec = QuerySpec(
        select=_predicates(rng),
        where=tuple(
            Bound(metric=rng.choice(METRICS), limit=round(rng.uniform(1, 1e6), 3))
            for _ in range(rng.randint(0, 2))
        ),
        objective=_objective(rng),
        sweep=sweep,
        points=points,
        attributes=_maybe(
            rng, lambda: {_name(rng): rng.randint(0, 16) for _ in range(rng.randint(1, 2))}
        ),
        parameters=_maybe(
            rng, lambda: {_name(rng): rng.randint(0, 16) for _ in range(rng.randint(1, 2))}
        ),
        constraints=_maybe(rng, lambda: _constraints(rng), 0.4),
        target=rng.choice(["logic", "layout"]),
        delay_output=_maybe(rng, lambda: _name(rng).upper(), 0.3),
        limit=rng.randint(0, 8),
        use_cache=rng.random() < 0.5,
        require_equivalent_to=_maybe(rng, lambda: _name(rng), 0.3),
    )
    return PlanQuery(query=spec)


def _warm_entry(rng: random.Random) -> dict:
    entry: dict = {}
    if rng.random() < 0.6:
        entry["implementation"] = _name(rng)
    else:
        entry["component"] = _name(rng)
        if rng.random() < 0.5:
            entry["functions"] = list(_names(rng, 2))
    if rng.random() < 0.5:
        entry["parameters"] = {_name(rng): rng.randint(1, 16)}
    if rng.random() < 0.3:
        entry["attributes"] = {_name(rng): rng.randint(1, 16)}
    if rng.random() < 0.4:
        entry["constraints"] = json.loads(json.dumps(_constraints(rng).to_dict()))
    if rng.random() < 0.3:
        entry["name"] = _name(rng)
    return entry


def _warm_cache(rng: random.Random) -> WarmCache:
    return WarmCache(
        entries=tuple(_warm_entry(rng) for _ in range(rng.randint(0, 3))),
    )


def _new_name(rng: random.Random) -> NewName:
    return NewName(base=_name(rng))


def _database_dump(rng: random.Random) -> DatabaseDump:
    return DatabaseDump(tables=_names(rng, 3))


GENERATORS["submit_job"] = _submit_job
GENERATORS["job_status"] = _job_status
GENERATORS["cancel_job"] = _cancel_job
GENERATORS["warm_cache"] = _warm_cache
GENERATORS["new_name"] = _new_name
GENERATORS["database_dump"] = _database_dump
# Registered after _WRAPPABLE_KINDS is frozen: plans cannot ride in
# batches (they fan out over the job workers a batch would starve).
GENERATORS["plan_query"] = _plan_query


def test_generators_cover_every_registered_kind():
    assert set(GENERATORS) == set(REQUEST_TYPES)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_randomized_requests_survive_json_round_trip(kind):
    rng = random.Random(SEED ^ hash(kind))
    for _ in range(ROUNDS):
        request = GENERATORS[kind](rng)
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = request_from_dict(wire)
        assert type(rebuilt) is type(request)
        assert rebuilt == request
        # from_dict is a true inverse: re-serialization is stable too.
        assert rebuilt.to_dict() == request.to_dict()


def test_randomized_responses_survive_json_round_trip():
    rng = random.Random(SEED)
    for _ in range(ROUNDS):
        response = Response(
            ok=rng.random() < 0.7,
            value=rng.choice(
                [None, rng.randint(0, 99), _name(rng), [1, 2, 3], {"a": 1}]
            ),
            error=_maybe(
                rng,
                # Every structured code -- including the job-era CANCELLED,
                # TIMEOUT and BUSY -- must survive the wire round trip.
                lambda: IcdbErrorInfo(
                    code=rng.choice(ERROR_CODES),
                    message=_name(rng),
                    exception_type=_name(rng),
                ),
            ),
            elapsed_ms=round(rng.uniform(0, 500), 4),
            cached=rng.random() < 0.5,
            session_id=_name(rng, "session-"),
            request_kind=rng.choice(list(REQUEST_TYPES)),
        )
        rebuilt = Response.from_dict(json.loads(json.dumps(response.to_dict())))
        assert rebuilt == response


def test_randomized_job_events_survive_json_round_trip():
    rng = random.Random(SEED ^ 0xE7E)
    for _ in range(ROUNDS):
        event = JobEvent(
            job_id=_name(rng, "job-"),
            seq=rng.randint(1, 500),
            state=rng.choice(JOB_STATES),
            stage=rng.choice(["", "synthesize", "size", "estimate", "layout"]),
            progress=round(rng.uniform(0.0, 1.0), 4),
            message=_name(rng),
            timestamp=round(rng.uniform(1e9, 2e9), 3),
        )
        rebuilt = JobEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event


def test_new_error_codes_round_trip_and_are_registered():
    for code in ("CANCELLED", "TIMEOUT", "BUSY"):
        assert code in ERROR_CODES
        info = IcdbErrorInfo(code=code, message="m", exception_type="IcdbError")
        assert IcdbErrorInfo.from_dict(json.loads(json.dumps(info.to_dict()))) == info


def test_job_control_is_rejected_inside_batches_and_jobs():
    with pytest.raises(IcdbError) as excinfo:
        BatchRequest(requests=(JobStatus(job_id="job-1"),))
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(IcdbError):
        SubmitJob(request=CancelJob(job_id="job-1"))
    with pytest.raises(IcdbError):
        SubmitJob(request=None)
    with pytest.raises(IcdbError):
        request_from_dict({"kind": "submit_job", "label": "no inner request"})


def test_unknown_fields_are_ignored_not_fatal():
    rng = random.Random(SEED)
    for kind, generator in GENERATORS.items():
        request = generator(rng)
        wire = request.to_dict()
        wire["flux_capacitor"] = {"charge": 88}
        assert request_from_dict(wire) == request


@pytest.fixture(scope="module")
def fuzz_service(tmp_path_factory):
    return ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path_factory.mktemp("fuzz_store"),
    )


def test_unknown_kind_and_op_produce_structured_errors(fuzz_service):
    with pytest.raises(IcdbError) as excinfo:
        request_from_dict({"kind": "teleport"})
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(IcdbError):
        request_from_dict([1, 2, 3])
    with pytest.raises(IcdbError):
        DesignOp(op="explode_design")
    with pytest.raises(IcdbError):
        FunctionQuery(functions=("ADD",), want="sandwich").functions and \
            fuzz_service.execute(
                FunctionQuery(functions=("ADD",), want="sandwich")
            ).unwrap()
    response = fuzz_service.execute(
        ComponentRequest(implementation="alu", attributes={"size": 2}, detail="everything")
    )
    assert not response.ok
    assert response.error.code == "BAD_REQUEST"
    assert "detail" in response.error.message


def test_simulation_requests_produce_structured_errors(fuzz_service):
    # Bad engine / mode values are rejected at construction (and hence at
    # wire-parse) time, before any service work happens.
    with pytest.raises(IcdbError) as excinfo:
        Simulate(name="x", engine="spice")
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(IcdbError) as excinfo:
        CheckEquivalence(name="x", mode="formal")
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(IcdbError):
        request_from_dict({"kind": "simulate", "name": "x", "vectors": "zap"})
    with pytest.raises(IcdbError):
        request_from_dict(
            {"kind": "check_equivalence", "name": "x", "samples": "many"}
        )
    # Unknown instances answer NOT_FOUND envelopes.
    response = fuzz_service.execute(Simulate(name="ghost"))
    assert not response.ok and response.error.code == "NOT_FOUND"
    response = fuzz_service.execute(CheckEquivalence(name="ghost"))
    assert not response.ok and response.error.code == "NOT_FOUND"
    # Simulator failures on a real instance answer INVALID; impossible
    # verification setups (a non-input clock) answer BAD_REQUEST.
    generated = fuzz_service.execute(
        ComponentRequest(
            implementation="mux2", attributes={"size": 2}, detail="summary"
        )
    ).unwrap()
    name = generated["instance"]
    response = fuzz_service.execute(
        Simulate(name=name, vectors=({"NO_SUCH_PIN": 1},))
    )
    assert not response.ok and response.error.code == "INVALID"
    response = fuzz_service.execute(
        CheckEquivalence(name=name, mode="sequential", clock="NO_SUCH_PIN")
    )
    assert not response.ok and response.error.code == "BAD_REQUEST"


@pytest.mark.parametrize(
    "field_name,value",
    [
        ("cycles", -1),
        ("cycles", 0),
        ("samples", 0),
        ("lanes", 0),
        ("max_exhaustive", -1),
        ("lanes", 4097),
        ("cycles", 4097),
        ("samples", 16385),
        ("max_exhaustive", 17),
    ],
)
def test_check_equivalence_size_fields_are_bounded_on_the_wire(
    fuzz_service, field_name, value
):
    # A typed client cannot build these requests, so they go out as raw
    # frames: each answers BAD_REQUEST naming the field, before any
    # simulation, and the connection serves on.
    client = RemoteClient.loopback(fuzz_service)
    name = client.execute(
        ComponentRequest(
            implementation="counter", attributes={"size": 2}, detail="summary"
        )
    ).unwrap()["instance"]
    reply = client.transport.send_payload(
        {
            "type": "request",
            "request": {"kind": "check_equivalence", "name": name, field_name: value},
        }
    )
    response = Response.from_dict(reply["response"])
    assert not response.ok and response.error.code == "BAD_REQUEST"
    assert f"CheckEquivalence.{field_name}" in response.error.message
    assert client.check_equivalence(name, cycles=2, lanes=4)["equivalent"]
    client.close()


def test_cluster_instances_have_a_defined_verification_answer(service):
    # A cluster's flat form has ports and no equations.  Simulating it, or
    # checking against it, answers INVALID naming the instance and an
    # output; its gates, and a check against a part's flat form, still
    # answer.
    part = service.execute(
        ComponentRequest(
            implementation="ripple_carry_adder", attributes={"size": 2}, detail="summary"
        )
    ).unwrap()["instance"]
    inputs = ["I0[0]", "I0[1]", "I1[0]", "I1[1]", "Cin"]
    outputs = ["O[0]", "O[1]", "Cout"]
    structure = StructuralNetlist("cluster", inputs=inputs, outputs=outputs)
    structure.add("u1", part, {port: port for port in inputs + outputs})
    cluster = service.execute(
        ComponentRequest(structure=structure, detail="summary")
    ).unwrap()["instance"]
    vector = {"I0[0]": 1, "I0[1]": 0, "I1[0]": 0, "I1[1]": 0, "Cin": 0}
    for request in (
        Simulate(name=cluster, vectors=(vector,), engine="flat"),
        CheckEquivalence(name=cluster),
    ):
        response = service.execute(request)
        assert not response.ok and response.error.code == "INVALID"
        assert cluster in response.error.message
        assert "'O[0]'" in response.error.message
    gates = service.execute(Simulate(name=cluster, vectors=(vector,))).unwrap()
    assert gates["vectors"] == [{"O[0]": 1, "O[1]": 0, "Cout": 0}]
    verdict = service.execute(CheckEquivalence(name=cluster, reference=part)).unwrap()
    assert verdict["equivalent"] and verdict["vectors_checked"] == 32


def test_random_request_dicts_never_crash_the_dispatcher(fuzz_service):
    """Feed the wire dispatcher random request payloads: every answer must
    be a response or error frame, never an exception."""
    rng = random.Random(SEED + 1)
    dispatcher = FrameDispatcher(fuzz_service, client_label="fuzz")
    from repro.api import PROTOCOL_VERSION

    hello = dispatcher.dispatch({"type": "hello", "protocol": PROTOCOL_VERSION})
    assert hello["type"] == "welcome" and hello["session_token"]

    def random_value(depth=0):
        choices = [
            lambda: None,
            lambda: rng.randint(-5, 99),
            lambda: _name(rng),
            lambda: rng.random() < 0.5,
        ]
        if depth < 2:
            choices.extend(
                [
                    lambda: [random_value(depth + 1) for _ in range(rng.randint(0, 3))],
                    lambda: {
                        _name(rng): random_value(depth + 1)
                        for _ in range(rng.randint(0, 3))
                    },
                ]
            )
        return rng.choice(choices)()

    for _ in range(150):
        kind = rng.choice(list(REQUEST_TYPES) + ["bogus", None, 42])
        payload = {
            "kind": kind,
            **{_name(rng): random_value() for _ in range(rng.randint(0, 4))},
        }
        reply = dispatcher.dispatch({"type": "request", "request": payload})
        assert reply["type"] in ("response", "error")
        if reply["type"] == "response" and not reply["response"]["ok"]:
            assert reply["response"]["error"]["code"]


def test_executing_random_valid_requests_never_raises(fuzz_service):
    """Randomized *well-formed* requests against a live service: every
    outcome is an envelope, and failures carry structured codes."""
    rng = random.Random(SEED + 2)
    session = fuzz_service.create_session()
    for _ in range(80):
        kind = rng.choice(["component_query", "function_query", "instance_query",
                           "request_layout", "design_op",
                           "job_status", "cancel_job"])
        request = GENERATORS[kind](rng)
        response = fuzz_service.execute(request, session)
        assert response.ok or response.error is not None
        if not response.ok:
            assert response.error.code
            assert response.error.message


# ---------------------------------------------------------------------------
# The decode boundary: one codec, typed fields, BAD_REQUEST naming the field
# ---------------------------------------------------------------------------


def _dispatcher(service) -> FrameDispatcher:
    from repro.api import PROTOCOL_VERSION

    dispatcher = FrameDispatcher(service, client_label="wire-contract")
    welcome = dispatcher.dispatch({"type": "hello", "protocol": PROTOCOL_VERSION})
    assert welcome["type"] == "welcome"
    return dispatcher


def _wrong_value(hint):
    """A JSON value of the wrong type for ``hint`` (None: not checked)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and type(None) in args:
        members = [arg for arg in args if arg is not type(None)]
        return _wrong_value(members[0] if len(members) == 1 else typing.Union[tuple(members)])
    if hint is typing.Any:
        return None
    if hint is str:
        return 7
    if hint is int:
        return "7"
    if hint is float:
        return "7.5"
    if hint is bool:
        return "no"
    if origin in (tuple, list):
        return "abc"  # a bare string is not a one-item list
    if origin is dict:
        return [1]
    return 5  # a wire class or a union of them


def _request_fields():
    for kind, request_type in sorted(REQUEST_TYPES.items()):
        hints = typing.get_type_hints(request_type)
        for item in dataclasses.fields(request_type):
            wrong = _wrong_value(hints[item.name])
            if wrong is not None:
                yield kind, item.name, wrong


def test_a_wrong_json_type_in_any_request_field_answers_bad_request(fuzz_service):
    """Property: every typed field of every request kind, sent with a value
    of the wrong JSON type, answers BAD_REQUEST naming ``Class.field`` --
    never INTERNAL, never ok."""
    dispatcher = _dispatcher(fuzz_service)
    rng = random.Random(SEED + 3)
    checked = 0
    for kind, name, wrong in _request_fields():
        wire = GENERATORS[kind](rng).to_dict()
        wire[name] = wrong
        reply = dispatcher.dispatch({"type": "request", "request": wire})
        response = reply["response"]
        assert not response["ok"], (kind, name, wrong)
        assert response["error"]["code"] == "BAD_REQUEST", (kind, name, response)
        label = f"{REQUEST_TYPES[kind].__name__}.{name}"
        assert label in response["error"]["message"], (label, response)
        checked += 1
    # No request field is typed Any, so every one of them was probed.
    assert checked == sum(len(dataclasses.fields(t)) for t in REQUEST_TYPES.values())


@pytest.mark.parametrize(
    "payload, label",
    [
        # Used to reach the engine and answer INTERNAL.
        ({"kind": "component_query", "component": 123}, "ComponentQuery.component"),
        ({"kind": "function_query", "functions": [1, 2]}, "FunctionQuery.functions"),
        ({"kind": "request_component", "implementation": 7},
         "ComponentRequest.implementation"),
        ({"kind": "request_component", "implementation": "alu", "constraints": 5},
         "ComponentRequest.constraints"),
        # String booleans used to read as true.
        ({"kind": "job_status", "job_id": "job-1", "wait": "no"}, "JobStatus.wait"),
        ({"kind": "request_component", "implementation": "alu", "use_cache": "false"},
         "ComponentRequest.use_cache"),
        ({"kind": "get_metrics", "include_histograms": "no"},
         "GetMetrics.include_histograms"),
        # Used to be accepted as is.
        ({"kind": "design_op", "op": "start_design", "design": 5}, "DesignOp.design"),
        # Used to answer a bare TypeError message naming no field.
        ({"kind": "instance_query", "name": "x", "fields": 3}, "InstanceQuery.fields"),
        # Attribute values are integers, as in a plan's attribute predicates;
        # these used to be int()-coerced (or fail naming no field) in the engine.
        ({"kind": "request_component", "implementation": "alu",
          "attributes": {"size": "8"}}, "ComponentRequest.attributes"),
        ({"kind": "request_component", "implementation": "alu",
          "attributes": {"size": 8.9}}, "ComponentRequest.attributes"),
        ({"kind": "component_query", "component": "Counter",
          "attributes": {"size": True}}, "ComponentQuery.attributes"),
    ],
)
def test_malformed_field_probes_answer_bad_request(fuzz_service, payload, label):
    reply = _dispatcher(fuzz_service).dispatch({"type": "request", "request": payload})
    error = reply["response"]["error"]
    assert error["code"] == "BAD_REQUEST"
    assert label in error["message"]


@pytest.mark.parametrize("frame_type", ["hello", "attach"])
@pytest.mark.parametrize("protocol", ["missing", None, "banana"])
def test_handshake_without_a_valid_protocol_answers_protocol_and_closes(
    fuzz_service, frame_type, protocol
):
    frame = {"type": frame_type, "token": "t"}
    if protocol != "missing":
        frame["protocol"] = protocol
    dispatcher = FrameDispatcher(fuzz_service, client_label="handshake")
    reply = dispatcher.dispatch(frame)
    assert reply["type"] == "error"
    assert reply["error"]["code"] == "PROTOCOL"
    assert dispatcher.closed


def test_an_integer_for_a_float_field_shares_the_cache_entry_of_the_float(tmp_path):
    """2 and 2.0 are one value: both decode to a float, so the two requests
    key the same result-cache entry (``canonical_constraints_json``)."""
    service = ComponentService(catalog=standard_catalog(fresh=True), store_root=tmp_path)
    dispatcher = _dispatcher(service)

    def send(load):
        request = {
            "kind": "request_component", "implementation": "register",
            "attributes": {"size": 3}, "detail": "summary",
            "constraints": {"default_output_load": load},
        }
        response = dispatcher.dispatch({"type": "request", "request": request})["response"]
        assert response["ok"], response
        return response

    assert not send(2.0).get("cached", False)
    assert send(2)["cached"]
    decoded = Constraints.from_dict({"default_output_load": 2, "clock_width": 30,
                                     "port_positions": [{"port": "A", "side": "top",
                                                         "order": 10}]})
    assert decoded == Constraints(default_output_load=2.0, clock_width=30.0,
                                  port_positions=(PortPosition("A", "top", 10.0),))
    assert type(decoded.clock_width) is float
    assert type(decoded.port_positions[0].order) is float


def test_a_bound_without_metric_answers_invalid(fuzz_service):
    query = {"kind": "plan_query", "query": {"where": [{"limit": 5.0}]}}
    reply = _dispatcher(fuzz_service).dispatch({"type": "request", "request": query})
    assert reply["response"]["error"]["code"] == "INVALID"


def _wire_classes():
    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    return set(walk(wire.Wire))


def test_every_wire_class_builds_its_codec():
    """Resolving every annotation up front: a name that does not resolve on
    some Python version fails here, not on a server's first request."""
    classes = _wire_classes()
    nested_and_answers = {
        Request, Hello, Welcome, AttachSession, JobEvent, QuerySpec, Bound,
        Objective, PlanPoint, FunctionPredicate, TypePredicate, NamePredicate,
        AttributePredicate, Constraints, PortPosition, StructuralNetlist,
        ComponentRef, PlanResult, CandidateReport, EquivalenceResult,
    }
    assert set(REQUEST_TYPES.values()) | nested_and_answers <= classes
    for cls in classes:
        wire.codec(cls)
    # One set of kinds: a field typed Request (a batch item, a submitted
    # job) and the top-level decode accept exactly the registered ones.
    assert wire._variants(Request) == REQUEST_TYPES
    # A field typed Request accepts exactly the registered kinds.
    rng = random.Random(SEED + 4)
    for kind, generator in GENERATORS.items():
        request = generator(rng)
        assert Request.from_dict(json.loads(json.dumps(request.to_dict()))) == request
    with pytest.raises(IcdbError) as excinfo:
        Request.from_dict({"kind": "teleport"})
    assert excinfo.value.code == "BAD_REQUEST"


def _candidate(rng: random.Random) -> CandidateReport:
    generated = rng.random() < 0.7
    return CandidateReport(
        label=_name(rng, "pt_"),
        implementation=_name(rng),
        parameters={_name(rng): rng.randint(0, 16) for _ in range(rng.randint(0, 3))},
        status=rng.choice(["planned", "pruned", "generated", "infeasible", "failed"]),
        reason=_name(rng),
        instance=_name(rng) if generated else "",
        cached=rng.random() < 0.5,
        metrics={
            "area": round(rng.uniform(1, 1e5), 3),
            "delay": round(rng.uniform(0, 50), 3),
            "cells": rng.randint(1, 500),
        } if generated else {},
        score=_maybe(rng, lambda: round(rng.uniform(0, 1e5), 3)),
        rank=_maybe(rng, lambda: rng.randint(1, 9)),
        on_front=rng.random() < 0.3,
        error=_maybe(
            rng,
            lambda: IcdbErrorInfo(
                code=rng.choice(ERROR_CODES), message=_name(rng), retry_after_ms=2.5
            ).to_dict(),
            0.2,
        ),
        # In-process only: never on the wire, never compared.
        exception=RuntimeError("in process"),
        requested_implementation=_name(rng).upper(),
    )


def test_randomized_plan_results_survive_json_round_trip():
    rng = random.Random(SEED ^ 0x9A4)
    for _ in range(ROUNDS):
        candidates = [_candidate(rng) for _ in range(rng.randint(0, 5))]
        indices = list(range(len(candidates)))
        result = PlanResult(
            candidates=candidates,
            winners=rng.sample(indices, rng.randint(0, len(indices))),
            front=rng.sample(indices, rng.randint(0, len(indices))),
            objective=_objective(rng),
            explain_data={"stages": [{"name": _name(rng), "ms": rng.random()}],
                          "pruned": rng.randint(0, 9)},
        )
        wire_form = json.loads(json.dumps(result.to_dict()))
        assert "explain" in wire_form and "explain_data" not in wire_form
        for report in wire_form["candidates"]:
            assert "exception" not in report
            assert "requested_implementation" not in report
        rebuilt = PlanResult.from_dict(wire_form)
        assert rebuilt == result
        assert rebuilt.to_dict() == result.to_dict()
        assert all(report.exception is None for report in rebuilt.candidates)


def test_randomized_equivalence_results_survive_json_round_trip():
    rng = random.Random(SEED ^ 0xE9)
    for _ in range(ROUNDS):
        equivalent = rng.random() < 0.5
        result = EquivalenceResult(
            equivalent=equivalent,
            vectors_checked=rng.randint(0, 4096),
            counterexample=None if equivalent else {
                _name(rng).upper(): rng.randint(0, 1) for _ in range(rng.randint(1, 4))
            },
            mismatched_outputs=() if equivalent else _names(rng),
            mode=rng.choice(["", "combinational", "sequential"]),
        )
        rebuilt = EquivalenceResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result


def test_duplicate_structural_label_on_the_wire_answers_bad_request(fuzz_service):
    structure = {
        "name": "cluster",
        "inputs": ["A"],
        "outputs": ["Y"],
        "refs": [
            {"label": "u0", "component": "alu_1", "port_map": {}},
            {"label": "u0", "component": "alu_2", "port_map": {}},
        ],
    }
    request = {"kind": "request_component", "structure": structure}
    reply = _dispatcher(fuzz_service).dispatch({"type": "request", "request": request})
    error = reply["response"]["error"]
    assert error["code"] == "BAD_REQUEST"
    assert "u0" in error["message"]
