"""Property / fuzz tests for the wire contract.

Randomized (seeded, dependency-free) round trips for every request and
response type: ``to_dict() -> JSON -> from_dict()`` must be a true
inverse, ``request_from_dict`` must dispatch every kind, and unknown /
malformed payloads must surface as structured
:class:`~repro.core.icdb.IcdbError` codes -- never as raw tracebacks
escaping the service or the wire dispatcher.
"""

from __future__ import annotations

import json
import random
import string

import pytest

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
from repro.components import standard_catalog
from repro.constraints import Constraints, PortPosition
from repro.core.icdb import IcdbError
from repro.net.server import FrameDispatcher
from repro.netlist.structural import StructuralNetlist

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


GENERATORS["submit_job"] = _submit_job
GENERATORS["job_status"] = _job_status
GENERATORS["cancel_job"] = _cancel_job
GENERATORS["warm_cache"] = _warm_cache
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
