"""Tests for the component service: envelopes, result cache, regressions."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ComponentQuery,
    ComponentRequest,
    DesignOp,
    FunctionQuery,
    InstanceQuery,
    LayoutRequest,
    Request,
    request_from_dict,
)
from repro.api.errors import E_CONFLICT, E_NOT_FOUND
from repro.api.messages import REQUEST_TYPES
from repro.api.service import HANDLERS, Session
from repro.api.surface import ClassicOps
from repro.components import standard_catalog
from repro.constraints import Constraints
from repro.core import ICDB, IcdbError
from repro.core.instances import InstanceError
from repro.cql import CqlExecutor
from repro.db import DESIGN_FILES, INSTANCES
from repro.net.client import RemoteClient
from repro.net.resilience import ResilientClient


# ---------------------------------------------------------------------------
# Typed execution and envelopes
# ---------------------------------------------------------------------------


def test_execute_component_and_function_queries(service):
    session = service.create_session()
    response = session.execute(ComponentQuery(component="counter", functions=("INC",)))
    assert response.ok and not response.cached
    assert "counter" in response.value["implementation"]
    assert response.request_kind == "component_query"
    assert response.session_id == session.session_id
    assert response.elapsed_ms >= 0.0

    response = session.execute(FunctionQuery(functions=("ADD", "SUB"), want="component"))
    assert set(response.value) == {"Adder_Subtractor", "ALU"}


def test_execute_request_component_returns_wire_summary(service):
    session = service.create_session()
    response = session.execute(
        ComponentRequest(
            component_name="counter",
            functions=("INC",),
            attributes={"size": 4},
            constraints=Constraints(clock_width=40.0, setup_time=40.0),
        )
    )
    assert response.ok
    summary = response.value
    assert summary["implementation"] == "counter"
    assert summary["delay"].startswith("CW")
    assert summary["shape_function"].startswith("Alternative=1")
    assert summary["cells"] > 0
    # The whole envelope is JSON-serializable (wire contract).
    json.dumps(response.to_dict())

    info = session.execute(InstanceQuery(name=summary["instance"])).unwrap()
    assert info["function"] == summary["functions"]
    assert "entity" in info["VHDL_net_list"]


def test_execute_instance_query_field_selection(service):
    session = service.create_session()
    name = session.execute(
        ComponentRequest(implementation="register", attributes={"size": 2})
    ).value["instance"]
    connect = session.execute(InstanceQuery(name=name, fields=("connect",))).unwrap()
    assert set(connect) == {"connect"}
    bad = session.execute(InstanceQuery(name=name, fields=("bogus",)))
    assert not bad.ok and bad.error.code == E_NOT_FOUND


def test_execute_layout_request(service):
    session = service.create_session()
    name = session.execute(
        ComponentRequest(implementation="register", attributes={"size": 4})
    ).value["instance"]
    response = session.execute(LayoutRequest(name=name, alternative=1))
    assert response.ok
    assert response.value["cif_layout"].startswith("(CIF file for")
    assert response.value["strips"] >= 1
    assert session.instance(name).layout is not None


def test_execute_never_raises_and_keeps_original_exception(service):
    session = service.create_session()
    response = session.execute(InstanceQuery(name="missing"))
    assert not response.ok
    assert response.error.code == E_NOT_FOUND
    assert response.error.exception_type == "InstanceError"
    assert response.exception is not None

    duplicate = DesignOp(op="start_design", design="proj")
    assert session.execute(duplicate).ok
    conflict = session.execute(duplicate)
    assert not conflict.ok and conflict.error.code == E_CONFLICT


def test_design_ops_through_typed_requests(service):
    session = service.create_session()
    session.execute(DesignOp(op="start_design", design="proj")).unwrap()
    session.execute(DesignOp(op="start_transaction", design="proj")).unwrap()
    keep = session.execute(
        ComponentRequest(implementation="register", attributes={"size": 2})
    ).value["instance"]
    drop = session.execute(
        ComponentRequest(implementation="mux2", attributes={"size": 2})
    ).value["instance"]
    session.execute(DesignOp(op="put_in_list", design="proj", instance=keep)).unwrap()
    removed = session.execute(DesignOp(op="end_transaction", design="proj")).unwrap()
    assert drop in removed["removed"] and keep not in removed["removed"]
    listed = session.execute(DesignOp(op="component_list", design="proj")).unwrap()
    assert listed["instances"] == [keep]
    removed = session.execute(DesignOp(op="end_design", design="proj")).unwrap()
    assert keep in removed["removed"]


# ---------------------------------------------------------------------------
# One handler per request kind, one classic surface for every client
# ---------------------------------------------------------------------------


def test_every_kind_has_exactly_one_handler():
    """The twin of the retry-safety classification: a new request type
    cannot ship without the one program that executes it."""
    missing = set(REQUEST_TYPES) - set(HANDLERS)
    assert not missing, f"request kinds without a handler: {sorted(missing)}"
    unknown = set(HANDLERS) - set(REQUEST_TYPES)
    assert not unknown, f"handlers for unregistered kinds: {sorted(unknown)}"


#: What each surface may define for itself; everything else ClassicOps
#: writes once.
SURFACE_HOOKS = {
    "_component_instance",
    "_layout_answer",
    "_job_response",
    "_subscribe_jobs",
    "plan",
}


def test_classic_ops_are_written_once_for_every_surface():
    shared = [
        name
        for name, member in vars(ClassicOps).items()
        if callable(member) and not name.startswith("__") and name not in SURFACE_HOOKS
    ]
    assert {
        "request_component",
        "request_layout",
        "end_a_design",
        "submit",
        "submit_component",
        "job_handle",
    } <= set(shared)
    for surface in (Session, ICDB, RemoteClient, ResilientClient):
        mirrored = [
            name for name in shared if getattr(surface, name) is not getattr(ClassicOps, name)
        ]
        assert not mirrored, f"{surface.__name__} re-mirrors {mirrored}"


def test_local_classic_ops_are_counted_like_remote_ones(service):
    session = service.create_session()
    instance = session.request_component(implementation="register", attributes={"size": 2})
    session.simulate(instance.name, [{name: 0 for name in instance.flat.inputs}])
    counters = service.metrics.snapshot()["counters"]
    assert counters["requests.kind.request_component"] == 1
    assert counters["requests.kind.simulate"] == 1
    assert counters["sim.requests"] == 1

    icdb = ICDB(catalog=standard_catalog(fresh=True))
    icdb.request_component(implementation="register", attributes={"size": 2})
    counters = icdb.service.metrics.snapshot()["counters"]
    assert counters["requests.kind.request_component"] == 1


def test_local_op_on_unknown_instance_raises_the_original_exception(service):
    session = service.create_session()
    for call in (
        lambda: session.instance_query("missing"),
        lambda: session.request_layout("missing"),
        lambda: session.simulate("missing", []),
        lambda: session.check_equivalence("missing"),
        lambda: session.put_in_component_list("missing", design="proj"),
    ):
        with pytest.raises(InstanceError):
            call()


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def test_identical_catalog_requests_hit_the_cache(service):
    session = service.create_session()
    request = ComponentRequest(
        implementation="register",
        attributes={"size": 4},
        constraints=Constraints(clock_width=50.0),
    )
    first = session.execute(request)
    second = session.execute(request)
    assert first.ok and not first.cached
    assert second.ok and second.cached
    # Fresh instance name, identical estimates.
    assert second.value["instance"] != first.value["instance"]
    assert second.value["delay"] == first.value["delay"]
    assert second.value["area"] == first.value["area"]
    assert second.value["cached"] is True
    assert service.cache.stats()["hits"] == 1
    # Both instances are fully registered; the clone's artifact files are
    # lazy, so flush them before checking the store.
    service.materialize_artifacts()
    for name in (first.value["instance"], second.value["instance"]):
        assert name in service.instances
        assert service.database.table(INSTANCES).get(name=name) is not None
        assert service.store.path_of(name, "vhdl") is not None


def test_cache_respects_parameters_constraints_and_target(service):
    session = service.create_session()
    base = ComponentRequest(implementation="register", attributes={"size": 4})
    session.execute(base)
    different = [
        ComponentRequest(implementation="register", attributes={"size": 5}),
        ComponentRequest(
            implementation="register",
            attributes={"size": 4},
            constraints=Constraints(clock_width=25.0),
        ),
        ComponentRequest(implementation="register", attributes={"size": 4}, target="layout"),
        ComponentRequest(implementation="mux2", attributes={"size": 4}),
    ]
    for request in different:
        response = session.execute(request)
        assert response.ok and not response.cached


def test_cache_opt_out_and_custom_paths_never_cached(service):
    session = service.create_session()
    request = ComponentRequest(
        implementation="register", attributes={"size": 2}, use_cache=False
    )
    assert not session.execute(request).cached
    assert not session.execute(request).cached
    assert service.cache.stats()["entries"] == 0

    iif = """
NAME: PARITY;
FUNCTIONS: XOR;
PARAMETER: size;
INORDER: I[size];
OUTORDER: P;
VARIABLE: i;
{
    #for(i=0; i<size; i++)
        P (+)= I[i];
}
"""
    custom = ComponentRequest(iif=iif, parameters={"size": 3})
    assert not session.execute(custom).cached
    assert not session.execute(custom).cached
    assert service.cache.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# Generation cache (stage-level memoization of the cold path)
# ---------------------------------------------------------------------------


def _assert_generation_accounting(stats):
    """The flow-level memo holds the PR-3 cache accounting invariants."""
    for stage, snapshot in stats.items():
        assert snapshot["hits"] + snapshot["misses"] == snapshot["lookups"], stage
        assert snapshot["entries"] == snapshot["stores"] - snapshot["evictions"], stage
        assert snapshot["entries"] >= 0, stage


def test_generation_cache_cross_session_hits_and_accounting(service):
    """Two sessions generating the same cold signature share the flow
    stages; counters stay consistent and the artifacts are identical."""
    first_session = service.create_session()
    second_session = service.create_session()
    request = ComponentRequest(
        implementation="alu", attributes={"size": 4}, use_cache=False
    )

    first = first_session.execute(request)
    assert first.ok and not first.cached
    stats = service.generation_stats()
    _assert_generation_accounting(stats)
    assert stats["flows"]["hits"] == 0 and stats["flows"]["stores"] == 1

    second = second_session.execute(request)
    assert second.ok and not second.cached  # memo-served, still a fresh instance
    stats = service.generation_stats()
    _assert_generation_accounting(stats)
    # Cross-session hit counting: the second session's cold request hit
    # the expansion and flow stages the first session populated.
    assert stats["flows"]["hits"] == 1
    assert stats["expand"]["hits"] == 1

    assert second.value["instance"] != first.value["instance"]
    for key in ("delay", "area", "shape_function", "cells", "clock_width"):
        assert second.value[key] == first.value[key], key
    # The memo-served instance renders exactly like the cold one, its
    # instance name aside.
    cold = service.instances.get(first.value["instance"])
    memoized = service.instances.get(second.value["instance"])
    assert cold.vhdl_netlist().replace(cold.name, "X") == (
        memoized.vhdl_netlist().replace(memoized.name, "X")
    )
    assert cold.render_delay().replace(cold.name, "X") == (
        memoized.render_delay().replace(memoized.name, "X")
    )
    assert cold.render_shape().replace(cold.name, "X") == (
        memoized.render_shape().replace(memoized.name, "X")
    )
    # Both are fully registered, independently deletable instances.
    for name in (first.value["instance"], second.value["instance"]):
        assert name in service.instances
        assert service.database.table(INSTANCES).get(name=name) is not None


def test_generation_cache_shares_synthesis_across_constraints(service):
    """A constraint sweep synthesizes once: the synth stage is shared,
    the flow (sizing + estimates) is per-constraint."""
    session = service.create_session()
    base = dict(implementation="counter", attributes={"size": 4}, use_cache=False)
    session.execute(ComponentRequest(constraints=Constraints(clock_width=60.0), **base))
    before = service.generation_stats()
    session.execute(ComponentRequest(constraints=Constraints(clock_width=45.0), **base))
    after = service.generation_stats()
    _assert_generation_accounting(after)
    assert after["synth"]["hits"] == before["synth"]["hits"] + 1
    assert after["flows"]["stores"] == before["flows"]["stores"] + 1
    assert after["flows"]["hits"] == before["flows"]["hits"]


@pytest.mark.parametrize("constrained_first", [False, True])
def test_sizing_copies_on_write_leaving_the_synth_template_at_unit_drive(
    service, constrained_first
):
    """An unconstrained flow shares the synth memo's netlist as is; a
    constrained one sizes its own copy, in either order."""
    session = service.create_session()
    tight = Constraints(clock_width=20.0)
    order = [("free", None), ("tight", tight)]
    if constrained_first:
        order.reverse()
    instances = {
        label: session.request_component(
            implementation="counter",
            parameters={"size": 5},
            constraints=constraints,
            instance_name=label,
            use_cache=False,
        )
        for label, constraints in order
    }
    _, synth_key, _ = service.generator.stage_keys(
        service.catalog.get("counter"), {"size": 5}, Constraints()
    )
    template = service.generator.generation_cache.synth.peek(synth_key)
    assert instances["free"].netlist is template
    assert all(gate.size == 1.0 for gate in template.all_instances())
    assert any(gate.size > 1.0 for gate in instances["tight"].netlist.all_instances())
    assert service.generation_stats()["synth"]["hits"] == 1


def test_expansion_memo_tolerates_stray_default_parameters(service):
    """Implementations may carry default_parameters the top module does
    not declare (resolve_parameters validates *overrides* strictly, never
    defaults).  The expansion memo must key on the resolved values while
    expanding with the caller's overrides, or such implementations break."""
    from repro.components.catalog import ComponentImplementation

    register = service.catalog.get("register")
    stray = ComponentImplementation(
        name="stray_register",
        component_type="Register",
        functions=register.functions,
        iif_source=register.iif_source,
        default_parameters={**register.default_parameters, "stray": 7},
        subfunction_sources=register.subfunction_sources,
    )
    service.catalog.add(stray)
    session = service.create_session()
    first = session.execute(
        ComponentRequest(
            implementation="stray_register", parameters={"size": 3}, use_cache=False
        )
    )
    assert first.ok, first.error
    second = session.execute(
        ComponentRequest(
            implementation="stray_register", parameters={"size": 3}, use_cache=False
        )
    )
    assert second.ok and second.value["delay"] == first.value["delay"]
    assert service.generation_stats()["expand"]["hits"] >= 1


def test_generation_cache_entries_bounded_with_eviction_accounting(tmp_path):
    """The stage LRUs stay within their bounds and the accounting
    invariant survives evictions (entries == stores - evictions)."""
    from repro.api import ComponentService
    from repro.components import standard_catalog
    from repro.core.gencache import GenerationCache

    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "bounded",
        generation_cache=GenerationCache(
            max_expansions=2, max_netlists=2, max_flows=2, max_optimized=8
        ),
    )
    session = service.create_session()
    for size in (2, 3, 4, 5):
        response = session.execute(
            ComponentRequest(
                implementation="register", attributes={"size": size}, use_cache=False
            )
        )
        assert response.ok
    stats = service.generation_stats()
    _assert_generation_accounting(stats)
    assert stats["expand"]["entries"] <= 2
    assert stats["synth"]["entries"] <= 2
    assert stats["flows"]["entries"] <= 2
    assert stats["optimize"]["entries"] <= 8
    assert stats["flows"]["evictions"] >= 2


def test_cached_clone_survives_template_deletion(service):
    session = service.create_session()
    request = ComponentRequest(implementation="register", attributes={"size": 3})
    first = session.execute(request).value["instance"]
    service.delete_instance(first)
    assert first not in service.instances
    clone = session.execute(request)
    assert clone.ok and clone.cached
    name = clone.value["instance"]
    assert name in service.instances
    service.materialize_artifacts(name)
    assert service.store.path_of(name, "delay") is not None


def test_cached_layout_is_isolated_from_template(service):
    """A request_layout on a cached clone must not leak into later clones."""
    session = service.create_session()
    request = ComponentRequest(implementation="register", attributes={"size": 4})
    first = session.execute(request).value["instance"]
    session.execute(LayoutRequest(name=first, alternative=1)).unwrap()
    later = session.execute(request)
    assert later.cached
    assert session.instance(later.value["instance"]).layout is None
    assert session.instance(later.value["instance"]).target == "logic"


def test_facade_request_component_uses_cache(icdb):
    first = icdb.request_component(implementation="register", attributes={"size": 4})
    second = icdb.request_component(implementation="register", attributes={"size": 4})
    assert not first.cached and second.cached
    assert second.name != first.name
    assert second.netlist is first.netlist
    assert second.render_delay() == first.render_delay()


def test_cached_clone_artifacts_carry_their_own_name(icdb, tmp_path):
    """A clone shares the template's netlist but its VHDL entity, VHDL head
    and flat IIF header must all use the clone's instance name."""
    first = icdb.request_component(implementation="register", attributes={"size": 2})
    second = icdb.request_component(implementation="register", attributes={"size": 2})
    assert second.cached
    vhdl = second.vhdl_netlist()
    assert f"entity {second.name} is" in vhdl
    assert first.name not in vhdl
    assert f"component {second.name}" in second.vhdl_head()
    assert second.flat_milo().startswith(f"NAME={second.name};")
    # The persisted files match what the instance reports (the legacy
    # facade keeps the classic eager artifact persistence).
    from pathlib import Path

    assert f"entity {second.name} is" in Path(second.files["vhdl"]).read_text()
    assert Path(second.files["flat_iif"]).read_text().startswith(f"NAME={second.name};")
    # Architecture bodies are identical and rendered once (shared cache).
    assert second.render_cache is first.render_cache


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


def test_request_layout_updates_design_files_row_instead_of_duplicating(icdb):
    """Regression: every request_layout used to insert a fresh cif row."""
    instance = icdb.request_component(implementation="register", attributes={"size": 2})
    for _ in range(3):
        icdb.request_layout(instance.name, alternative=1)
    rows = icdb.database.table(DESIGN_FILES).select(
        {"instance": instance.name, "kind": "cif"}
    )
    assert len(rows) == 1
    assert rows[0]["path"] == instance.files["cif"]


def test_start_design_requires_a_name(icdb):
    with pytest.raises(IcdbError):
        icdb.start_a_design("")
    response = icdb.service.execute(DesignOp(op="start_design"))
    assert not response.ok
    assert icdb.database.table("designs").get(name="") is None


def test_function_query_rejects_unknown_want(icdb):
    with pytest.raises(IcdbError):
        icdb.function_query(["ADD"], want="implementatoin")
    response = icdb.service.execute(FunctionQuery(functions=("ADD",), want="bogus"))
    assert not response.ok
    assert "bogus" in response.error.message


# ---------------------------------------------------------------------------
# CQL executes through wire-serializable typed requests
# ---------------------------------------------------------------------------


def test_every_cql_command_goes_through_a_round_tripped_request(icdb):
    executed = []
    original = icdb.service.execute

    def spying_execute(request, session=None):
        executed.append(request)
        return original(request, session)

    icdb.service.execute = spying_execute
    try:
        executor = CqlExecutor(icdb)
        executor.execute_text("command: start_a_design; design: proj")
        executor.execute_text("command: start_a_transaction; design: proj")
        created = executor.execute_text(
            "command: request_component; component_name: counter; function: (INC);"
            "attribute: (size:3); clock_width: 40; instance: ?s"
        )
        executor.execute_text(
            "command: component_query; component: counter; implementation: ?s[]"
        )
        executor.execute_text(
            "command: function_query; function: (INC); implementation: ?s[]"
        )
        executor.execute_text(
            "command: instance_query; instance: %s; delay: ?s", [created["instance"]]
        )
        executor.execute_text(
            "command: connect_component; instance: %s; connect: ?s",
            [created["instance"]],
        )
        executor.execute_text(
            "command: request_component; instance: %s; alternative: 1; CIF_layout: ?s",
            [created["instance"]],
        )
        executor.execute_text(
            "command: put_in_component_list; design: proj; instance: %s",
            [created["instance"]],
        )
        executor.execute_text("command: end_a_transaction; design: proj")
        executor.execute_text("command: end_a_design; design: proj")
    finally:
        del icdb.service.execute

    kinds = {request.kind for request in executed}
    assert kinds == {
        "component_query",
        "function_query",
        "instance_query",
        "request_component",
        "request_layout",
        "design_op",
    }
    # Every dispatched request is itself wire-reconstructable.
    for request in executed:
        assert isinstance(request, Request)
        assert request_from_dict(json.loads(json.dumps(request.to_dict()))) == request
