"""Tests for :mod:`repro.fleet`: bundles, dispatch, warming, survival.

The dispatcher runs real ``python -m repro.fleet.worker`` children (a
fleet starts in a few hundred milliseconds), so dispatch, coalescing,
restart and shutdown are exercised over the same pipes a server uses.
The SIGKILL-every-child-mid-generation story lives in
``test_fleet_chaos.py``.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ComponentRequest, ComponentService, PlanQuery, WarmCache
from repro.api.query import QuerySpec, TypePredicate, pareto
from repro.components import standard_catalog
from repro.constraints import Constraints
from repro.core.gencache import GenerationCache
from repro.iif.flat import CombAssign, SeqAssign
from repro.fleet import BUNDLE_STAGES, FleetDispatcher, compute_bundle, install_bundle
from repro.fleet import dispatcher as dispatcher_module
from repro.fleet.worker import READY
from repro.techlib import standard_cells
from repro.techlib.cells import CellLibraryError
from repro.wire import fields


def _service(tmp_path, tag="store", **kwargs):
    return ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / tag, **kwargs
    )


@pytest.fixture()
def fleet_rig(tmp_path):
    """A service with a two-child fleet attached."""
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 2)
    service.attach_fleet(fleet)
    yield service, fleet
    fleet.close()
    service.jobs.shutdown()


def _await_workers_ready(fleet, count):
    """Wait until ``count`` children have booted (the constructor returns
    while they boot)."""
    deadline = time.monotonic() + 30.0
    while fleet.stats()["workers_ready"] < count and time.monotonic() < deadline:
        time.sleep(0.005)
    assert fleet.stats()["workers_ready"] == count


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def test_bundle_roundtrip_is_byte_identical(tmp_path):
    """A bundle computed elsewhere replays locally as a warm, identical hit."""
    producer = ComponentService(catalog=standard_catalog(fresh=True))
    consumer = _service(tmp_path, "consumer")
    reference = _service(tmp_path, "reference")

    implementation = producer.catalog.get("alu")
    constraints = Constraints(clock_width=200.0)
    bundle = compute_bundle(
        producer.generator, implementation, {"size": 6}, constraints, name="alu_x"
    )
    assert isinstance(bundle, bytes)

    installed = install_bundle(
        consumer.generator, bundle, consumer.catalog.get("alu"), {"size": 6}, constraints
    )
    assert installed == 3  # expand + synth + flows

    warm = consumer.create_session().request_component(
        implementation="alu",
        parameters={"size": 6},
        constraints=constraints,
        instance_name="alu_x",
    )
    cold = reference.create_session().request_component(
        implementation="alu",
        parameters={"size": 6},
        constraints=constraints,
        instance_name="alu_x",
    )
    # The warmed consumer never ran a flow of its own.
    flows = consumer.generation_stats()["flows"]
    assert flows["misses"] == 0 and flows["hits"] >= 1
    assert warm.summary() == cold.summary()
    assert warm.vhdl_netlist() == cold.vhdl_netlist()
    assert warm.render_delay() == cold.render_delay()


def test_install_bundle_is_first_writer_wins(tmp_path):
    producer = ComponentService(catalog=standard_catalog(fresh=True))
    consumer = _service(tmp_path, "consumer")
    implementation = producer.catalog.get("mux4")
    bundle = compute_bundle(producer.generator, implementation, {"size": 4}, None)
    task = (consumer.catalog.get("mux4"), {"size": 4}, None)
    assert install_bundle(consumer.generator, bundle, *task) == 3
    # The same entries again: every key is already present, nothing stored.
    assert install_bundle(consumer.generator, bundle, *task) == 0


def test_bundle_references_the_standard_library(tmp_path):
    """Installed netlists point at the receiver's own library and cells."""
    producer = ComponentService(catalog=standard_catalog(fresh=True))
    consumer = _service(tmp_path, "consumer")
    bundle = compute_bundle(
        producer.generator, producer.catalog.get("counter"), {"size": 8}, None, name="c8"
    )
    task = (consumer.catalog.get("counter"), {"size": 8}, None)
    assert install_bundle(consumer.generator, bundle, *task) == 3
    instance = consumer.create_session().request_component(
        implementation="counter", parameters={"size": 8}, instance_name="c8"
    )
    assert consumer.generation_stats()["flows"]["misses"] == 0
    library = consumer.cell_library
    assert instance.netlist.library is library
    for gate in instance.netlist.all_instances():
        assert gate.cell is library.cell(gate.cell.name)
        assert not hasattr(gate, "__dict__")


def test_foreign_library_bundle_raises_before_storing(tmp_path, monkeypatch):
    """A bundle mapped onto another standard library stores nothing."""
    producer = ComponentService(catalog=standard_catalog(fresh=True))
    consumer = _service(tmp_path, "consumer")
    library = standard_cells()
    with monkeypatch.context() as patch:
        # Producer and consumer share this process's library object: a
        # different fingerprint while it packs is what a child built on
        # another library ships.
        patch.setattr(library, "_fingerprint", library.fingerprint() ^ 1)
        bundle = compute_bundle(
            producer.generator, producer.catalog.get("alu"), {"size": 5}, None
        )
    with pytest.raises(CellLibraryError):
        install_bundle(consumer.generator, bundle, consumer.catalog.get("alu"), {"size": 5}, None)
    stats = consumer.generation_stats()
    assert [stats[stage]["entries"] for stage in BUNDLE_STAGES] == [0, 0, 0]


# ---------------------------------------------------------------------------
# Install by merge
# ---------------------------------------------------------------------------


def _constraints(clock_width):
    return Constraints(clock_width=clock_width) if clock_width else None


def _bundle(implementation, size, clock_width, name):
    """A bundle as a fresh child computes it, on its own netlists."""
    producer = ComponentService(catalog=standard_catalog(fresh=True))
    return compute_bundle(
        producer.generator,
        producer.catalog.get(implementation),
        {"size": size},
        _constraints(clock_width),
        name=name,
    )


def _answer(response):
    """What two services must answer alike: neither store paths nor timings."""
    assert response.ok, response.error
    value = response.value
    if "candidates" in value:  # a plan; its explain block times the stages
        return value["candidates"], value["front"]
    return {key: val for key, val in value.items() if key != "files"}


def _assert_replays_like_in_process(consumer, reference, requests):
    """Each ``(implementation, size, clock width, name)`` replays warm on
    ``consumer`` and answers what ``reference`` generates in process."""
    for implementation, size, clock_width, name in requests:
        misses = consumer.generation_stats()["flows"]["misses"]
        request = ComponentRequest(
            implementation=implementation,
            parameters={"size": size},
            constraints=_constraints(clock_width),
            instance_name=name,
        )
        warm = consumer.execute(request)
        cold = reference.execute(request)
        assert consumer.generation_stats()["flows"]["misses"] == misses
        assert _answer(warm) == _answer(cold)
        warm, cold = consumer.instances.get(name), reference.instances.get(name)
        assert warm.vhdl_netlist() == cold.vhdl_netlist()
        assert warm.render_delay() == cold.render_delay()


@pytest.mark.parametrize("widths", [(None, 20.0), (20.0, None)])
def test_bundles_of_one_family_merge_onto_one_synth_netlist(tmp_path, widths):
    """Two children's bundles of one family, installed in either order:
    the server keeps one synth netlist, and both flows' netlists are it
    or its clone, sharing its net tuples."""
    consumer = _service(tmp_path, "consumer")
    counter = consumer.catalog.get("counter")
    generator = consumer.generator
    for width in widths:
        bundle = _bundle("counter", 6, width, f"c_{width}")
        installed = install_bundle(generator, bundle, counter, {"size": 6}, _constraints(width))
        assert installed == (3 if width == widths[0] else 1)  # then only the flow
    cache = generator.generation_cache
    assert [len(cache.stage(stage)) for stage in BUNDLE_STAGES] == [1, 1, 2]
    keys = {
        width: generator.stage_keys(counter, {"size": 6}, _constraints(width) or Constraints())
        for width in widths
    }
    synthesized = cache.synth.peek(keys[None][1])
    synth = synthesized.netlist
    unsized, sized = (cache.flows.peek(keys[width][2]) for width in (None, 20.0))
    assert unsized[2] is synthesized.shape and sized[2] is not synthesized.shape
    unsized, sized = unsized[0], sized[0]
    nets = {gate.name: gate.nets for gate in synth.all_instances()}
    assert unsized is synth
    assert sized is not synth and sized.instances.keys() == nets.keys()
    assert all(gate.nets is nets[gate.name] for gate in sized.all_instances())
    assert any(gate.size > 1.0 for gate in sized.all_instances())
    _assert_replays_like_in_process(
        consumer,
        _service(tmp_path, "reference"),
        [("counter", 6, width, f"c_{width}") for width in widths],
    )


def test_bundle_installs_after_its_family_was_evicted(tmp_path):
    """With its expand and synth entries evicted (and its first flow kept),
    a family's next bundle installs them again and replays warm."""
    consumer = _service(
        tmp_path, "consumer", generation_cache=GenerationCache(max_expansions=1, max_netlists=1)
    )
    reference = _service(tmp_path, "reference")
    counter = consumer.catalog.get("counter")
    generator = consumer.generator
    bundle = _bundle("counter", 6, 20.0, "c20")
    assert install_bundle(generator, bundle, counter, {"size": 6}, _constraints(20.0)) == 3
    _assert_replays_like_in_process(consumer, reference, [("counter", 6, 20.0, "c20")])
    # Another family, generated in process, takes the only expand and
    # synth slots.
    alu = ComponentRequest(implementation="alu", parameters={"size": 4}, instance_name="alu4")
    assert _answer(consumer.execute(alu)) == _answer(reference.execute(alu))
    cache = generator.generation_cache
    assert cache.expand.peek(generator.expand_key(counter, {"size": 6})) is None
    assert cache.synth.stats()["evictions"] == 1
    bundle = _bundle("counter", 6, 40.0, "c40")
    assert install_bundle(generator, bundle, counter, {"size": 6}, _constraints(40.0)) == 3
    _assert_replays_like_in_process(
        consumer, reference, [("counter", 6, 40.0, "c40"), ("counter", 6, 20.0, "c20_again")]
    )


#: Plans whose families recur at several clock widths, so bundles of one
#: family arrive while the server already holds its expansion.  The
#: synthesized counters meet every width but the last, for which the
#: sizer upsizes gates.
CENSUS_PLANS = (
    ("Counter", None), ("ALU", None), ("Counter", 20.0), ("ALU", 30.0), ("Counter", 40.0),
    ("Counter", 18.0),
)


def _census_plan(family, clock_width):
    return PlanQuery(
        query=QuerySpec(
            select=(TypePredicate(component=family),),
            sweep=(("size", (2, 4)),),
            constraints=_constraints(clock_width),
            objective=pareto("area", "delay"),
        )
    )


def _census(service):
    """Distinct objects behind the designs ``service`` holds: its stage
    memos (keys and values) and its registered instances."""
    cache = service.generator.generation_cache
    netlists, flats, reports, records, shapes, areas = {}, {}, {}, {}, {}, {}

    def keep(table, *objects):
        table.update((id(obj), obj) for obj in objects)

    keep(flats, *cache.expand._entries.values())
    for (signature, _), synthesized in cache.synth._entries.items():
        keep(netlists, synthesized.netlist)
        if synthesized.shape is not None:
            keep(shapes, synthesized.shape)
        keep(records, *signature[3])
    for ((signature, _), *_), flow in cache.flows._entries.items():
        keep(netlists, flow[0])
        keep(reports, flow[1])
        keep(shapes, flow[2])
        keep(areas, flow[3])
        keep(records, *signature[3])
    for name in service.instances.names():
        instance = service.instances.get(name)
        keep(netlists, instance.netlist)
        keep(flats, instance.flat)
        keep(reports, instance.delay_report)
        keep(shapes, instance.shape)
        keep(areas, instance.area_record)
    for flat in flats.values():
        keep(records, *flat.assigns)
    for shape in shapes.values():
        keep(areas, *shape.alternatives)
    gates = {id(gate): gate for netlist in netlists.values() for gate in netlist.all_instances()}
    names = {}
    strings = []
    for netlist in netlists.values():
        strings += [*netlist.inputs, *netlist.outputs, *netlist.instances]
    for gate in gates.values():
        strings += [gate.name, *gate.nets]
    for flat in flats.values():
        strings += flat.signals()
    for record in records.values():
        strings.append(record.target)
        if isinstance(record, CombAssign):
            strings += record.expr.support()
        else:
            for expression in (record.data, record.clock, *(a.condition for a in record.asyncs)):
                strings += expression.support()
    for report in reports.values():
        strings += [*report.clock_to_output, *report.setup_times, *report.comb_delays]
    for string in strings:
        names.setdefault(string, set()).add(id(string))
    return {
        "names": len(names),
        "name strings": sum(len(objects) for objects in names.values()),
        "GateNetlist": len(netlists),
        "GateInstance": len(gates),
        "net tuples": len({id(gate.nets) for gate in gates.values()}),
        "CombAssign": sum(isinstance(r, CombAssign) for r in records.values()),
        "SeqAssign": sum(isinstance(r, SeqAssign) for r in records.values()),
        "ShapeFunction": len(shapes),
        "AreaRecord": len(areas),
    }


def test_fleet_installed_designs_cost_what_local_ones_do(fleet_rig, tmp_path):
    """The same cold plans through a two-child fleet and in process leave
    the same objects behind: one string per gate or net name, and as many
    netlists, gates, net tuples, assignment records, shape functions and
    area records."""
    service, fleet = fleet_rig
    twin = _service(tmp_path, "twin")
    try:
        for family, clock_width in CENSUS_PLANS:
            request = _census_plan(family, clock_width)
            assert _answer(service.execute(request)) == _answer(twin.execute(request))
        stats = fleet.stats()
        assert stats["dispatched"] == stats["completed"] > 0 and stats["fallbacks"] == 0
        held, local = _census(service), _census(twin)
        assert held["name strings"] == held["names"], held
        assert held == local
    finally:
        twin.jobs.shutdown()


def test_flows_at_unit_drive_share_their_synthesized_netlist_and_shape(tmp_path):
    """In process, the census plans leave one netlist per synthesis plus
    one per flow whose sizer moved a gate, and one shape function per
    netlist: every flow the sizer leaves at unit drive shares both."""
    service = _service(tmp_path)
    try:
        for family, clock_width in CENSUS_PLANS:
            assert service.execute(_census_plan(family, clock_width)).ok
        cache = service.generator.generation_cache
        moved = [
            flow
            for flow in cache.flows._entries.values()
            if any(gate.size != 1.0 for gate in flow[0].all_instances())
        ]
        census = _census(service)
        assert moved and len(cache.synth) == len(cache.expand)
        assert census["GateNetlist"] == len(cache.synth) + len(moved)
        assert census["ShapeFunction"] == census["GateNetlist"]
    finally:
        service.jobs.shutdown()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_prewarm_without_workers_falls_back(tmp_path):
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 0)
    service.attach_fleet(fleet)
    try:
        session = service.create_session()
        instance = session.request_component(
            implementation="alu", parameters={"size": 4}, instance_name="local"
        )
        assert instance.name == "local"
        stats = fleet.stats()
        assert stats["workers_live"] == 0
        assert stats["fallbacks"] >= 1
        assert stats["dispatched"] == 0
    finally:
        fleet.close()
        service.jobs.shutdown()


def test_request_component_dispatches_and_replays_warm(fleet_rig, tmp_path):
    service, fleet = fleet_rig
    session = service.create_session()
    instance = session.request_component(
        implementation="alu", parameters={"size": 7}, instance_name="fleet_a"
    )
    stats = fleet.stats()
    assert stats["dispatched"] == 1
    assert stats["completed"] == 1
    assert stats["installs"] >= 1
    assert stats["fallbacks"] == 0
    # The server replayed the generation as a warm hit: zero flow misses.
    flows = service.generation_stats()["flows"]
    assert flows["misses"] == 0 and flows["hits"] >= 1
    # Byte-identity against a plain single-process service.
    reference = _service(tmp_path, "ref").create_session().request_component(
        implementation="alu", parameters={"size": 7}, instance_name="fleet_a"
    )
    assert instance.summary() == reference.summary()
    assert instance.vhdl_netlist() == reference.vhdl_netlist()
    # Registered exactly once, on the server.
    assert session.instances.names() == ["fleet_a"]


def test_failed_install_is_a_counted_fallback(fleet_rig, tmp_path, monkeypatch):
    """A bundle that does not install leaves the request to local
    generation, byte-identical, counted as a fallback."""
    service, fleet = fleet_rig

    def foreign(generator, bundle, implementation, parameters, constraints):
        raise CellLibraryError("bundle mapped onto another standard library")

    monkeypatch.setattr(dispatcher_module, "install_bundle", foreign)
    instance = service.create_session().request_component(
        implementation="alu", parameters={"size": 5}, instance_name="alien"
    )
    stats = fleet.stats()
    assert stats["completed"] == 1
    assert stats["installs"] == 0
    assert stats["fallbacks"] == 1
    assert service.generation_stats()["flows"]["misses"] == 1
    reference = _service(tmp_path, "ref").create_session().request_component(
        implementation="alu", parameters={"size": 5}, instance_name="alien"
    )
    assert instance.summary() == reference.summary()
    assert instance.vhdl_netlist() == reference.vhdl_netlist()


def test_error_answer_falls_back_without_retry(fleet_rig):
    """A task the child cannot compute would fail locally too: no retry."""
    service, fleet = fleet_rig
    alu = service.catalog.get("alu")
    values = {f.name: getattr(alu, f.name) for f in fields(alu)}
    ghost = type(alu)(**dict(values, name="no_such_alu"))
    assert fleet.prewarm(ghost, {"size": 4}, None) is False
    stats = fleet.stats()
    assert stats["completed"] == 1
    assert stats["fallbacks"] == 1
    assert stats["requeues"] == 0 and stats["restarts"] == 0


def test_prewarm_skips_already_warm_flows(fleet_rig):
    service, fleet = fleet_rig
    session = service.create_session()
    session.request_component(
        implementation="mux2", parameters={"size": 2}, instance_name="m1"
    )
    dispatched = fleet.stats()["dispatched"]
    # Identical signature under a new name: the memo is warm, the
    # dispatcher must not ship it again.
    session.request_component(
        implementation="mux2",
        parameters={"size": 2},
        instance_name="m2",
        use_cache=False,
    )
    assert fleet.stats()["dispatched"] == dispatched


def test_concurrent_identical_prewarms_coalesce(fleet_rig):
    service, fleet = fleet_rig
    implementation = service.catalog.get("alu")
    constraints = Constraints(clock_width=200.0)
    barrier = threading.Barrier(8)
    results = []

    def warm():
        barrier.wait()
        results.append(
            fleet.prewarm(implementation, {"size": 64}, constraints, name="big")
        )

    threads = [threading.Thread(target=warm) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the racing claims finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = fleet.stats()
    # One elaboration shipped, not eight.
    assert stats["dispatched"] == 1
    assert stats["fallbacks"] == 0
    # The owner and every caller that joined it report the install; a
    # caller arriving after it found the flow warm and had nothing to do.
    assert len(results) == 8
    assert results.count(True) == 1 + stats["coalesced"]
    before = service.generation_stats()["flows"]["misses"]
    service.create_session().request_component(
        implementation="alu",
        parameters={"size": 64},
        constraints=constraints,
        instance_name="big",
    )
    assert service.generation_stats()["flows"]["misses"] == before


def test_idle_child_death_restarts_without_charging_the_task(tmp_path):
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 1)
    try:
        _await_workers_ready(fleet, 1)  # the death under test is an idle one
        child = fleet._children[0]
        child.kill()
        child.wait()
        warmed = fleet.prewarm(
            service.catalog.get("alu"),
            {"size": 9},
            Constraints(clock_width=200.0),
            name="x",
        )
        assert warmed is True
        stats = fleet.stats()
        assert stats["restarts"] == 1
        # Replaced before the send: one attempt, no requeue.
        assert stats["dispatched"] == 1
        assert stats["requeues"] == 0
        assert stats["completed"] == 1
        assert stats["workers_live"] == 1
    finally:
        fleet.close()
        service.jobs.shutdown()


def test_task_fails_after_max_attempts_and_falls_back(tmp_path, monkeypatch):
    """Children that die on every task: the task is sent MAX_ATTEMPTS
    times, then fails, and the caller falls back."""
    ready = pickle.dumps(READY)
    script = (
        f"import os, sys; sys.stdout.buffer.write({ready!r}); "
        "sys.stdout.flush(); sys.stdin.buffer.read(1); os._exit(1)"
    )
    monkeypatch.setattr(
        dispatcher_module,
        "_spawn",
        lambda: subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        ),
    )
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 1)
    try:
        assert fleet.prewarm(service.catalog.get("mux2"), {"size": 2}, None) is False
        stats = fleet.stats()
        assert stats["dispatched"] == dispatcher_module.MAX_ATTEMPTS
        assert stats["requeues"] == dispatcher_module.MAX_ATTEMPTS - 1
        assert stats["failed"] == 1
        assert stats["fallbacks"] == 1
        assert stats["completed"] == 0
        assert stats["restarts"] >= dispatcher_module.MAX_ATTEMPTS - 1
    finally:
        fleet.close()
        service.jobs.shutdown()


def test_silent_child_is_replaced_after_the_task_timeout(
    tmp_path, monkeypatch, started_processes
):
    """A child that never answers is killed like a dead one; its caller
    falls back once the task timeout passes."""
    ready = pickle.dumps(READY)
    script = (
        f"import sys, time; sys.stdout.buffer.write({ready!r}); "
        "sys.stdout.flush(); time.sleep(60)"
    )
    monkeypatch.setattr(dispatcher_module, "TASK_TIMEOUT", 0.5)
    monkeypatch.setattr(
        dispatcher_module,
        "_spawn",
        lambda: subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        ),
    )
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 1)
    try:
        begun = time.monotonic()
        assert fleet.prewarm(service.catalog.get("mux2"), {"size": 2}, None) is False
        assert time.monotonic() - begun < 5.0
        deadline = time.monotonic() + 10.0
        while fleet.stats()["restarts"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fleet.stats()["restarts"] >= 1
        assert started_processes[0].returncode is not None  # killed and reaped
    finally:
        fleet.close()
        service.jobs.shutdown()
    assert all(child.returncode is not None for child in started_processes)


def test_slot_that_cannot_restart_retires(tmp_path, monkeypatch):
    """With no slot left, queued work fails at once and later calls fall
    back without queueing."""
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 1)
    try:
        # Ready, so the feed thread sees the death only when work arrives,
        # after the replacement's executable is broken.
        _await_workers_ready(fleet, 1)
        child = fleet._children[0]
        child.kill()
        child.wait()
        monkeypatch.setattr(sys, "executable", "/bin/false")
        alu = service.catalog.get("alu")
        assert fleet.prewarm(alu, {"size": 9}, None, name="x") is False
        stats = fleet.stats()
        assert stats["workers_live"] == 0
        assert stats["restarts"] == 0
        assert stats["dispatched"] == 0
        assert stats["failed"] == 1
        assert stats["fallbacks"] == 1
        assert fleet.prewarm(alu, {"size": 10}, None, name="y") is False
        stats = fleet.stats()
        assert stats["failed"] == 1
        assert stats["fallbacks"] == 2
    finally:
        fleet.close()
        service.jobs.shutdown()


def test_child_that_cannot_start_retires_its_slot(
    tmp_path, monkeypatch, started_processes, caplog
):
    """A child that never reports ready is handled like one that died:
    one replacement, then the slot retires.  The constructor does not
    wait or raise, callers fall back long before the boot timeout, no
    child outlives close(), and every boot failure names the child's
    exit status, however soon its closed stdout is read."""
    monkeypatch.setattr(sys, "executable", "/bin/false")
    caplog.set_level(logging.WARNING, logger="repro.fleet.dispatcher")
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 2)
    try:
        begun = time.monotonic()
        assert fleet.prewarm(service.catalog.get("mux2"), {"size": 2}, None) is False
        assert time.monotonic() - begun < dispatcher_module.BOOT_TIMEOUT / 10
        stats = fleet.stats()
        assert stats["workers_live"] == 0 and stats["workers_ready"] == 0
        assert stats["dispatched"] == 0 and stats["restarts"] == 0
        assert stats["fallbacks"] == 1
    finally:
        fleet.close()
        service.jobs.shutdown()
    assert len(started_processes) == 4  # per slot: its child, one replacement
    assert all(child.returncode is not None for child in started_processes)
    failures = [
        event["error"]
        for event in (
            json.loads(record.message)
            for record in caplog.records
            if record.name == "repro.fleet.dispatcher"
        )
        if event["event"] == "fleet_worker_failed_to_start"
    ]
    assert len(failures) == 4 and all("exit 1)" in error for error in failures), failures


def test_prewarm_during_boot_waits_for_a_child(tmp_path, monkeypatch):
    """Work that arrives before any child is ready queues for the first
    one that boots instead of falling back."""
    booted = threading.Event()
    await_ready = dispatcher_module._await_ready

    def held(child, deadline):
        booted.wait(30)
        await_ready(child, deadline)

    monkeypatch.setattr(dispatcher_module, "_await_ready", held)
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 2)
    outcome = {}

    def warm():
        outcome["warmed"] = fleet.prewarm(
            service.catalog.get("alu"), {"size": 6}, None, name="early"
        )

    runner = threading.Thread(target=warm)
    try:
        runner.start()
        deadline = time.monotonic() + 30.0
        while not fleet._queue and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(fleet._queue) == 1
        assert fleet.stats()["workers_ready"] == 0
        booted.set()
        runner.join(60)
        assert not runner.is_alive()
        assert outcome["warmed"] is True
        stats = fleet.stats()
        assert stats["dispatched"] == 1
        assert stats["fallbacks"] == 0
    finally:
        booted.set()
        runner.join(60)
        fleet.close()
        service.jobs.shutdown()


def test_children_share_the_process_group_and_ignore_sigint(
    tmp_path, started_processes
):
    """A server's group kill reaches its children; Ctrl-C does not stop
    them mid-task, closing their stdin does (exit 0)."""
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 2)
    try:
        _await_workers_ready(fleet, 2)  # a booting child still stops on SIGINT
        for child in started_processes:
            assert os.getpgid(child.pid) == os.getpgid(0)
            child.send_signal(signal.SIGINT)
        assert fleet.prewarm(
            service.catalog.get("alu"), {"size": 6}, None, name="s"
        ) is True
        assert fleet.stats()["restarts"] == 0
    finally:
        fleet.close()
        service.jobs.shutdown()
    assert [child.returncode for child in started_processes] == [0, 0]


def test_close_fails_pending_work_and_reaps(tmp_path, started_processes):
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 1)
    fleet.close()
    assert started_processes[0].returncode == 0  # exited on stdin EOF, reaped
    assert fleet.stats()["workers_live"] == 0
    # Closed dispatcher degrades to local generation, never raises.
    assert (
        fleet.prewarm(
            service.catalog.get("mux2"), {"size": 2}, Constraints(), name="m"
        )
        is False
    )
    service.jobs.shutdown()


def test_close_mid_batch_returns_callers_at_once(tmp_path):
    service = _service(tmp_path)
    fleet = FleetDispatcher(service, 1)
    requests = [
        ComponentRequest(
            implementation="alu", parameters={"size": size}, instance_name=f"c{size}"
        )
        for size in range(100, 108)
    ]
    outcome = {}

    def batch():
        outcome["warmed"] = fleet.prewarm_requests(requests)

    runner = threading.Thread(target=batch)
    runner.start()
    try:
        deadline = time.monotonic() + 30.0
        while fleet.stats()["dispatched"] == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert fleet.stats()["dispatched"] >= 1
        started = time.monotonic()
        fleet.close()
        runner.join(30)
        assert not runner.is_alive()
        # Queued tasks failed at once; the running one got the close grace.
        assert time.monotonic() - started < dispatcher_module.CLOSE_GRACE + 5.0
        # Every request either warmed or fell back: none was left waiting.
        assert outcome["warmed"] + fleet.stats()["fallbacks"] == len(requests)
    finally:
        fleet.close()
        runner.join(30)
        service.jobs.shutdown()


# ---------------------------------------------------------------------------
# Warming
# ---------------------------------------------------------------------------


def test_warm_cache_in_process(tmp_path):
    """warm_cache with no fleet warms the local stage memos."""
    service = _service(tmp_path)
    response = service.execute(
        WarmCache(
            entries=(
                {"implementation": "alu", "parameters": {"size": 6}},
                {"component": "counter", "attributes": {"size": 4}},
            )
        )
    )
    assert response.ok
    assert response.value["errors"] == []
    assert response.value["warmed"] >= 2
    before = service.generation_stats()["flows"]
    service.create_session().request_component(
        implementation="alu", parameters={"size": 6}, instance_name="warm_1"
    )
    after = service.generation_stats()["flows"]
    assert after["misses"] == before["misses"]  # pure warm replay
    service.jobs.shutdown()


def test_warm_cache_reports_bad_entries(tmp_path):
    service = _service(tmp_path)
    response = service.execute(
        WarmCache(
            entries=(
                {"implementation": "no_such_thing"},
                {"parameters": {"size": 2}},  # neither implementation nor component
            )
        )
    )
    assert response.ok
    assert response.value["warmed"] == 0
    assert len(response.value["errors"]) == 2
    service.jobs.shutdown()


def test_warm_cache_warms_through_the_fleet(fleet_rig):
    """On a fleet server a warmed entry is computed by a child, and the
    warm-skip set learns it: the later request dispatches nothing."""
    service, fleet = fleet_rig
    response = service.execute(
        WarmCache(entries=({"implementation": "alu", "parameters": {"size": 6}},))
    )
    assert response.ok
    assert response.value == {"warmed": 1, "errors": []}
    stats = fleet.stats()
    assert stats["dispatched"] == 1
    assert stats["installs"] >= 1
    service.create_session().request_component(
        implementation="alu", parameters={"size": 6}, instance_name="after_warm"
    )
    assert fleet.stats()["dispatched"] == 1
    assert service.generation_stats()["flows"]["misses"] == 0


def test_plan_fanout_prewarms_through_fleet(fleet_rig):
    service, fleet = fleet_rig
    requests = [
        ComponentRequest(
            implementation="alu",
            parameters={"size": size},
            instance_name=f"sweep_{size}",
        )
        for size in (11, 12, 13)
    ]
    warmed = fleet.prewarm_requests(requests)
    assert warmed == 3
    stats = fleet.stats()
    assert stats["dispatched"] >= 3
    assert stats["installs"] >= 3
    # The replay is now pure warm hits, one per point.
    session = service.create_session()
    before = service.generation_stats()["flows"]["misses"]
    for request in requests:
        assert session.execute(request).ok
    assert service.generation_stats()["flows"]["misses"] == before
