"""Concurrency stress: 16 threaded clients hammering one ICDB server.

Mixed cached / uncached ``request_component`` traffic plus design
transactions from every client, over real TCP connections.  Asserts the
properties the shared-state design guarantees:

* no cross-session instance-name collisions, and every successful
  response's instance is registered exactly once;
* result-cache hit accounting stays consistent under races
  (``hits + misses == lookups``, hits equal cached responses);
* ``Response`` timing metadata and the ``cached`` flag are trustworthy
  under concurrent execution (the satellite fix of this PR: the counters
  move atomically under the cache lock).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro.api import ComponentRequest, ComponentService
from repro.components import standard_catalog
from repro.constraints import Constraints
from repro.net import connect, serve

CLIENTS = 16
ROUNDS = 6


@pytest.fixture()
def stress_server(tmp_path):
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "stress"
    )
    server = serve(service=service, port=0)
    yield server
    server.stop()


def test_sixteen_clients_mixed_traffic(stress_server):
    service = stress_server.service
    results = [None] * CLIENTS
    errors = []

    def client_worker(index: int) -> None:
        try:
            client = connect(
                stress_server.host, stress_server.port, client=f"stress-{index}"
            )
            design = f"design_{index}"
            client.start_a_design(design)
            client.start_a_transaction()
            names = []
            records = []  # (cached flag, elapsed_ms) per successful response
            for round_no in range(ROUNDS):
                # Cached traffic: same signature from every client.
                shared = client.execute(
                    ComponentRequest(
                        implementation="register",
                        attributes={"size": 4},
                        detail="summary",
                    )
                )
                assert shared.ok
                names.append(shared.value["instance"])
                records.append((shared.cached, shared.elapsed_ms))
                # A second signature lane, pipelined.
                for response in client.execute_batch(
                    [
                        ComponentRequest(
                            implementation="mux2",
                            attributes={"size": 2 + (index % 3)},
                            detail="summary",
                        )
                    ],
                    repeat=2,
                ):
                    assert response.ok
                    names.append(response.value["instance"])
                    records.append((response.cached, response.elapsed_ms))
                # Uncached traffic on the first round only (it is slow).
                if round_no == 0 and index % 4 == 0:
                    fresh = client.execute(
                        ComponentRequest(
                            implementation="register",
                            attributes={"size": 4},
                            use_cache=False,
                            detail="summary",
                        )
                    )
                    assert fresh.ok and not fresh.cached
                    names.append(fresh.value["instance"])
                    records.append((fresh.cached, fresh.elapsed_ms))
            # Transactions: keep the first instance, drop the rest.
            client.put_in_component_list(names[0])
            removed = client.end_a_transaction()
            assert names[0] not in removed
            assert client.component_list() == [names[0]]
            client.close()
            results[index] = (names, records, removed)
        except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
            errors.append((index, exc))

    threads = [
        threading.Thread(target=client_worker, args=(i,)) for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not errors, f"client failures: {errors!r}"
    assert all(result is not None for result in results)

    all_names = [name for names, _, _ in results for name in names]
    all_records = [record for _, records, _ in results for record in records]

    # --- no cross-session instance-name collisions -------------------------
    duplicates = [name for name, count in Counter(all_names).items() if count > 1]
    assert not duplicates, f"instance names served twice: {duplicates}"

    # --- registry and database agree on the survivors ----------------------
    removed_total = {name for _, _, removed in results for name in removed}
    survivors = set(all_names) - removed_total
    assert survivors == set(service.instances.names())
    instances_table = service.database.table("instances")
    assert {row["name"] for row in instances_table.select()} == survivors

    # --- cache-hit accounting is consistent under races --------------------
    stats = service.cache.stats()
    assert stats["hits"] + stats["misses"] == stats["lookups"]
    assert stats["entries"] <= stats["stores"]
    assert stats["entries"] == stats["stores"] - stats["evictions"]
    cached_responses = sum(1 for cached, _ in all_records if cached)
    assert stats["hits"] == cached_responses
    # Per signature lane at least one generation ran uncached-by-miss; the
    # deliberate use_cache=False traffic never touched the cache.
    use_cache_false = CLIENTS // 4  # one per index % 4 == 0 client
    lookups_expected = len(all_records) - use_cache_false
    assert stats["lookups"] == lookups_expected

    # --- timing metadata survives concurrency ------------------------------
    assert all(elapsed >= 0.0 for _, elapsed in all_records)
    assert any(elapsed > 0.0 for _, elapsed in all_records)

    # --- the same invariants hold THROUGH the metrics export ----------------
    # GetMetrics over the wire must answer the authoritative in-process
    # numbers (the registry pulls the caches' own stats() surfaces at
    # snapshot time), not a parallel count that can drift.  All client
    # traffic is finished, so the export must match stats() exactly.
    observer = connect(stress_server.host, stress_server.port, client="observer")
    try:
        snap = observer.metrics()
    finally:
        observer.close()
    counters = snap["counters"]
    for key in ("hits", "misses", "lookups", "stores", "evictions", "entries"):
        assert counters[f"cache.result.{key}"] == stats[key], key
    assert (
        counters["cache.result.hits"] + counters["cache.result.misses"]
        == counters["cache.result.lookups"]
        == lookups_expected
    )
    assert (
        counters["cache.result.entries"]
        == counters["cache.result.stores"] - counters["cache.result.evictions"]
    )
    gen_stats = service.generation_stats()
    for stage, expected in gen_stats.items():
        for key in ("hits", "misses", "lookups"):
            assert counters[f"gencache.{stage}.{key}"] == expected[key], (stage, key)
        assert (
            counters[f"gencache.{stage}.hits"] + counters[f"gencache.{stage}.misses"]
            == counters[f"gencache.{stage}.lookups"]
        )
    # Every request that reached the service was counted and timed; with
    # all other clients closed (and the snapshot taken before the
    # GetMetrics request itself is counted) the two totals must agree.
    latency = snap["histograms"]["request.latency_ms"]
    assert latency["count"] == counters["requests.total"]
    assert sum(latency["counts"]) == latency["count"]
    assert counters["requests.cached"] == cached_responses
    assert counters.get("requests.errors", 0) == 0
    # The observer's own hello shows up in the session gauges.
    assert counters["net.sessions_created"] == CLIENTS + 1


def test_generation_cache_invariants_under_worker_pool(tmp_path):
    """Cold (use_cache=False) traffic racing through the job worker pool:
    the stage-level generation cache must keep its accounting invariants
    (hits + misses == lookups, entries == stores - evictions per stage),
    serve byte-identical artifacts to every session, and never leak an
    unregistered instance."""
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "genstress",
        job_workers=4,
    )
    sessions = [service.create_session(client=f"gen-{i}") for i in range(8)]
    handles = []
    for index, session in enumerate(sessions):
        for _ in range(3):
            handles.append(
                (
                    index % 3,  # three signature lanes shared across sessions
                    session.submit(
                        ComponentRequest(
                            implementation="alu",
                            attributes={"size": 3 + (index % 3)},
                            use_cache=False,
                            detail="full",
                        )
                    ),
                )
            )
    by_lane = {}
    for lane, handle in handles:
        summary = handle.result(timeout=120)
        assert summary["instance"] in service.instances
        by_lane.setdefault(lane, []).append(summary)
    service.jobs.shutdown()

    # Identical artifacts per signature lane, regardless of which thread
    # generated first and which ones replayed the memo.
    for lane, summaries in by_lane.items():
        reference = summaries[0]
        for other in summaries[1:]:
            for key in ("delay", "area", "shape_function", "cells", "clock_width"):
                assert other[key] == reference[key], (lane, key)

    stats = service.generation_stats()
    for stage, snapshot in stats.items():
        assert snapshot["hits"] + snapshot["misses"] == snapshot["lookups"], stage
        assert snapshot["entries"] == snapshot["stores"] - snapshot["evictions"], stage
    # Three signature lanes -> exactly three flow entries; every request
    # consulted the flow stage exactly once.
    assert stats["flows"]["entries"] == 3
    assert stats["flows"]["lookups"] == len(handles)
    # At worst each lane generated once per concurrent first-arrival, and
    # the remaining requests were memo hits.
    assert stats["flows"]["hits"] >= len(handles) - 3 * 4  # lanes x workers


def test_racing_unit_drive_flows_share_one_shape_function(tmp_path):
    """Flows that leave one synthesized netlist at unit drive and estimate
    at the same time on several workers still share one shape function:
    the first one stored wins."""
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "shapes",
        job_workers=6,
    )
    counter = dict(implementation="counter", parameters={"size": 4}, detail="summary")
    # A width the sizer must work for synthesizes the netlist and leaves
    # its unit-drive shape function to the racing flows.
    service.execute(ComponentRequest(constraints=Constraints(clock_width=18.0), **counter))
    widths = (None, 20.0, 22.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 80.0, 100.0, 120.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        handles = [
            service.create_session(client=f"width-{index}").submit(
                ComponentRequest(
                    constraints=Constraints(clock_width=width) if width else None, **counter
                )
            )
            for index, width in enumerate(widths)
        ]
        names = [handle.result(timeout=60)["instance"] for handle in handles]
    finally:
        sys.setswitchinterval(interval)
        service.jobs.shutdown()
    instances = [service.instances.get(name) for name in names]
    assert len({id(instance.netlist) for instance in instances}) == 1
    assert len({id(instance.shape) for instance in instances}) == 1


def test_local_handles_hold_every_event_of_their_jobs(tmp_path):
    """Local handles collect pushed events on the job-worker threads.

    With more workers than cores and a short switch interval, every
    handle still holds its job's whole event sequence: none is lost
    between buffering (events that outrun ``submit``) and registration.
    """
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "events",
        job_workers=6,
    )
    sessions = [service.create_session(client=f"watch-{i}") for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        handles = [
            session.submit(
                ComponentRequest(
                    implementation="register",
                    attributes={"size": 2 + round_ % 3},
                    detail="summary",
                )
            )
            for round_ in range(6)
            for session in sessions
        ]
        for handle in handles:
            handle.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        service.jobs.shutdown()
    for handle in handles:
        events = handle.events()
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        assert events[0].state == "queued" and events[-1].state == "done"
        assert events[-1].seq == handle.descriptor["seq"]


def test_materialize_races_with_deletion(tmp_path):
    """Concurrent materialization and transaction deletes must not corrupt
    the pending-artifact registry or resurrect deleted instances."""
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "races"
    )
    session = service.create_session()
    template = session.request_component(implementation="register", attributes={"size": 2})

    def churn(index: int) -> None:
        for _ in range(10):
            instance = session.request_component(
                implementation="register", attributes={"size": 2}
            )
            if index % 2:
                service.materialize_artifacts(instance.name)
            service.delete_instance(instance.name)

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert len(service.instances) == 1  # only the template survives
    assert not service._pending_artifacts or set(
        service._pending_artifacts
    ) <= {template.name}


# ---------------------------------------------------------------------------
# Jobs under adversity: disconnects and cancellations
# ---------------------------------------------------------------------------


def _assert_store_and_db_consistent(service, store_baseline=()):
    """Registry, database and file store agree; accounting invariants hold.

    ``store_baseline`` names store entries that predate the scenario (the
    knowledge server persists catalog descriptions at startup).
    """
    registered = set(service.instances.names())
    instances_table = service.database.table("instances")
    assert {row["name"] for row in instances_table.select()} == registered
    # Every artifact directory added by the scenario belongs to a
    # registered instance or to a lazily pending one -- never to a deleted
    # or cancelled job.
    pending = set(service._pending_artifacts)
    for name in set(service.store.instances()) - set(store_baseline):
        assert name in registered or name in pending, f"orphan artifacts: {name}"
    # DESIGN_FILES rows only reference registered instances.
    for row in service.database.table("design_files").select():
        assert row["instance"] in registered
    stats = service.cache.stats()
    assert stats["hits"] + stats["misses"] == stats["lookups"]
    assert stats["entries"] == stats["stores"] - stats["evictions"]


def test_disconnect_mid_job_leaves_no_orphans_and_results_survive(tmp_path):
    """A connection killed with a job in flight must neither corrupt the
    store nor lose the job: the session is resumable and the result is
    intact, with all accounting invariants holding."""
    from jobs_testlib import make_slow_service

    from repro.net.client import attach

    service = make_slow_service(tmp_path / "dmj", delay=0.5)
    store_baseline = set(service.store.instances())
    server = serve(service=service, port=0)
    try:
        client = connect(server.host, server.port, client="victim")
        token = client.session_token
        handle = client.submit_component(
            implementation="register", attributes={"size": 6}, use_cache=False
        )
        # Kill the socket while the job is queued or running -- no bye.
        client.transport.close()

        resumed = attach(server.host, server.port, token)
        summary = resumed.job_handle(handle.job_id).result(timeout=60)
        name = summary["instance"]
        assert name in service.instances
        _assert_store_and_db_consistent(service, store_baseline)
        resumed.close()
    finally:
        server.stop()
        service.jobs.shutdown()


def test_cancel_mid_generation_leaves_no_orphans(tmp_path):
    """Cancelling a running generation frees the worker and leaves nothing:
    no registered instance, no database rows, no files, no cache entry."""
    from jobs_testlib import make_slow_service

    service = make_slow_service(tmp_path / "cmg", delay=1.5, job_workers=1)
    session = service.create_session()
    before_cache = service.cache.stats()
    before_names = set(service.instances.names())
    store_baseline = set(service.store.instances())

    handle = session.submit(
        ComponentRequest(
            implementation="alu", attributes={"size": 6}, use_cache=False
        )
    )
    deadline = time.time() + 30
    while handle.status()["state"] == "queued":
        assert time.time() < deadline
        time.sleep(0.005)
    handle.cancel()
    started_at_cancel = service.generator.slices_started
    final = handle.wait(60)
    # Promptness, counted not timed: the flow stops at its next
    # checkpoint, so at most the slice that had already passed one when
    # cancel() returned may start after it.
    assert service.generator.slices_started - started_at_cancel <= 1
    assert final["state"] == "cancelled"
    response = handle.response()
    assert not response.ok and response.error.code == "CANCELLED"

    # No orphan state anywhere: the generation unwound before registration.
    assert set(service.instances.names()) == before_names
    assert service.database.table("instances").select() == []
    assert service.database.table("design_files").select() == []
    assert set(service.store.instances()) == store_baseline
    after_cache = service.cache.stats()
    assert after_cache["stores"] == before_cache["stores"]
    assert after_cache["entries"] == before_cache["entries"]
    _assert_store_and_db_consistent(service, store_baseline)

    # The worker slot is free: the next job completes promptly.
    follow_up = session.submit(
        ComponentRequest(implementation="mux2", attributes={"size": 2})
    )
    assert follow_up.result(timeout=60)["instance"]
    service.jobs.shutdown()
