"""Fault injection for the fleet: SIGKILL every child mid-generation.

The survival contract under test: worker children dying *while one of
them computes a dispatched elaboration* must not fail the request, must
not register the instance twice, must not leave artifacts from the dead
child's half-finished work in the server's store (children own no
store, so there is nothing to leak -- this test proves that end to end),
and must leave no child behind once the dispatcher closes.
"""

from __future__ import annotations

import signal
import threading
import time

from repro.api import ComponentRequest, ComponentService
from repro.components import standard_catalog
from repro.fleet import FleetDispatcher


def test_sigkill_every_child_mid_generation_still_answers(tmp_path, started_processes):
    store_root = tmp_path / "store"
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=store_root
    )
    fleet = FleetDispatcher(service, 2)
    try:
        service.attach_fleet(fleet)
        session = service.create_session()

        # Big enough that the SIGKILL lands while a child is still
        # elaborating (about half a second of compute).
        request = ComponentRequest(
            implementation="alu", parameters={"size": 128}, instance_name="victim"
        )
        outcome = {}

        def run():
            outcome["response"] = session.execute(request)

        runner = threading.Thread(target=run)
        runner.start()

        # Spin until the task is on a child's stdin, then SIGKILL every
        # child -- mid-generation by construction.
        deadline = time.monotonic() + 30.0
        while fleet.stats()["dispatched"] == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert fleet.stats()["dispatched"] == 1, "dispatch never went inflight"
        for child in list(started_processes):
            child.send_signal(signal.SIGKILL)

        runner.join(120)
        assert not runner.is_alive()
        response = outcome["response"]
        assert response.ok, response.error

        stats = fleet.stats()
        assert stats["requeues"] >= 1  # the orphaned task went to a new child
        assert stats["restarts"] >= 1
        assert stats["completed"] >= 1
        assert stats["workers_live"] == 2

        # Exactly one registered instance -- the retry never double-applied.
        assert session.instances.names() == ["victim"]
        rows = service.database.table("instances").select(
            lambda row: row["name"] == "victim"
        )
        assert len(rows) == 1

        # Zero orphan artifacts: every generated file in the store
        # belongs to the one registered instance (``.iif`` files are the
        # catalog's own seeds, present before any request).
        service.materialize_artifacts()
        generated = {
            path.parent.name
            for path in store_root.rglob("*")
            if path.is_file() and path.suffix != ".iif"
        }
        assert generated == {"victim"}
    finally:
        fleet.close()
        service.jobs.shutdown()
    # No child outlives close(): every one was reaped by the dispatcher.
    assert len(started_processes) >= 3
    assert all(child.returncode is not None for child in started_processes)
