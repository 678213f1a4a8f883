"""The failure story, exercised against injected failures.

Three layers of coverage:

* **Unit**: retry schedule determinism, circuit-breaker transitions on a
  manual clock, the server-side dedupe window, load shedding and the
  ``retry_after_ms`` hints on every ``E_BUSY`` path.
* **Scripted faults** (:class:`~repro.net.chaos.FlakyTransport`): the
  idempotency rules, case by case -- pre-send failures retry anything,
  post-send failures retry only what is provably safe, and a retried
  mutation lands **exactly once** thanks to the ``request_id`` dedupe.
* **Chaos** (:class:`~repro.net.chaos.ChaosProxy`,
  :class:`~repro.net.chaos.ManagedServer`): a real server behind a
  seeded fault-injecting proxy (resets, torn frames, stalls, delays) and
  a SIGKILL-restart cycle, asserting the end-to-end invariants: zero
  duplicate mutations (exact row counts), zero lost acknowledged writes,
  and a relational dump byte-identical to a fault-free run.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from repro.api import (
    ComponentService,
    DatabaseDump,
    E_BUSY,
    E_NOT_FOUND,
    E_UNAVAILABLE,
)
from repro.api.service import RequestDedupe
from repro.core.icdb import IcdbError
from repro.net import RemoteClient, ServerDrained, connect, serve
from repro.net.chaos import ChaosConfig, ChaosProxy, FlakyTransport, ManagedServer, flaky_plan
from repro.net.client import LoopbackTransport
from repro.net.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResilientClient,
    ResilientTransport,
    RetryPolicy,
)
from repro.net.server import EXPENSIVE_KINDS, LoadShedder
from repro.obs.metrics import ManualClock, MetricsRegistry

#: A schedule fast enough for tests but still exercising real backoff.
FAST = RetryPolicy(max_attempts=6, base_backoff_s=0.002, max_backoff_s=0.02, seed=11)


def canonical(dump) -> str:
    return json.dumps(dump, sort_keys=True)


def database_dump(client):
    """The server's whole relational state, read through a typed request."""
    return client.execute(DatabaseDump()).unwrap()


def instance_rows(client):
    """Only the ``instances`` rows: a small answer, so few proxy chunks."""
    dump = client.execute(DatabaseDump(tables=("instances",))).unwrap()
    return dump["tables"]["instances"]["rows"]


# ------------------------------------------------------------------ unit layer


def test_retry_policy_schedule_is_seeded_and_capped():
    policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.5, seed=42)
    first = [policy.backoff_s(n, policy.rng()) for n in range(1, 6)]
    second = [policy.backoff_s(n, policy.rng()) for n in range(1, 6)]
    assert first == second  # same seed, same schedule
    for attempt, delay in enumerate(first, start=1):
        assert 0.0 <= delay <= min(0.5, 0.1 * 2**attempt)
    # Full jitter actually jitters: a fresh stream differs.
    rng = RetryPolicy(seed=7).rng()
    assert [RetryPolicy(seed=7).backoff_s(3, rng)] != [
        RetryPolicy(seed=8).backoff_s(3, RetryPolicy(seed=8).rng())
    ]


def test_circuit_breaker_transitions_on_manual_clock():
    clock = ManualClock()
    metrics = MetricsRegistry(clock=clock)
    breaker = CircuitBreaker(
        failure_threshold=3, reset_after_s=5.0, clock=clock, metrics=metrics
    )
    assert breaker.state == BREAKER_CLOSED and breaker.allow()
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED  # under threshold
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()
    error = breaker.reject()
    assert error.code == E_UNAVAILABLE
    assert error.retry_after_ms is not None and error.retry_after_ms <= 5000.0

    clock.advance(5.0)
    assert breaker.allow()  # the half-open probe
    assert breaker.state == BREAKER_HALF_OPEN
    assert not breaker.allow()  # exactly one probe per cool-down

    breaker.record_failure()  # probe failed: re-open
    assert breaker.state == BREAKER_OPEN
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_success()  # probe succeeded: close
    assert breaker.state == BREAKER_CLOSED and breaker.allow()

    counters = metrics.snapshot()["counters"]
    assert counters["resilience.breaker_opened"] == 2
    assert counters["resilience.breaker_half_open"] == 2
    assert counters["resilience.breaker_closed"] == 1


def test_request_dedupe_caches_success_releases_failure():
    dedupe = RequestDedupe(capacity=4)
    assert dedupe.begin("r1") is None  # first execution reserves
    dedupe.finish("r1", {"ok": True, "value": 1})
    assert dedupe.begin("r1") == {"ok": True, "value": 1}  # replay served

    assert dedupe.begin("r2") is None
    dedupe.finish("r2", None)  # failed: provably did not mutate
    assert dedupe.begin("r2") is None  # so the retry re-executes


def test_request_dedupe_blocks_concurrent_duplicate():
    dedupe = RequestDedupe()
    assert dedupe.begin("dup") is None
    seen = {}

    def duplicate():
        seen["reply"] = dedupe.begin("dup")  # must block until finish()

    thread = threading.Thread(target=duplicate)
    thread.start()
    time.sleep(0.05)
    assert thread.is_alive()  # blocked on the in-flight original
    dedupe.finish("dup", {"ok": True})
    thread.join(timeout=5.0)
    assert seen["reply"] == {"ok": True}


def test_request_dedupe_stays_bounded_behind_an_in_flight_head():
    """One slow mutation at the head must not let completed entries pile
    up: the oldest completed ones are evicted, the in-flight one never."""
    dedupe = RequestDedupe(capacity=4)
    assert dedupe.begin("slow") is None  # stays in flight throughout
    for index in range(100):
        assert dedupe.begin(f"r{index}") is None
        dedupe.finish(f"r{index}", {"ok": True, "value": index})
        assert len(dedupe) <= dedupe.capacity + 1  # + the in-flight one
    # The newest completed entries survive; the oldest were evicted.
    assert dedupe.begin("r99") == {"ok": True, "value": 99}
    assert dedupe.begin("r0") is None
    dedupe.finish("r0", None)

    seen = {}

    def duplicate():
        seen["reply"] = dedupe.begin("slow")  # must block until finish()

    thread = threading.Thread(target=duplicate)
    thread.start()
    time.sleep(0.05)
    assert thread.is_alive()  # the reservation was never evicted
    dedupe.finish("slow", {"ok": True, "value": "slow"})
    thread.join(timeout=5.0)
    assert seen["reply"] == {"ok": True, "value": "slow"}
    # Its late finish records normally and counts as the newest entry.
    assert dedupe.begin("slow") == {"ok": True, "value": "slow"}
    assert len(dedupe) <= dedupe.capacity


class _StubJobs:
    """Just enough JobManager surface for the shedder."""

    def __init__(self, queued: int, max_queued: int = 100, workers: int = 2):
        self.queued = queued
        self.max_queued = max_queued
        self.workers = workers

    def stats(self):
        return {"queued": self.queued}


def test_load_shedder_rejects_expensive_work_first():
    metrics = MetricsRegistry()
    shedder = LoadShedder(_StubJobs(queued=95), threshold=0.9, metrics=metrics)
    hint = shedder.check("request_component")
    assert hint is not None and 100.0 <= hint <= 5000.0
    assert shedder.check("component_query") is None  # cheap reads pass
    assert shedder.check("ping") is None
    assert metrics.snapshot()["counters"]["resilience.shed_requests"] == 1

    relaxed = LoadShedder(_StubJobs(queued=10), threshold=0.9, metrics=metrics)
    assert relaxed.check("request_component") is None  # below the mark
    disabled = LoadShedder(_StubJobs(queued=100), threshold=1.0, metrics=metrics)
    assert disabled.check("simulate") is None  # threshold >= 1.0 disables

    assert "submit_job" in EXPENSIVE_KINDS and "batch" in EXPENSIVE_KINDS


def test_shedding_over_the_wire_answers_busy_with_hint():
    service = ComponentService()
    server = serve(service=service)
    # Make the shared shedder see a saturated job queue without having to
    # wedge real workers: new connections pick it up from the server.
    server.shedder = LoadShedder(
        _StubJobs(queued=95), threshold=0.9, metrics=service.metrics
    )
    try:
        client = connect(server.host, server.port, client="shed")
        with pytest.raises(IcdbError) as excinfo:
            client.request_component(
                implementation="register", attributes={"size": 4}
            )
        assert excinfo.value.code == E_BUSY
        assert excinfo.value.retry_after_ms is not None
        # Cheap reads still answer while expensive work is shed.
        assert client.health()["status"] == "ok"
        client.close()
    finally:
        server.stop()


def test_session_cap_busy_carries_retry_after_hint():
    server = serve(max_sessions=1)
    try:
        first = connect(server.host, server.port, client="holder")
        with pytest.raises(IcdbError) as excinfo:
            connect(server.host, server.port, client="over-cap")
        assert excinfo.value.code == E_BUSY
        assert excinfo.value.retry_after_ms == 1000.0
        first.close()
    finally:
        server.stop()


# ------------------------------------------------------------- scripted faults


def _loopback_resilient(service, plan=None, policy=FAST, **kwargs):
    if plan is None:
        return ResilientClient.wrap(
            lambda: LoopbackTransport(service), policy=policy, **kwargs
        )
    return ResilientClient.wrap(
        lambda: FlakyTransport(LoopbackTransport(service), plan),
        policy=policy,
        **kwargs,
    )


def test_pre_send_failure_retries_mutations():
    service = ComponentService()
    client = _loopback_resilient(service, flaky_plan("pre", "ok"))
    instance = client.request_component(
        implementation="register", attributes={"size": 4}
    )
    rows = instance_rows(client)
    assert [row["name"] for row in rows] == [instance.name]
    assert client.resilience.snapshot()["counters"]["resilience.retries"] == 1
    client.close()


def test_post_send_mutation_retries_and_lands_exactly_once():
    service = ComponentService()
    client = _loopback_resilient(service, flaky_plan("post", "ok"))
    instance = client.request_component(
        implementation="register", attributes={"size": 4}
    )
    # The server executed the original send; the retry was answered from
    # the dedupe window -- one acknowledged write, one row, no duplicate.
    rows = instance_rows(client)
    assert [row["name"] for row in rows] == [instance.name]
    server_counters = service.metrics.snapshot()["counters"]
    assert server_counters["resilience.dedupe_hits"] == 1
    client.close()


def test_post_send_new_name_retry_answers_the_recorded_name():
    # new_name advances the naming counter, so it is a stamped mutation:
    # the retry of a lost reply answers the name the first send drew.
    service = ComponentService()
    client = _loopback_resilient(service, flaky_plan("post", "ok"))
    assert client.instances.new_name("widget") == "widget_1"
    assert client.instances.new_name("widget") == "widget_2"
    assert service.metrics.snapshot()["counters"]["resilience.dedupe_hits"] == 1
    client.close()


def test_post_send_without_request_id_is_not_retried():
    # A plain RemoteClient over the resilient transport: no request_id is
    # stamped, so an ambiguous failure on a mutating request must surface
    # rather than risk a duplicate.
    service = ComponentService()
    plan = flaky_plan("post")
    client = RemoteClient(
        ResilientTransport(
            lambda: FlakyTransport(LoopbackTransport(service), plan), policy=FAST
        ),
        client="bare",
    )
    with pytest.raises(OSError):
        client.request_component(implementation="register", attributes={"size": 4})
    # The server did execute it (the reply was lost after the send) --
    # exactly the ambiguity the error is protecting: no silent retry.
    rows = instance_rows(client)
    assert len(rows) == 1
    client.close()


def test_post_send_idempotent_read_retries_freely():
    service = ComponentService()
    plan = flaky_plan()  # filled after the handshake below
    client = RemoteClient(
        ResilientTransport(
            lambda: FlakyTransport(LoopbackTransport(service), plan), policy=FAST
        ),
        client="reader",
    )
    plan.extend(["post", "ok"])
    matches = client.component_query(component="counter")
    assert matches  # the retry answered
    client.close()


def test_breaker_fails_fast_while_server_is_down():
    def refuse():
        raise OSError("connection refused")

    client_error = None
    breaker = CircuitBreaker(failure_threshold=3, reset_after_s=60.0)
    policy = RetryPolicy(max_attempts=3, base_backoff_s=0.001, max_backoff_s=0.002, seed=5)
    try:
        ResilientClient.wrap(lambda: refuse(), policy=policy, breaker=breaker)
    except OSError as exc:
        client_error = exc
    assert client_error is not None  # attempts exhausted against a dead host
    assert breaker.state == BREAKER_OPEN

    # While open, calls are rejected immediately with E_UNAVAILABLE --
    # no connection attempt, no timeout stacking.
    transport = ResilientTransport(lambda: refuse(), policy=policy, breaker=breaker)
    with pytest.raises(IcdbError) as excinfo:
        RemoteClient(transport, client="fast-fail")
    assert excinfo.value.code == E_UNAVAILABLE


def test_live_job_handles_survive_reconnect():
    service = ComponentService()
    plan = flaky_plan()
    client = _loopback_resilient(service, plan)
    handle = client.submit_component(
        implementation="register", attributes={"size": 6}
    )
    plan.append("pre")  # kill the connection under the status poll
    summary = handle.result(timeout=30.0)
    assert summary["instance"]
    counters = client.resilience.snapshot()["counters"]
    assert counters["resilience.reattaches"] >= 1
    client.close()


def test_goodbye_then_close_raises_server_drained():
    from repro.net.protocol import FRAME_GOODBYE

    service = ComponentService()
    server = serve(service=service)
    try:
        client = connect(server.host, server.port, client="drainee")
        assert client.health()["status"] == "ok"
        # Push the drain announcement to the live connection (exactly what
        # drain() does first) while the server still answers.
        for send in list(server._senders.values()):
            send({"type": FRAME_GOODBYE, "reason": "server draining"})
        assert client.ping() >= 0.0  # goodbye consumed, still served
        server.stop()
        with pytest.raises(ServerDrained) as excinfo:
            client.health()
        assert excinfo.value.code == E_UNAVAILABLE
        assert "drain" in str(excinfo.value)
    finally:
        server.stop()


def test_drain_rejects_new_connections_and_counts():
    service = ComponentService()
    server = serve(service=service)
    client = connect(server.host, server.port, client="existing")
    server.drain(grace=5.0)
    counters = service.metrics.snapshot()["counters"]
    assert counters["resilience.drains"] == 1
    with pytest.raises(OSError):
        connect(server.host, server.port, client="late")
    # The existing connection surfaces a typed E_UNAVAILABLE (a drained
    # close, or a plain connection loss when the RST beat the goodbye).
    with pytest.raises(IcdbError) as excinfo:
        client.health()
    assert excinfo.value.code == E_UNAVAILABLE


def test_health_reports_uptime_jobs_and_drain_state():
    service = ComponentService()
    server = serve(service=service)
    try:
        client = connect(server.host, server.port, client="health")
        report = client.health(echo="marco")
        assert report["status"] == "ok"
        assert report["echo"] == "marco"
        assert report["uptime_s"] >= 0.0
        assert set(report["jobs"]) >= {"queued", "running", "workers"}
        assert report["net"]["draining"] is False
        assert client.ping() >= 0.0
        client.close()
    finally:
        server.stop()


def test_cql_ping_command():
    from repro.cql import CqlExecutor

    service = ComponentService()
    session = service.create_session(client="cql")
    executor = CqlExecutor(session)
    outputs = executor.execute_text(
        "command: ping; echo: marco; status: ?s; health: ?s"
    )
    assert outputs["status"] == "ok"
    assert outputs["health"]["echo"] == "marco"


# ---------------------------------------------------------------- chaos layer


CHAOS = ChaosConfig(
    seed=0,  # overridden per test
    reset_rate=0.04,
    torn_rate=0.02,
    stall_rate=0.04,
    delay_rate=0.10,
    stall_s=0.03,
    delay_s=0.005,
)
CHAOS_WRITES = 12
CHAOS_POLICY = RetryPolicy(
    max_attempts=10, base_backoff_s=0.01, max_backoff_s=0.1, deadline_s=60.0
)


def _chaos_workload(client) -> list:
    """The mutation sequence both the faulted and fault-free runs execute."""
    acked = []
    for index in range(CHAOS_WRITES):
        if index % 3 == 2:
            instance = client.request_component(
                component_name="counter",
                functions=["INC"],
                attributes={"size": 3 + index % 4},
            )
        else:
            instance = client.request_component(
                implementation="register", attributes={"size": 2 + index % 6}
            )
        acked.append(instance.name)
        # Interleave reads so faults also land on idempotent traffic.
        assert client.instance_query(instance.name)["clock_width"] >= 0.0
    return acked


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chaos_proxy_no_duplicates_no_lost_writes(seed, tmp_path):
    # Fault-free reference run: same request sequence, no proxy.  The
    # dumps embed artifact paths under the store root, so each run pins
    # its own root and the comparison normalizes them away.
    reference_service = ComponentService(store_root=tmp_path / "reference")
    reference = ResilientClient.wrap(
        lambda: LoopbackTransport(reference_service), client="reference"
    )
    reference_acked = _chaos_workload(reference)
    golden = canonical(database_dump(reference)).replace(
        str(tmp_path / "reference"), "<root>"
    )
    reference.close()

    service = ComponentService(store_root=tmp_path / "chaos")
    server = serve(service=service)
    proxy = ChaosProxy(
        server.host, server.port, dataclasses.replace(CHAOS, seed=seed)
    )
    try:
        client = ResilientClient.connect(
            proxy.host,
            proxy.port,
            client="chaos",
            timeout=10.0,
            policy=RetryPolicy(
                max_attempts=CHAOS_POLICY.max_attempts,
                base_backoff_s=CHAOS_POLICY.base_backoff_s,
                max_backoff_s=CHAOS_POLICY.max_backoff_s,
                deadline_s=CHAOS_POLICY.deadline_s,
                seed=seed,
            ),
            breaker=CircuitBreaker(failure_threshold=100),
        )
        acked = _chaos_workload(client)

        # Every acknowledged write is present exactly once: no duplicate
        # mutations, no lost acknowledged writes.
        assert acked == reference_acked
        rows = instance_rows(client)
        names = [row["name"] for row in rows]
        assert sorted(names) == sorted(acked)
        assert len(set(names)) == len(names)

        # Byte-identical relational state vs the fault-free run.
        faulted = canonical(database_dump(client)).replace(
            str(tmp_path / "chaos"), "<root>"
        )
        assert faulted == golden
        client.close()
    finally:
        proxy.close()
        server.stop()


def test_chaos_proxy_actually_injects_faults():
    # Sanity-check the harness itself: with aggressive rates the proxy
    # must inject, and the client must still converge to a correct state.
    service = ComponentService()
    server = serve(service=service)
    proxy = ChaosProxy(
        server.host,
        server.port,
        ChaosConfig(seed=9, reset_rate=0.25, torn_rate=0.1, delay_rate=0.2,
                    delay_s=0.002),
    )
    try:
        client = ResilientClient.connect(
            proxy.host, proxy.port, client="storm", timeout=10.0,
            policy=RetryPolicy(max_attempts=12, base_backoff_s=0.01,
                               max_backoff_s=0.1, deadline_s=60.0, seed=9),
            breaker=CircuitBreaker(failure_threshold=1000),
        )
        for _ in range(6):
            client.request_component(implementation="register", attributes={"size": 4})
        rows = instance_rows(client)
        assert len(rows) == 6
        client.close()
    finally:
        total = proxy.total_faults()
        proxy.close()
        server.stop()
    assert total > 0  # the storm was real


@pytest.mark.parametrize("seed", [7])
def test_attach_after_sigkill_restart_on_same_port(tmp_path, seed):
    with ManagedServer(tmp_path / "store") as managed:
        client = ResilientClient.connect(
            managed.host,
            managed.port,
            client="kill-test",
            timeout=10.0,
            policy=RetryPolicy(max_attempts=12, base_backoff_s=0.05,
                               max_backoff_s=0.5, deadline_s=60.0, seed=seed),
        )
        # One acknowledged durable write before the kill.
        instance = client.request_component(
            implementation="register", attributes={"size": 4}
        )
        handle = client.submit_component(
            component_name="counter", functions=["INC"], attributes={"size": 3}
        )
        managed.kill()  # SIGKILL: mid-job, no courtesy
        managed.restart()  # same port, same --data-dir

        # The handle resolves: the restarted server no longer knows the
        # job, so the poll surfaces a typed error (not a hang, not an
        # OSError) after the transport reconnected into a fresh session.
        with pytest.raises(IcdbError) as excinfo:
            handle.result(timeout=30.0)
        assert excinfo.value.code in (E_NOT_FOUND, E_UNAVAILABLE)
        counters = client.resilience.snapshot()["counters"]
        assert counters.get("resilience.sessions_reset", 0) >= 1

        # The acknowledged write survived the kill exactly once, and the
        # client is fully usable on its replacement session.
        rows = instance_rows(client)
        names = [row["name"] for row in rows if row["name"] == instance.name]
        assert names == [instance.name]
        fresh = client.request_component(
            implementation="register", attributes={"size": 8}
        )
        assert fresh.name != instance.name
        client.close()


def test_sigterm_drain_finishes_jobs_and_snapshots(tmp_path):
    managed = ManagedServer(tmp_path / "store", "--drain-grace", "10")
    try:
        client = ResilientClient.connect(
            managed.host, managed.port, client="drain", timeout=10.0
        )
        instance = client.request_component(
            implementation="register", attributes={"size": 5}
        )
        client.close()
        managed.terminate()  # SIGTERM: drain, snapshot, exit

        managed.start()  # reboot over the drained data directory
        snapshot_seq, replayed, last_seq = managed.recovery
        assert snapshot_seq > 0  # the drain snapshot was written
        assert replayed == 0  # nothing left to replay after it
        client2 = connect(managed.host, managed.port, client="after-drain")
        rows = instance_rows(client2)
        assert instance.name in {row["name"] for row in rows}
        client2.close()
    finally:
        managed.close()
