"""Tests for :mod:`repro.obs`: metrics, structured logs, admin console --
and the silent-failure regressions this PR pins down:

* job lifecycle durations derive from monotonic clock pairs, so a
  wall-clock (NTP) step mid-job cannot produce negative queue/run times;
* dropped job-event pushes and shutdown errors are counted and logged
  instead of vanishing in bare ``except`` blocks;
* the ``JobStatus`` long-poll honours terminal-state-wins over a
  simultaneous timeout, pinned with a scripted clock.
"""

from __future__ import annotations

import io
import json
import logging
import threading
import time

import pytest

from repro.api import ComponentService, ComponentRequest, GetMetrics, InstanceQuery
from repro.api.messages import SubmitJob
from repro.api.service import JobRecord
from repro.components import standard_catalog
from repro.net.client import connect
from repro.net.server import FrameDispatcher, serve
from repro.obs import (
    Clock,
    ManualClock,
    MetricsExporter,
    MetricsRegistry,
    RequestLog,
    get_logger,
    validate_snapshot,
)
from repro.obs.admin import main as admin_main, render_dashboard


# ---------------------------------------------------------------------------
# Clock seam
# ---------------------------------------------------------------------------


def test_system_clock_axes():
    clock = Clock()
    assert abs(clock.time() - time.time()) < 5.0
    first = clock.monotonic()
    assert clock.monotonic() >= first


def test_manual_clock_is_scriptable():
    clock = ManualClock(wall=100.0, mono=5.0)
    assert clock.time() == 100.0
    assert clock.monotonic() == 5.0
    clock.advance(2.5)
    assert clock.time() == 102.5
    assert clock.monotonic() == 7.5
    # An NTP step moves wall time only -- never the monotonic axis.
    clock.step_wall(-50.0)
    assert clock.time() == 52.5
    assert clock.monotonic() == 7.5


def test_manual_clock_auto_tick():
    clock = ManualClock(mono=0.0, auto_tick=0.125)
    assert clock.monotonic() == 0.0
    assert clock.monotonic() == 0.125
    assert clock.monotonic() == 0.25


# ---------------------------------------------------------------------------
# Instruments and registry
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("c") is counter  # get-or-create

    gauge = registry.gauge("g")
    gauge.set(7.5)
    assert gauge.value == 7.5
    registry.gauge("g2", lambda: 42)
    assert registry.gauge("g2").value == 42
    registry.gauge("g3", lambda: 1 / 0)
    assert registry.gauge("g3").value == 0  # a dying gauge reads as 0

    hist = registry.histogram("h", bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["bounds"] == [1.0, 10.0]
    assert snap["counts"] == [1, 1, 1]
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(55.5)
    assert snap["min"] == 0.5 and snap["max"] == 50.0
    with pytest.raises(ValueError):
        registry.histogram("empty", bounds=())


def test_counter_increments_survive_a_thread_race():
    counter = MetricsRegistry().counter("raced")
    threads = [
        threading.Thread(target=lambda: [counter.inc() for _ in range(2000)])
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 16000


def test_registry_snapshot_collectors_prefixes_and_histogram_toggle():
    clock = ManualClock(wall=123.0)
    registry = MetricsRegistry(clock=clock)
    registry.counter("requests.total").inc(3)
    registry.gauge("live", lambda: 2)
    registry.histogram("lat", bounds=(1.0,)).observe(0.5)
    registry.register_collector("cache", lambda: {"hits": 4, "by_stage": {"a": 1}})
    registry.register_collector("broken", lambda: 1 / 0)

    snap = validate_snapshot(registry.snapshot())
    assert snap["time"] == 123.0
    assert snap["counters"]["requests.total"] == 3
    assert snap["counters"]["cache.hits"] == 4
    assert snap["counters"]["cache.by_stage.a"] == 1  # nested maps flatten
    assert not any(k.startswith("broken") for k in snap["counters"])
    assert snap["gauges"]["live"] == 2
    assert snap["histograms"]["lat"]["count"] == 1

    filtered = registry.snapshot(prefixes=("cache.",))
    assert set(filtered["counters"]) == {"cache.hits", "cache.by_stage.a"}
    assert filtered["gauges"] == {} and filtered["histograms"] == {}

    light = registry.snapshot(include_histograms=False)
    assert light["histograms"] == {}
    assert light["counters"]["requests.total"] == 3


def test_validate_snapshot_rejects_malformed_exports():
    good = MetricsRegistry().snapshot()
    validate_snapshot(good)
    with pytest.raises(ValueError):
        validate_snapshot([])
    with pytest.raises(ValueError):
        validate_snapshot({k: v for k, v in good.items() if k != "counters"})
    with pytest.raises(ValueError):
        validate_snapshot({**good, "version": 999})
    with pytest.raises(ValueError):
        validate_snapshot({**good, "counters": {"x": "NaN-ish"}})
    with pytest.raises(ValueError):
        validate_snapshot(
            {**good, "histograms": {"h": {"bounds": [1.0], "counts": [1]}}}
        )
    with pytest.raises(ValueError):
        validate_snapshot(
            {
                **good,
                "histograms": {
                    "h": {"bounds": [1.0], "counts": [1, 2], "count": 99}
                },
            }
        )


def test_metrics_exporter_writes_valid_atomic_snapshots(tmp_path):
    registry = MetricsRegistry()
    registry.counter("n").inc(9)
    path = tmp_path / "metrics.json"
    exporter = MetricsExporter(registry, path, interval=30.0)
    exporter.write_once()
    on_disk = json.loads(path.read_text())
    assert validate_snapshot(on_disk)["counters"]["n"] == 9
    assert not path.with_suffix(".json.tmp").exists()

    registry.counter("n").inc()
    exporter.start()
    with pytest.raises(RuntimeError):
        exporter.start()  # double-start is a bug, not a second thread
    exporter.stop(write_final=True)
    assert json.loads(path.read_text())["counters"]["n"] == 10
    with pytest.raises(ValueError):
        MetricsExporter(registry, path, interval=0.0)


# ---------------------------------------------------------------------------
# Structured logs
# ---------------------------------------------------------------------------


def test_structured_logger_emits_json_events(caplog):
    logger = get_logger("repro.test.obs")
    assert get_logger("repro.test.obs") is logger
    with caplog.at_level(logging.DEBUG, logger="repro.test.obs"):
        logger.debug("push_drop", peer="1.2.3.4", error="boom")
        logger.warning("slow", elapsed_ms=12.5, weird=object())
    records = [json.loads(r.message) for r in caplog.records]
    assert records[0]["event"] == "push_drop"
    assert records[0]["peer"] == "1.2.3.4"
    assert records[1]["event"] == "slow"
    assert "object" in records[1]["weird"]  # non-JSON values fall back to repr


def test_request_log_lines_and_slow_threshold():
    stream = io.StringIO()
    log = RequestLog(stream=stream, slow_ms=10.0, clock=ManualClock(wall=777.0))
    log.record(
        kind="simulate",
        session_id="s1",
        ok=True,
        elapsed_ms=3.25,
        cached=True,
        cache_hits_delta=1,
    )
    log.record(
        kind="request_component",
        session_id="s1",
        ok=False,
        elapsed_ms=50.0,
        error_code="GENERATION_FAILED",
        cache_misses_delta=1,
        extra_field={"nested": True},
    )
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert lines[0] == {
        "ts": 777.0,
        "event": "request",
        "kind": "simulate",
        "session": "s1",
        "ok": True,
        "error": None,
        "elapsed_ms": 3.25,
        "cached": True,
        "cache_hits_delta": 1,
        "cache_misses_delta": 0,
        "slow": False,
    }
    assert lines[1]["slow"] is True
    assert lines[1]["error"] == "GENERATION_FAILED"
    assert lines[1]["extra_field"] == {"nested": True}


def test_request_log_slow_only_and_path_mode(tmp_path):
    path = tmp_path / "req.log"
    log = RequestLog(path=str(path), slow_ms=10.0, slow_only=True)
    log.record(kind="a", session_id="s", ok=True, elapsed_ms=1.0)
    log.record(kind="b", session_id="s", ok=True, elapsed_ms=99.0)
    log.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["kind"] for line in lines] == ["b"]
    # Append mode: a restarted server extends the log.
    log2 = RequestLog(path=str(path))
    log2.record(kind="c", session_id="s", ok=True, elapsed_ms=1.0)
    log2.close()
    assert len(path.read_text().splitlines()) == 2


def test_request_log_constructor_and_sink_failure_rules(tmp_path):
    with pytest.raises(ValueError):
        RequestLog()  # neither sink
    with pytest.raises(ValueError):
        RequestLog(stream=io.StringIO(), path=str(tmp_path / "x"))  # both
    with pytest.raises(ValueError):
        RequestLog(stream=io.StringIO(), slow_only=True)  # threshold missing
    with pytest.raises(ValueError):
        RequestLog(stream=io.StringIO(), flush_every=0)  # no batch size
    stream = io.StringIO()
    log = RequestLog(stream=stream)
    stream.close()
    # A dead sink must never fail the request path -- neither buffering
    # a record nor draining the batch into the closed stream.
    log.record(kind="a", session_id="s", ok=True, elapsed_ms=1.0)
    log.flush()


def test_request_log_batches_lines_until_flush():
    stream = io.StringIO()
    log = RequestLog(stream=stream, slow_ms=100.0, flush_every=4)
    for _ in range(3):
        log.record(kind="a", session_id="s", ok=True, elapsed_ms=1.0)
    assert stream.getvalue() == ""  # below the batch size: buffered
    log.record(kind="a", session_id="s", ok=True, elapsed_ms=1.0)
    assert len(stream.getvalue().splitlines()) == 4  # boundary drains
    log.record(kind="a", session_id="s", ok=True, elapsed_ms=1.0)
    assert len(stream.getvalue().splitlines()) == 4  # buffered again
    # A slow outlier never waits in the buffer (and carries the
    # buffered lines out with it, in order).
    log.record(kind="slowpoke", session_id="s", ok=True, elapsed_ms=250.0)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 6
    assert json.loads(lines[-1])["kind"] == "slowpoke"
    assert json.loads(lines[-1])["slow"] is True
    log.record(kind="a", session_id="s", ok=True, elapsed_ms=1.0)
    log.flush()  # explicit drain for readers
    assert len(stream.getvalue().splitlines()) == 7


# ---------------------------------------------------------------------------
# Service instrumentation and the GetMetrics request
# ---------------------------------------------------------------------------


@pytest.fixture()
def obs_service(tmp_path):
    stream = io.StringIO()
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / "store",
        request_log=RequestLog(stream=stream, slow_ms=0.0),
    )
    return service, stream


def test_execute_counts_and_logs_every_request(obs_service):
    service, stream = obs_service
    session = service.create_session()
    ok = service.execute(
        ComponentRequest(
            implementation="register", attributes={"size": 4}, detail="summary"
        ),
        session,
    )
    assert ok.ok
    again = service.execute(
        ComponentRequest(
            implementation="register", attributes={"size": 4}, detail="summary"
        ),
        session,
    )
    assert again.cached
    bad = service.execute(InstanceQuery(name="no_such_instance"), session)
    assert not bad.ok

    snap = service.execute(GetMetrics(), session).value
    counters = snap["counters"]
    assert counters["requests.total"] == 3  # snapshot precedes its own count
    assert counters["requests.kind.request_component"] == 2
    assert counters["requests.cached"] == 1
    assert counters["requests.errors"] == 1
    assert counters["requests.error." + (bad.error.code or "")] == 1
    assert snap["histograms"]["request.latency_ms"]["count"] == 3

    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert [line["kind"] for line in lines][:3] == [
        "request_component",
        "request_component",
        "instance_query",
    ]
    assert lines[0]["cache_misses_delta"] == 1 and lines[0]["ok"] is True
    assert lines[1]["cache_hits_delta"] == 1 and lines[1]["cached"] is True
    assert lines[2]["error"] == bad.error.code
    assert all(line["slow"] for line in lines)  # slow_ms=0 marks everything


def test_simulation_and_verify_counters(obs_service):
    service, _ = obs_service
    session = service.create_session()
    built = session.request_component(
        implementation="ripple_carry_adder", attributes={"size": 2}
    )
    name = built.name
    from repro.api.messages import CheckEquivalence, Simulate

    assert service.execute(
        Simulate(name=name, vectors=({"I0[0]": 1},)), session
    ).ok
    assert service.execute(CheckEquivalence(name=name), session).ok
    counters = service.metrics.snapshot()["counters"]
    assert counters["sim.requests"] == 1
    assert counters["sim.vectors"] == 1
    assert counters["verify.checks"] == 1


def test_get_metrics_rides_the_job_path(obs_service):
    service, _ = obs_service
    session = service.create_session()
    response = service.execute(SubmitJob(request=GetMetrics()), session)
    assert response.ok
    descriptor = service.jobs.status(
        str(response.value["job_id"]), wait=True, timeout_ms=30_000
    )
    assert descriptor["state"] == "done"
    assert descriptor["response"]["value"]["version"] == 1
    assert descriptor["queue_ms"] >= 0.0
    assert descriptor["run_ms"] >= 0.0
    service.jobs.shutdown()


# ---------------------------------------------------------------------------
# Bugfix 1: monotonic job durations survive wall-clock steps
# ---------------------------------------------------------------------------


def test_job_durations_come_from_monotonic_pairs_not_wall_time(tmp_path):
    clock = ManualClock(wall=1000.0, mono=50.0)
    service = ComponentService(store_root=tmp_path / "store", clock=clock)
    manager = service.jobs
    record = JobRecord("job-x", service.default_session, GetMetrics(), "", False, 8, clock=clock)
    assert record.submitted_at == 1000.0
    assert record.submitted_mono == 50.0

    clock.advance(2.0)  # 2 s in the queue
    clock.step_wall(-3600.0)  # NTP yanks the wall clock back an hour...
    record.started_at = clock.time()
    record.started_mono = clock.monotonic()
    clock.advance(1.0)  # 1 s running
    record.finished_at = clock.time()
    record.finished_mono = clock.monotonic()

    descriptor = manager._descriptor_locked(record)
    # Wall timestamps dutifully show the step (display truth)...
    assert descriptor["started_at"] < descriptor["submitted_at"]
    # ...but durations come from the monotonic pairs and stay exact.
    assert descriptor["queue_ms"] == pytest.approx(2000.0)
    assert descriptor["run_ms"] == pytest.approx(1000.0)
    service.jobs.shutdown()


def test_queued_cancel_reports_queue_time_only(tmp_path):
    clock = ManualClock()
    service = ComponentService(store_root=tmp_path / "store", clock=clock)
    record = JobRecord("job-q", service.default_session, GetMetrics(), "", False, 8, clock=clock)
    clock.advance(0.5)
    record.finished_at = clock.time()
    record.finished_mono = clock.monotonic()
    descriptor = service.jobs._descriptor_locked(record)
    assert descriptor["queue_ms"] == pytest.approx(500.0)
    assert "run_ms" not in descriptor
    service.jobs.shutdown()


def test_real_job_descriptor_carries_nonnegative_durations(tmp_path):
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "store"
    )
    session = service.create_session()
    handle = session.submit(
        ComponentRequest(
            implementation="register", attributes={"size": 4}, detail="summary"
        )
    )
    descriptor = handle.wait(30)
    assert descriptor["state"] == "done"
    assert descriptor["queue_ms"] >= 0.0
    assert descriptor["run_ms"] >= 0.0
    counters = service.metrics.snapshot()["counters"]
    assert counters["jobs.done"] >= 1
    histograms = service.metrics.snapshot()["histograms"]
    assert histograms["jobs.queue_ms"]["count"] >= 1
    assert histograms["jobs.run_ms"]["count"] >= 1
    service.jobs.shutdown()


# ---------------------------------------------------------------------------
# Bugfix 2: silent drops are counted and logged
# ---------------------------------------------------------------------------


def test_dropped_push_is_counted_and_logged(tmp_path, caplog):
    service = ComponentService(store_root=tmp_path / "store")

    def failing_push(payload):
        raise BrokenPipeError("peer went away")

    dispatcher = FrameDispatcher(service, push=failing_push)
    dispatcher.session = service.default_session
    with caplog.at_level(logging.DEBUG, logger="repro.net.server"):
        dispatcher._push_event({"job_id": "job-1", "seq": 3})  # must not raise
    assert service.metrics.counter("net.push_drops").value == 1
    events = [json.loads(r.message) for r in caplog.records]
    assert any(
        e["event"] == "push_drop" and e["job_id"] == "job-1" for e in events
    )
    service.jobs.shutdown()


def test_job_event_drop_is_counted_not_swallowed(tmp_path):
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "store"
    )
    session = service.create_session()
    service.jobs.subscribe(
        session.session_id, lambda event: (_ for _ in ()).throw(RuntimeError("dead"))
    )
    handle = session.submit(
        ComponentRequest(
            implementation="register", attributes={"size": 4}, detail="summary"
        )
    )
    assert handle.wait(30)["state"] == "done"
    # At least submit/start/end events each hit the dead subscriber.
    assert service.metrics.counter("jobs.event_drops").value >= 3
    service.jobs.shutdown()


def test_shutdown_errors_are_counted(tmp_path, caplog):
    server = serve(service=ComponentService(store_root=tmp_path / "store"), port=0)

    class DeadSocket:
        def shutdown(self, how):
            raise OSError("already gone")

        def close(self):
            raise OSError("already gone")

    with server._live_lock:
        server._live.add(DeadSocket())
    with caplog.at_level(logging.DEBUG, logger="repro.net.server"):
        server.stop()
    assert server.service.metrics.counter("net.shutdown_errors").value >= 2
    events = [json.loads(r.message) for r in caplog.records]
    assert any(e["event"] == "shutdown_error" for e in events)


# ---------------------------------------------------------------------------
# Bugfix 3: the JobStatus long-poll with a scripted clock
# ---------------------------------------------------------------------------


@pytest.fixture()
def gated_service(tmp_path):
    """A service whose InstanceQuery('block') blocks until released, on a
    scripted clock: the deterministic stage for wait/timeout tests."""
    clock = ManualClock(auto_tick=0.001)
    service = ComponentService(store_root=tmp_path / "store", clock=clock)
    gate = threading.Event()
    original = service._dispatch

    def gated_dispatch(request, session):
        if isinstance(request, InstanceQuery) and request.name == "block":
            assert gate.wait(30)
        return original(request, session)

    service._dispatch = gated_dispatch
    yield service, clock, gate
    gate.set()
    service.jobs.shutdown()


def _wait_for_state(manager, job_id, state, deadline_s=10.0):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if manager.status(job_id)["state"] == state:
            return
        time.sleep(0.002)
    raise AssertionError(f"job {job_id} never reached {state!r}")


def test_status_timeout_is_deterministic_on_the_scripted_clock(gated_service):
    service, clock, gate = gated_service
    session = service.create_session()
    descriptor = service.jobs.submit(InstanceQuery(name="block"), session)
    job_id = str(descriptor["job_id"])
    _wait_for_state(service.jobs, job_id, "running")
    # auto_tick moves the scripted monotonic clock past the deadline on
    # the very first re-check: E_TIMEOUT without any real sleeping.
    with pytest.raises(Exception) as excinfo:
        service.jobs.status(job_id, wait=True, timeout_ms=0.5)
    assert getattr(excinfo.value, "code", "") == "TIMEOUT"
    # The job survives its waiter's timeout.
    assert service.jobs.status(job_id)["state"] == "running"
    gate.set()
    final = service.jobs.status(job_id, wait=True, timeout_ms=30_000)
    assert final["state"] in ("done", "failed")


def test_terminal_state_wins_over_a_simultaneous_timeout(gated_service):
    """The lost-wakeup audit, pinned: the wait loop re-checks the job
    state under the lock *before* the deadline, so a job that is already
    terminal answers its descriptor even when the deadline has long
    passed -- never a spurious E_TIMEOUT."""
    service, clock, gate = gated_service
    session = service.create_session()
    gate.set()  # job runs straight through
    descriptor = service.jobs.submit(InstanceQuery(name="block"), session)
    job_id = str(descriptor["job_id"])
    _wait_for_state(service.jobs, job_id, "failed")  # no such instance
    clock.advance(3600.0)  # any later deadline is already hopelessly past
    final = service.jobs.status(job_id, wait=True, timeout_ms=1.0)
    assert final["state"] == "failed"


# ---------------------------------------------------------------------------
# Admin console
# ---------------------------------------------------------------------------


def test_render_dashboard_pure():
    snapshot = {
        "version": 1,
        "time": 1_700_000_000.0,
        "counters": {
            "requests.total": 1234,
            "requests.errors": 2,
            "net.sessions_created": 20,
            "cache.result.hits": 80,
            "cache.result.lookups": 100,
            "cache.result.entries": 12,
            "gencache.expand.hits": 5,
            "gencache.expand.lookups": 10,
            "gencache.expand.entries": 4,
            "jobs.running": 1,
            "jobs.queued": 2,
            "jobs.workers": 4,
            "jobs.submitted": 50,
            "net.push_drops": 1,
        },
        "gauges": {"net.sessions": 3, "net.sessions_attached": 2},
        "histograms": {
            "request.latency_ms": {
                "bounds": [1.0, 10.0, 100.0],
                "counts": [600, 500, 130, 4],
                "count": 1234,
                "sum": 5000.0,
                "min": 0.05,
                "max": 250.0,
            }
        },
    }
    text = render_dashboard(snapshot, address="example:7361", req_per_s=41.5)
    assert "example:7361" in text
    assert "total      1,234" in text
    assert "41.5" in text
    assert "errors 2" in text
    assert "hit 80.0%" in text  # result cache
    assert "gen expand" in text
    assert "push drops 1" in text
    # Quantiles: p50 falls in the second bucket, p95 in the third.
    assert "p50 <=    10.00 ms" in text
    assert "p95 <=   100.00 ms" in text
    # Warming-up frame: no rate yet.
    assert "req/s    --" in render_dashboard(snapshot)
    # No fleet attached, no jobs overflowed: the fleet section is absent
    # but the inline-overflow counter always renders (zero here).
    assert "fleet" not in render_dashboard(snapshot)
    assert "inline    0" in render_dashboard(snapshot)


def test_render_dashboard_fleet_section():
    snapshot = {
        "version": 1,
        "time": 1_700_000_000.0,
        "counters": {
            "requests.total": 10,
            "jobs.inline_overflows": 3,
            "fleet.workers_live": 4,
            "fleet.restarts": 1,
            "fleet.dispatched": 120,
            "fleet.completed": 118,
            "fleet.failed": 1,
            "fleet.requeues": 2,
            "fleet.fallbacks": 1,
            "fleet.installs": 236,
            "fleet.coalesced": 9,
        },
        "gauges": {},
        "histograms": {},
    }
    text = render_dashboard(snapshot, address="example:7361")
    assert "fleet      workers   4" in text
    assert "restarts   1" in text
    assert "dispatched     120" in text
    assert "done     118" in text
    assert "failed    1" in text
    assert "requeues    2" in text
    assert "installs     236" in text
    assert "coalesced     9" in text
    assert "inline    3" in text


def test_admin_console_once_and_json_over_tcp(tmp_path, capsys):
    server = serve(
        service=ComponentService(
            catalog=standard_catalog(fresh=True), store_root=tmp_path / "store"
        ),
        port=0,
    )
    try:
        client = connect(server.host, server.port, client="warmup")
        client.execute(
            ComponentRequest(
                implementation="register", attributes={"size": 4}, detail="summary"
            )
        )
        client.close()
        argv = ["--host", server.host, "--port", str(server.port)]
        assert admin_main(argv + ["--once", "--plain"]) == 0
        text = capsys.readouterr().out
        assert "ICDB admin console" in text
        assert "requests   total" in text

        assert admin_main(argv + ["--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        validate_snapshot(snapshot)
        assert snapshot["counters"]["requests.total"] >= 1
    finally:
        server.stop()


def test_admin_console_rejects_bad_interval():
    with pytest.raises(SystemExit):
        admin_main(["--interval", "0"])


def test_remote_metrics_prefix_filter_over_tcp(tmp_path):
    server = serve(service=ComponentService(store_root=tmp_path / "store"), port=0)
    try:
        client = connect(server.host, server.port)
        snap = client.metrics(prefixes=("jobs",), include_histograms=False)
        assert snap["histograms"] == {}
        assert snap["counters"]
        assert all(name.startswith("jobs") for name in snap["counters"])
        client.close()
    finally:
        server.stop()
