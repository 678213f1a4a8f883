"""The job-oriented async API: scheduler, streaming, sessions, resume.

Covers the v2 service surface end to end:

* local ``JobManager``: submit / status / wait / cancel semantics, FIFO
  dispatch order, bounded queue (``E_BUSY``), bounded retention, wait
  timeouts (``E_TIMEOUT``), byte-identical results between the job path
  and direct execution;
* progress streaming: monotonic event sequences server-side and pushed
  ``job_event`` frames client-side (loopback and TCP);
* session / connection decoupling: ``hello`` issues a resume token,
  ``attach`` rebinds a new connection (jobs and design context survive a
  killed connection), session limits answer ``E_BUSY`` with
  detached-session eviction;
* the server CLI's ``--workers`` / ``--max-sessions`` validation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from jobs_testlib import make_barrier_service, make_gated_service, make_slow_service

from repro.api import (
    CancelJob,
    ComponentRequest,
    ComponentService,
    FunctionQuery,
    JOB_TERMINAL_STATES,
    JobStatus,
    SubmitJob,
)
from repro.components import standard_catalog
from repro.core.icdb import IcdbError
from repro.net import RemoteClient, connect, serve
from repro.net.client import attach

#: The checkout this file belongs to: the CLI tests start its server.
ROOT = Path(__file__).resolve().parents[1]


def _fresh_service(tmp_path, tag="svc", **kwargs):
    return ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / tag, **kwargs
    )


# ---------------------------------------------------------------------------
# Local scheduler semantics
# ---------------------------------------------------------------------------


def test_job_result_value_matches_direct_execution(tmp_path):
    service = _fresh_service(tmp_path)
    session = service.create_session()
    request = ComponentRequest(implementation="register", attributes={"size": 4})
    service.execute(request, session)  # warm the cache: both paths clone

    direct = service.execute(request, session)
    handle = session.submit(request)
    via_job = handle.result(timeout=60)

    def comparable(summary):
        return {k: v for k, v in summary.items() if k not in ("instance", "files")}

    assert json.dumps(comparable(direct.value), sort_keys=True) == json.dumps(
        comparable(via_job), sort_keys=True
    )
    assert handle.state == "done"
    assert handle.instance().name == via_job["instance"]


def test_jobs_dispatch_in_submit_order_per_session(tmp_path):
    service = _fresh_service(tmp_path, job_workers=1)
    session = service.create_session()
    handles = [
        session.submit(
            ComponentRequest(implementation="register", attributes={"size": 2})
        )
        for _ in range(4)
    ]
    for handle in handles:
        handle.wait(60)
    starts = [handle.status()["started_at"] for handle in handles]
    assert starts == sorted(starts), "single-worker jobs must start in FIFO order"


def test_event_history_is_monotonic_and_stateful(tmp_path):
    service = _fresh_service(tmp_path)
    session = service.create_session()
    handle = session.submit(
        ComponentRequest(
            implementation="counter", attributes={"size": 4}, use_cache=False
        )
    )
    handle.wait(60)
    events = handle.events()
    seqs = [event.seq for event in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert events[0].state == "queued"
    assert events[-1].state == "done"
    stages = [event.stage for event in events]
    assert "synthesize" in stages and "size" in stages
    progresses = [event.progress for event in events]
    assert progresses == sorted(progresses), "progress must be monotonic"
    # events_since pagination
    tail = service.jobs.events(handle.job_id, since=seqs[2])
    assert [event["seq"] for event in tail] == seqs[3:]


def test_local_and_loopback_jobs_stream_the_same_events_and_summary(tmp_path):
    spec = dict(implementation="counter", attributes={"size": 4}, use_cache=False)
    local = _fresh_service(tmp_path, "local").create_session()
    remote_service = _fresh_service(tmp_path, "remote")
    client = RemoteClient.loopback(remote_service)
    local_handle = local.submit_component(**spec)
    remote_handle = client.submit_component(**spec)
    assert type(local_handle) is type(remote_handle)
    summaries = [
        json.dumps(handle.result(timeout=60), sort_keys=True).replace(
            str(tmp_path / tag), "<root>"
        )
        for handle, tag in ((local_handle, "local"), (remote_handle, "remote"))
    ]
    assert summaries[0] == summaries[1]

    def stages(handle):
        return [(event.state, event.stage) for event in handle.events()]

    assert stages(local_handle) == stages(remote_handle)
    assert stages(local_handle)[0] == ("queued", "submit")
    assert stages(local_handle)[-1] == ("done", "end")
    # The server-side session behind the loopback never subscribes in
    # process: its events reach the client as pushed frames only.
    assert len(remote_service.jobs._subscribers) == 1
    client.close()


@pytest.mark.parametrize("surface", ["local", "loopback"])
def test_wait_returns_only_after_every_subscriber_holds_the_end_event(tmp_path, surface):
    service = _fresh_service(tmp_path)
    owner = (
        service.create_session() if surface == "local" else RemoteClient.loopback(service)
    )
    held, gate = threading.Event(), threading.Event()

    def slow_subscriber(event):
        if event["state"] in JOB_TERMINAL_STATES:
            held.set()
            gate.wait(30)

    service.jobs.subscribe(owner.session_id, slow_subscriber)
    try:
        handle = owner.submit_component(implementation="register", attributes={"size": 4})
        assert held.wait(30)
        # The end event is still on its way to a subscriber, so no waiter
        # may see the job end yet.
        with pytest.raises(IcdbError) as raised:
            handle.wait(timeout=0.05)
        assert raised.value.code == "TIMEOUT"
    finally:
        gate.set()
    assert handle.wait(timeout=30)["state"] == "done"
    last = handle.events()[-1]
    assert (last.state, last.stage) == ("done", "end")
    if surface == "loopback":
        owner.close()


def test_an_end_delivery_that_raises_still_releases_the_waiters(tmp_path):
    service = _fresh_service(tmp_path)
    handle = service.create_session().submit_component(
        implementation="register", attributes={"size": 4}
    )
    handle.wait(timeout=30)
    record = service.jobs._jobs[handle.job_id]
    record.delivering_end = True

    class Escapes(BaseException):
        pass

    def broken_subscriber(event):
        raise Escapes

    with pytest.raises(Escapes):
        service.jobs._deliver_end(record, [broken_subscriber], handle.events()[-1].to_dict())
    assert record.ended()
    assert handle.wait(timeout=0.05)["state"] == "done"


def test_failing_local_job_reraises_the_original_exception(tmp_path):
    from repro.api import JobHandle
    from repro.components.catalog import CatalogError

    session = _fresh_service(tmp_path).create_session()
    handle = session.submit(ComponentRequest(implementation="no_such_implementation"))
    assert isinstance(handle, JobHandle)
    with pytest.raises(CatalogError):
        handle.result(timeout=60)
    assert handle.state == "failed"
    assert handle.response().error.code == "NOT_FOUND"


def test_cancel_queued_job_and_terminal_cancel_is_noop(tmp_path):
    service = make_slow_service(tmp_path / "slow", delay=1.0, job_workers=1)
    session = service.create_session()
    blocker = session.submit(
        ComponentRequest(implementation="alu", attributes={"size": 4}, use_cache=False)
    )
    queued = session.submit(
        ComponentRequest(implementation="mux2", attributes={"size": 2})
    )
    cancelled = queued.cancel()
    assert cancelled["state"] == "cancelled"
    response = queued.response()
    assert not response.ok and response.error.code == "CANCELLED"
    # cancelling a terminal job leaves it untouched
    assert queued.cancel()["state"] == "cancelled"
    assert blocker.result(60)["instance"]  # the worker was never disturbed
    service.jobs.shutdown()


def test_full_queue_answers_busy(tmp_path):
    service = make_slow_service(
        tmp_path / "slow", delay=1.0, job_workers=1
    )
    service.jobs.max_queued = 2
    session = service.create_session()
    slow = ComponentRequest(
        implementation="alu", attributes={"size": 4}, use_cache=False
    )
    handles = [session.submit(slow)]
    while handles[0].status()["state"] == "queued":
        time.sleep(0.005)  # wait for the worker to take it off the queue
    handles.append(session.submit(slow))
    handles.append(session.submit(slow))
    response = session.execute(SubmitJob(request=slow))
    assert not response.ok and response.error.code == "BUSY"
    for handle in handles:
        handle.cancel()
    service.jobs.shutdown()


def test_run_many_overflow_runs_inline_and_is_counted(tmp_path):
    service = make_slow_service(tmp_path / "slow", delay=0.1, job_workers=1)
    service.jobs.max_queued = 1
    session = service.create_session()
    requests = [
        ComponentRequest(
            implementation="mux2",
            attributes={"size": 2},
            instance_name=f"inline_{index}",
            use_cache=False,
        )
        for index in range(4)
    ]
    responses = service.jobs.run_many(requests, session)
    assert all(response.ok for response in responses)
    # With one worker and one queue slot, at least one of the four had
    # to degrade to inline execution -- and the degradation is counted.
    assert service.jobs.stats()["inline_overflows"] >= 1
    service.jobs.shutdown()


def test_wait_timeout_answers_timeout_and_job_survives(tmp_path):
    service = make_slow_service(tmp_path / "slow", delay=0.8)
    session = service.create_session()
    handle = session.submit(
        ComponentRequest(implementation="alu", attributes={"size": 4}, use_cache=False)
    )
    response = session.execute(
        JobStatus(job_id=handle.job_id, wait=True, timeout_ms=30)
    )
    assert not response.ok and response.error.code == "TIMEOUT"
    assert handle.result(timeout=60)["instance"]  # unharmed by the timeout
    service.jobs.shutdown()


def test_unknown_job_is_not_found(tmp_path):
    service = _fresh_service(tmp_path)
    session = service.create_session()
    response = session.execute(JobStatus(job_id="job-999"))
    assert not response.ok and response.error.code == "NOT_FOUND"


def test_jobs_are_session_scoped(tmp_path):
    """Another session's job id answers NOT_FOUND -- never its descriptor,
    and never a cancellation of someone else's work."""
    service = make_slow_service(tmp_path / "slow", delay=0.8)
    owner = service.create_session()
    intruder = service.create_session()
    handle = owner.submit(
        ComponentRequest(implementation="alu", attributes={"size": 4}, use_cache=False)
    )
    for request in (
        JobStatus(job_id=handle.job_id),
        CancelJob(job_id=handle.job_id),
    ):
        response = intruder.execute(request)
        assert not response.ok and response.error.code == "NOT_FOUND"
    # the owner is untouched by the intrusion attempts
    assert handle.result(timeout=60)["instance"]
    service.jobs.shutdown()


def test_retention_is_bounded_but_keeps_recent_jobs(tmp_path):
    service = _fresh_service(tmp_path)
    service.jobs.max_retained = 5
    session = service.create_session()
    request = ComponentRequest(implementation="register", attributes={"size": 2})
    handles = [session.submit(request) for _ in range(12)]
    deadline = time.time() + 60
    while True:
        stats = service.jobs.stats()
        if stats["queued"] == 0 and stats["running"] == 0:
            break
        assert time.time() < deadline, f"jobs never drained: {stats}"
        time.sleep(0.01)
    assert service.jobs.stats()["retained"] <= 5
    # the newest job outlives the eviction of the older ones
    assert handles[-1].status()["state"] == "done"


# ---------------------------------------------------------------------------
# Remote jobs: push streaming, attach / resume, session limits
# ---------------------------------------------------------------------------


def test_loopback_jobs_push_events_and_match_blocking_path(tmp_path):
    client = RemoteClient.loopback(_fresh_service(tmp_path, "loop"))
    blocking = client.request_component(
        implementation="register", attributes={"size": 4}
    )
    handle = client.submit_component(
        implementation="register", attributes={"size": 4}
    )
    remote_instance = handle.instance(timeout=60)
    assert handle.done() and handle.state == "done"
    # pushed events arrived through the loopback codec
    pushed = handle.events()
    assert pushed and pushed[-1].state == "done"
    assert [e.seq for e in pushed] == sorted(e.seq for e in pushed)
    # authoritative server history agrees
    remote_events = handle.events(remote=True)
    assert [e.seq for e in remote_events][: len(pushed)] == [e.seq for e in pushed]
    # same renders as the blocking path
    assert remote_instance.render_delay() == blocking.render_delay()
    client.close()


def test_blocking_request_behind_a_held_job_goes_through_run_sync(
    tmp_path, monkeypatch
):
    # docs/net.md: while the session has a job in flight, a blocking
    # request is submit+wait over the job queue (FIFO with the session's
    # jobs) and answers the envelope direct execution gives.
    service, started, gate = make_gated_service(tmp_path / "gated", job_workers=1)
    log = []
    execute = service.execute

    def logged_execute(request, session=None):
        log.append(("start", request.kind))
        response = execute(request, session)
        log.append(("end", request.kind))
        return response

    run_sync_calls = []
    entered = threading.Event()
    run_sync = service.jobs.run_sync

    def spied_run_sync(request, session):
        run_sync_calls.append(request.kind)
        entered.set()
        return run_sync(request, session)

    monkeypatch.setattr(service, "execute", logged_execute)
    monkeypatch.setattr(service.jobs, "run_sync", spied_run_sync)
    client = RemoteClient.loopback(service, client="fifo")
    request = FunctionQuery(functions=("ADD",))
    answers = []
    handle = client.submit_component(implementation="register", attributes={"size": 3})
    try:
        assert started.wait(30)
        sender = threading.Thread(target=lambda: answers.append(client.execute(request)))
        sender.start()
        assert entered.wait(30)
        assert sender.is_alive()  # queued behind the held job on the one worker
    finally:
        gate.set()
    sender.join(60)
    assert not sender.is_alive()
    assert handle.result(timeout=60)["instance"].startswith("register_")
    direct = client.execute(request)  # the session is idle again: direct
    client.close()
    service.jobs.shutdown()

    assert run_sync_calls == ["function_query"]
    flow = [entry for entry in log if entry[1] != "submit_job"]
    assert flow[:4] == [
        ("start", "request_component"),
        ("end", "request_component"),
        ("start", "function_query"),
        ("end", "function_query"),
    ]

    def envelope(response):
        data = response.to_dict()
        data.pop("elapsed_ms")
        return data

    assert answers[0].ok and envelope(answers[0]) == envelope(direct)


def test_session_token_attach_resumes_jobs_over_tcp(tmp_path):
    service = make_slow_service(tmp_path / "slow", delay=0.6)
    server = serve(service=service, port=0)
    try:
        client = connect(server.host, server.port, client="doomed")
        assert client.session_token
        client.start_a_design("resilient")
        handle = client.submit_component(
            implementation="counter", attributes={"size": 5}, use_cache=False
        )
        token = client.session_token
        job_id = handle.job_id
        client.transport.close()  # killed mid-job: no bye frame

        resumed = attach(server.host, server.port, token, client="phoenix")
        assert resumed.session_id == client.session_id
        revived = resumed.job_handle(job_id)
        summary = revived.result(timeout=60)
        assert summary["instance"].startswith("counter_")
        # the session's design context survived with the jobs
        assert resumed.session_token == token
        resumed.put_in_component_list(summary["instance"], design="resilient")
        assert resumed.component_list("resilient") == [summary["instance"]]
        resumed.close()
    finally:
        server.stop()
        service.jobs.shutdown()


def test_jobs_on_one_connection_overlap_on_the_worker_pool(tmp_path):
    # Every flow waits on a 6-party barrier, so the six jobs complete only
    # if all six are generating at once: a pool or a connection that
    # serialized them would break the barrier and fail the jobs.
    service = make_barrier_service(tmp_path / "overlap", parties=6, job_workers=8)
    server = serve(service=service, port=0)
    try:
        client = connect(server.host, server.port, client="overlap")
        handles = [
            client.submit(
                ComponentRequest(
                    implementation=("register", "mux2", "counter")[index % 3],
                    attributes={"size": 2 + index},
                    use_cache=False,
                    detail="summary",
                )
            )
            for index in range(6)
        ]
        for handle in handles:
            assert handle.result(timeout=60)["instance"]
        client.close()
    finally:
        server.stop()
        service.jobs.shutdown()


def test_attach_with_bad_token_is_not_found(tmp_path):
    server = serve(service=_fresh_service(tmp_path, "bad"), port=0)
    try:
        with pytest.raises(IcdbError) as excinfo:
            attach(server.host, server.port, "deadbeef")
        assert excinfo.value.code == "NOT_FOUND"
    finally:
        server.stop()


def test_session_limit_answers_busy_then_evicts_detached(tmp_path):
    server = serve(service=_fresh_service(tmp_path, "cap"), port=0, max_sessions=1)
    try:
        first = connect(server.host, server.port, client="one")
        with pytest.raises(IcdbError) as excinfo:
            connect(server.host, server.port, client="two")
        assert excinfo.value.code == "BUSY"
        first.close()
        deadline = time.time() + 5.0
        third = None
        while third is None:
            try:
                third = connect(server.host, server.port, client="three")
            except IcdbError:  # the detach races the close; retry briefly
                if time.time() > deadline:
                    raise
                time.sleep(0.02)
        assert third.execute(FunctionQuery(functions=("ADD",))).ok
        third.close()
    finally:
        server.stop()


def test_attached_connection_receives_pushed_events(tmp_path):
    service = make_slow_service(tmp_path / "slow", delay=0.5)
    server = serve(service=service, port=0)
    try:
        client = connect(server.host, server.port)
        token = client.session_token
        watcher = attach(server.host, server.port, token, client="watcher")
        handle = client.submit_component(
            implementation="mux2", attributes={"size": 3}, use_cache=False
        )
        # the watcher polls over its own connection; pushes ride along
        watcher_handle = watcher.job_handle(handle.job_id)
        watcher_handle.wait(60)
        assert watcher_handle.state == "done"
        assert watcher_handle.events(remote=True)
        watcher.close()
        client.close()
    finally:
        server.stop()
        service.jobs.shutdown()


# ---------------------------------------------------------------------------
# CLI validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["--workers", "0"],
        ["--workers", "nope"],
        ["--max-sessions", "-1"],
        ["--max-sessions", "many"],
    ],
)
def test_cli_rejects_invalid_worker_and_session_flags(args):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.net.server", "--port", "0", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=ROOT,
    )
    assert proc.returncode == 2
    assert "expected" in proc.stderr
