"""End-to-end transport tests: a real ICDBServer on an ephemeral port.

Covers the paper's counter / datapath flows driven through
:class:`~repro.net.client.RemoteClient` (asserting byte-identical results
against an in-process :class:`~repro.api.service.Session`), plus the
unhappy paths of the wire: malformed frames, oversized frames,
mid-request disconnects, handshake violations and graceful shutdown.
"""

from __future__ import annotations

import re
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.api import (
    ComponentRequest,
    ComponentService,
    FunctionQuery,
    InstanceQuery,
    PROTOCOL_VERSION,
)
from repro.components import standard_catalog
from repro.constraints import Constraints
from repro.core.icdb import IcdbError
from repro.cql import InteractiveSession
from repro.net import (
    FrameStream,
    ICDBServer,
    RemoteClient,
    SocketTransport,
    connect,
    serve,
)
from repro.synthesis import allocate, build_datapath, expression_dfg, schedule_asap


def _fresh_service(tmp_path, tag: str) -> ComponentService:
    return ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / tag
    )


@pytest.fixture()
def server(tmp_path):
    server = serve(service=_fresh_service(tmp_path, "server"), port=0)
    yield server
    server.stop()


@pytest.fixture()
def client(server):
    client = connect(server.host, server.port, client="e2e")
    yield client
    client.close()


# ---------------------------------------------------------------------------
# The paper's counter flow, byte-identical remote vs local
# ---------------------------------------------------------------------------


COUNTER_KWARGS = dict(
    component_name="counter",
    functions=["INC"],
    attributes={"size": 5},
    constraints=Constraints(clock_width=30.0, setup_time=30.0),
)


def test_counter_flow_matches_in_process_session(tmp_path, server, client):
    remote = client.request_component(**COUNTER_KWARGS)
    local_session = _fresh_service(tmp_path, "local").create_session()
    local = local_session.request_component(**COUNTER_KWARGS)

    # Fresh service on both sides -> identical deterministic instance names,
    # so every rendered report must match byte for byte.
    assert remote.name == local.name
    assert remote.render_delay() == local.render_delay()
    assert remote.render_shape() == local.render_shape()
    assert remote.render_area_records() == local.render_area_records()
    assert remote.vhdl_netlist() == local.vhdl_netlist()
    assert remote.vhdl_head() == local.vhdl_head()
    assert remote.clock_width == local.clock_width
    assert remote.area == local.area
    assert remote.cells == local.netlist.cell_count()
    assert [tuple(r) for r in [(a.strips, a.width, a.height) for a in remote.shape]] == [
        (a.strips, a.width, a.height) for a in local.shape
    ]
    assert remote.worst_delay() == local.worst_delay()

    # The full instance query agrees field by field (paths differ by root).
    remote_info = client.instance_query(remote.name)
    local_info = local_session.instance_query(local.name)
    remote_info.pop("files")
    local_info.pop("files")
    assert remote_info == local_info

    # Layout generation returns the same CIF text.
    remote_layout = client.request_layout(remote.name, alternative=1)
    local_layout = local_session.request_layout(local.name, alternative=1)
    from repro.netlist.cif import layout_to_cif

    assert remote_layout["cif_layout"] == layout_to_cif(local_layout)
    assert remote_layout["area"] == pytest.approx(local_layout.area)


def test_datapath_flow_matches_in_process_session(tmp_path, server, client):
    """The Figure 1 synthesis flow (allocate + build datapath) bound to a
    network server produces the identical microarchitecture."""

    def flow(icdb):
        dfg = expression_dfg()
        delays = {"ADD": 40.0, "SUB": 40.0, "MUL": 40.0, "GT": 30.0}
        schedule = schedule_asap(dfg, 60.0, delays)
        allocation = allocate(icdb, schedule, width=4)
        return build_datapath(icdb, schedule, allocation, width=4)

    remote_dp = flow(client)
    local_dp = flow(_fresh_service(tmp_path, "local").create_session())

    assert remote_dp.structure.to_vhdl() == local_dp.structure.to_vhdl()
    assert [u.name for u in remote_dp.functional_units] == [
        u.name for u in local_dp.functional_units
    ]
    assert [r.name for r in remote_dp.registers] == [
        r.name for r in local_dp.registers
    ]
    assert remote_dp.control.name == local_dp.control.name
    assert remote_dp.total_area() == pytest.approx(local_dp.total_area())


def test_design_transactions_over_the_wire(client):
    client.start_a_design("proj")
    client.start_a_transaction()
    keeper = client.request_component(implementation="register", attributes={"size": 2})
    doomed = client.request_component(implementation="register", attributes={"size": 3})
    client.put_in_component_list(keeper.name)
    removed = client.end_a_transaction()
    assert doomed.name in removed
    assert client.component_list() == [keeper.name]
    assert keeper.name in client.instances
    assert doomed.name not in client.instances
    removed = client.end_a_design()
    assert keeper.name in removed
    assert client.current_design == ""


def test_batch_over_tcp_mixed_results(client):
    responses = client.execute_batch(
        [
            ComponentRequest(implementation="register", attributes={"size": 2},
                             detail="summary"),
            InstanceQuery(name="no_such_instance"),
            FunctionQuery(functions=("ADD", "SUB")),
        ],
        repeat=2,
    )
    assert len(responses) == 6
    assert responses[0].ok and not responses[0].cached
    assert responses[3].ok and responses[3].cached  # second lap hits the cache
    assert not responses[1].ok and responses[1].error.code == "NOT_FOUND"
    assert responses[2].ok and "alu" in responses[2].value
    # Timing metadata survives the wire for every member response.
    assert all(r.elapsed_ms >= 0.0 for r in responses)


def test_remote_summary_detail_is_projected(client):
    instance = client.request_component(
        implementation="register", attributes={"size": 2}, detail="summary"
    )
    assert instance.cells > 0
    with pytest.raises(IcdbError, match="detail='summary'"):
        instance.render_delay()
    with pytest.raises(IcdbError):
        instance.shape


def test_cql_interactive_session_over_the_wire(client):
    interactive = InteractiveSession(server=client)
    out = interactive.run_command(
        "command: request_component; component_name: counter;"
        " function: (INC); size: 4; instance: ?s"
    )
    assert "instance: counter_" in out
    out = interactive.run_command(
        "command: function_query; function: (ADD); implementation: ?s[]"
    )
    assert "alu" in out


def test_meta_surface_and_ping(client):
    assert client.ping() < 1000.0
    name = client.instances.new_name("widget")
    assert name.startswith("widget_")
    assert len(client.instances) == 0  # naming does not register anything
    instance = client.request_component(implementation="register", attributes={"size": 2})
    assert instance.name in client.instances
    assert instance.name in client.instances.names()
    assert "generated instances" in client.summary()
    stats = client.metrics(prefixes=("cache.result.",))["counters"]
    assert set(stats) >= {
        f"cache.result.{name}" for name in ("entries", "hits", "misses", "lookups")
    }
    with pytest.raises(IcdbError):
        client.meta("no_such_op")


def test_lazy_artifacts_materialize_through_instance_query(server, client):
    first = client.request_component(implementation="register", attributes={"size": 2})
    clone = client.request_component(implementation="register", attributes={"size": 2})
    assert clone.cached
    from pathlib import Path

    assert not Path(clone.files["vhdl"]).exists()
    info = client.instance_query(clone.name, fields=("files",))
    assert Path(info["files"]["vhdl"]).exists()
    assert f"entity {clone.name} is" in Path(info["files"]["vhdl"]).read_text()


# ---------------------------------------------------------------------------
# Unhappy paths: malformed frames, oversized frames, disconnects
# ---------------------------------------------------------------------------


def _raw_stream(server) -> FrameStream:
    return FrameStream(socket.create_connection((server.host, server.port)))


def test_malformed_frame_answers_error_and_closes(server):
    stream = _raw_stream(server)
    stream.socket.sendall(struct.pack(">I", 10) + b"not json!!")
    reply = stream.recv()
    assert reply["type"] == "error"
    assert reply["error"]["code"] == "PROTOCOL"
    assert stream.recv() is None  # server closed the connection
    stream.close()
    # The server survives and serves fresh connections.
    probe = connect(server.host, server.port)
    assert probe.ping() >= 0.0
    probe.close()


def test_oversized_frame_answers_error_and_closes(tmp_path):
    server = serve(
        service=_fresh_service(tmp_path, "small"), port=0, max_frame_bytes=1024
    )
    try:
        stream = _raw_stream(server)
        stream.socket.sendall(struct.pack(">I", 1 << 30))
        reply = stream.recv()
        assert reply["type"] == "error"
        assert reply["error"]["code"] == "FRAME_TOO_LARGE"
        assert stream.recv() is None
        stream.close()
        probe = connect(server.host, server.port)
        assert probe.ping() >= 0.0
        probe.close()
    finally:
        server.stop()


def test_oversized_reply_answers_error_and_survives(tmp_path):
    """A response that cannot fit the frame limit must come back as a
    FRAME_TOO_LARGE error frame, not kill the handler thread."""
    server = serve(
        service=_fresh_service(tmp_path, "tightreply"), port=0, max_frame_bytes=700
    )
    try:
        client = connect(server.host, server.port)  # hello/welcome fit fine
        with pytest.raises(IcdbError) as excinfo:
            client.request_component(implementation="register", attributes={"size": 4})
        assert excinfo.value.code == "FRAME_TOO_LARGE"
        # The connection survives and small answers still work.
        assert client.ping() >= 0.0
        summary = client.request_component(
            implementation="register", attributes={"size": 4}, detail="summary"
        )
        assert summary.name.startswith("register_")
        client.close()
    finally:
        server.stop()


def test_mid_request_disconnect_leaves_server_alive(server):
    stream = _raw_stream(server)
    stream.socket.sendall(struct.pack(">I", 500) + b"partial payload")
    stream.close()  # vanish mid-frame
    time.sleep(0.05)
    probe = connect(server.host, server.port)
    probe.request_component(implementation="register", attributes={"size": 2})
    probe.close()


def test_first_frame_must_be_hello(server):
    stream = _raw_stream(server)
    stream.send({"type": "ping"})
    reply = stream.recv()
    assert reply["type"] == "error" and reply["error"]["code"] == "PROTOCOL"
    assert stream.recv() is None
    stream.close()


def test_unsupported_protocol_version_is_rejected(server):
    stream = _raw_stream(server)
    stream.send({"type": "hello", "protocol": PROTOCOL_VERSION + 1})
    reply = stream.recv()
    assert reply["type"] == "error"
    assert "protocol" in reply["error"]["message"]
    assert stream.recv() is None
    stream.close()


def test_unknown_frame_type_keeps_connection_open(server):
    stream = _raw_stream(server)
    stream.send({"type": "hello", "protocol": PROTOCOL_VERSION})
    assert stream.recv()["type"] == "welcome"
    # A bare "ping" frame (an older client's probe) is an unknown frame
    # type too; the liveness probe is the typed ping request.
    for frame_type in ("frobnicate", "ping"):
        stream.send({"type": frame_type})
        reply = stream.recv()
        assert reply["type"] == "error" and reply["error"]["code"] == "PROTOCOL"
    stream.send({"type": "request", "request": {"kind": "ping"}})
    reply = stream.recv()
    assert reply["type"] == "response" and reply["response"]["ok"]
    stream.close()


def test_unknown_request_kind_answers_structured_error(client):
    reply = client.transport.send_payload(
        {"type": "request", "request": {"kind": "launch_rocket"}}
    )
    assert reply["type"] == "response"
    response = reply["response"]
    assert response["ok"] is False
    assert response["error"]["code"] == "BAD_REQUEST"
    assert "launch_rocket" in response["error"]["message"]


def test_duplicate_hello_is_an_error_but_survivable(client):
    reply = client.transport.send_payload(
        {"type": "hello", "protocol": PROTOCOL_VERSION}
    )
    assert reply["type"] == "error" and "duplicate" in reply["error"]["message"]
    assert client.ping() >= 0.0


def test_timed_out_transport_is_poisoned_not_desynced(server):
    """A recv timeout leaves the server's late reply in flight; the
    transport must refuse further use instead of misreading that reply as
    the answer to the next request."""
    client = RemoteClient(SocketTransport(server.host, server.port))
    # The handshake above ran with the default timeout; only the request
    # under test gets 5 ms.
    client.transport._socket.settimeout(0.005)
    with pytest.raises(IcdbError) as excinfo:
        # A cold 16-bit ALU generation (fresh server, nothing memoized)
        # takes far longer than the 5 ms timeout.
        client.execute(
            ComponentRequest(
                implementation="alu", attributes={"size": 16}, use_cache=False
            )
        )
    assert excinfo.value.code == "UNAVAILABLE"
    with pytest.raises(IcdbError) as excinfo:
        client.execute(FunctionQuery(functions=("ADD",)))
    assert excinfo.value.code == "UNAVAILABLE"
    client.transport.close()


def test_graceful_stop_disconnects_clients(tmp_path):
    server = serve(service=_fresh_service(tmp_path, "stopping"), port=0)
    client = connect(server.host, server.port)
    server.stop()
    with pytest.raises(IcdbError):
        client.execute(FunctionQuery(functions=("ADD",)))
    client.transport.close()


def test_loopback_transport_matches_tcp(tmp_path, server, client):
    loopback = RemoteClient.loopback(_fresh_service(tmp_path, "loop"))
    remote = client.request_component(implementation="register", attributes={"size": 4})
    local = loopback.request_component(implementation="register", attributes={"size": 4})
    assert remote.name == local.name
    assert remote.render_delay() == local.render_delay()
    assert loopback.instance_query(local.name, fields=("VHDL_net_list",)) == \
        client.instance_query(remote.name, fields=("VHDL_net_list",))
    loopback.close()
    with pytest.raises(IcdbError):
        loopback.ping()


# ---------------------------------------------------------------------------
# simulate / check_equivalence: identical wire envelopes on every transport
# ---------------------------------------------------------------------------


def test_simulation_envelopes_identical_local_loopback_tcp(tmp_path, server, client):
    """``simulate`` / ``check_equivalence`` answer byte-identical response
    envelopes locally, over the loopback transport and over TCP (only the
    timing / session-id fields may differ)."""
    import json

    from repro.api import CheckEquivalence, Simulate

    local_service = _fresh_service(tmp_path, "sim_local")
    loopback = RemoteClient.loopback(_fresh_service(tmp_path, "sim_loop"))

    generate = [
        ComponentRequest(
            component_name="adder",
            parameters={"size": 2},
            instance_name="add_e2e",
        ),
        ComponentRequest(
            component_name="counter",
            functions=("INC",),
            attributes={"size": 3},
            instance_name="cnt_e2e",
        ),
    ]
    probes = [
        Simulate(
            name="add_e2e",
            vectors=(
                {"I0[0]": 1, "I0[1]": 0, "I1[0]": 1, "I1[1]": 1, "Cin": 0},
                {"I0[0]": 1, "I0[1]": 1, "I1[0]": 1, "I1[1]": 1, "Cin": 1},
            ),
        ),
        Simulate(
            name="add_e2e",
            vectors=({"I0[0]": 1, "I1[0]": 1},),
            engine="flat",
        ),
        CheckEquivalence(name="add_e2e"),
        CheckEquivalence(name="cnt_e2e", cycles=8, lanes=16),
        CheckEquivalence(name="cnt_e2e", reference="add_e2e"),  # port mismatch
        Simulate(name="ghost"),  # NOT_FOUND error envelope
    ]

    def normalize(envelope):
        envelope = dict(envelope)
        assert envelope.pop("elapsed_ms", 0.0) >= 0.0
        envelope.pop("session_id", None)
        return envelope

    executors = [
        lambda r: local_service.execute(r),
        loopback.execute,
        client.execute,
    ]
    for request in generate:
        for run in executors:
            assert run(request).ok
    for request in probes:
        wire_forms = [
            json.dumps(
                normalize(json.loads(json.dumps(run(request).to_dict()))),
                sort_keys=True,
            )
            for run in executors
        ]
        assert wire_forms[0] == wire_forms[1] == wire_forms[2]
    loopback.close()


# ---------------------------------------------------------------------------
# The command-line server
# ---------------------------------------------------------------------------


def test_cli_server_serves_and_shuts_down_on_sigint(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.server", "--port", "0",
         "--store-root", str(tmp_path / "cli_store")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, f"unexpected banner: {line!r}"
        client = connect(match.group(1), int(match.group(2)), client="cli-e2e")
        instance = client.request_component(
            implementation="register", attributes={"size": 2}
        )
        assert instance.name.startswith("register_")
        client.close()
    finally:
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=15)
    assert proc.returncode == 0
    assert "icdb server stopped" in out


@pytest.mark.parametrize(
    "module, args",
    [
        ("repro.net.server", ["--help"]),
        # Both exit 0 at end of input.
        ("repro.fleet.worker", []),
        ("repro.cql.interactive", []),
    ],
)
def test_cli_entry_points_run_their_module_once(module, args):
    """runpy warns (an error here) when the package already imported the
    ``-m`` target, which then executes twice."""
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, *args],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_worker_import_loads_only_the_generation_stack():
    """A fleet child imports what generation needs, none of the server."""
    probe = (
        "import sys, repro.fleet.worker; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['repro', 'api'], ['repro', 'net'], ['repro', 'obs'], "
        "['repro', 'store'], ['repro', 'cql'])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_server_import_loads_no_client_side_subsystem():
    probe = (
        "import sys, repro.net.server; "
        "print(sorted(m for m in ('repro.cql', 'repro.net.resilience', "
        "'repro.net.chaos', 'repro.net.client') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_lazy_package_exports_resolve():
    import repro
    import repro.cql
    import repro.fleet
    import repro.net

    for package in (repro, repro.cql, repro.fleet, repro.net):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
        assert set(package.__all__) <= set(dir(package))


def test_cli_server_stops_cleanly_on_sigint_right_after_banner(tmp_path):
    """The banner prints only once the handlers are in place, and the
    handler never takes the lock serve_forever() may hold."""
    for attempt in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.server", "--port", "0",
             "--store-root", str(tmp_path / f"store_{attempt}")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert "listening on" in proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=15)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "icdb server stopped" in out
