"""Crash recovery through the real server: SIGKILL, restart, compare.

Each test boots ``python -m repro.net.server --data-dir ...`` as a
subprocess, drives it over the wire, kills it without any shutdown
courtesy (SIGKILL, exactly what a power cut looks like to the process),
boots a second server on the same data directory and asserts the
recovered relational state is byte-identical to the golden database
dump captured before the kill.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import DatabaseDump
from repro.net.client import connect

_BANNER = re.compile(r"icdb server listening on ([\d.]+):(\d+)")
_RECOVERY = re.compile(
    r"icdb store recovered: snapshot seq (\d+), (\d+) events replayed, "
    r"last seq (\d+)"
)


class ServerProc:
    """One ``repro.net.server`` subprocess bound to a data directory."""

    def __init__(self, data_dir, *extra_args):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.net.server",
                "--port", "0",
                "--data-dir", str(data_dir),
                "--journal-fsync", "always",
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.host = self.port = None
        self.recovery = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                raise AssertionError("server died during startup")
            match = _RECOVERY.search(line)
            if match:
                self.recovery = tuple(int(g) for g in match.groups())
            match = _BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        raise AssertionError("no listening banner within 30s")

    def connect(self, tag="crash"):
        return connect(self.host, self.port, client=tag)

    def kill(self):
        """SIGKILL: no atexit, no finally blocks, no flush."""
        self.proc.kill()
        self.proc.wait(timeout=10)

    def terminate(self):
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=10)


@pytest.fixture()
def data_dir(tmp_path):
    return tmp_path / "store"


def canonical(dump) -> str:
    return json.dumps(dump, sort_keys=True)


def database_dump(client):
    """The server's whole relational state, read through a typed request."""
    return client.execute(DatabaseDump()).unwrap()


def instance_rows(client):
    """Only the ``instances`` rows of the server's relational state."""
    dump = client.execute(DatabaseDump(tables=("instances",))).unwrap()
    return dump["tables"]["instances"]["rows"]


def test_sigkill_then_restart_is_byte_identical(data_dir):
    first = ServerProc(data_dir, "--snapshot-interval", "0")
    assert first.recovery == (0, 0, 0)  # cold start: empty data dir
    client = first.connect()
    registered = client.request_component(
        implementation="register", attributes={"size": 4}
    )
    counter = client.request_component(
        component_name="counter", functions=["INC"], attributes={"size": 3}
    )
    golden = canonical(database_dump(client))
    instance_names = {registered.name, counter.name}
    client.close()
    first.kill()

    second = ServerProc(data_dir, "--snapshot-interval", "0")
    snapshot_seq, replayed, last_seq = second.recovery
    assert replayed > 0 and last_seq == replayed and snapshot_seq == 0
    client2 = second.connect("crash-2")
    assert canonical(database_dump(client2)) == golden

    # The recovered rows answer queries: instances are still visible
    # through the durable relational surface.
    rows = instance_rows(client2)
    assert instance_names <= {row["name"] for row in rows}

    # Recovery is observable in the metrics the admin console shows.
    counters = client2.metrics()["counters"]
    assert counters["store.recovery.events_replayed"] == replayed
    assert counters["store.last_seq"] >= last_seq

    # And the server is fully alive: a fresh request gets a fresh name
    # (no collision with rows that outlived their in-memory instances).
    fresh = client2.request_component(
        implementation="register", attributes={"size": 8}
    )
    assert fresh.name not in instance_names
    client2.close()
    second.terminate()


def test_double_recovery_is_idempotent(data_dir):
    first = ServerProc(data_dir, "--snapshot-interval", "0")
    client = first.connect()
    client.request_component(implementation="register", attributes={"size": 2})
    golden = canonical(database_dump(client))
    client.close()
    first.kill()

    # Two successive recover-only boots (no new writes): same state, and
    # the second replays exactly what the first did.
    replays = []
    for tag in ("a", "b"):
        server = ServerProc(data_dir, "--snapshot-interval", "0")
        replays.append(server.recovery[1])
        client = server.connect(f"idem-{tag}")
        assert canonical(database_dump(client)) == golden
        client.close()
        server.kill()
    assert replays[0] == replays[1]


def test_snapshot_bounds_replay_after_crash(data_dir):
    # An aggressive snapshot interval: the background snapshotter runs
    # between the writes, so the next boot replays only a short tail.
    first = ServerProc(data_dir, "--snapshot-interval", "0.2")
    client = first.connect()
    client.request_component(implementation="register", attributes={"size": 4})
    time.sleep(1.0)  # let at least one snapshot land
    client.request_component(implementation="register", attributes={"size": 5})
    golden = canonical(database_dump(client))
    total_seq = client.metrics(prefixes=("store.last_seq",))["counters"][
        "store.last_seq"
    ]
    client.close()
    first.kill()

    second = ServerProc(data_dir, "--snapshot-interval", "0")
    snapshot_seq, replayed, last_seq = second.recovery
    assert snapshot_seq > 0  # the background snapshot was picked up
    assert last_seq == total_seq
    assert replayed == last_seq - snapshot_seq  # tail only
    client2 = second.connect("snap")
    assert canonical(database_dump(client2)) == golden
    client2.close()
    second.terminate()


def test_sixteen_concurrent_clients_survive_sigkill(data_dir):
    """16 client threads write through the wire; SIGKILL; recover; compare."""
    first = ServerProc(data_dir, "--snapshot-interval", "0")
    results = [None] * 16

    def hammer(slot: int) -> None:
        client = first.connect(f"w{slot}")
        try:
            instance = client.request_component(
                implementation="register",
                attributes={"size": 2 + slot % 6},
            )
            results[slot] = instance.name
        finally:
            client.close()

    threads = [
        threading.Thread(target=hammer, args=(slot,)) for slot in range(16)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    names = [name for name in results if name]
    assert len(names) == 16 and len(set(names)) == 16

    observer = first.connect("observer")
    golden = canonical(database_dump(observer))
    golden_rows = {
        row["name"] for row in instance_rows(observer)
    }
    assert set(names) <= golden_rows
    observer.close()
    first.kill()

    second = ServerProc(data_dir, "--snapshot-interval", "0")
    client2 = second.connect("after")
    assert canonical(database_dump(client2)) == golden
    recovered_rows = {
        row["name"] for row in instance_rows(client2)
    }
    assert recovered_rows == golden_rows
    client2.close()
    second.terminate()
