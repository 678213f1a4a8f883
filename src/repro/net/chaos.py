"""Deterministic fault injection for the ICDB wire stack.

The resilience layer (:mod:`repro.net.resilience`) is only trustworthy
if it is exercised against the failures it claims to survive.  This
module injects them on purpose, from a seed:

* :class:`ChaosProxy` -- a TCP proxy between a real client and a real
  server that, per forwarded chunk and from per-connection seeded RNGs,
  injects **connection resets** (RST via ``SO_LINGER`` zero), **stalls**,
  **torn frames** (half a chunk, then reset) and **delayed replies**.
* :class:`FlakyTransport` -- a scripted in-process wrapper that fails
  exactly where told (*before* the request is sent, or *after* the
  server executed it but before the reply arrives), the two cases whose
  distinction the idempotency / dedupe story rests on.
* :class:`ManagedServer` -- an ``icdb`` server subprocess that can be
  SIGKILLed mid-flight and restarted **on the same port** over the same
  ``--data-dir``, following the crash methodology of the durability
  tests.

Nothing here is imported by production code; it exists for
``tests/test_resilience.py`` and ``benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from .protocol import FRAME_REQUEST

_CHUNK = 4096

#: stdout banners of ``python -m repro.net.server``.
BANNER = re.compile(r"icdb server listening on ([\d.]+):(\d+)")
RECOVERY = re.compile(
    r"icdb store recovered: snapshot seq (\d+), (\d+) events replayed, "
    r"last seq (\d+)"
)


@dataclass(frozen=True)
class ChaosConfig:
    """What the proxy injects, and how often.

    Rates are per forwarded chunk and independent; the first fault rolled
    wins (reset before torn before stall before delay).  ``seed`` pins
    every roll: two proxies with the same config and the same connection
    arrival order inject the same fault schedule.
    """

    seed: int = 0
    reset_rate: float = 0.0
    torn_rate: float = 0.0
    stall_rate: float = 0.0
    delay_rate: float = 0.0
    stall_s: float = 0.1
    delay_s: float = 0.02

    def rng(self, stream: int) -> random.Random:
        """An independent deterministic stream (one per pump direction)."""
        return random.Random(self.seed * 1000003 + stream)


class _Link:
    """One proxied connection: a socket pair and its two pump threads.

    Faults must never ``close()`` a socket another thread is still
    reading -- the file descriptor could be recycled by a new connection
    and the stale pump would steal its bytes.  So :meth:`kill` only
    ``shutdown()``\\ s (which wakes blocked reads without releasing the
    fd), and the fds are closed exactly once, after both pumps exited.
    """

    def __init__(self, downstream: socket.socket, upstream: socket.socket):
        self.downstream = downstream
        self.upstream = upstream
        self._lock = threading.Lock()
        self._live_pumps = 2

    def kill(self, rst: bool = True) -> None:
        """Tear the connection down (RST on both sides when ``rst``)."""
        for sock in (self.downstream, self.upstream):
            if rst:
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:
                    pass
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def pump_done(self) -> None:
        with self._lock:
            self._live_pumps -= 1
            last = self._live_pumps == 0
        if last:
            for sock in (self.downstream, self.upstream):
                try:
                    sock.close()
                except OSError:
                    pass


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of a real server.

    Point a client at :attr:`port`; every byte is forwarded to
    ``upstream`` until the RNG says otherwise.  Injected faults are
    counted in :attr:`faults` (``reset`` / ``torn`` / ``stall`` /
    ``delay``) so tests can assert the schedule actually fired.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        config: Optional[ChaosConfig] = None,
        host: str = "127.0.0.1",
    ):
        self.upstream = (upstream_host, upstream_port)
        self.config = config or ChaosConfig()
        self._listener = socket.create_server((host, 0))
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conn_index = 0
        self.faults: Dict[str, int] = {
            "reset": 0, "torn": 0, "stall": 0, "delay": 0,
        }
        self._links: list = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()

    # ----------------------------------------------------------------- pumps

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                index = self._conn_index
                self._conn_index += 1
            try:
                upstream = socket.create_connection(self.upstream, timeout=10.0)
            except OSError:
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            link = _Link(downstream, upstream)
            with self._lock:
                self._links.append(link)
            for stream, (src, dst) in enumerate(
                ((downstream, upstream), (upstream, downstream))
            ):
                rng = self.config.rng(index * 2 + stream)
                threading.Thread(
                    target=self._pump,
                    args=(link, src, dst, rng),
                    name=f"chaos-pump-{index}-{stream}",
                    daemon=True,
                ).start()

    def _count(self, fault: str) -> None:
        with self._lock:
            self.faults[fault] += 1

    def _pump(
        self, link: _Link, src: socket.socket, dst: socket.socket, rng
    ) -> None:
        cfg = self.config
        try:
            while not self._stop.is_set():
                try:
                    chunk = src.recv(_CHUNK)
                except OSError:
                    break
                if not chunk:
                    break
                roll = rng.random()
                if roll < cfg.reset_rate:
                    self._count("reset")
                    link.kill()
                    return
                roll -= cfg.reset_rate
                if roll < cfg.torn_rate and len(chunk) > 1:
                    self._count("torn")
                    try:
                        dst.sendall(chunk[: len(chunk) // 2])
                    except OSError:
                        pass
                    link.kill()
                    return
                roll -= cfg.torn_rate
                if roll < cfg.stall_rate:
                    self._count("stall")
                    time.sleep(cfg.stall_s)
                elif roll - cfg.stall_rate < cfg.delay_rate:
                    self._count("delay")
                    time.sleep(cfg.delay_s)
                try:
                    dst.sendall(chunk)
                except OSError:
                    break
        finally:
            # A one-sided end (EOF, send failure) still tears the whole
            # link: this proxy models connections, not half-duplex pipes.
            link.kill(rst=False)
            link.pump_done()

    # ----------------------------------------------------------------- admin

    def total_faults(self) -> int:
        with self._lock:
            return sum(self.faults.values())

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            links = list(self._links)
        for link in links:
            link.kill(rst=False)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FlakyTransport:
    """A transport that fails exactly where the test says.

    ``plan`` is a shared deque of fault directives consumed one per
    **request** frame (handshake / meta / bye frames pass through):

    * ``"ok"`` -- forward normally;
    * ``"pre"`` -- raise ``OSError`` *before* the request reaches the
      server (provably not executed: any request may retry);
    * ``"post"`` -- forward the request, let the server execute it, then
      raise ``OSError`` as if the reply was lost (the ambiguous case:
      only idempotent or ``request_id``-carrying requests may retry).

    Share one ``plan`` across the transports a reconnecting client
    creates::

        plan = deque(["post"])
        client = ResilientClient.wrap(
            lambda: FlakyTransport(LoopbackTransport(service), plan)
        )
    """

    def __init__(self, inner: Any, plan: Deque[str]):
        self.inner = inner
        self.plan = plan

    @property
    def on_event(self) -> Optional[Callable[[Dict[str, Any]], None]]:
        return self.inner.on_event

    @on_event.setter
    def on_event(self, sink: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        self.inner.on_event = sink

    def send_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if payload.get("type") != FRAME_REQUEST or not self.plan:
            return self.inner.send_payload(payload)
        step = self.plan.popleft()
        if step == "pre":
            raise OSError("chaos: connection reset before send")
        reply = self.inner.send_payload(payload)
        if step == "post":
            raise OSError("chaos: connection lost awaiting reply")
        return reply

    def close(self) -> None:
        self.inner.close()


def flaky_plan(*steps: str) -> Deque[str]:
    """A shared fault plan for :class:`FlakyTransport`."""
    return deque(steps)


class ManagedServer:
    """An ``icdb`` server subprocess built to be killed.

    Wraps ``python -m repro.net.server --data-dir ...`` with banner
    parsing, SIGKILL / SIGTERM helpers and -- the part the crash tests
    need -- :meth:`restart` on the **same port** over the same data
    directory, so a client holding a dead connection can reconnect to
    the address it already knows.
    """

    def __init__(self, data_dir: Any, *extra_args: str, port: int = 0):
        self.data_dir = data_dir
        self.extra_args = tuple(extra_args)
        self.proc: Optional[subprocess.Popen] = None
        self.host: str = ""
        self.port = port
        self.recovery: Optional[Tuple[int, int, int]] = None
        self.start()

    def start(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            raise AssertionError("server already running")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.net.server",
                "--port", str(self.port),
                "--data-dir", str(self.data_dir),
                "--journal-fsync", "always",
                *self.extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.recovery = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                raise AssertionError("server died during startup")
            match = RECOVERY.search(line)
            if match:
                self.recovery = tuple(int(g) for g in match.groups())
            match = BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        raise AssertionError("no listening banner within 30s")

    def kill(self) -> None:
        """SIGKILL: no atexit, no finally blocks, no flush."""
        self.proc.kill()
        self.proc.wait(timeout=10)

    def terminate(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)

    def restart(self) -> None:
        """Boot again on the same port over the same data directory."""
        if self.proc is not None and self.proc.poll() is None:
            self.kill()
        deadline = time.monotonic() + 10.0
        while True:
            # The killed process is gone but the kernel may briefly hold
            # the port; retry binding until it frees.
            try:
                probe = socket.create_server(("127.0.0.1", self.port))
                probe.close()
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.05)
        self.start()

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)

    def __enter__(self) -> "ManagedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
