"""The ICDB network server: sessions, jobs and server push over TCP.

The paper's ICDB is a component server many synthesis tools talk to
concurrently.  :class:`ICDBServer` is that server process: it listens on a
TCP port and dispatches the typed requests of :mod:`repro.api.messages`
through the shared :class:`~repro.api.service.ComponentService`.

Sessions are **decoupled from connections**: the ``hello`` / ``welcome``
handshake creates a session in the server's :class:`SessionRegistry` and
issues a resume token; a later connection can open with an ``attach``
frame instead of ``hello`` to rebind to that session -- its design
context and its jobs (queued, running or finished) survive the connection
that created them.  Blocking requests execute as submit+wait over the
service's :class:`~repro.api.service.JobManager` (so one session's
traffic is FIFO-ordered with its asynchronous jobs), job-control requests
(``submit_job`` / ``job_status`` / ``cancel_job``) run inline on the
connection thread, and job progress events are **pushed** to the
session's connections as ``job_event`` frames interleaved with replies.
Pipelined :class:`~repro.api.messages.BatchRequest` envelopes still
execute server-side under a single service-lock acquisition.

:class:`FrameDispatcher` holds the per-connection protocol state machine
and is transport-agnostic: the TCP handler and the in-process loopback
transport of :mod:`repro.net.client` both drive it through the same codec,
so tests exercise the exact byte-level contract without a socket.

Run a standalone server with::

    python -m repro.net.server --host 127.0.0.1 --port 7361 \
        --workers 4 --max-sessions 256

It announces ``icdb server listening on HOST:PORT`` on stdout and shuts
down gracefully on SIGINT / SIGTERM (draining open connections).
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
import weakref
from pathlib import Path
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..api.errors import (
    E_BUSY,
    E_NOT_FOUND,
    E_PROTOCOL,
    IcdbErrorInfo,
    error_from_exception,
)
from ..api.messages import (
    JOB_CONTROL_KINDS,
    PROTOCOL_VERSION,
    AttachSession,
    BatchRequest,
    CheckEquivalence,
    ComponentRequest,
    Hello,
    LayoutRequest,
    PlanQuery,
    Response,
    Simulate,
    SubmitJob,
    Welcome,
    request_from_dict,
)
from ..api.service import ComponentService, Session
from ..core.icdb import IcdbError
from ..obs.metrics import MetricsExporter
from ..obs.reqlog import RequestLog, get_logger
from ..store import DEFAULT_SNAPSHOT_INTERVAL, DurableStore, FSYNC_POLICIES
from .protocol import (
    FRAME_ATTACH,
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_JOB_EVENT,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    FRAME_WELCOME,
    MAX_FRAME_BYTES,
    FrameStream,
    ProtocolError,
    error_payload,
)

#: Server software name announced in the ``welcome`` frame.
SERVER_NAME = "repro-icdb"

#: Structured event log of this module (push drops, shutdown errors --
#: paths that previously swallowed exceptions without a trace).
_LOG = get_logger("repro.net.server")


class SessionRegistry:
    """Token-addressed sessions of one service, decoupled from connections.

    ``create`` makes a session and issues an unguessable resume token;
    ``attach`` rebinds a (new) connection to it.  ``max_sessions`` bounds
    the registry: at the cap, creating first evicts the oldest *detached*
    session with no queued or running jobs, and answers ``E_BUSY`` when
    every session is live.  ``max_sessions=0`` means no hard cap on
    *live* sessions -- but detached idle sessions are still trimmed
    beyond :data:`MAX_DETACHED_SESSIONS`, so a long-running server
    handling many short-lived connections does not accumulate one
    session per past connection forever.
    """

    #: Soft bound on resumable-but-detached sessions kept around when
    #: ``max_sessions`` is unlimited (oldest detached idle evicted first).
    MAX_DETACHED_SESSIONS = 1024

    def __init__(self, service: ComponentService, max_sessions: int = 0):
        if max_sessions < 0:
            raise IcdbError(
                f"max_sessions must be >= 0 (0 = unlimited), got {max_sessions}"
            )
        self.service = service
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        #: token -> (session, attached-connection count); insertion order
        #: doubles as the eviction order.
        self._entries: "OrderedDict[str, List[Any]]" = OrderedDict()
        # Live session visibility for the admin console.  Gauge callbacks
        # run at snapshot time (outside the registry-wide metrics lock),
        # so taking self._lock here is safe.
        service.metrics.gauge("net.sessions", lambda: len(self))
        service.metrics.gauge("net.sessions_attached", self._attached_count)

    def _attached_count(self) -> int:
        with self._lock:
            return sum(1 for _, attached in self._entries.values() if attached > 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def create(self, client: str = "") -> Tuple[Session, str]:
        """A new attached session and its resume token."""
        with self._lock:
            if self.max_sessions and len(self._entries) >= self.max_sessions:
                self._evict_locked()
            if self.max_sessions and len(self._entries) >= self.max_sessions:
                # Sessions at the cap are all live: none frees up faster
                # than a connection turnaround, so hint a full second.
                raise IcdbError(
                    f"session limit reached ({self.max_sessions}); retry later",
                    code=E_BUSY,
                    retry_after_ms=1000.0,
                )
            session = self.service.create_session(client=client)
            # What secrets.token_hex(16) returns, without importing
            # secrets: its hmac import maps OpenSSL into the server.
            token = os.urandom(16).hex()
            self._entries[token] = [session, 1]
            self._trim_locked()
        self.service.metrics.counter("net.sessions_created").inc()
        return session, token

    def attach(self, token: str) -> Session:
        """Rebind a connection to the session behind ``token``."""
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                raise IcdbError(
                    "unknown or expired session token", code=E_NOT_FOUND
                )
            entry[1] += 1
            self._entries.move_to_end(token)
            return entry[0]

    def detach(self, token: str) -> None:
        """A connection bound to ``token`` closed; the session survives
        (until trimmed: detached idle sessions beyond the retention bound
        are evicted oldest-first)."""
        with self._lock:
            entry = self._entries.get(token)
            if entry is not None and entry[1] > 0:
                entry[1] -= 1
            self._trim_locked()

    def _evict_locked(self) -> None:
        """Drop the oldest detached, idle session (if any)."""
        for token, (session, attached) in list(self._entries.items()):
            if attached <= 0 and not self.service.jobs.session_has_work(
                session.session_id
            ):
                del self._entries[token]
                return

    def _trim_locked(self) -> None:
        """Bound the detached-session backlog of an uncapped registry."""
        detached = sum(1 for _, attached in self._entries.values() if attached <= 0)
        while detached > self.MAX_DETACHED_SESSIONS:
            before = len(self._entries)
            self._evict_locked()
            if len(self._entries) == before:
                return  # nothing evictable (all busy with jobs)
            detached -= 1


#: Default registries for transports that are not fronted by an
#: :class:`ICDBServer` (the in-process loopback): one per service, so two
#: loopback connections to the same service can attach to each other's
#: sessions exactly like two TCP connections can.
_DEFAULT_REGISTRIES: "weakref.WeakKeyDictionary[ComponentService, SessionRegistry]" = (
    weakref.WeakKeyDictionary()
)
_DEFAULT_REGISTRIES_LOCK = threading.Lock()


def default_registry(service: ComponentService) -> SessionRegistry:
    """The shared per-service registry used when no server owns one."""
    with _DEFAULT_REGISTRIES_LOCK:
        registry = _DEFAULT_REGISTRIES.get(service)
        if registry is None:
            registry = SessionRegistry(service)
            _DEFAULT_REGISTRIES[service] = registry
        return registry


#: Request kinds that are expensive to *execute* -- and therefore cheap
#: to reject while overloaded: shedding one before it reaches the engine
#: frees a worker-sized amount of capacity for the cheap queries that
#: keep already-running tool flows alive.
EXPENSIVE_KINDS = frozenset(
    (
        ComponentRequest.kind,
        LayoutRequest.kind,
        PlanQuery.kind,
        Simulate.kind,
        CheckEquivalence.kind,
        BatchRequest.kind,
        SubmitJob.kind,
    )
)


class LoadShedder:
    """Overload admission control over the job queue's depth.

    When the ready queue crosses ``threshold`` (a fraction of its
    capacity), *expensive* request kinds are rejected up front with
    ``E_BUSY`` and a ``retry_after_ms`` hint, while cheap reads and job
    control keep flowing -- rejecting a generation costs one error frame;
    executing it costs a worker for seconds.  ``threshold >= 1.0``
    disables shedding (the queue's own capacity check still applies).
    """

    def __init__(
        self,
        jobs: "JobManager",
        threshold: float = 0.9,
        metrics: Optional[Any] = None,
    ):
        if not 0.0 < threshold:
            raise IcdbError(f"shed threshold must be > 0, got {threshold}")
        self.jobs = jobs
        self.threshold = threshold
        self._shed_counter = (
            metrics.counter("resilience.shed_requests") if metrics is not None else None
        )

    def check(self, kind: str) -> Optional[float]:
        """``retry_after_ms`` when ``kind`` should be shed, else ``None``."""
        if self.threshold >= 1.0 or kind not in EXPENSIVE_KINDS:
            return None
        depth = self.jobs.stats()["queued"]
        limit = self.threshold * self.jobs.max_queued
        if depth < limit:
            return None
        if self._shed_counter is not None:
            self._shed_counter.inc()
        # Same shape as the queue-full hint: deeper backlog, longer wait.
        return min(5000.0, max(100.0, depth * 50.0 / self.jobs.workers))


class FrameDispatcher:
    """Per-connection protocol state machine (transport-agnostic).

    Feed it decoded frame payloads; it answers with reply payloads.  The
    first frame must be a ``hello`` (new session) or an ``attach``
    (resume by token); the dispatcher is then bound to one service
    session for the rest of the connection.  ``closed`` turns true when
    the peer said ``bye`` or a fatal handshake error occurred.

    ``push`` is the server-push channel: when set, the dispatcher
    subscribes the connection to the session's job events, and every
    event is handed to ``push`` (which must be safe to call from worker
    threads and may interleave with replies).  Call :meth:`close` when
    the connection ends -- it unsubscribes the push channel and detaches
    (not destroys) the session.
    """

    def __init__(
        self,
        service: ComponentService,
        client_label: str = "",
        registry: Optional[SessionRegistry] = None,
        push: Optional[Callable[[Dict[str, Any]], None]] = None,
        shedder: Optional[LoadShedder] = None,
    ):
        self.service = service
        self.client_label = client_label
        self.registry = registry if registry is not None else default_registry(service)
        self.push = push
        self.shedder = shedder
        self.session: Optional[Session] = None
        self.session_token: str = ""
        self.closed = False
        self._subscription: Optional[int] = None

    # ----------------------------------------------------------------- frames

    def dispatch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        frame_type = payload.get("type")
        if frame_type == FRAME_HELLO:
            return self._hello(payload)
        if frame_type == FRAME_ATTACH:
            return self._attach(payload)
        if self.session is None:
            return self._refuse(
                "the first frame of a connection must be 'hello' or 'attach'"
            )
        if frame_type == FRAME_REQUEST:
            return self._request(payload)
        if frame_type == FRAME_BYE:
            self.closed = True
            return {"type": FRAME_BYE}
        # Unknown frame type: framing is intact, the connection survives.
        return error_payload(
            IcdbErrorInfo(
                code=E_PROTOCOL, message=f"unknown frame type {frame_type!r}"
            )
        )

    def close(self) -> None:
        """The connection ended: stop pushes, detach (keep) the session."""
        if self._subscription is not None:
            self.service.jobs.unsubscribe(self._subscription)
            self._subscription = None
        if self.session is not None and self.session_token:
            self.registry.detach(self.session_token)

    # -------------------------------------------------------------- handshake

    def _refuse(self, message: str) -> Dict[str, Any]:
        """A failed handshake: answer ``PROTOCOL`` and close."""
        self.closed = True
        return error_payload(IcdbErrorInfo(code=E_PROTOCOL, message=message))

    def _check_protocol(self, protocol: int) -> Optional[Dict[str, Any]]:
        if protocol != PROTOCOL_VERSION:
            return self._refuse(
                f"unsupported protocol version {protocol}; "
                f"server speaks {PROTOCOL_VERSION}"
            )
        return None

    def _bind(self, session: Session, token: str) -> Dict[str, Any]:
        self.session = session
        self.session_token = token
        if self.push is not None:
            self._subscription = self.service.jobs.subscribe(
                session.session_id, self._push_event
            )
        return Welcome(
            protocol=PROTOCOL_VERSION,
            session_id=session.session_id,
            server=SERVER_NAME,
            session_token=token,
        ).to_dict()

    def _push_event(self, event: Dict[str, Any]) -> None:
        push = self.push
        if push is None or self.closed:
            return
        try:
            push({"type": FRAME_JOB_EVENT, "event": event})
        except Exception as exc:  # noqa: BLE001 - a push must not kill the job worker
            # The connection is (probably) going away and close() will
            # unsubscribe -- but the drop used to vanish without a trace,
            # which hid real delivery bugs.  Count it, log it, move on.
            self.service.metrics.counter("net.push_drops").inc()
            _LOG.debug(
                "push_drop",
                session=self.session.session_id if self.session else None,
                job_id=event.get("job_id"),
                seq=event.get("seq"),
                error=repr(exc),
            )

    def _hello(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.session is not None:
            return error_payload(
                IcdbErrorInfo(code=E_PROTOCOL, message="duplicate hello")
            )
        try:
            hello = Hello.from_dict(payload)
        except IcdbError as exc:
            # A handshake frame that does not decode is a protocol error.
            return self._refuse(str(exc))
        rejection = self._check_protocol(hello.protocol)
        if rejection is not None:
            return rejection
        try:
            session, token = self.registry.create(
                client=hello.client or self.client_label
            )
        except IcdbError as exc:
            # At the session cap the connection survives: the client may
            # retry the handshake after a backoff or attach instead.
            return error_payload(error_from_exception(exc))
        return self._bind(session, token)

    def _attach(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.session is not None:
            return error_payload(
                IcdbErrorInfo(code=E_PROTOCOL, message="duplicate handshake")
            )
        try:
            attach = AttachSession.from_dict(payload)
        except IcdbError as exc:
            return self._refuse(str(exc))
        rejection = self._check_protocol(attach.protocol)
        if rejection is not None:
            return rejection
        try:
            session = self.registry.attach(attach.token)
        except IcdbError as exc:
            # A bad token is fatal for the handshake but informative: the
            # client is told the session is gone before the close.
            self.closed = True
            return error_payload(error_from_exception(exc))
        return self._bind(session, attach.token)

    # ---------------------------------------------------------------- requests

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        assert self.session is not None
        data = payload.get("request")
        try:
            request = request_from_dict(data if isinstance(data, dict) else {})
        except Exception as exc:  # noqa: BLE001 - all mapped to envelopes
            # A malformed or unknown-op request answers with a structured
            # error envelope, never a dropped connection or a traceback.
            response = Response(
                ok=False,
                error=error_from_exception(exc),
                session_id=self.session.session_id,
                request_kind=str((data or {}).get("kind") or "")
                if isinstance(data, dict)
                else "",
            )
            return {"type": FRAME_RESPONSE, "response": response.to_dict()}
        request_id = payload.get("request_id")
        if isinstance(request_id, str) and request_id:
            # A retried mutation: the session's dedupe store decides
            # whether this id already executed (and blocks a duplicate
            # racing an in-flight original).
            recorded = self.session.dedupe.begin(request_id)
            if recorded is not None:
                self.service.metrics.counter("resilience.dedupe_hits").inc()
                return {"type": FRAME_RESPONSE, "response": recorded}
            try:
                response = self._admit(request)
                wire = response.to_dict()
            except BaseException:
                self.session.dedupe.finish(request_id, None)
                raise
            # Only successful executions are pinned: a failure did not
            # mutate, so a retry may (and should) execute afresh.
            self.session.dedupe.finish(request_id, wire if response.ok else None)
            return {"type": FRAME_RESPONSE, "response": wire}
        return {"type": FRAME_RESPONSE, "response": self._admit(request).to_dict()}

    def _admit(self, request) -> Response:
        """Load shedding in front of execution: reject before investing."""
        assert self.session is not None
        retry_after = (
            self.shedder.check(request.kind) if self.shedder is not None else None
        )
        if retry_after is not None:
            return Response(
                ok=False,
                error=IcdbErrorInfo(
                    code=E_BUSY,
                    message=(
                        "server is shedding load (job queue near capacity); "
                        "retry later"
                    ),
                    retry_after_ms=retry_after,
                ),
                session_id=self.session.session_id,
                request_kind=request.kind,
            )
        return self._execute(request)

    def _execute(self, request) -> Response:
        assert self.session is not None
        if request.kind in JOB_CONTROL_KINDS:
            # Job control runs inline on the connection thread: a waiting
            # job_status must never occupy (or queue behind) a job worker.
            return self.service.execute(request, self.session)
        if not self.service.jobs.session_has_work(self.session.session_id):
            # The session has nothing queued or running, so "behind the
            # session's jobs" is *now*: execute directly on the connection
            # thread.  This keeps cheap queries off the worker pool (no
            # cross-session head-of-line blocking behind slow generations)
            # while producing the byte-identical envelope.  A concurrent
            # submit on another connection of the same session can race
            # this check, but ordering between concurrent connections is
            # undefined anyway.
            return self.service.execute(request, self.session)
        try:
            # The session has jobs in flight: go submit+wait over the job
            # scheduler -- the same path its asynchronous jobs take, which
            # is what keeps one session's traffic FIFO with its jobs.
            return self.service.jobs.run_sync(request, self.session)
        except Exception as exc:  # noqa: BLE001 - queue-full / shutdown
            return Response(
                ok=False,
                error=error_from_exception(exc),
                session_id=self.session.session_id,
                request_kind=request.kind,
            )


class ICDBServer:
    """A threaded TCP server fronting one :class:`ComponentService`.

    One handler thread per connection; all threads are daemons, and
    :meth:`stop` drains them by closing the listener and every live
    connection socket.  ``port=0`` binds an ephemeral port; the bound
    address is available as :attr:`host` / :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        service: Optional[ComponentService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_sessions: int = 0,
        shed_threshold: float = 0.9,
    ):
        self.service = service or ComponentService()
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        #: Sessions outlive connections; the registry owns them (bounded
        #: by ``max_sessions``, 0 = unlimited) and resolves attach tokens.
        self.sessions = SessionRegistry(self.service, max_sessions=max_sessions)
        #: Overload admission control shared by every connection
        #: (``shed_threshold >= 1.0`` disables it).
        self.shedder = LoadShedder(
            self.service.jobs, threshold=shed_threshold, metrics=self.service.metrics
        )
        self.connections_served = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._live: Set[socket.socket] = set()
        #: Per-connection frame senders, for pushing ``goodbye`` on drain.
        self._senders: Dict[socket.socket, Callable[[Dict[str, Any]], None]] = {}
        self._live_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._draining = threading.Event()
        self.service.register_health_source("net", self._health)

    def _health(self) -> Dict[str, Any]:
        with self._live_lock:
            connections = len(self._live)
        return {
            "address": f"{self.host}:{self.port}",
            "sessions": len(self.sessions),
            "connections": connections,
            "draining": self._draining.is_set(),
            "shed_threshold": self.shedder.threshold,
        }

    # ---------------------------------------------------------------- control

    def start(self) -> "ICDBServer":
        if self._listener is not None:
            raise IcdbError("server is already running")
        self._listener = socket.create_server(
            (self.host, self.port), backlog=128, reuse_port=False
        )
        # A blocking accept() does not reliably wake when another thread
        # closes the listener; a short timeout lets the accept loop poll
        # the stop flag instead.
        self._listener.settimeout(0.25)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping.clear()
        self._stopped.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="icdb-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block until :meth:`stop` is called (e.g. from a signal handler)."""
        self._stopped.wait()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, close live connections.

        ``timeout`` is the *overall* drain budget, not per thread: a
        handler blocked inside a long job wait (daemon thread; socket
        closure cannot interrupt a condition wait) is abandoned once the
        deadline passes instead of stalling the shutdown further.
        """
        if self._listener is None:
            return
        deadline = time.monotonic() + timeout
        self._stopping.set()

        def _teardown(what: str, fn: Callable[[], None]) -> None:
            # Closing an already-dead socket raising is survivable, but
            # silently eating the error hid real teardown bugs: count it
            # and leave a DEBUG trace instead.
            try:
                fn()
            except OSError as exc:
                self.service.metrics.counter("net.shutdown_errors").inc()
                _LOG.debug("shutdown_error", what=what, error=repr(exc))

        _teardown("listener.close", self._listener.close)
        with self._live_lock:
            live = list(self._live)
        for conn in live:
            _teardown(
                "conn.shutdown", lambda c=conn: c.shutdown(socket.SHUT_RDWR)
            )
            _teardown("conn.close", conn.close)
        if self._accept_thread is not None:
            self._accept_thread.join(max(0.0, deadline - time.monotonic()))
        with self._live_lock:
            handlers = list(self._threads)
            self._threads = []
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._listener = None
        self._accept_thread = None
        self._stopped.set()

    def drain(self, grace: float = 10.0) -> None:
        """Planned shutdown: stop accepting, finish in-flight jobs, stop.

        The drain protocol (``docs/resilience.md``):

        1. the listener closes -- no new connections, no new sessions;
        2. every live connection is pushed a ``goodbye`` frame, so
           clients distinguish the coming close from a crash and retry
           against another host instead of this one;
        3. in-flight jobs get up to ``grace`` seconds to finish;
        4. the durable store (if any) takes a final snapshot, so the
           next boot replays nothing;
        5. :meth:`stop` closes the remaining connections.
        """
        if self._draining.is_set() or self._listener is None:
            return
        self._draining.set()
        self.service.metrics.counter("resilience.drains").inc()
        deadline = time.monotonic() + max(0.0, grace)
        try:
            # 1. Stop accepting: closing the listener wakes the accept
            # loop, which exits on the resulting OSError.
            try:
                self._listener.close()
            except OSError:
                pass
            # 2. Tell every live connection.  A send failing just means
            # the peer is already gone -- exactly who does not need a
            # goodbye.  (``ValueError``: a closed stream's buffered
            # writer raises it instead of ``OSError``.)
            with self._live_lock:
                senders = list(self._senders.values())
            for send in senders:
                try:
                    send({"type": FRAME_GOODBYE, "reason": "server draining"})
                except (OSError, ProtocolError, ValueError):
                    pass
            # 3. Let in-flight jobs finish (bounded).
            while time.monotonic() < deadline:
                stats = self.service.jobs.stats()
                if stats["queued"] == 0 and stats["running"] == 0:
                    break
                time.sleep(0.05)
            # 4. Preserve everything acknowledged so far.
            store = self.service.durable_store
            if store is not None:
                try:
                    store.snapshot()
                except Exception as exc:  # noqa: BLE001 - see finally
                    _LOG.debug("drain_snapshot_error", error=repr(exc))
        finally:
            # 5. Close out -- unconditionally.  A drain step failing must
            # never leave the process unstoppable (SIGTERM would then
            # appear ignored: serve_forever() waits on stop() forever).
            self.stop(timeout=max(1.0, deadline - time.monotonic()))

    def __enter__(self) -> "ICDBServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---------------------------------------------------------------- serving

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by stop()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"icdb-conn-{addr[1]}",
                daemon=True,
            )
            with self._live_lock:
                # Prune finished handlers so a long-running server does
                # not accumulate one dead Thread per past connection.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        conn.settimeout(None)  # accepted sockets must block, whatever the listener does
        with self._live_lock:
            self._live.add(conn)
            self.connections_served += 1
        stream = FrameStream(conn, self.max_frame_bytes)
        # Job workers push job_event frames between replies; one lock per
        # connection keeps pushed frames and replies from interleaving
        # mid-frame on the wire.
        send_lock = threading.Lock()

        def locked_send(payload: Dict[str, Any]) -> None:
            with send_lock:
                stream.send(payload)

        def push(payload: Dict[str, Any]) -> None:
            # Send errors propagate: FrameDispatcher._push_event is the
            # single place that counts and logs dropped pushes.
            locked_send(payload)

        dispatcher = FrameDispatcher(
            self.service,
            client_label=f"{addr[0]}:{addr[1]}",
            registry=self.sessions,
            push=push,
            shedder=self.shedder,
        )
        with self._live_lock:
            self._senders[conn] = locked_send
        if self._draining.is_set():
            # A connection that slipped in while drain ran: tell it too.
            try:
                locked_send({"type": FRAME_GOODBYE, "reason": "server draining"})
            except (OSError, ProtocolError, ValueError):
                pass
        try:
            while not self._stopping.is_set():
                try:
                    payload = stream.recv()
                except ProtocolError as exc:
                    # Bad framing: report it, then drop the connection --
                    # after a malformed or oversized frame the stream
                    # position is unreliable.
                    try:
                        locked_send(error_payload(error_from_exception(exc)))
                    except (OSError, ProtocolError):
                        pass  # not even the error fits the frame limit
                    break
                except OSError:
                    break  # peer vanished mid-frame
                if payload is None:
                    break  # clean disconnect
                reply = dispatcher.dispatch(payload)
                try:
                    locked_send(reply)
                except ProtocolError as exc:
                    # The reply itself did not fit the frame limit.  Nothing
                    # was written (encoding fails before any bytes go out),
                    # so the stream is intact: report and keep serving.
                    try:
                        locked_send(error_payload(error_from_exception(exc)))
                    except (OSError, ProtocolError):
                        break
                except OSError:
                    break
                if dispatcher.closed:
                    break
        finally:
            dispatcher.close()  # stop pushes, detach (not destroy) the session
            with self._live_lock:
                self._live.discard(conn)
                self._senders.pop(conn, None)
            stream.close()


def serve(
    service: Optional[ComponentService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    max_sessions: int = 0,
    shed_threshold: float = 0.9,
) -> ICDBServer:
    """Start an :class:`ICDBServer` and return it (already listening)."""
    return ICDBServer(
        service=service,
        host=host,
        port=port,
        max_frame_bytes=max_frame_bytes,
        max_sessions=max_sessions,
        shed_threshold=shed_threshold,
    ).start()


def _arg_type(
    parse: Callable[[str], Any], accept: Callable[[Any], bool], expected: str
) -> Callable[[str], Any]:
    """An argparse type: ``parse`` the text, then require ``accept``.

    A value out of range fails the parse (exit 2 with the usage line)
    before anything starts, not later as a traceback.
    """

    def convert(text: str) -> Any:
        try:
            value = parse(text)
        except ValueError:
            noun = "an integer" if parse is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    return convert


_positive_int = _arg_type(int, lambda v: v >= 1, "a value >= 1")
_non_negative_int = _arg_type(int, lambda v: v >= 0, "a value >= 0")
_positive_float = _arg_type(float, lambda v: v > 0, "a value > 0")
_non_negative_float = _arg_type(float, lambda v: v >= 0, "a value >= 0")
_port = _arg_type(int, lambda v: 0 <= v <= 65535, "a port in 0..65535")


def main(argv: Optional[List[str]] = None) -> int:
    """The ``python -m repro.net.server`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro.net.server",
        description="Serve an ICDB component service over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=_port, default=7361, help="TCP port (0 for ephemeral)"
    )
    parser.add_argument(
        "--store-root", default=None, help="design-data file store directory"
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable store directory: journal every DB mutation, snapshot "
            "periodically, and recover state on boot (before accepting "
            "connections); design-data files default to DIR/files"
        ),
    )
    parser.add_argument(
        "--journal-fsync",
        choices=FSYNC_POLICIES,
        default="interval",
        help=(
            "journal fsync policy (with --data-dir): 'always' = every "
            "acknowledged write survives power loss, 'interval' = bounded "
            "loss window, 'never' = page cache only"
        ),
    )
    parser.add_argument(
        "--snapshot-interval",
        type=_non_negative_float,
        default=DEFAULT_SNAPSHOT_INTERVAL,
        help=(
            "seconds between automatic snapshots + compaction "
            "(with --data-dir; 0 disables the background snapshotter)"
        ),
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=_positive_int,
        default=MAX_FRAME_BYTES,
        help="per-frame payload size limit",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="job worker pool size (>= 1; default 4)",
    )
    parser.add_argument(
        "--max-sessions",
        type=_non_negative_int,
        default=0,
        help="ceiling on live sessions (>= 0; 0 = unlimited)",
    )
    parser.add_argument(
        "--shed-threshold",
        type=_positive_float,
        default=0.9,
        metavar="FRACTION",
        help=(
            "start shedding expensive requests when the job queue passes "
            "this fraction of its capacity (>= 1.0 disables shedding)"
        ),
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "on SIGTERM, drain instead of stopping: close the listener, "
            "push 'goodbye' to clients, give in-flight jobs up to SECONDS "
            "to finish, snapshot the store, then exit"
        ),
    )
    parser.add_argument(
        "--log-requests",
        default=None,
        metavar="PATH",
        help="write one JSON line per request to PATH ('-' for stderr)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help=(
            "mark requests at or above this latency as slow; without "
            "--log-requests, slow requests alone are logged to stderr"
        ),
    )
    parser.add_argument(
        "--fleet-workers",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "spawn N generation worker processes (repro.fleet.worker) and "
            "dispatch cold catalog generations across them (0 = no fleet)"
        ),
    )
    parser.add_argument(
        "--metrics-path",
        default=None,
        metavar="PATH",
        help="periodically export a JSON metrics snapshot to PATH",
    )
    parser.add_argument(
        "--metrics-interval",
        type=_positive_float,
        default=10.0,
        help="seconds between metrics snapshots (with --metrics-path)",
    )
    args = parser.parse_args(argv)

    request_log: Optional[RequestLog] = None
    if args.log_requests == "-":
        request_log = RequestLog(stream=sys.stderr, slow_ms=args.slow_ms)
    elif args.log_requests is not None:
        request_log = RequestLog(path=args.log_requests, slow_ms=args.slow_ms)
    elif args.slow_ms is not None:
        # Outliers-only production setup: no full request log was asked
        # for, so only requests over the threshold reach stderr.
        request_log = RequestLog(
            stream=sys.stderr, slow_ms=args.slow_ms, slow_only=True
        )

    durable: Optional[DurableStore] = None
    store_root = args.store_root
    if args.data_dir is not None:
        durable = DurableStore(
            args.data_dir,
            fsync=args.journal_fsync,
            snapshot_interval=args.snapshot_interval or None,
        )
        if store_root is None:
            store_root = str(Path(args.data_dir) / "files")
    service = ComponentService(
        store_root=store_root,
        job_workers=args.workers,
        request_log=request_log,
        durable_store=durable,
    )
    if durable is not None and durable.recovery_report is not None:
        report = durable.recovery_report
        print(
            "icdb store recovered: "
            f"snapshot seq {report.snapshot_seq}, "
            f"{report.events_replayed} events replayed, "
            f"last seq {report.last_seq}",
            flush=True,
        )
    fleet = None
    if args.fleet_workers:
        # Local import: only a fleet server loads the dispatcher.  It
        # returns once every child is ready and raises if any is not,
        # so a broken fleet exits before the banner.
        from ..fleet.dispatcher import FleetDispatcher

        fleet = FleetDispatcher(service, args.fleet_workers)
        service.attach_fleet(fleet)
        print(f"icdb fleet ready: {args.fleet_workers} workers", flush=True)
    exporter: Optional[MetricsExporter] = None
    if args.metrics_path is not None:
        exporter = MetricsExporter(
            service.metrics, args.metrics_path, interval=args.metrics_interval
        ).start()
    server = serve(
        service=service,
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_bytes,
        max_sessions=args.max_sessions,
        shed_threshold=args.shed_threshold,
    )

    def _shutdown(signum, frame) -> None:  # pragma: no cover - signal path
        # stop() sets the event serve_forever() waits on, and the signal
        # may land while this very thread holds that event's lock: stop
        # on another thread.
        threading.Thread(target=server.stop, name="icdb-stop", daemon=True).start()

    def _drain(signum, frame) -> None:  # pragma: no cover - signal path
        # The drain sleeps and joins; a signal handler must not.  Run it
        # on its own thread and let serve_forever() observe the stop.
        print(
            f"icdb server draining (grace {args.drain_grace:g}s)", flush=True
        )
        threading.Thread(
            target=server.drain,
            args=(args.drain_grace,),
            name="icdb-drain",
            daemon=True,
        ).start()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(
        signal.SIGTERM, _drain if args.drain_grace is not None else _shutdown
    )
    # Only now: a client that signals on seeing the banner reaches the
    # handlers above, never the default KeyboardInterrupt.
    print(f"icdb server listening on {server.host}:{server.port}", flush=True)
    server.serve_forever()
    if fleet is not None:
        fleet.close()
    if durable is not None:
        durable.close()
    if exporter is not None:
        exporter.stop(write_final=True)
    if request_log is not None:
        request_log.close()
    print("icdb server stopped", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
