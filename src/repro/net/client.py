"""Remote ICDB clients: the classic session surface over a transport.

:class:`RemoteClient` speaks the :mod:`repro.net.protocol` frame codec to
an :class:`~repro.net.server.ICDBServer`.  Its classic operations
(`request_component`, queries, layout, simulation, design transactions)
are the shared :class:`~repro.api.surface.ClassicOps` methods a local
:class:`~repro.api.service.Session` has too -- written once, sent through
:meth:`RemoteClient.execute` -- so the legacy call sites (CQL executors,
the datapath builders, the Figure 13 simple computer) bind to a network
server exactly like to a local session.  ``request_component`` answers a
:class:`RemoteInstance`: a client-side view of the generated instance that
rebuilds the shape function and delay report from the wire summary and
fetches the heavier renders (VHDL, connection info) on demand.

The asynchronous job surface is shared too: ``submit`` /
``submit_component`` answer a :class:`~repro.api.surface.JobHandle`
(futures-style ``result(timeout)`` / ``cancel()`` / ``events()``),
server-pushed ``job_event`` frames keep handles live between replies,
and :meth:`RemoteClient.attach` resumes a session -- with its jobs -- on a
fresh connection after a disconnect.  The module's :func:`connect` and
:func:`attach` are those two constructors under their public names.

Two transports share the codec:

* :class:`SocketTransport` -- a blocking TCP connection;
* :class:`LoopbackTransport` -- no socket: frames are encoded, decoded and
  dispatched in process through the same :class:`FrameDispatcher` the TCP
  server uses.  Deterministic and fast, it is what most transport tests
  run on.

::

    from repro.net import connect, serve

    server = serve(port=0)
    client = connect(server.host, server.port, client="hls-tool")
    counter = client.request_component(
        component_name="counter", functions=["INC"], attributes={"size": 5}
    )
    print(counter.render_delay())
    client.close()
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..api.errors import E_UNAVAILABLE, IcdbErrorInfo, error_from_exception
from ..api.messages import (
    PROTOCOL_VERSION,
    AttachSession,
    BatchRequest,
    GetMetrics,
    Hello,
    NewName,
    Ping,
    Request,
    Response,
    Welcome,
)
from ..api.service import ComponentService
from ..api.surface import ClassicOps
from ..core.icdb import IcdbError
from ..core.instances import TARGET_LOGIC
from ..estimation.area import AreaRecord
from ..estimation.delay import DelayReport
from ..estimation.shape import ShapeFunction
from .protocol import (
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_GOODBYE,
    FRAME_JOB_EVENT,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    FRAME_WELCOME,
    MAX_FRAME_BYTES,
    FrameStream,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_payload,
)


class ServerDrained(IcdbError):
    """The server announced a planned drain before closing the connection.

    Distinct from a plain connection loss (``E_UNAVAILABLE`` on an
    :class:`~repro.core.icdb.IcdbError`): a drain is *not* a fault.  The
    request that hit it was never executed-and-lost -- the server
    finished in-flight work, snapshotted, and said ``goodbye`` first --
    so a retry policy may always retry it (ideally against another
    host), mutating or not, without any at-most-once ceremony.
    """

    def __init__(self, message: str):
        super().__init__(message, code=E_UNAVAILABLE)


class SocketTransport:
    """One blocking TCP connection; a lock serializes request/reply pairs.

    The server may interleave pushed ``job_event`` frames with replies;
    they are routed to :attr:`on_event` (set by the owning client) and
    never returned as a reply.  A pushed ``goodbye`` frame marks the
    server as draining: once the connection then closes, failures raise
    :class:`ServerDrained` instead of the generic connection-lost error.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ):
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._stream = FrameStream(self._socket, max_frame_bytes)
        self._lock = threading.Lock()
        self._dead = False
        self._drained = False
        self.description = f"tcp://{host}:{port}"
        #: Callback receiving each pushed job-event dict (or None to drop).
        self.on_event: Optional[Callable[[Dict[str, Any]], None]] = None

    def _recv_reply(self) -> Optional[Dict[str, Any]]:
        """The next non-push frame; pushed job events go to ``on_event``."""
        while True:
            reply = self._stream.recv()
            if reply is None:
                return reply
            frame_type = reply.get("type")
            if frame_type == FRAME_GOODBYE:
                # Planned shutdown announcement: remember it so the
                # coming close raises ServerDrained, keep reading -- the
                # reply to the in-flight request still arrives.
                self._drained = True
                continue
            if frame_type != FRAME_JOB_EVENT:
                return reply
            sink = self.on_event
            if sink is not None:
                sink(reply.get("event") or {})

    def send_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self._dead:
                raise IcdbError(
                    "connection to the ICDB server is closed", code=E_UNAVAILABLE
                )
            try:
                self._stream.send(payload)
                reply = self._recv_reply()
            except ProtocolError:
                # The stream position is unreliable after a framing error;
                # poison the transport so no later call can misread a
                # stale reply as its own.
                self._poison()
                raise
            except OSError as exc:
                # Includes socket timeouts: the server's late reply would
                # desynchronize every later request/response pair.
                self._poison()
                if self._drained:
                    raise ServerDrained(
                        "the ICDB server is draining (planned shutdown); "
                        "retry on another host"
                    ) from exc
                raise IcdbError(
                    f"connection to the ICDB server lost: {exc}", code=E_UNAVAILABLE
                ) from exc
        if reply is None:
            with self._lock:
                self._poison()
            if self._drained:
                raise ServerDrained(
                    "the ICDB server drained and closed the connection "
                    "(planned shutdown); retry on another host"
                )
            raise IcdbError(
                "the ICDB server closed the connection", code=E_UNAVAILABLE
            )
        return reply

    def _poison(self) -> None:
        self._dead = True
        self._stream.close()

    def close(self) -> None:
        self._dead = True
        self._stream.close()


class LoopbackTransport:
    """The in-process transport: same codec, no socket.

    Every payload is encoded to frame bytes and decoded back on both legs,
    so anything that would not survive the wire does not survive the
    loopback either.
    """

    def __init__(
        self, service: ComponentService, max_frame_bytes: int = MAX_FRAME_BYTES
    ):
        self._max = max_frame_bytes
        self._lock = threading.Lock()
        self.description = "loopback"
        #: Callback receiving each pushed job-event dict (or None to drop).
        self.on_event: Optional[Callable[[Dict[str, Any]], None]] = None
        # Local import: a process that only *talks* to servers (a
        # benchmark driver, the admin console) never needs the server
        # module.
        from .server import FrameDispatcher

        self._dispatcher = FrameDispatcher(
            service, client_label="loopback", push=self._push
        )

    def _push(self, payload: Dict[str, Any]) -> None:
        """Server push: same codec round-trip, delivered synchronously."""
        sink = self.on_event
        if sink is None:
            return
        try:
            wire = decode_frame(encode_frame(payload, self._max)[4:])
        except ProtocolError:
            return  # mirror TCP: an oversized push is dropped, not fatal
        sink(wire.get("event") or {})

    def send_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        wire = encode_frame(payload, self._max)
        with self._lock:
            if self._dispatcher.closed:
                raise IcdbError("loopback connection is closed", code=E_UNAVAILABLE)
            reply = self._dispatcher.dispatch(decode_frame(wire[4:]))
        try:
            return decode_frame(encode_frame(reply, self._max)[4:])
        except ProtocolError as exc:
            # Mirror the TCP server: an oversized reply becomes an error
            # frame, the connection survives.
            return error_payload(error_from_exception(exc))

    def close(self) -> None:
        self._dispatcher.close()
        self._dispatcher.closed = True


class RemoteInstance:
    """Client-side view of a generated instance (from its wire summary).

    Exposes the :class:`~repro.core.instances.ComponentInstance` surface
    the synthesis clients rely on: identity, estimates, the rebuilt shape
    function and delay report, the rendered reports, and lazy fetches of
    the VHDL artifacts through the owning client.
    """

    def __init__(self, client: "RemoteClient", summary: Mapping[str, Any]):
        self._client = client
        self._summary = dict(summary)
        self.name: str = str(summary["instance"])
        self.implementation: str = str(summary.get("implementation", ""))
        self.component_type: str = str(summary.get("component_type", ""))
        self.target: str = str(summary.get("target", TARGET_LOGIC))
        self.design: str = str(summary.get("design", ""))
        self.cached: bool = bool(summary.get("cached", False))
        self.parameters: Dict[str, int] = dict(summary.get("parameters") or {})
        self.functions: List[str] = list(summary.get("functions") or [])
        self.constraint_violations: List[str] = list(summary.get("violations") or [])
        self.files: Dict[str, str] = dict(summary.get("files") or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteInstance({self.name!r})"

    # ------------------------------------------------------------------ facts

    @property
    def clock_width(self) -> float:
        return float(self._summary.get("clock_width") or 0.0)

    @property
    def area(self) -> float:
        return float(self._summary.get("area_um2") or 0.0)

    @property
    def cells(self) -> int:
        return int(self._summary.get("cells") or 0)

    def met_constraints(self) -> bool:
        return bool(self._summary.get("met_constraints", True))

    def _detail(self, key: str) -> Any:
        value = self._summary.get(key)
        if value is None:
            raise IcdbError(
                f"instance {self.name!r} was requested with detail='summary'; "
                f"{key} is only carried by detail='full' answers"
            )
        return value

    @property
    def shape(self) -> ShapeFunction:
        """The shape function, rebuilt from the structured wire data."""
        alternatives = tuple(
            AreaRecord(
                strips=int(record["strips"]),
                width=float(record["width"]),
                height=float(record["height"]),
            )
            for record in self._detail("shape_alternatives")
        )
        return ShapeFunction(component=self.name, alternatives=alternatives)

    @property
    def delay_report(self) -> DelayReport:
        """The delay report, rebuilt from the structured wire data."""
        detail = self._detail("delay_detail")
        return DelayReport(
            component=self.name,
            clock_width=float(detail["clock_width"]),
            clock_to_output=dict(detail["clock_to_output"]),
            setup_times=dict(detail["setup_times"]),
            comb_delays=dict(detail["comb_delays"]),
            min_pulse_width=float(detail["min_pulse_width"]),
            is_sequential=bool(detail["is_sequential"]),
        )

    def worst_delay(self) -> float:
        return self.delay_report.worst_output_delay()

    def delay_to(self, output: str) -> float:
        return self.delay_report.delay_to(output)

    # ------------------------------------------------------------- renderings

    def render_delay(self) -> str:
        return str(self._detail("delay"))

    def render_shape(self) -> str:
        return str(self._detail("shape_function"))

    def render_area_records(self) -> str:
        return str(self._detail("area"))

    def vhdl_netlist(self) -> str:
        return str(self._query_field("VHDL_net_list"))

    def vhdl_head(self) -> str:
        return str(self._query_field("VHDL_head"))

    @property
    def connection_info(self) -> str:
        return str(self._query_field("connect"))

    def _query_field(self, field: str) -> Any:
        return self._client.instance_query(self.name, fields=(field,))[field]

    def summary(self) -> str:
        return (
            f"{self.name}: impl={self.implementation} "
            f"cells={self.cells} CW={self.clock_width:.1f} ns "
            f"area={self.area:,.0f} um^2"
        )


class RemoteInstances:
    """Remote mirror of the shared instance registry's naming surface."""

    def __init__(self, client: "RemoteClient"):
        self._client = client

    def new_name(self, base: str) -> str:
        """A fresh server-side instance name derived from ``base``."""
        return str(self._client.execute(NewName(base=base)).unwrap())


class RemoteClient(ClassicOps):
    """A connected ICDB client with the classic session surface.

    The classic blocking calls and the job surface (``submit``,
    ``submit_component``, ``job_handle``) are the shared
    :class:`~repro.api.surface.ClassicOps` methods over :meth:`execute`.
    ``session_token`` is the resume credential: after losing the
    connection, :meth:`RemoteClient.attach` binds a fresh connection to
    the same server-side session with its design context and jobs intact.
    """

    def __init__(
        self, transport, client: str = "", attach_token: Optional[str] = None
    ):
        super().__init__()
        self.transport = transport
        self.client = client
        self.current_design: str = ""
        self.instances = RemoteInstances(self)
        # Route pushed job_event frames before the handshake: an attach to
        # a session with running jobs may push events with the welcome.
        transport.on_event = self._route_event
        welcome = self._handshake(client, attach_token)
        self.session_id = welcome.session_id
        self.session_token = welcome.session_token
        self.server_name = welcome.server
        self.protocol = welcome.protocol

    # ------------------------------------------------------------ connection

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        client: str = "",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ) -> "RemoteClient":
        """Connect to a running :class:`~repro.net.server.ICDBServer`."""
        return cls(
            SocketTransport(host, port, max_frame_bytes, timeout), client=client
        )

    @classmethod
    def attach(
        cls,
        host: str,
        port: int,
        token: str,
        client: str = "",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ) -> "RemoteClient":
        """Resume an existing session (by its welcome token) on a new
        connection to a running :class:`~repro.net.server.ICDBServer`."""
        return cls(
            SocketTransport(host, port, max_frame_bytes, timeout),
            client=client,
            attach_token=token,
        )

    @classmethod
    def loopback(
        cls,
        service: ComponentService,
        client: str = "",
        attach_token: Optional[str] = None,
    ) -> "RemoteClient":
        """An in-process client: same codec and dispatcher, no socket."""
        return cls(LoopbackTransport(service), client=client, attach_token=attach_token)

    def _handshake(self, client: str, attach_token: Optional[str]) -> Welcome:
        if attach_token:
            opening = AttachSession(token=attach_token, client=client).to_dict()
        else:
            opening = Hello(client=client).to_dict()
        reply = self.transport.send_payload(opening)
        self._raise_on_error(reply)
        if reply.get("type") != FRAME_WELCOME:
            raise ProtocolError(
                f"expected a welcome frame, got {reply.get('type')!r}"
            )
        welcome = Welcome.from_dict(reply)
        if welcome.protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol {welcome.protocol}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        return welcome

    @staticmethod
    def _raise_on_error(reply: Mapping[str, Any]) -> None:
        if reply.get("type") == FRAME_ERROR:
            info = IcdbErrorInfo.from_dict(reply.get("error") or {})
            raise IcdbError(
                info.message or "transport error",
                code=info.code,
                retry_after_ms=info.retry_after_ms,
            )

    def close(self) -> None:
        """Send ``bye`` (best effort) and drop the transport."""
        try:
            self.transport.send_payload({"type": FRAME_BYE})
        except (IcdbError, OSError):
            pass
        self.transport.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ping(self) -> float:
        """Round-trip time of a typed ``ping`` request, in milliseconds.

        Travels the full request path (codec, dispatcher, service), so a
        finite answer means the server is actually serving -- not merely
        echoing frames.  Use :meth:`health` for the structured health
        payload.
        """
        start = time.perf_counter()
        self.execute(Ping()).unwrap()
        return (time.perf_counter() - start) * 1000.0

    def health(self, echo: str = "") -> Dict[str, Any]:
        """The server's health dict (uptime, queue depths, drain state).

        See :class:`~repro.api.messages.Ping`: status is ``"ok"`` or
        ``"draining"``; ``jobs`` carries the queue depths; with a durable
        store, ``store`` carries last-seq and the boot recovery report.
        """
        return self.execute(Ping(echo=echo)).unwrap()

    # ----------------------------------------------------------- typed entry

    def execute(
        self, request: Request, request_id: Optional[str] = None
    ) -> Response:
        """Send one typed request; returns the response envelope.

        Like the local service, transport-level delivery of a bad request
        still answers an envelope (``ok=False`` with a structured error)
        rather than raising; only connection-level failures raise.

        ``request_id`` opts into the server's session-scoped dedupe: a
        retry of the same id after an ambiguous failure answers the
        recorded response instead of re-executing (the resilient client
        uses this when it re-sends after a connection dropped mid-reply).
        """
        payload: Dict[str, Any] = {
            "type": FRAME_REQUEST,
            "request": request.to_dict(),
        }
        if request_id:
            payload["request_id"] = request_id
        reply = self.transport.send_payload(payload)
        self._raise_on_error(reply)
        if reply.get("type") != FRAME_RESPONSE:
            raise ProtocolError(
                f"expected a response frame, got {reply.get('type')!r}"
            )
        return Response.from_dict(reply.get("response") or {})

    def execute_batch(
        self, requests: Sequence[Request], repeat: int = 1
    ) -> List[Response]:
        """Pipeline several requests in one frame; one response each.

        The server executes the batch in one service-lock acquisition; the
        answering envelopes come back in execution order.  ``repeat`` runs
        the whole sequence that many times over (``repeat * len(requests)``
        responses) while shipping and parsing the requests only once -- the
        bulk fast path for "N more of this component".
        """
        outer = self.execute(BatchRequest(requests=tuple(requests), repeat=repeat))
        if not outer.ok:
            outer.unwrap()  # raises the structured error
        return [Response.from_dict(item) for item in outer.value]

    def metrics(
        self,
        prefixes: Sequence[str] = (),
        include_histograms: bool = True,
    ) -> Dict[str, Any]:
        """The server's metrics snapshot (counters/gauges/histograms).

        ``prefixes`` keeps only metric names starting with any of the
        given prefixes; ``include_histograms=False`` is the cheap polling
        mode.  This is a normal typed request over the wire -- any client
        (the admin console included) can observe the server it talks to.
        """
        return self.execute(
            GetMetrics(
                prefixes=tuple(prefixes),
                include_histograms=include_histograms,
            )
        ).unwrap()

    # ------------------------------------------------------------ remote hooks

    def _component_instance(self, summary: Dict[str, Any]) -> RemoteInstance:
        return RemoteInstance(self, summary)


connect = RemoteClient.connect
attach = RemoteClient.attach
