"""The ICDB wire protocol: length-prefixed JSON frames.

Every message between a client and the :class:`~repro.net.server.ICDBServer`
is one *frame*: a 4-byte big-endian unsigned payload length followed by a
UTF-8 JSON object.  The JSON object always carries a ``type`` field:

==============  ============================================================
frame type      meaning
==============  ============================================================
``hello``       client opens the connection (protocol version, client label)
``attach``      client opens the connection by *resuming* an existing
                session (``token`` from a previous ``welcome``)
``welcome``     server accepts: the session is live (and carries the
                ``session_token`` an ``attach`` can present later)
``request``     a typed request (``request`` holds its ``to_dict()`` form)
``response``    the :class:`~repro.api.messages.Response` envelope answer
``job_event``   **server-pushed**: a progress event of one of the
                session's jobs, interleaved between replies (``event``
                holds a :class:`~repro.api.messages.JobEvent` dict)
``goodbye``     **server-pushed**: the server is draining (planned
                shutdown); in-flight replies still arrive, then the
                connection closes cleanly -- clients should reconnect
                elsewhere / later rather than treat the close as a fault
``error``       a transport-level failure (bad frame, bad handshake);
                carries an :class:`~repro.api.errors.IcdbErrorInfo` payload
``bye``         orderly shutdown of the connection (echoed by the server)
==============  ============================================================

After the handshake every frame a client sends is a ``request`` (or the
closing ``bye``): each operation is a typed request kind with one
handler.  Any other frame type answers an ``error`` frame and the
connection keeps serving.

Oversized frames are rejected before their payload is read
(:class:`FrameTooLarge`); malformed headers, truncated payloads and
non-object JSON raise :class:`ProtocolError`.  Both carry the structured
error codes of :mod:`repro.api.errors`, so a server can answer with an
``error`` frame instead of dying.  The same codec is used by the TCP
transport and the in-process loopback transport, which is what makes the
loopback a faithful (and fast, socket-free) stand-in in tests.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from ..api.errors import E_FRAME_TOO_LARGE, E_PROTOCOL, IcdbErrorInfo
from ..core.icdb import IcdbError

#: Frame header: one big-endian unsigned 32-bit payload length.
HEADER = struct.Struct(">I")

#: Default ceiling for one frame's JSON payload (requests carrying IIF
#: sources or structural netlists are big; 8 MiB is far beyond any of them).
MAX_FRAME_BYTES = 8 * 1024 * 1024

FRAME_HELLO = "hello"
FRAME_ATTACH = "attach"
FRAME_WELCOME = "welcome"
FRAME_REQUEST = "request"
FRAME_RESPONSE = "response"
FRAME_JOB_EVENT = "job_event"
FRAME_GOODBYE = "goodbye"
FRAME_ERROR = "error"
FRAME_BYE = "bye"


class ProtocolError(IcdbError):
    """A frame violated the wire protocol."""

    def __init__(self, message: str, code: str = E_PROTOCOL):
        super().__init__(message, code=code)


class FrameTooLarge(ProtocolError):
    """A frame announced a payload beyond the size limit."""

    def __init__(self, message: str):
        super().__init__(message, code=E_FRAME_TOO_LARGE)


def encode_frame(payload: Dict[str, Any], max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame (header + compact JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds the {max_bytes} byte limit"
        )
    return HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> Dict[str, Any]:
    """Parse one frame payload; the JSON must be an object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def error_payload(info: IcdbErrorInfo) -> Dict[str, Any]:
    """The ``error`` frame for a structured transport failure."""
    return {"type": FRAME_ERROR, "error": info.to_dict()}


class FrameStream:
    """Blocking frame I/O over one connected socket."""

    def __init__(self, sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES):
        self.socket = sock
        self.max_bytes = max_bytes
        # One buffered file object per direction; TCP_NODELAY plus an
        # explicit flush per frame keeps request/response latency flat.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets (AF_UNIX)
            pass
        self._reader = sock.makefile("rb")
        self._writer = sock.makefile("wb")

    # ------------------------------------------------------------------ write

    def send(self, payload: Dict[str, Any]) -> None:
        self._writer.write(encode_frame(payload, self.max_bytes))
        self._writer.flush()

    # ------------------------------------------------------------------- read

    def _read_exactly(self, count: int, context: str) -> Optional[bytes]:
        data = self._reader.read(count)
        if not data and context == "header":
            return None  # clean EOF between frames
        if data is None or len(data) != count:
            raise ProtocolError(
                f"connection closed mid-frame ({context}: expected {count} bytes, "
                f"got {len(data or b'')})"
            )
        return data

    def recv(self) -> Optional[Dict[str, Any]]:
        """The next frame, or ``None`` on a clean end of stream."""
        header = self._read_exactly(HEADER.size, "header")
        if header is None:
            return None
        (length,) = HEADER.unpack(header)
        if length > self.max_bytes:
            raise FrameTooLarge(
                f"incoming frame announces {length} bytes, limit is {self.max_bytes}"
            )
        body = self._read_exactly(length, "payload")
        assert body is not None
        return decode_frame(body)

    # ------------------------------------------------------------------ close

    def close(self) -> None:
        for closer in (self._reader.close, self._writer.close, self.socket.close):
            try:
                closer()
            except OSError:
                pass
