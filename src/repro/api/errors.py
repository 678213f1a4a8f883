"""Structured error codes and the wire-format error payload.

Every failed service request is reported as an :class:`IcdbErrorInfo`
inside the :class:`~repro.api.messages.Response` envelope: a machine
readable ``code`` (one of the ``E_*`` constants below), the human readable
message, and the exception type name for debugging.  A socket / HTTP
transport can map codes to status lines without parsing messages; the
in-process transport additionally keeps the original exception on the
envelope so the legacy call paths re-raise exactly what they always did.
"""

from __future__ import annotations

import sys
from typing import Dict, Mapping, Optional, Tuple

from ..core.icdb import IcdbError
from ..wire import Record

#: The request is malformed or references an unknown option.
E_BAD_REQUEST = "BAD_REQUEST"
#: A query names something outside the vocabulary -- an attribute no
#: catalog implementation defines, or an unknown metric in a plan bound
#: or objective.  Distinct from ``NOT_FOUND``: the request shape is
#: valid, the *name* is not part of the schema.
E_INVALID = "INVALID"
#: A named implementation, instance or design does not exist.
E_NOT_FOUND = "NOT_FOUND"
#: The operation conflicts with existing state (e.g. duplicate design).
E_CONFLICT = "CONFLICT"
#: The component generator failed to produce an instance.
E_GENERATION_FAILED = "GENERATION_FAILED"
#: A wire frame violates the transport protocol (bad framing, bad JSON,
#: missing handshake, unsupported protocol version).
E_PROTOCOL = "PROTOCOL"
#: A wire frame exceeds the transport's frame-size limit.
E_FRAME_TOO_LARGE = "FRAME_TOO_LARGE"
#: The server (or the connection to it) is gone or shutting down.
E_UNAVAILABLE = "UNAVAILABLE"
#: The job (or the operation it was running) was cancelled by a client.
E_CANCELLED = "CANCELLED"
#: A bounded wait (``JobStatus`` with ``wait``, a client-side ``result``
#: timeout) expired before the job reached a terminal state.
E_TIMEOUT = "TIMEOUT"
#: The server is at capacity: the job queue is full or the session limit
#: has been reached.  Retryable -- the request itself was well-formed.
E_BUSY = "BUSY"
#: Anything unexpected; the service never lets an exception escape raw.
E_INTERNAL = "INTERNAL"

ERROR_CODES = (
    E_BAD_REQUEST,
    E_INVALID,
    E_NOT_FOUND,
    E_CONFLICT,
    E_GENERATION_FAILED,
    E_PROTOCOL,
    E_FRAME_TOO_LARGE,
    E_UNAVAILABLE,
    E_CANCELLED,
    E_TIMEOUT,
    E_BUSY,
    E_INTERNAL,
)


class IcdbErrorInfo(Record, frozen=True):
    """Wire-format description of a failed request.

    ``retry_after_ms`` rides along on retryable failures (the ``BUSY``
    paths: session cap, full job queue, load shedding): the server's
    backoff hint in milliseconds.  It is omitted from the wire form when
    the server gave none, so pre-existing payloads parse unchanged.
    """

    code: str
    message: str
    exception_type: str = ""
    retry_after_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "code": self.code,
            "message": self.message,
            "exception_type": self.exception_type,
        }
        if self.retry_after_ms is not None:
            data["retry_after_ms"] = self.retry_after_ms
        return data

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "IcdbErrorInfo":
        retry_after = data.get("retry_after_ms")
        return IcdbErrorInfo(
            code=str(data.get("code", E_INTERNAL)),
            message=str(data.get("message", "")),
            exception_type=str(data.get("exception_type", "")),
            retry_after_ms=(
                float(retry_after)
                if isinstance(retry_after, (int, float)) and not isinstance(retry_after, bool)
                else None
            ),
        )

    def raise_as_exception(self) -> None:
        """Re-raise as an :class:`IcdbError` (used by remote transports)."""
        raise IcdbError(
            self.message, code=self.code, retry_after_ms=self.retry_after_ms
        )


def _loaded(module: str, *names: str) -> Tuple[type, ...]:
    """The named classes of ``module`` if something imported it, else none:
    an exception class from a module never imported cannot have been
    raised, and mapping an error must not load the Figure-8 flow."""
    loaded = sys.modules.get(module)
    return tuple(getattr(loaded, name) for name in names if hasattr(loaded, name))


def error_from_exception(exc: BaseException) -> IcdbErrorInfo:
    """Map an engine exception onto a structured error payload."""
    from ..components.catalog import CatalogError
    from ..constraints import ConstraintError
    from ..core.instances import InstanceError
    from ..core.knowledge import KnowledgeError
    from ..core.progress import OperationCancelled
    from ..core.tools import GenerationError
    from ..db import DatabaseError, StoreError

    if isinstance(exc, OperationCancelled):
        code = E_CANCELLED
    elif isinstance(exc, IcdbError):
        code = getattr(exc, "code", E_BAD_REQUEST)
    elif isinstance(exc, (InstanceError, CatalogError)):
        code = E_NOT_FOUND
    elif isinstance(exc, GenerationError):
        code = E_GENERATION_FAILED
    elif isinstance(exc, _loaded("repro.sim.batch", "SimulationError", "GateSimulationError")):
        # Simulator failures (unknown inputs / nets, non-settling logic)
        # are invalid-operation answers, not malformed requests.
        code = E_INVALID
    elif isinstance(
        exc,
        (ConstraintError, DatabaseError, KnowledgeError, StoreError, ValueError, KeyError, TypeError),
    ):
        code = E_BAD_REQUEST
    else:
        code = E_INTERNAL
    # str(KeyError) wraps the message in repr quotes; use the raw argument.
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    return IcdbErrorInfo(
        code=code,
        message=message,
        exception_type=type(exc).__name__,
        retry_after_ms=getattr(exc, "retry_after_ms", None),
    )
