"""The ICDB error type and the component server facade.

:class:`IcdbError` is what every layer raises for an invalid request; its
structured ``code`` lets a transport map failures without parsing
messages.

:class:`ICDB` is the facade the paper's synthesis tools talk to (through
CQL or directly): it answers component / function queries, generates
component instances on request, answers instance queries (delay, area,
shape function, connection information, VHDL netlists), generates layouts,
and manages the per-design component lists and transactions.  It is a
:class:`~repro.api.service.Session` of its own private
:class:`~repro.api.service.ComponentService`, defined in
:mod:`repro.api.service`.  That module imports this one while it loads,
so ``ICDB`` is re-exported here lazily: ``from repro.core.icdb import
ICDB`` resolves it on first access.
"""

from __future__ import annotations

from ..lazy import lazy_exports


class IcdbError(RuntimeError):
    """Raised for invalid ICDB requests.

    ``code`` is a structured error code (one of the constants in
    :mod:`repro.api.errors`) so a transport can map failures without
    parsing messages.
    """

    def __init__(self, message: str, code: str = "BAD_REQUEST", retry_after_ms=None):
        super().__init__(message)
        self.code = code
        #: Optional server hint (milliseconds) for retryable failures
        #: (``BUSY`` paths): how long a client should back off before the
        #: next attempt.  ``None`` when the server gave no hint.
        self.retry_after_ms = retry_after_ms


__getattr__, __dir__ = lazy_exports(globals(), {"repro.api.service": ("ICDB",)})[:2]
