"""Structured logging: per-request JSON lines and typed server events.

Two consumers, one discipline (machine-parseable lines, never free
text -- the proactor event style of the gridworks exemplar):

* :class:`RequestLog` -- the per-request log the service emits from its
  envelope path: one JSON object per line with the request kind, session
  id, latency, error code and result-cache deltas, plus a slow-query
  threshold that escalates matching lines (and can run in slow-only
  mode, the ``--slow-ms``-without-``--log-requests`` server setup);
* :func:`get_logger` / :class:`StructuredLogger` -- JSON event records
  routed through the stdlib :mod:`logging` tree (``repro.net.server``
  etc.), used where errors were previously swallowed silently: dropped
  job-event pushes, shutdown failures.  :mod:`logging` is imported on
  the first event that can reach a handler, not at load.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, IO, List, Optional, TextIO, Tuple, Union

from .metrics import Clock, SYSTEM_CLOCK


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


#: The stdlib levels (``logging.DEBUG`` ...), so that an event can be
#: judged before :mod:`logging` is imported.
_DEBUG, _INFO, _WARNING = 10, 20, 30


class StructuredLogger:
    """JSON event records through a stdlib logger.

    ``logger.debug("push_drop", peer="1.2.3.4:99", error="...")`` emits
    one line ``{"event": "push_drop", "peer": ..., "error": ...}`` at
    DEBUG level on the named stdlib logger, so deployments keep their
    existing handler / level configuration while every record stays
    machine-parseable.

    The stdlib logger is looked up on the first event that needs it.
    While :mod:`logging` is not imported, nothing has configured it: the
    root level is its default WARNING, so a DEBUG or INFO event is
    dropped without importing it, and a WARNING imports it and reaches
    whatever handles it then (with no handler configured, ``lastResort``
    on stderr).
    """

    def __init__(self, name: str):
        self.name = name
        self._logger: Any = None

    def _emit(self, level: int, event: str, fields: Dict[str, Any]) -> None:
        logger = self._logger
        if logger is None:
            if level < _WARNING and "logging" not in sys.modules:
                return
            import logging

            logger = self._logger = logging.getLogger(self.name)
        if not logger.isEnabledFor(level):
            return
        record = {"event": event}
        record.update({key: _jsonable(value) for key, value in fields.items()})
        logger.log(level, json.dumps(record, sort_keys=True))

    def debug(self, event: str, **fields: Any) -> None:
        self._emit(_DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._emit(_INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit(_WARNING, event, fields)


_LOGGERS: Dict[str, StructuredLogger] = {}
_LOGGERS_LOCK = threading.Lock()


def get_logger(name: str) -> StructuredLogger:
    """The process-wide structured logger for ``name`` (cached)."""
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = StructuredLogger(name)
        return logger


#: One buffered record: (ts, kind, session_id, ok, elapsed_ms,
#: error_code, cached, hits_delta, misses_delta, extra-or-None, slow).
_Record = Tuple[
    float, str, str, bool, float, Optional[str], bool, int, int,
    Optional[Dict[str, Any]], bool,
]


class RequestLog:
    """One JSON line per request, with a slow-query threshold.

    Give it an open ``stream`` or a ``path`` (opened append-mode, so a
    restarted server extends its log).  ``slow_ms`` marks any request at
    or above the threshold with ``"slow": true``; with ``slow_only=True``
    everything below the threshold is dropped -- the cheap production
    setup that logs only the outliers.

    The hot path (:meth:`record`) only captures the raw fields; lines
    are formatted and written in batches of ``flush_every`` records so
    the per-request tax stays small (see
    ``benchmarks/bench_wire.py``).  Slow lines drain -- and the
    sink flushes -- immediately, so the outliers an operator tails the
    log for are never stuck in the buffer; everything else becomes
    visible at the next batch boundary, :meth:`flush` or :meth:`close`.
    A lock serializes the buffer (the connection fast path and the job
    workers share one log).
    """

    def __init__(
        self,
        stream: Optional[Union[TextIO, "IO[str]"]] = None,
        path: Optional[str] = None,
        slow_ms: Optional[float] = None,
        slow_only: bool = False,
        clock: Optional[Clock] = None,
        flush_every: int = 64,
    ):
        if (stream is None) == (path is None):
            raise ValueError("RequestLog needs exactly one of 'stream' or 'path'")
        if slow_only and slow_ms is None:
            raise ValueError("slow_only needs a slow_ms threshold")
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self._owns_stream = stream is None
        self._stream = stream if stream is not None else open(
            path, "a", encoding="utf-8"
        )
        self.slow_ms = slow_ms
        self.slow_only = slow_only
        self.flush_every = flush_every
        self._clock = clock or SYSTEM_CLOCK
        # Bound once -- record() is hot; the stock clock goes straight
        # to time.time (skipping a Python-level wrapper call).
        self._now = (
            time.time if type(self._clock) is Clock else self._clock.time
        )
        self._lock = threading.Lock()
        self._pending: List[_Record] = []
        #: Escaped-string memo for the hot fields (request kinds and
        #: session ids repeat heavily); bounded so a hostile stream of
        #: unique ids cannot grow it without limit.
        self._escaped: Dict[str, str] = {}
        #: Per-(kind, session, flags) printf templates: only four
        #: numbers vary between lines of the same shape, so one cached
        #: ``%`` application replaces the whole field-by-field assembly.
        self._templates: Dict[tuple, str] = {}

    def _escape(self, value: str) -> str:
        escaped = self._escaped.get(value)
        if escaped is None:
            if len(self._escaped) >= 4096:
                self._escaped.clear()
            escaped = self._escaped[value] = json.dumps(value)
        return escaped

    def _template(self, key: tuple) -> str:
        kind, session_id, ok, error_code, cached, slow = key
        if len(self._templates) >= 1024:
            self._templates.clear()
        # The escaped strings are spliced into a %-format template, so
        # any literal percent they carry must be doubled.
        kind_json = self._escape(kind).replace("%", "%%")
        session_json = self._escape(session_id).replace("%", "%%")
        error_json = (
            json.dumps(error_code).replace("%", "%%")
            if error_code is not None else "null"
        )
        template = self._templates[key] = (
            '{"ts": %.6f, "event": "request"'
            f', "kind": {kind_json}'
            f', "session": {session_json}'
            f', "ok": {"true" if ok else "false"}'
            f', "error": {error_json}'
            ', "elapsed_ms": %.4f'
            f', "cached": {"true" if cached else "false"}'
            ', "cache_hits_delta": %d, "cache_misses_delta": %d'
            f', "slow": {"true" if slow else "false"}'
        )
        return template

    def record(
        self,
        kind: str,
        session_id: str,
        ok: bool,
        elapsed_ms: float,
        error_code: Optional[str] = None,
        cached: bool = False,
        cache_hits_delta: int = 0,
        cache_misses_delta: int = 0,
        **extra: Any,
    ) -> None:
        """Buffer one request record; never raises into the request path."""
        slow = self.slow_ms is not None and elapsed_ms >= self.slow_ms
        if self.slow_only and not slow:
            return
        # Lock-free buffering: list.append is atomic under the GIL, and
        # the drain swaps the whole list out under the lock, so records
        # keep their append order.  Two threads racing past the length
        # check just means one drain finds the buffer already empty.
        pending = self._pending
        pending.append((
            self._now(), kind, session_id, ok, elapsed_ms, error_code,
            cached, cache_hits_delta, cache_misses_delta,
            extra or None, slow,
        ))
        if slow or len(pending) >= self.flush_every:
            with self._lock:
                self._drain_locked(flush=slow)

    def _drain_locked(self, flush: bool) -> None:
        """Format and write every buffered record (caller holds the lock)."""
        if not self._pending:
            if flush:
                try:
                    self._stream.flush()
                except (OSError, ValueError):
                    pass
            return
        records, self._pending = self._pending, []
        templates_get = self._templates.get
        lines = []
        append_line = lines.append
        # Hand-assembled JSON: json.dumps over an intermediate dict
        # measures ~3x slower; string fields still go through json.dumps
        # (memoized inside the per-shape templates), so escaping stays
        # correct.
        for (ts, kind, session_id, ok, elapsed_ms, error_code,
                cached, hits_delta, misses_delta, extra, slow) in records:
            shape = (kind, session_id, ok, error_code, cached, slow)
            template = templates_get(shape)
            if template is None:
                template = self._template(shape)
            text = template % (ts, elapsed_ms, hits_delta, misses_delta)
            if extra:
                parts = []
                for key, value in extra.items():
                    try:
                        encoded = json.dumps(value)
                    except (TypeError, ValueError):
                        encoded = json.dumps(repr(value))
                    parts.append(f"{json.dumps(key)}: {encoded}")
                text += ", " + ", ".join(parts)
            append_line(text + "}\n")
        try:
            self._stream.write("".join(lines))
            if flush:
                self._stream.flush()
        except (OSError, ValueError):
            pass  # a closed or full log sink must not fail the request

    def flush(self) -> None:
        """Drain the buffer and flush the sink (lines become readable)."""
        with self._lock:
            self._drain_locked(flush=True)

    def close(self) -> None:
        self.flush()
        if self._owns_stream:
            try:
                self._stream.close()
            except OSError:
                pass


__all__ = ["RequestLog", "StructuredLogger", "get_logger"]
