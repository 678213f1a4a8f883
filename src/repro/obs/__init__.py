"""Operability surface: metrics, structured request logs, admin console.

The serving stack keeps rich internal counters (result-cache and
generation-cache accounting, job states, session counts) but until this
package none of them were observable from outside the process.  Three
pieces make them so:

* :mod:`repro.obs.metrics` -- a thread-safe :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket latency histograms, pull-style
  collectors over the existing cache/job counters), the periodic JSON
  :class:`MetricsExporter`, and the :class:`Clock` seam that separates
  wall-clock timestamps (display) from monotonic durations (histograms);
* :mod:`repro.obs.reqlog` -- structured logging: one JSON line per
  request (kind, session, latency, error code, cache deltas) with a
  slow-query threshold, plus :func:`get_logger` for machine-parseable
  server events (push drops, shutdown errors);
* :mod:`repro.obs.admin` -- ``python -m repro.obs.admin``, a live
  terminal dashboard polling the ``GetMetrics`` request over the wire
  protocol (sessions, in-flight jobs, cache hit rates, rolling req/s).

The registry is exported end-to-end as the typed
:class:`~repro.api.messages.GetMetrics` request:
``RemoteClient.metrics()`` over TCP / loopback, ``command: metrics`` in
CQL, and ``--metrics-interval`` / ``--metrics-path`` snapshot files on
``python -m repro.net.server``.  See ``docs/observability.md``.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".metrics": (
        "DEFAULT_LATENCY_BOUNDS_MS",
        "SNAPSHOT_VERSION",
        "Clock",
        "Counter",
        "Gauge",
        "Histogram",
        "ManualClock",
        "MetricsExporter",
        "MetricsRegistry",
        "SYSTEM_CLOCK",
        "validate_snapshot",
    ),
    ".reqlog": ("RequestLog", "StructuredLogger", "get_logger"),
})
