"""Metric definitions and their computation from one measured phase.

``END_TO_END`` and ``PER_LAYER`` map each metric name to its unit; the
smoke test keeps them equal to the lists in ``BENCHMARK.json``.

A phase is a series of passes, each on a freshly booted server doing the
same fixed work, so a pass's cost does not depend on how fast earlier
passes ran.  ``ops_per_s`` is the median of the passes' rates, so a
burst of load from another tenant of a shared machine slows a pass, not
the figure; latency percentiles pool every pass.  Per-layer times are
self times summed over every thread and divided by the phase's
operation count; counts come from the server's ``GetMetrics`` deltas.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "server_rss_mb": "MB",
}

#: Client-side timings of the untraced phase.  They are listed with the
#: per-layer metrics because no bound holds them on a shared machine
#: (see the README); ``compare.py`` gates them by the paired rule.
CLIENT_TIMINGS = ("ops_per_s", "p50_ms", "tail_ms")

PER_LAYER: Dict[str, str] = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "net.transport_ms": "ms/op",
    "net.decode_ms": "ms/op",
    "net.encode_ms": "ms/op",
    "net.send_ms": "ms/op",
    "net.dispatch_self_ms": "ms/op",
    "api.execute_self_ms": "ms/op",
    "api.summary_ms": "ms/op",
    "api.result_cache.lookups": "lookups/op",
    "api.result_cache.hit_ratio": "ratio",
    "api.persist_self_ms": "ms/op",
    "api.plan_self_ms": "ms/op",
    "api.jobs.wait_ms": "ms/op",
    "api.jobs.inline_overflows": "count",
    "core.expand_ms": "ms/op",
    "core.expand_calls": "calls/op",
    "core.gencache.expand.hit_ratio": "ratio",
    "core.gencache.synth.hit_ratio": "ratio",
    "core.gencache.optimize.hit_ratio": "ratio",
    "core.gencache.flows.hit_ratio": "ratio",
    "logic.synthesize_self_ms": "ms/op",
    "logic.prime_implicants_ms": "ms/op",
    "logic.prime_implicants_calls": "calls/op",
    "sizing.size_ms": "ms/op",
    "estimation.delay_ms": "ms/op",
    "estimation.shape_ms": "ms/op",
    "estimation.area_ms": "ms/op",
    "db.insert_ms": "ms/op",
    "db.update_ms": "ms/op",
    "db.delete_ms": "ms/op",
    "db.select_ms": "ms/op",
    "db.files.write_ms": "ms/op",
    "db.files.bytes_per_op": "B/op",
    "db.files.remove_ms": "ms/op",
    "store.journal.append_ms": "ms/op",
    "store.journal.appends_per_op": "appends/op",
    "store.journal.bytes_per_op": "B/op",
    "store.journal.fsyncs": "count",
    "store.snapshot.count": "count",
    "store.snapshot_ms": "ms/op",
    "fleet.prewarm_wait_ms": "ms/op",
    "fleet.install_ms": "ms/op",
    "fleet.dispatched_per_op": "tasks/op",
    "fleet.fallback_ratio": "ratio",
    "fleet.steals": "count",
    "trace.overhead": "ratio",
    "trace.sum_error": "ratio",
}


@dataclass
class Pass:
    """One measured pass on one server."""

    latencies_ms: List[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    measured_s: float = 0.0


@dataclass
class Phase:
    """Everything one measured phase produced, over one or more passes.

    Workloads record one sample per user-visible unit with :meth:`add`,
    between :meth:`begin` and :meth:`end` of each pass.
    """

    passes: List[Pass] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    #: Failed output checks.
    problems: List[str] = field(default_factory=list)
    #: GetMetrics counter deltas over the measured windows.
    deltas: Dict[str, float] = field(default_factory=dict)
    #: Traced runs: summed span aggregates, the first server's raw span
    #: sample, the bytes written to the file store, and the client's
    #: round trips and the server's frame handling on the request path.
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    trace_sample: List[Dict] = field(default_factory=list)
    bytes_written: int = 0
    round_trip_ms: float = 0.0
    frame_ms: float = 0.0
    _started: float = 0.0

    def begin(self) -> None:
        self.passes.append(Pass())
        self._started = time.perf_counter()

    def add(self, start: float, end: float, ops: int, failed: int) -> None:
        """Record one user-visible unit of ``ops`` operations."""
        current = self.passes[-1]
        current.latencies_ms.append((end - start) * 1000.0)
        current.ops += ops
        current.failed += failed

    def end(self) -> None:
        self.passes[-1].measured_s = time.perf_counter() - self._started

    @property
    def ops(self) -> int:
        return sum(one.ops for one in self.passes)

    @property
    def failed(self) -> int:
        return sum(one.failed for one in self.passes)

    @property
    def measured_s(self) -> float:
        return sum(one.measured_s for one in self.passes)

    @property
    def latencies_ms(self) -> List[float]:
        return [latency for one in self.passes for latency in one.latencies_ms]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ops_per_s(phase: Phase) -> float:
    """Median over passes of the pass's completed operations per second."""
    return statistics.median(one.ops / one.measured_s for one in phase.passes)


def end_to_end(phase: Phase) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(phase.setup_s),
        "server_rss_mb": statistics.median(phase.rss_mb),
    }


def timing(phase: Phase, tail_percentile: float) -> Dict[str, float]:
    """The client-side timings of an untraced phase."""
    latencies = phase.latencies_ms
    return {
        "ops_per_s": ops_per_s(phase),
        "p50_ms": percentile(latencies, 50.0),
        "tail_ms": percentile(latencies, tail_percentile),
    }


def per_layer(traced: Phase, untraced: Dict[str, float]) -> Dict[str, float]:
    """The ledger of a traced phase plus the untraced phase's ``timing``."""
    ops = max(1, traced.ops)
    layers = traced.layers

    def self_ms(*spans: str) -> float:
        return sum(layers[span]["self_ms"] for span in spans) / ops

    def calls(span: str) -> float:
        return layers[span]["calls"] / ops

    def count(counter: str) -> float:
        return float(traced.deltas.get(counter, 0.0))

    def ratio(part: str, whole: str) -> float:
        return count(part) / count(whole) if count(whole) else 0.0

    # The client's round trips outside the server's frame handling: the
    # client library's codec, the sockets and the kernel on both sides.
    transport_ms = traced.round_trip_ms - traced.frame_ms
    # Every layer's self time on the request path, plus the transport,
    # should add up to what the client measured for its units; a layer
    # missed or counted twice shows as a gap.
    ledger_ms = transport_ms + sum(layer["path_self_ms"] for layer in layers.values())
    latency_ms = sum(traced.latencies_ms)
    return {
        **untraced,
        "net.transport_ms": transport_ms / ops,
        "net.decode_ms": self_ms("net.decode_frame", "net.decode_request"),
        "net.encode_ms": self_ms("net.encode_response", "net.encode_frame"),
        "net.send_ms": self_ms("net.send"),
        "net.dispatch_self_ms": self_ms("net.dispatch"),
        "api.execute_self_ms": self_ms("api.execute"),
        "api.summary_ms": self_ms("api.summary"),
        "api.result_cache.lookups": count("cache.result.lookups") / ops,
        "api.result_cache.hit_ratio": ratio("cache.result.hits", "cache.result.lookups"),
        "api.persist_self_ms": self_ms("api.persist"),
        "api.plan_self_ms": self_ms("api.plan"),
        "api.jobs.wait_ms": self_ms("api.jobs.wait"),
        "api.jobs.inline_overflows": count("jobs.inline_overflows"),
        "core.expand_ms": self_ms("core.expand"),
        "core.expand_calls": calls("core.expand"),
        "core.gencache.expand.hit_ratio": ratio("gencache.expand.hits", "gencache.expand.lookups"),
        "core.gencache.synth.hit_ratio": ratio("gencache.synth.hits", "gencache.synth.lookups"),
        "core.gencache.optimize.hit_ratio": ratio(
            "gencache.optimize.hits", "gencache.optimize.lookups"),
        "core.gencache.flows.hit_ratio": ratio("gencache.flows.hits", "gencache.flows.lookups"),
        "logic.synthesize_self_ms": self_ms("logic.synthesize"),
        "logic.prime_implicants_ms": self_ms("logic.prime_implicants"),
        "logic.prime_implicants_calls": calls("logic.prime_implicants"),
        "sizing.size_ms": self_ms("sizing.size"),
        "estimation.delay_ms": self_ms("estimation.delay"),
        "estimation.shape_ms": self_ms("estimation.shape"),
        "estimation.area_ms": self_ms("estimation.area"),
        "db.insert_ms": self_ms("db.insert"),
        "db.update_ms": self_ms("db.update"),
        "db.delete_ms": self_ms("db.delete"),
        "db.select_ms": self_ms("db.select"),
        "db.files.write_ms": self_ms("db.files.write"),
        "db.files.bytes_per_op": traced.bytes_written / ops,
        "db.files.remove_ms": self_ms("db.files.remove"),
        "store.journal.append_ms": self_ms("store.journal.append"),
        "store.journal.appends_per_op": count("store.journal.appends") / ops,
        "store.journal.bytes_per_op": count("store.journal.bytes_written") / ops,
        "store.journal.fsyncs": count("store.journal.fsyncs"),
        "store.snapshot.count": count("store.snapshot.count"),
        "store.snapshot_ms": self_ms("store.snapshot"),
        "fleet.prewarm_wait_ms": self_ms("fleet.prewarm_wait"),
        "fleet.install_ms": self_ms("fleet.install"),
        "fleet.dispatched_per_op": count("fleet.dispatched") / ops,
        "fleet.fallback_ratio": ratio("fleet.fallbacks", "fleet.dispatched"),
        "fleet.steals": count("fleet.steals"),
        "trace.overhead": untraced["ops_per_s"] / ops_per_s(traced),
        "trace.sum_error": abs(ledger_ms - latency_ms) / latency_ms,
    }
