"""Wire tax and batching: five throughput-ratio gates over a live server.

Each gate drives the same request shape at two configurations over real
TCP and gates the throughput ratio, never an absolute rate:

* **observability, >= 0.9x** -- cached pipelined traffic against a
  server with a request log draining to an in-memory sink and a periodic
  metrics exporter, over the same server without them.  Metrics are
  always on, so the ratio isolates the optional per-request cost an
  operator adds.
* **durable reads, >= 0.9x** -- pipelined component queries (they read
  the catalog relations and journal nothing) against a server with a
  ``fsync="interval"`` durable store, over a plain server: this catches
  synchronous work a durable store adds to the read path.
* **durable cache-served writes, >= 0.5x** -- the same servers, cached
  ``request_component`` traffic.  A cache hit still clones an instance
  and durably inserts its row, so this is the cheapest write the server
  performs and the most journal-sensitive.
* **cached pipelining, >= 4x** -- 8 clients sending ``BatchRequest``
  frames of 48 summary-detail requests, over one naive client sending
  one full-detail request per frame: batching must multiply cached
  aggregate throughput.
* **uncached pipelining, >= 0.9x** -- the same shapes with
  ``use_cache=False``.  Every request registers and persists a fresh
  instance under the service lock, so the batch ratio is amortization,
  not scaling; it must not collapse below parity.

The end-to-end benchmark (``benchmarks/e2e``) measures absolute cached
and cold rates; none of these ratios.  Every gate is the median of
per-pair ratios over back-to-back pairs whose order alternates
(:func:`conftest.paired_median`); the pair counts and burst lengths are
sized from the per-pair spread measured on a 2-CPU host, so that healthy
code holds each bound in at least 9 of 10 runs.  Results land in
``BENCH_wire.json``.
"""

from __future__ import annotations

import io
import threading
import time

from conftest import paired_median, record_bench_results, run_once

from repro.api import ComponentQuery, ComponentRequest, ComponentService
from repro.components import standard_catalog
from repro.net import connect, serve
from repro.obs import MetricsExporter, RequestLog
from repro.store import DurableStore

#: Pipelined clients (the paper's "many synthesis tools" number here).
CLIENTS = 8
#: Requests per pipelined batch frame.
REPEAT = 48


class _Traffic:
    """``clients`` warm connections to one server, re-measurable.

    One burst has every client send ``frames`` frames concurrently: one
    request per frame when ``repeat`` is None (a naive tool), otherwise a
    batch frame of ``repeat`` copies (the pipelined bulk path).  Keeping
    the connections open is what lets two configurations be measured in
    interleaved pairs.
    """

    def __init__(self, server, request, clients=1, frames=1, repeat=None):
        self.request = request
        self.frames = frames
        self.repeat = repeat
        self.clients = [
            connect(server.host, server.port, client=f"bench-wire-{index}")
            for index in range(clients)
        ]
        for client in self.clients:  # warm connection, caches and allocator
            self._frame(client)

    def _frame(self, client) -> int:
        if self.repeat is None:
            return int(client.execute(self.request).ok)
        responses = client.execute_batch([self.request], repeat=self.repeat)
        return sum(1 for response in responses if response.ok)

    def measure(self) -> float:
        """One timed burst; answered requests per second."""
        counts = [0] * len(self.clients)

        def worker(index: int) -> None:
            client = self.clients[index]
            counts[index] = sum(self._frame(client) for _ in range(self.frames))

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(self.clients))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = sum(counts)
        assert total == len(self.clients) * self.frames * (self.repeat or 1)
        return total / elapsed

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _server(tmp_path, tag: str, **service_options):
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path / tag,
        **service_options,
    )
    return serve(service=service, port=0)


def _gate(benchmark, key, floor, base, other, pairs):
    """Gate ``other``'s rate over ``base``'s at ``floor``; record both."""
    try:
        result = run_once(
            benchmark, lambda: paired_median(base.measure, other.measure, pairs)
        )
    finally:
        base.close()
        other.close()
    print()
    print(f"{key}: base {result['a']:>10,.0f} req/s, "
          f"other {result['b']:>10,.0f} req/s (medians over {pairs} pairs)")
    print(f"{key}: median pair ratio {result['ratio']:.3f}x (floor {floor}x), "
          f"range {min(result['ratios']):.3f}-{max(result['ratios']):.3f}")
    measured = {
        "pairs": pairs,
        "base_rps": round(result["a"], 1),
        "other_rps": round(result["b"], 1),
        "ratio": round(result["ratio"], 3),
        "pair_ratios": [round(ratio, 3) for ratio in result["ratios"]],
        "floor": floor,
    }
    benchmark.extra_info["measured"] = measured
    record_bench_results("wire", key, measured)
    assert result["ratio"] >= floor


def test_observability_overhead(benchmark, tmp_path):
    log_sink = io.StringIO()
    request_log = RequestLog(stream=log_sink, slow_ms=250.0)
    plain = _server(tmp_path, "plain")
    instrumented = _server(tmp_path, "obs", request_log=request_log)
    exporter = MetricsExporter(
        instrumented.service.metrics, tmp_path / "metrics.json", interval=0.5
    ).start()
    request = ComponentRequest(
        implementation="alu", attributes={"size": 8}, detail="summary"
    )
    frames = 4
    try:
        _gate(
            benchmark,
            "observability",
            0.9,
            _Traffic(plain, request, CLIENTS, frames, repeat=REPEAT),
            _Traffic(instrumented, request, CLIENTS, frames, repeat=REPEAT),
            pairs=60,
        )
    finally:
        plain.stop()
        instrumented.stop()
        exporter.stop()
    # The instrumented side really logged: one line per request served.
    request_log.flush()
    served = CLIENTS * frames * REPEAT
    assert log_sink.getvalue().count('"event": "request"') >= served


def _durable_gate(benchmark, tmp_path, key, floor, request, frames, pairs):
    """4 pipelined clients sending batch frames of 32 requests."""
    plain = _server(tmp_path, "plain")
    durable_store = DurableStore(
        tmp_path / "data", fsync="interval", snapshot_interval=None
    )
    durable = _server(tmp_path, "durable-files", durable_store=durable_store)
    try:
        _gate(
            benchmark,
            key,
            floor,
            _Traffic(plain, request, 4, frames, repeat=32),
            _Traffic(durable, request, 4, frames, repeat=32),
            pairs,
        )
    finally:
        plain.stop()
        durable.stop()
        durable_store.close()


def test_durable_read_path(benchmark, tmp_path):
    # Queries are ~3x cheaper than cached writes: longer bursts keep
    # each pair's duration, and so its spread, comparable.
    _durable_gate(
        benchmark,
        tmp_path,
        "durable_read",
        0.9,
        ComponentQuery(implementation="alu"),
        frames=16,
        pairs=30,
    )


def test_durable_cache_served_writes(benchmark, tmp_path):
    _durable_gate(
        benchmark,
        tmp_path,
        "durable_cached_write",
        0.5,
        ComponentRequest(implementation="alu", attributes={"size": 8}, detail="summary"),
        frames=4,
        pairs=20,
    )


def _pipelining_gate(benchmark, tmp_path, key, floor, use_cache, naive_frames,
                     batch_frames, repeat, pairs):
    """One naive full-detail client against CLIENTS pipelined clients."""
    server = _server(tmp_path, key)

    def request(detail):
        return ComponentRequest(
            implementation="alu",
            attributes={"size": 8},
            use_cache=use_cache,
            detail=detail,
        )

    try:
        _gate(
            benchmark,
            key,
            floor,
            _Traffic(server, request("full"), frames=naive_frames),
            _Traffic(server, request("summary"), CLIENTS, batch_frames, repeat),
            pairs,
        )
    finally:
        server.stop()


def test_cached_pipelining(benchmark, tmp_path):
    _pipelining_gate(
        benchmark, tmp_path, "cached_pipelining", 4.0, use_cache=True,
        naive_frames=700, batch_frames=9, repeat=REPEAT, pairs=5,
    )


def test_uncached_pipelining(benchmark, tmp_path):
    _pipelining_gate(
        benchmark, tmp_path, "uncached_pipelining", 0.9, use_cache=False,
        naive_frames=60, batch_frames=1, repeat=12, pairs=5,
    )
