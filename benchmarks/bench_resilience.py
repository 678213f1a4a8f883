"""What resilience costs, and how fast it recovers.

Two gates keep the failure story honest, both measured over the real
wire protocol against a live server:

* **Goodput under faults, >= 0.5x** -- a :class:`ResilientClient`
  driving pipelined bursts of cache-served component requests through a
  :class:`~repro.net.chaos.ChaosProxy` injecting a 5 % per-chunk fault
  mix (resets, torn frames, delays) must keep at least half the
  fault-free goodput.  Every request must still succeed -- errors do not
  count as goodput -- so this bounds the total retry/reconnect/backoff
  tax, not just the happy path.  The ratio is the median over
  back-to-back fault-free/faulted pairs in alternating order
  (:func:`conftest.paired_median`).
* **Reconnect-to-recovered, <= 2 s median** -- with the server stopped
  and restarted on the same port, the median time from the moment the
  replacement is listening to the client's first successful request
  (reconnect + session re-establishment + backoff scheduling) must stay
  within two seconds.

Results land in ``BENCH_resilience.json``.
"""

from __future__ import annotations

import statistics
import time

from conftest import paired_median, record_bench_results, run_once

from repro.api import ComponentRequest, ComponentService
from repro.net import serve
from repro.net.chaos import ChaosConfig, ChaosProxy
from repro.net.resilience import CircuitBreaker, ResilientClient, RetryPolicy

#: Acceptance floor: faulted goodput / fault-free goodput.
MIN_FAULTED_RATIO = 0.5
#: Acceptance ceiling: median reconnect-to-recovered latency, seconds.
MAX_RECONNECT_S = 2.0

#: Bursts per goodput measurement.
ROUNDS = 100
#: Fault-free/faulted goodput pairs.
PAIRS = 7
RECONNECT_ROUNDS = 7

#: 5 % of forwarded chunks are faulted (2 % reset + 1 % torn + 2 % delay).
FAULT_MIX = ChaosConfig(
    seed=1990, reset_rate=0.02, torn_rate=0.01, delay_rate=0.02, delay_s=0.002
)

#: Tight backoff: the bench measures the resilience tax, not the policy's
#: patience, so the schedule recovers in milliseconds and the deadline
#: still guarantees termination on an unlucky streak.
POLICY = RetryPolicy(
    max_attempts=12, base_backoff_s=0.002, max_backoff_s=0.01,
    deadline_s=60.0, seed=7,
)


def _client(host, port):
    return ResilientClient.connect(
        host, port, client="bench", timeout=10.0, policy=POLICY,
        breaker=CircuitBreaker(failure_threshold=1000),
    )


#: Requests pipelined per wire round trip: the unit of goodput is the
#: realistic tool burst (`execute_batch`), not a single tiny request
#: whose sub-millisecond baseline would measure the TCP handshake tax
#: instead of the workload's.
BURST = 8


def _goodput(client, rounds: int) -> float:
    """Successful requests per second; any failure fails the bench."""
    start = time.perf_counter()
    for index in range(rounds):
        request = ComponentRequest(
            implementation="register",
            attributes={"size": 2 + index % 4},  # small set: mostly cache hits
            detail="summary",
        )
        responses = client.execute_batch([request], repeat=BURST)
        assert len(responses) == BURST and all(r.ok for r in responses)
    return rounds * BURST / (time.perf_counter() - start)


def test_goodput_under_five_percent_faults(benchmark):
    service = ComponentService()
    server = serve(service=service)
    try:
        with ChaosProxy(server.host, server.port, FAULT_MIX) as proxy:
            direct = _client(server.host, server.port)
            faulted_client = _client(proxy.host, proxy.port)
            try:
                result = run_once(
                    benchmark,
                    lambda: paired_median(
                        lambda: _goodput(direct, ROUNDS),
                        lambda: _goodput(faulted_client, ROUNDS),
                        PAIRS,
                    ),
                )
                counters = faulted_client.resilience.snapshot()["counters"]
            finally:
                direct.close()
                faulted_client.close()
            injected = dict(proxy.faults)
    finally:
        server.stop()

    ratio = result["ratio"]
    payload = {
        "requests": ROUNDS * BURST,
        "burst": BURST,
        "pairs": PAIRS,
        "plain_goodput_rps": round(result["a"], 1),
        "faulted_goodput_rps": round(result["b"], 1),
        "ratio": round(ratio, 3),
        "pair_ratios": [round(value, 3) for value in result["ratios"]],
        "min_ratio": MIN_FAULTED_RATIO,
        "injected_faults": injected,
        "client_counters": {k: v for k, v in counters.items()
                            if k.startswith("resilience.")},
    }
    benchmark.extra_info.update(payload)
    record_bench_results("resilience", "goodput_under_faults", payload)
    assert ratio >= MIN_FAULTED_RATIO, (
        f"goodput under 5% faults degraded to {ratio:.2f}x "
        f"(floor {MIN_FAULTED_RATIO}x): {payload}"
    )


def test_reconnect_to_recovered_latency(benchmark):
    def measure() -> list:
        latencies = []
        service = ComponentService()
        server = serve(service=service)
        client = _client(server.host, server.port)
        assert client.ping() >= 0.0
        try:
            for _ in range(RECONNECT_ROUNDS):
                host, port = server.host, server.port
                server.stop()
                # A replacement process on the same address: sessions are
                # gone (the client falls back to a fresh hello), designs
                # would come back from a durable store.
                service = ComponentService()
                server = serve(service=service, host=host, port=port)
                recovered_at = time.perf_counter()
                client.health()
                latencies.append(time.perf_counter() - recovered_at)
        finally:
            client.close()
            server.stop()
        return latencies

    latencies = run_once(benchmark, measure)
    median = statistics.median(latencies)
    payload = {
        "rounds": RECONNECT_ROUNDS,
        "median_s": round(median, 4),
        "max_s": round(max(latencies), 4),
        "all_s": [round(value, 4) for value in latencies],
        "max_median_s": MAX_RECONNECT_S,
    }
    benchmark.extra_info.update(payload)
    record_bench_results("resilience", "reconnect_latency", payload)
    assert median <= MAX_RECONNECT_S, (
        f"median reconnect-to-recovered {median:.3f}s exceeds "
        f"{MAX_RECONNECT_S}s: {payload}"
    )
