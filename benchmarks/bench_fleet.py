"""Fleet scaling: a cold catalog sweep dispatched over worker processes.

The workload is the paper's plan-style parameter sweep at its worst: N
distinct *cold* ``request_component`` points (no result-cache hit, no
warm flow memo for any of them).  The baseline runs them sequentially on
a fresh in-process service -- the single-process cold rate.  The fleet
run uses a fresh service too; it starts its worker children outside the
timed window (a fleet is long-lived), warms one ``WarmCache`` seed
through them (the documented warm-then-sweep flow), fans the sweep out
with ``prewarm_requests`` and then replays each point locally as a pure
warm hit.  The speedup is the median over back-to-back baseline/fleet
pairs in alternating order (:func:`conftest.paired_median`).

Byte-identity is asserted in-bench: every run's response envelopes must
equal the first baseline run's field for field (only the store file
paths differ -- each run persists into its own root).  So the speedup is
measured over *provably identical* results.

The speedup floor scales with what the host can physically deliver:
process parallelism buys nothing beyond ``min(workers, cpus)`` lanes, so
on the 4-lane hardware the gate is the full 2.5x, on 2 lanes 1.2x, and
on a single-core runner the gate degrades to an *overhead bound* -- the
fleet path must stay within 3x of single-process wall clock even though
every byte is pickled, shipped, installed and replayed.  The recorded
JSON carries ``cpus`` and ``required_speedup`` so a reader always sees
which gate a run was held to.
"""

from __future__ import annotations

import time

from conftest import effective_cpus, paired_median, record_bench_results, run_once

from repro.api import ComponentRequest, ComponentService, WarmCache
from repro.components import standard_catalog
from repro.fleet import FleetDispatcher

WORKERS = 4
SIZES = list(range(40, 72))
#: Baseline/fleet pairs (each run is a fresh, fully cold service).
PAIRS = 3


def _required_speedup(workers: int) -> float:
    """The floor the measured speedup is gated on, by parallelism lane.

    ``min(workers, cpus)`` is the hard physical ceiling on what process
    fan-out can return; gating a 1-core runner on 2.5x would only test
    the host, not the code.
    """
    lanes = min(workers, effective_cpus())
    if lanes >= 4:
        return 2.5
    if lanes >= 2:
        return 1.2
    # Single lane: a pure overhead bound.  Every worker process still
    # timeshares the one core the baseline had to itself, so the fleet
    # path must merely stay within ~3x of single-process wall clock.
    return 0.35


def _requests():
    return [
        ComponentRequest(
            implementation="alu", parameters={"size": size}, instance_name=f"pt_{size}"
        )
        for size in SIZES
    ]


def _fresh_service(tmp_path, tag: str) -> ComponentService:
    return ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / tag
    )


def _comparable(value: dict) -> dict:
    # Store roots differ between services; everything else must not.
    return {key: val for key, val in value.items() if key != "files"}


def test_bench_fleet_cold_sweep(benchmark, tmp_path):
    runs = []  # every run's responses, in run order
    fleet_stats = []

    def baseline() -> float:
        service = _fresh_service(tmp_path, f"baseline-{len(runs)}")
        session = service.create_session()
        try:
            start = time.perf_counter()
            responses = [session.execute(request) for request in _requests()]
            elapsed = time.perf_counter() - start
        finally:
            service.jobs.shutdown()
        runs.append(responses)
        return len(SIZES) / elapsed

    def fleet_run() -> float:
        service = _fresh_service(tmp_path, f"fleet-{len(runs)}")
        # Start outside the window (a fleet is long-lived), but warming,
        # dispatch and replay all inside it.
        fleet = FleetDispatcher(service, WORKERS)
        service.attach_fleet(fleet)
        session = service.create_session()
        try:
            start = time.perf_counter()
            service.execute(
                WarmCache(
                    entries=({"implementation": "alu", "parameters": {"size": SIZES[0]}},)
                )
            )
            requests = _requests()
            fleet.prewarm_requests(requests)
            responses = [session.execute(request) for request in requests]
            elapsed = time.perf_counter() - start
            fleet_stats.append(fleet.stats())
        finally:
            fleet.close()
            service.jobs.shutdown()
        runs.append(responses)
        return len(SIZES) / elapsed

    result = run_once(benchmark, lambda: paired_median(baseline, fleet_run, PAIRS))

    # -- byte-identity: the speedup must be over identical answers -------
    reference = [_comparable(response.value) for response in runs[0]]
    for responses in runs:
        assert all(response.ok for response in responses)
        assert [_comparable(response.value) for response in responses] == reference, (
            "fleet results diverged from single-process results"
        )
    for stats in fleet_stats:
        assert stats["fallbacks"] == 0, "sweep points fell back to local generation"
        assert stats["dispatched"] >= len(SIZES) - 1  # seed point may pre-warm

    points = len(SIZES)
    speedup = result["ratio"]
    required = _required_speedup(WORKERS)
    cpus = effective_cpus()

    print()
    print(f"cold sweep, {points} points, single process: {result['a']:>6.1f} req/s")
    print(f"cold sweep, {points} points, {WORKERS} workers:       {result['b']:>6.1f} req/s")
    print(f"speedup {speedup:.2f}x median over {PAIRS} pairs "
          f"(gate {required:.2f}x on {cpus} cpu(s))")

    payload = {
        "points": points,
        "workers": WORKERS,
        "pairs": PAIRS,
        "baseline_rps": round(result["a"], 2),
        "fleet_rps": round(result["b"], 2),
        "speedup": round(speedup, 2),
        "pair_speedups": [round(ratio, 2) for ratio in result["ratios"]],
        "required_speedup": required,
        "byte_identical": True,
        "dispatched": [stats["dispatched"] for stats in fleet_stats],
        "installs": [stats["installs"] for stats in fleet_stats],
        "requeues": [stats["requeues"] for stats in fleet_stats],
    }
    benchmark.extra_info["measured"] = payload
    record_bench_results("fleet", "cold_sweep", payload)
    assert speedup >= required, (
        f"fleet speedup {speedup:.2f}x under the {required:.2f}x floor "
        f"for {WORKERS} workers on {cpus} cpu(s)"
    )
