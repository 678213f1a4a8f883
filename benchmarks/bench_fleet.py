"""Fleet scaling: a cold catalog sweep dispatched over worker processes.

The workload is the paper's plan-style parameter sweep at its worst: N
distinct *cold* ``request_component`` points (no result-cache hit, no
warm flow memo for any of them).  The baseline runs them sequentially on
one in-process service -- the single-process cold rate every earlier
bench normalizes against.  The fleet run starts its worker children
outside the timed window (a fleet is long-lived), warms one ``WarmCache``
seed through them (the documented warm-then-sweep flow), fans the sweep
out with ``prewarm_requests`` and then replays each point locally as a
pure warm hit.

Byte-identity is asserted in-bench: every fleet-run response envelope
must equal its baseline twin field for field (only the store file paths
differ -- the two runs persist into different roots).  So the speedup is
measured over *provably identical* results.

The speedup floor scales with what the host can physically deliver:
process parallelism buys nothing beyond ``min(workers, cpus)`` lanes, so
on the 4-lane hardware the gate is the full 2.5x, on 2 lanes 1.2x, and
on a single-core runner the gate degrades to an *overhead bound* -- the
fleet path must stay within 2x of single-process wall clock even though
every byte is pickled, shipped, installed and replayed.  The recorded
JSON carries ``cpus`` and ``required_speedup`` so a reader always sees
which gate a run was held to.

``BENCH_FLEET_SMOKE=1`` shrinks the sweep and runs 2 workers (the CI
smoke configuration); the gate scales the same way.
"""

from __future__ import annotations

import os
import time

from conftest import record_bench_results, run_once

from repro.api import ComponentRequest, ComponentService, WarmCache
from repro.components import standard_catalog
from repro.fleet import FleetDispatcher

SMOKE = os.environ.get("BENCH_FLEET_SMOKE", "") not in ("", "0")

WORKERS = 2 if SMOKE else 4
SIZES = list(range(48, 56)) if SMOKE else list(range(40, 72))


def _effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _required_speedup(workers: int) -> float:
    """The floor the measured speedup is gated on, by parallelism lane.

    ``min(workers, cpus)`` is the hard physical ceiling on what process
    fan-out can return; gating a 1-core runner on 2.5x would only test
    the host, not the code.
    """
    lanes = min(workers, _effective_cpus())
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
    # Store roots differ between the two services; everything else must not.
    return {key: val for key, val in value.items() if key != "files"}


def test_bench_fleet_cold_sweep(benchmark, tmp_path):
    baseline_service = _fresh_service(tmp_path, "baseline")
    baseline_session = baseline_service.create_session()
    fleet_service = _fresh_service(tmp_path, "fleet")

    def measure():
        # -- single process, sequential, fully cold ----------------------
        start = time.perf_counter()
        baseline_responses = [
            baseline_session.execute(request) for request in _requests()
        ]
        baseline_elapsed = time.perf_counter() - start
        assert all(response.ok for response in baseline_responses)

        # -- fleet: start outside the window (a fleet is long-lived), but
        #    warming, dispatch and replay all inside it ------------------
        fleet = FleetDispatcher(fleet_service, WORKERS)
        fleet_service.attach_fleet(fleet)
        session = fleet_service.create_session()
        start = time.perf_counter()
        fleet_service.execute(
            WarmCache(
                entries=({"implementation": "alu", "parameters": {"size": SIZES[0]}},)
            )
        )
        requests = _requests()
        fleet.prewarm_requests(requests)
        fleet_responses = [session.execute(request) for request in requests]
        fleet_elapsed = time.perf_counter() - start
        assert all(response.ok for response in fleet_responses)

        # -- byte-identity: the speedup must be over identical answers ---
        identical = all(
            _comparable(a.value) == _comparable(b.value)
            for a, b in zip(baseline_responses, fleet_responses)
        )
        assert identical, "fleet results diverged from single-process results"

        stats = fleet.stats()
        assert stats["fallbacks"] == 0, "sweep points fell back to local generation"
        assert stats["dispatched"] >= len(SIZES) - 1  # seed point may pre-warm
        return baseline_elapsed, fleet_elapsed, stats, fleet

    baseline_elapsed, fleet_elapsed, stats, fleet = run_once(benchmark, measure)

    points = len(SIZES)
    baseline_rps = points / baseline_elapsed
    fleet_rps = points / fleet_elapsed
    speedup = fleet_rps / baseline_rps
    required = _required_speedup(WORKERS)
    cpus = _effective_cpus()

    print()
    print(f"cold sweep, {points} points, single process: {baseline_rps:>6.1f} req/s")
    print(f"cold sweep, {points} points, {WORKERS} workers:       {fleet_rps:>6.1f} req/s")
    print(f"speedup {speedup:.2f}x  (gate {required:.2f}x on {cpus} cpu(s), "
          f"{stats['dispatched']} dispatched, {stats['installs']} installs)")

    payload = {
        "points": points,
        "workers": WORKERS,
        "cpus": cpus,
        "baseline_rps": round(baseline_rps, 2),
        "fleet_rps": round(fleet_rps, 2),
        "speedup": round(speedup, 2),
        "required_speedup": required,
        "byte_identical": True,
        "dispatched": stats["dispatched"],
        "installs": stats["installs"],
        "requeues": stats["requeues"],
    }
    benchmark.extra_info["measured"] = payload
    record_bench_results("fleet_smoke" if SMOKE else "fleet", "cold_sweep", payload)

    fleet.close()
    fleet_service.jobs.shutdown()
    baseline_service.jobs.shutdown()
    assert speedup >= required, (
        f"fleet speedup {speedup:.2f}x under the {required:.2f}x floor "
        f"for {WORKERS} workers on {cpus} cpu(s)"
    )
