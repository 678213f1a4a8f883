"""Scaling cold generation across worker processes with ``repro.fleet``.

One server, four worker children, the documented warm-then-sweep flow:

* start a fleet and attach it to the service (what
  ``python -m repro.net.server --fleet-workers 4`` does);
* ``WarmCache`` a catalog entry: the fleet computes it in a child and
  the server installs it before traffic arrives (CDN-style warming);
* run a cold parameter sweep twice -- once on a plain single-process
  service, once through the fleet -- and print the scaling numbers;
* verify the two runs answered byte-identical envelopes (only the
  artifact store paths differ between the two services).

On a single-core container the fleet cannot beat the baseline (process
fan-out is bounded by ``min(workers, cpus)`` -- see ``docs/fleet.md``);
the dispatch, warming and identity story is the same either way.

Run with::

    python examples/fleet_generation.py
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from repro.api import ComponentRequest, ComponentService, WarmCache
from repro.components import standard_catalog
from repro.fleet import FleetDispatcher

SIZES = tuple(range(40, 56))


def sweep_requests():
    return [
        ComponentRequest(
            implementation="alu", parameters={"size": size}, instance_name=f"pt_{size}"
        )
        for size in SIZES
    ]


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="icdb_fleet_"))

    # ------------------------------------------------- single-process baseline
    baseline = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=root / "baseline"
    )
    session = baseline.create_session(client="fleet-example")
    start = time.perf_counter()
    baseline_responses = [session.execute(request) for request in sweep_requests()]
    baseline_elapsed = time.perf_counter() - start
    assert all(response.ok for response in baseline_responses)

    # ------------------------------------------------------- start a fleet
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=root / "fleet"
    )
    start = time.perf_counter()
    fleet = FleetDispatcher(service, 4)
    service.attach_fleet(fleet)
    # The children boot in the background (work sent meanwhile queues for
    # them); wait until every live one is ready, to time the boot.
    while fleet.stats()["workers_ready"] < fleet.stats()["workers_live"]:
        time.sleep(0.01)
    print(f"fleet: {fleet.stats()['workers_ready']} workers ready in "
          f"{time.perf_counter() - start:.2f}s")

    # Warm the first sweep point through the fleet.
    warm = service.execute(
        WarmCache(entries=({"implementation": "alu", "parameters": {"size": SIZES[0]}},))
    )
    print(f"warmed {warm.value['warmed']} entry through the fleet")

    # ------------------------------------------------- the same sweep, fleet
    fleet_session = service.create_session(client="fleet-example")
    requests = sweep_requests()
    start = time.perf_counter()
    fleet.prewarm_requests(requests)  # what the planner does before run_many
    fleet_responses = [fleet_session.execute(request) for request in requests]
    fleet_elapsed = time.perf_counter() - start
    assert all(response.ok for response in fleet_responses)

    # ------------------------------------------------------------- identity
    identical = all(
        {k: v for k, v in a.value.items() if k != "files"}
        == {k: v for k, v in b.value.items() if k != "files"}
        for a, b in zip(baseline_responses, fleet_responses)
    )

    points = len(SIZES)
    stats = fleet.stats()
    print()
    print(f"cold sweep, {points} points")
    print(f"  single process : {baseline_elapsed:6.2f}s  ({points / baseline_elapsed:5.1f} req/s)")
    print(f"  4-worker fleet : {fleet_elapsed:6.2f}s  ({points / fleet_elapsed:5.1f} req/s)")
    print(f"  speedup        : {baseline_elapsed / fleet_elapsed:5.2f}x "
          f"on {os.cpu_count()} cpu(s)")
    print(f"  dispatched {stats['dispatched']}, "
          f"installed {stats['installs']} stage entries, "
          f"fallbacks {stats['fallbacks']}")
    print(f"  byte-identical results: {identical}")

    fleet.close()
    service.jobs.shutdown()
    baseline.jobs.shutdown()


if __name__ == "__main__":
    main()
