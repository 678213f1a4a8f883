"""ICDB over the network: the same datapath flow, local and remote.

The paper's ICDB is a component server many synthesis tools talk to
concurrently.  This example starts a real :class:`~repro.net.server.ICDBServer`
on an ephemeral TCP port, connects a :class:`~repro.net.client.RemoteClient`,
and builds the Figure 13 simple computer **twice**: once through the remote
client and once through an in-process :class:`~repro.api.service.Session`
-- then checks that the netlists and estimates are identical, byte for
byte.  It finishes with the pipelined batch path (one frame, many cached
component requests) whose speedup `benchmarks/bench_wire.py` gates.

The wire protocol is documented in ``docs/net.md``.  Run with::

    python examples/remote_quickstart.py
"""

from __future__ import annotations

import time

from repro.api import ComponentRequest, ComponentService
from repro.components import standard_catalog
from repro.net import connect, serve
from repro.synthesis import build_simple_computer


def fresh_service() -> ComponentService:
    return ComponentService(catalog=standard_catalog(fresh=True))


def main() -> None:
    # --- a real server on an ephemeral port --------------------------------
    server = serve(service=fresh_service(), port=0)
    client = connect(server.host, server.port, client="quickstart")
    print(f"connected to icdb://{server.address} as {client.session_id} "
          f"(ping {client.ping():.2f} ms)")

    # --- the same datapath flow, remote vs in-process ----------------------
    remote_computer = build_simple_computer(client, width=8)
    local_computer = build_simple_computer(fresh_service().create_session(), width=8)

    print("\nFigure 13 simple computer, generated over TCP:")
    for label, part in remote_computer.datapath_parts.items():
        print(f"  {part.summary()}")
    print(f"  {remote_computer.control.summary()}")

    mismatches = []
    for label, remote_part in remote_computer.datapath_parts.items():
        local_part = local_computer.datapath_parts[label]
        if (
            remote_part.vhdl_netlist() != local_part.vhdl_netlist()
            or remote_part.render_delay() != local_part.render_delay()
            or remote_part.render_shape() != local_part.render_shape()
            or remote_part.area != local_part.area
        ):
            mismatches.append(label)
    assert not mismatches, f"remote and local flows diverged on {mismatches}"
    assert remote_computer.control.vhdl_netlist() == local_computer.control.vhdl_netlist()

    remote_plan = remote_computer.floorplan_control_left()
    local_plan = local_computer.floorplan_control_left()
    assert remote_plan.area == local_plan.area
    print(
        f"\nremote and in-process flows agree: "
        f"{len(remote_computer.datapath_parts) + 1} components, "
        f"floorplan {remote_plan.width:.0f} x {remote_plan.height:.0f} um "
        f"({remote_plan.area:,.0f} um^2) on both paths"
    )

    # --- pipelining: many cached requests in one frame ---------------------
    request = ComponentRequest(
        implementation="register", attributes={"size": 8}, detail="summary"
    )
    client.execute(request)  # warm the result cache
    start = time.perf_counter()
    responses = client.execute_batch([request], repeat=64)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in responses)
    print(
        f"pipelined batch: {len(responses)} cached component requests in one "
        f"frame, {elapsed * 1000:.1f} ms "
        f"({len(responses) / elapsed:,.0f} req/s; "
        f"{sum(1 for r in responses if r.cached)} served from the result cache)"
    )

    client.close()
    server.stop()
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
