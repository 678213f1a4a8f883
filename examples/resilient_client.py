"""Surviving server restarts and a faulty network, without losing writes.

The paper's ICDB sits between many synthesis tools and one component
server, so every network hiccup and server restart is someone's failed
synthesis run.  This example drives a :class:`~repro.net.resilience.ResilientClient`
through both failure modes, live:

1. **Server restart.**  Components are registered over TCP, the server
   is stopped and a fresh one boots on the same port (sessions gone, as
   after a crash).  The same client object keeps working: it reconnects,
   falls back to a fresh ``hello`` when its resume token is refused, and
   the next request just succeeds.
2. **A faulty network.**  The same traffic runs through a seeded
   :class:`~repro.net.chaos.ChaosProxy` injecting connection resets,
   torn frames and delays.  Every mutating request carries a
   ``request_id`` the server deduplicates, so despite retries after
   ambiguous failures each write lands **exactly once** -- the row count
   proves it.

Retry semantics, breaker states and the drain protocol are documented in
``docs/resilience.md``.  Run with::

    python examples/resilient_client.py
"""

from __future__ import annotations

from repro.api import ComponentService, DatabaseDump
from repro.net import serve
from repro.net.chaos import ChaosConfig, ChaosProxy
from repro.net.resilience import CircuitBreaker, ResilientClient, RetryPolicy

#: Snappy schedule for a demo: 8 attempts, jittered backoff from 5 ms,
#: give up after 15 s.  Production defaults are gentler.
POLICY = RetryPolicy(
    max_attempts=8, base_backoff_s=0.005, max_backoff_s=0.1,
    deadline_s=15.0, seed=42,
)


def counters(client: ResilientClient) -> str:
    snap = client.resilience.snapshot()["counters"]
    resilience = {k.split(".", 1)[1]: v for k, v in sorted(snap.items())
                  if k.startswith("resilience.")}
    return ", ".join(f"{k}={v}" for k, v in resilience.items()) or "none"


def main() -> None:
    # --- 1. the same client across a server restart ------------------------
    server = serve(service=ComponentService(), port=0)
    host, port = server.host, server.port
    client = ResilientClient.connect(
        host, port, client="resilient-demo", timeout=10.0, policy=POLICY
    )
    first = client.request_component(implementation="register",
                                     attributes={"size": 4})
    print(f"registered {first.name} on icdb://{host}:{port}")

    server.stop()
    server = serve(service=ComponentService(), host=host, port=port)
    print("server restarted on the same port; sessions are gone")

    # Same client object: reconnect + fresh hello happen inside this call.
    second = client.request_component(implementation="counter",
                                      attributes={"size": 6})
    print(f"registered {second.name} after the restart "
          f"({counters(client)})")
    client.close()
    server.stop()

    # --- 2. exactly-once writes through a faulty network -------------------
    service = ComponentService()
    server = serve(service=service, port=0)
    chaos = ChaosConfig(seed=7, reset_rate=0.05, torn_rate=0.03,
                        delay_rate=0.10, delay_s=0.002)
    with ChaosProxy(server.host, server.port, chaos) as proxy:
        client = ResilientClient.connect(
            proxy.host, proxy.port, client="chaos-demo", timeout=10.0,
            policy=POLICY, breaker=CircuitBreaker(failure_threshold=100),
        )
        names = [
            client.request_component(
                implementation="register", attributes={"size": 2 + i}
            ).name
            for i in range(25)
        ]
        print(f"\n{len(names)} writes through a faulty proxy "
              f"(injected: {dict(proxy.faults)})")
        print(f"client work: {counters(client)}")
        client.close()

    # Count rows over a clean connection, straight to the server.
    auditor = ResilientClient.connect(server.host, server.port,
                                      client="auditor", timeout=10.0)
    dump = auditor.execute(DatabaseDump(tables=("instances",))).unwrap()
    rows = dump["tables"]["instances"]["rows"]
    auditor.close()
    stored = sorted(row["name"] for row in rows)
    assert stored == sorted(names), (stored, names)
    print(f"database holds exactly the {len(stored)} acknowledged rows -- "
          f"no write lost, none duplicated")
    server.stop()


if __name__ == "__main__":
    main()
