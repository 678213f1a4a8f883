"""ICDB over the network: wire protocol, server and remote clients.

The paper's ICDB is a *component server* that many synthesis tools query
concurrently.  This package puts the typed service layer of
:mod:`repro.api` on a socket:

* :mod:`repro.net.protocol` -- length-prefixed JSON frames (the codec both
  transports share) and the transport error types;
* :mod:`repro.net.server` -- the threaded :class:`ICDBServer` (one
  connection = one session), the transport-agnostic
  :class:`~repro.net.server.FrameDispatcher`, :func:`serve`, and the
  ``python -m repro.net.server`` command line;
* :mod:`repro.net.client` -- :class:`RemoteClient` (the full session
  surface over the wire), :class:`RemoteInstance`,
  :class:`LoopbackTransport`, and :func:`connect` / :func:`attach`
  (``RemoteClient.connect`` / ``RemoteClient.attach``).

Quick tour::

    from repro.net import connect, serve

    server = serve(port=0)                     # ephemeral port
    client = connect(server.host, server.port, client="hls-tool")

    counter = client.request_component(
        component_name="counter", functions=["INC"], attributes={"size": 5}
    )
    print(counter.render_delay())

    # Pipelining: many requests, one frame, one lock acquisition.
    from repro.api import ComponentRequest
    responses = client.execute_batch(
        [ComponentRequest(implementation="register", attributes={"size": 4},
                          detail="summary")] * 16
    )

    client.close()
    server.stop()

The full wire-protocol specification lives in ``docs/net.md``; the
failure story (reconnect, retry, dedupe, breaker, drain) in
``docs/resilience.md``:

* :mod:`repro.net.resilience` -- :class:`ResilientClient` /
  :class:`ResilientTransport` (reconnect + re-``attach``, idempotency-
  aware retries, circuit breaker) and :func:`connect_resilient`
  (``ResilientClient.connect``);
* :mod:`repro.net.chaos` -- the seeded fault-injection harness
  (:class:`~repro.net.chaos.ChaosProxy`,
  :class:`~repro.net.chaos.FlakyTransport`,
  :class:`~repro.net.chaos.ManagedServer`) the resilience tests and
  benchmarks run against.
"""

from ..lazy import lazy_exports

# Resolved on first access, so ``python -m repro.net.server`` loads only
# the modules a server uses.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".client": (
        "LoopbackTransport",
        "RemoteClient",
        "RemoteInstance",
        "ServerDrained",
        "SocketTransport",
        "attach",
        "connect",
    ),
    ".resilience": (
        "CircuitBreaker",
        "ResilientClient",
        "ResilientTransport",
        "RetryPolicy",
        "connect_resilient",
    ),
    ".protocol": (
        "FrameStream",
        "FrameTooLarge",
        "MAX_FRAME_BYTES",
        "ProtocolError",
        "decode_frame",
        "encode_frame",
    ),
    ".server": (
        "FrameDispatcher",
        "ICDBServer",
        "SERVER_NAME",
        "SessionRegistry",
        "main",
        "serve",
    ),
})

