"""Fault-tolerant ICDB clients: reconnect, retry, dedupe, circuit break.

The plain :class:`~repro.net.client.SocketTransport` poisons itself on
the first failure -- correct (a desynchronized frame stream is worse than
a dead one) but terminal: every caller above it dies with the TCP
connection, even though the server's session tokens make resuming fully
supported.  This module closes that gap on the client side:

* :class:`ResilientTransport` wraps a transport *factory*.  On
  connection loss it reconnects and re-``attach``\\ es to the same
  server-side session (live :class:`~repro.api.surface.JobHandle`\\ s keep
  working), then replays the failed payload when the retry policy allows
  it.
* :class:`RetryPolicy` bounds the replays: capped exponential backoff
  with full jitter, a per-request deadline, and an **idempotency rule**
  -- read-only request kinds (:data:`repro.api.messages.IDEMPOTENT_KINDS`)
  retry freely; mutating kinds retry only when the failure provably
  happened *before* the send, or when the payload carries a
  ``request_id`` the server dedupes (see
  :class:`~repro.api.service.RequestDedupe`).
* :class:`CircuitBreaker` fails fast (``E_UNAVAILABLE``) while the
  server is down instead of stacking timeouts: ``closed`` -> ``open``
  after consecutive failures -> ``half-open`` probe after a cool-down.
* :class:`ResilientClient` is a :class:`~repro.net.client.RemoteClient`
  over a :class:`ResilientTransport` that additionally stamps every
  mutating request with a fresh ``request_id`` (making *all* retries
  at-most-once) and honors ``retry_after_ms`` hints on ``E_BUSY``
  envelopes.  :func:`connect_resilient` is :meth:`ResilientClient.connect`
  under its public name.

A server announcing a planned drain (:class:`~repro.net.client.ServerDrained`)
is always retry-worthy -- the failure is known to have lost nothing -- and
does not count against the breaker.

Every resilience event is counted on the transport's ``metrics``
registry under ``resilience.*`` (retries, reconnects, reattaches,
breaker transitions, busy backoffs), mirroring the server's own
``resilience.*`` counters (shed requests, dedupe hits, drains).
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from typing import Any, Callable, Dict, Optional

from ..api.errors import E_BUSY, E_NOT_FOUND, E_UNAVAILABLE, IcdbErrorInfo
from ..api.messages import IDEMPOTENT_KINDS, Request, Response
from ..core.icdb import IcdbError
from ..obs.metrics import Clock, MetricsRegistry, SYSTEM_CLOCK
from ..wire import Record
from .client import RemoteClient, ServerDrained, SocketTransport
from .protocol import (
    FRAME_ATTACH,
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_HELLO,
    MAX_FRAME_BYTES,
    ProtocolError,
)


class RetryPolicy(Record, frozen=True):
    """How (and how long) a resilient transport keeps trying.

    Backoff is capped exponential with **full jitter**: attempt ``n``
    sleeps ``uniform(0, min(max_backoff_s, base_backoff_s * 2**n))`` --
    the schedule that de-synchronizes a thundering herd of reconnecting
    clients.  ``deadline_s`` bounds one *request* end to end (attempts
    plus sleeps); ``None`` means attempts alone bound it.  ``seed`` pins
    the jitter for deterministic tests.
    """

    max_attempts: int = 5
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    deadline_s: Optional[float] = 30.0
    seed: Optional[int] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """The sleep before retry number ``attempt`` (1-based)."""
        ceiling = min(self.max_backoff_s, self.base_backoff_s * (2 ** attempt))
        return rng.uniform(0.0, ceiling)


#: Circuit breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Fail fast while the server is down (closed -> open -> half-open).

    ``failure_threshold`` consecutive transport failures open the
    breaker: every call fails immediately with ``E_UNAVAILABLE`` (and a
    ``retry_after_ms`` hint) instead of burning a connect timeout each.
    After ``reset_after_s`` one probe call is let through (half-open);
    its success closes the breaker, its failure re-opens it for another
    cool-down.  Thread-safe; the clock is a seam for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 1.0,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if failure_threshold < 1:
            raise IcdbError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self.clock = clock or SYSTEM_CLOCK
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._metrics = metrics

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?"""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            elapsed = self.clock.monotonic() - self._opened_at
            if self._state == BREAKER_OPEN and elapsed >= self.reset_after_s:
                self._state = BREAKER_HALF_OPEN
                self._probing = False
                self._count("resilience.breaker_half_open")
            if self._state == BREAKER_HALF_OPEN and not self._probing:
                self._probing = True  # exactly one probe per cool-down
                return True
            return False

    def retry_after_ms(self) -> float:
        """How long until the breaker would let a probe through."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return 0.0
            remaining = self.reset_after_s - (
                self.clock.monotonic() - self._opened_at
            )
            return max(0.0, remaining) * 1000.0

    def record_success(self) -> None:
        with self._lock:
            if self._state != BREAKER_CLOSED:
                self._count("resilience.breaker_closed")
            self._state = BREAKER_CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            tripped = (
                self._state == BREAKER_HALF_OPEN
                or self._failures >= self.failure_threshold
            )
            if tripped and self._state != BREAKER_OPEN:
                self._state = BREAKER_OPEN
                self._count("resilience.breaker_opened")
            if tripped:
                self._opened_at = self.clock.monotonic()
                self._probing = False

    def reject(self) -> IcdbError:
        """The fail-fast error an open breaker answers with."""
        return IcdbError(
            "circuit breaker is open: the ICDB server is unreachable",
            code=E_UNAVAILABLE,
            retry_after_ms=self.retry_after_ms() or None,
        )


class ResilientTransport:
    """A transport that survives the transports it is made of.

    ``connector`` builds one underlying transport per (re)connection --
    typically ``lambda: SocketTransport(host, port)``.  The handshake
    frame the owning client sends is intercepted and replayed by the
    transport itself on every reconnect: first as the original ``hello``
    / ``attach``, afterwards as an ``attach`` with the session token the
    welcome carried -- so the server-side session (design context, jobs,
    dedupe window) survives every hop.

    Retry rules per payload (see :class:`RetryPolicy` for the schedule):

    * failures *before* anything was sent (connect, handshake) -- always
      retryable;
    * requests whose kind is in
      :data:`~repro.api.messages.IDEMPOTENT_KINDS` -- always retryable;
    * payloads carrying a ``request_id`` -- always retryable (the server
      dedupes);
    * anything else after an ambiguous failure -- **not** retried; the
      connection error surfaces to the caller;
    * a :class:`~repro.net.client.ServerDrained` announcement -- always
      retryable and never counted against the breaker (the server chose
      to close; nothing was lost).
    """

    def __init__(
        self,
        connector: Callable[[], Any],
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._connector = connector
        self.policy = policy or RetryPolicy()
        self.metrics = metrics or MetricsRegistry()
        self.breaker = breaker or CircuitBreaker(metrics=self.metrics)
        self._rng = self.policy.rng()
        self._lock = threading.RLock()
        self._inner: Optional[Any] = None
        self._opening: Optional[Dict[str, Any]] = None
        self._welcome: Dict[str, Any] = {}
        self._token: str = ""
        self._connected_once = False
        self._closed = False
        self.description = "resilient"
        #: Pushed job events forwarded from whichever inner transport is
        #: live (set by the owning client, survives reconnects).
        self.on_event: Optional[Callable[[Dict[str, Any]], None]] = None

    # ------------------------------------------------------------- connection

    def _forward_event(self, event: Dict[str, Any]) -> None:
        sink = self.on_event
        if sink is not None:
            sink(event)

    def _drop_inner(self) -> None:
        inner = self._inner
        self._inner = None
        if inner is not None:
            try:
                inner.close()
            except (IcdbError, OSError):
                pass

    def _ensure_connected(self) -> Any:
        """A live, handshaken inner transport (connect + attach if needed)."""
        if self._inner is not None:
            return self._inner
        if self._opening is None:
            raise IcdbError(
                "transport used before the client handshake", code=E_UNAVAILABLE
            )
        inner = self._connector()
        inner.on_event = self._forward_event
        try:
            if self._token:
                opening = dict(self._opening)
                opening["type"] = FRAME_ATTACH
                opening["token"] = self._token
            else:
                opening = self._opening
            reply = inner.send_payload(opening)
            if reply.get("type") == FRAME_ERROR:
                info = IcdbErrorInfo.from_dict(reply.get("error") or {})
                if (
                    self._token
                    and info.code == E_NOT_FOUND
                    and self._opening.get("type") == FRAME_HELLO
                ):
                    # The server restarted: its session registry is fresh
                    # and our resume token is dead.  Open a new session
                    # rather than dying -- per-session state (design
                    # context, job handles, dedupe window) is lost, which
                    # the counter records; durable designs come back from
                    # the store on their own.  A refused handshake closes
                    # the connection, so the hello needs a fresh one.
                    try:
                        inner.close()
                    except (IcdbError, OSError):
                        pass
                    inner = self._connector()
                    inner.on_event = self._forward_event
                    reply = inner.send_payload(self._opening)
                    if reply.get("type") == FRAME_ERROR:
                        IcdbErrorInfo.from_dict(
                            reply.get("error") or {}
                        ).raise_as_exception()
                    self._token = ""
                    self.metrics.counter("resilience.sessions_reset").inc()
                else:
                    info.raise_as_exception()
            token = reply.get("session_token")
            if isinstance(token, str) and token:
                self._token = token
            self._welcome = reply
        except BaseException:
            try:
                inner.close()
            except (IcdbError, OSError):
                pass
            raise
        self._inner = inner
        if self._connected_once:
            self.metrics.counter("resilience.reattaches").inc()
        self._connected_once = True
        self.metrics.counter("resilience.connects").inc()
        return inner

    # ----------------------------------------------------------------- retry

    def _retryable(self, payload: Dict[str, Any], sent: bool) -> bool:
        if not sent:
            return True  # failed before the request left this process
        if payload.get("request_id"):
            return True  # the server's dedupe makes the retry at-most-once
        request = payload.get("request")
        kind = request.get("kind") if isinstance(request, dict) else None
        return kind in IDEMPOTENT_KINDS

    def send_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self._closed:
                raise IcdbError(
                    "resilient transport is closed", code=E_UNAVAILABLE
                )
            frame_type = payload.get("type")
            if frame_type in (FRAME_HELLO, FRAME_ATTACH):
                # The client's handshake: from here on the transport owns
                # (re)playing it on every reconnect.
                self._opening = dict(payload)
                self._token = str(payload.get("token") or "")
                self._drop_inner()
                self._connected_once = False
                return self._with_retries(payload, handshake=True)
            if frame_type == FRAME_BYE:
                # Best effort, never a reconnect just to say goodbye.
                inner = self._inner
                if inner is None:
                    return {"type": FRAME_BYE}
                try:
                    return inner.send_payload(payload)
                except (IcdbError, OSError):
                    return {"type": FRAME_BYE}
            return self._with_retries(payload, handshake=False)

    def _with_retries(
        self, payload: Dict[str, Any], handshake: bool
    ) -> Dict[str, Any]:
        policy = self.policy
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )
        attempt = 0
        while True:
            attempt += 1
            if not self.breaker.allow():
                raise self.breaker.reject()
            sent = False
            try:
                inner = self._ensure_connected()
                if handshake:
                    # _ensure_connected just performed the handshake; the
                    # welcome reply *is* the answer to this payload.
                    reply = self._welcome
                else:
                    sent = True
                    reply = inner.send_payload(payload)
            except ServerDrained as exc:
                # Planned shutdown: nothing was lost, the server is not
                # "failing" -- retry without penalizing the breaker.
                self._drop_inner()
                self.metrics.counter("resilience.drains_seen").inc()
                self._sleep_or_raise(
                    exc, payload, sent=False, attempt=attempt,
                    deadline=deadline, retry_after_ms=None,
                )
                continue
            except (ProtocolError, OSError) as exc:
                self._drop_inner()
                self.breaker.record_failure()
                self._sleep_or_raise(
                    exc, payload, sent=sent, attempt=attempt,
                    deadline=deadline, retry_after_ms=None,
                )
                continue
            except IcdbError as exc:
                self._drop_inner()
                code = getattr(exc, "code", None)
                if code == E_BUSY:
                    # Session cap at handshake: the server is healthy and
                    # said so -- back off by its hint, not the breaker.
                    self._sleep_or_raise(
                        exc, payload, sent=False, attempt=attempt,
                        deadline=deadline,
                        retry_after_ms=getattr(exc, "retry_after_ms", None),
                    )
                    continue
                if code == E_UNAVAILABLE:
                    self.breaker.record_failure()
                    self._sleep_or_raise(
                        exc, payload, sent=sent, attempt=attempt,
                        deadline=deadline, retry_after_ms=None,
                    )
                    continue
                raise  # structured rejection (bad token, protocol): not transient
            self.breaker.record_success()
            return reply

    def _sleep_or_raise(
        self,
        exc: BaseException,
        payload: Dict[str, Any],
        sent: bool,
        attempt: int,
        deadline: Optional[float],
        retry_after_ms: Optional[float],
    ) -> None:
        """Back off before the next attempt, or re-raise ``exc``."""
        if not self._retryable(payload, sent):
            raise exc
        if attempt >= self.policy.max_attempts:
            raise exc
        delay = self.policy.backoff_s(attempt, self._rng)
        if retry_after_ms is not None:
            delay = max(delay, retry_after_ms / 1000.0)
        if deadline is not None and time.monotonic() + delay >= deadline:
            raise exc
        self.metrics.counter("resilience.retries").inc()
        time.sleep(delay)

    # ----------------------------------------------------------------- close

    @property
    def session_token(self) -> str:
        """The resume token of the session this transport is bound to."""
        return self._token

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._drop_inner()


class ResilientClient(RemoteClient):
    """A :class:`~repro.net.client.RemoteClient` that survives faults.

    Everything rides a :class:`ResilientTransport`; on top of it this
    client

    * stamps every **mutating** request with a fresh ``request_id``, so
      the transport may replay it after an ambiguous failure and the
      server still applies it at most once;
    * honors ``retry_after_ms`` on ``E_BUSY`` *envelopes* (queue full,
      session cap, load shedding) by backing off and re-executing within
      the policy's attempts/deadline budget instead of surfacing the
      first rejection.
    """

    @classmethod
    def connect(  # type: ignore[override]
        cls,
        host: str,
        port: int,
        client: str = "",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        attach_token: Optional[str] = None,
    ) -> "ResilientClient":
        """Connect a resilient client (reconnect / retry / breaker) to a
        running :class:`~repro.net.server.ICDBServer`."""
        return cls.wrap(
            lambda: SocketTransport(host, port, max_frame_bytes, timeout),
            client=client,
            policy=policy,
            breaker=breaker,
            metrics=metrics,
            attach_token=attach_token,
        )

    @classmethod
    def wrap(
        cls,
        connector: Callable[[], Any],
        client: str = "",
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        attach_token: Optional[str] = None,
    ) -> "ResilientClient":
        """A resilient client over any transport factory (tests inject
        fault-wrapped or loopback connectors here)."""
        transport = ResilientTransport(
            connector, policy=policy, breaker=breaker, metrics=metrics
        )
        return cls(transport, client=client, attach_token=attach_token)

    # ------------------------------------------------------------------ entry

    @property
    def resilience(self) -> MetricsRegistry:
        """The client-side ``resilience.*`` counters."""
        return self.transport.metrics

    def execute(self, request: Request) -> Response:
        # Mutations carry one id for all replays of this call: the dedupe key.
        request_id = None if request.kind in IDEMPOTENT_KINDS else uuid.uuid4().hex
        policy = getattr(self.transport, "policy", None) or RetryPolicy()
        rng = getattr(self.transport, "_rng", None) or policy.rng()
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )
        attempt = 0
        while True:
            attempt += 1
            response = super().execute(request, request_id)
            error = response.error
            if response.ok or error is None or error.code != E_BUSY:
                return response
            delay = policy.backoff_s(attempt, rng)
            if error.retry_after_ms is not None:
                delay = max(delay, error.retry_after_ms / 1000.0)
            if attempt >= policy.max_attempts or (
                deadline is not None and time.monotonic() + delay >= deadline
            ):
                return response  # surface the E_BUSY envelope
            metrics = getattr(self.transport, "metrics", None)
            if metrics is not None:
                metrics.counter("resilience.busy_retries").inc()
            time.sleep(delay)


connect_resilient = ResilientClient.connect
