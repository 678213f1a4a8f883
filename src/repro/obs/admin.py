"""``python -m repro.obs.admin``: a live terminal dashboard for one server.

Polls the typed ``GetMetrics`` request over the normal wire protocol --
the console is just another client, needing no server-side privileges or
side channels -- and renders sessions, in-flight jobs, cache hit rates
and a rolling req/s computed from successive ``requests.total`` deltas.
Modeled on the gridworks-admin live ``DataTable`` views, but stdlib-only:
full-screen :mod:`curses` when the terminal supports it, plain repainted
text otherwise (``--plain``), one-shot mode for scripts and tests
(``--once``), raw snapshot JSON for piping (``--json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

from ..net.client import connect

#: Generation-cache stages shown as dashboard rows (matches
#: :attr:`repro.core.gencache.GenerationCache.STAGES` plus the aggregate).
_GEN_STAGES = ("expand", "synth", "flows", "optimize", "total")


def _rate(hits: float, lookups: float) -> str:
    if lookups <= 0:
        return "   --"
    return f"{100.0 * hits / lookups:4.1f}%"


def _quantile_ms(hist: Mapping[str, Any], q: float) -> Optional[float]:
    """Upper-bound estimate of the q-quantile from fixed buckets."""
    count = hist.get("count") or 0
    if not count:
        return None
    target = q * count
    cumulative = 0
    bounds = hist.get("bounds") or []
    for index, bucket in enumerate(hist.get("counts") or []):
        cumulative += bucket
        if cumulative >= target:
            if index < len(bounds):
                return float(bounds[index])
            return float(hist.get("max") or bounds[-1])
    return float(hist.get("max") or 0.0)


def render_dashboard(
    snapshot: Mapping[str, Any],
    address: str = "",
    req_per_s: Optional[float] = None,
) -> str:
    """One frame of the dashboard as plain text (pure, testable).

    ``req_per_s`` is the caller-computed rolling rate (the renderer is
    stateless); ``None`` renders as warming-up dashes.
    """
    counters: Mapping[str, Any] = snapshot.get("counters") or {}
    gauges: Mapping[str, Any] = snapshot.get("gauges") or {}
    histograms: Mapping[str, Any] = snapshot.get("histograms") or {}

    def c(name: str, default: float = 0) -> float:
        value = counters.get(name, default)
        return value if isinstance(value, (int, float)) else default

    lines: List[str] = []
    stamp = snapshot.get("time")
    when = (
        time.strftime("%H:%M:%S", time.localtime(stamp))
        if isinstance(stamp, (int, float))
        else "--:--:--"
    )
    lines.append(f"ICDB admin console -- {address or 'server'} @ {when}")
    lines.append("=" * 64)

    rate_text = "   --" if req_per_s is None else f"{req_per_s:8.1f}"
    errors = c("requests.errors")
    lines.append(
        f"requests   total {c('requests.total'):>10,.0f}   "
        f"req/s {rate_text}   errors {errors:,.0f}"
    )
    latency = histograms.get("request.latency_ms")
    if latency and latency.get("count"):
        avg = latency["sum"] / latency["count"]
        p50 = _quantile_ms(latency, 0.50)
        p95 = _quantile_ms(latency, 0.95)
        lines.append(
            f"latency    avg {avg:8.2f} ms   p50 <= {p50:8.2f} ms   "
            f"p95 <= {p95:8.2f} ms   max {latency.get('max') or 0:.2f} ms"
        )
    lines.append("")

    sessions = gauges.get("net.sessions", 0)
    attached = gauges.get("net.sessions_attached", 0)
    lines.append(
        f"sessions   live {sessions:>6,.0f}   attached {attached:>6,.0f}   "
        f"created {c('net.sessions_created'):>8,.0f}"
    )
    lines.append(
        f"jobs       running {c('jobs.running'):>4,.0f}   "
        f"queued {c('jobs.queued'):>4,.0f}   "
        f"workers {c('jobs.workers'):>3,.0f}   "
        f"submitted {c('jobs.submitted'):>8,.0f}   "
        f"done {c('jobs.done'):>6,.0f}   failed {c('jobs.failed'):>4,.0f}   "
        f"inline {c('jobs.inline_overflows'):>4,.0f}"
    )
    if "fleet.workers_live" in counters:
        lines.append(
            f"fleet      workers {c('fleet.workers_live'):>3,.0f}   "
            f"restarts {c('fleet.restarts'):>3,.0f}   "
            f"dispatched {c('fleet.dispatched'):>7,.0f}   "
            f"done {c('fleet.completed'):>7,.0f}   "
            f"failed {c('fleet.failed'):>4,.0f}"
        )
        lines.append(
            f"           requeues {c('fleet.requeues'):>4,.0f}   "
            f"fallbacks {c('fleet.fallbacks'):>5,.0f}   "
            f"installs {c('fleet.installs'):>7,.0f}   "
            f"coalesced {c('fleet.coalesced'):>5,.0f}"
        )
    lines.append("")

    lines.append(
        f"result cache    hit {_rate(c('cache.result.hits'), c('cache.result.lookups'))}   "
        f"hits {c('cache.result.hits'):>8,.0f}   "
        f"lookups {c('cache.result.lookups'):>8,.0f}   "
        f"entries {c('cache.result.entries'):>6,.0f}"
    )
    for stage in _GEN_STAGES:
        lookups = c(f"gencache.{stage}.lookups")
        if not lookups and stage != "total":
            continue
        lines.append(
            f"gen {stage:<10}  hit {_rate(c(f'gencache.{stage}.hits'), lookups)}   "
            f"hits {c(f'gencache.{stage}.hits'):>8,.0f}   "
            f"lookups {lookups:>8,.0f}   "
            f"entries {c(f'gencache.{stage}.entries'):>6,.0f}"
        )
    lines.append("")
    if "store.journal.appends" in counters:
        lines.append(
            f"store      appends {c('store.journal.appends'):>8,.0f}   "
            f"fsyncs {c('store.journal.fsyncs'):>8,.0f}   "
            f"snapshots {c('store.snapshot.count'):>4,.0f}   "
            f"last seq {c('store.last_seq'):>8,.0f}"
        )
        lines.append(
            f"recovery   replayed {c('store.recovery.events_replayed'):>7,.0f}   "
            f"from snapshot seq {c('store.recovery.snapshot_seq'):>8,.0f}"
        )
        append_hist = histograms.get("store.journal.append_ms")
        if append_hist and append_hist.get("count"):
            avg = append_hist["sum"] / append_hist["count"]
            p95 = _quantile_ms(append_hist, 0.95)
            lines.append(
                f"journal    append avg {avg:6.3f} ms   p95 <= {p95:6.3f} ms   "
                f"max {append_hist.get('max') or 0:.3f} ms"
            )
        lines.append("")
    lines.append(
        f"net        push drops {c('net.push_drops'):,.0f}   "
        f"shutdown errors {c('net.shutdown_errors'):,.0f}   "
        f"job event drops {c('jobs.event_drops'):,.0f}"
    )
    return "\n".join(lines)


class _Poller:
    """Owns the connection and the rolling-rate state between frames."""

    def __init__(self, host: str, port: int):
        self.address = f"{host}:{port}"
        self._client = connect(host, port, client="obs-admin")
        self._prev_total: Optional[float] = None
        self._prev_mono: Optional[float] = None

    def frame(self) -> str:
        snapshot = self._client.metrics()
        now = time.monotonic()
        total = snapshot.get("counters", {}).get("requests.total")
        req_per_s: Optional[float] = None
        if (
            isinstance(total, (int, float))
            and self._prev_total is not None
            and self._prev_mono is not None
            and now > self._prev_mono
        ):
            req_per_s = max(0.0, (total - self._prev_total) / (now - self._prev_mono))
        if isinstance(total, (int, float)):
            self._prev_total = total
            self._prev_mono = now
        return render_dashboard(snapshot, address=self.address, req_per_s=req_per_s)

    def raw(self) -> Dict[str, Any]:
        return self._client.metrics()

    def close(self) -> None:
        self._client.close()


def _curses_loop(poller: _Poller, interval: float) -> None:  # pragma: no cover - tty only
    import curses

    def loop(screen) -> None:
        curses.curs_set(0)
        screen.nodelay(True)
        while True:
            text = poller.frame()
            screen.erase()
            height, width = screen.getmaxyx()
            for row, line in enumerate(text.splitlines()[: height - 1]):
                screen.addnstr(row, 0, line, width - 1)
            screen.addnstr(
                height - 1, 0, "q to quit", width - 1, curses.A_REVERSE
            )
            screen.refresh()
            deadline = time.monotonic() + interval
            while time.monotonic() < deadline:
                key = screen.getch()
                if key in (ord("q"), ord("Q")):
                    return
                time.sleep(0.05)

    curses.wrapper(loop)


def _plain_loop(poller: _Poller, interval: float) -> None:  # pragma: no cover - interactive
    try:
        while True:
            print("\x1b[2J\x1b[H" + poller.frame(), flush=True)
            time.sleep(interval)
    except KeyboardInterrupt:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.admin",
        description="Live terminal dashboard for an ICDB server (polls GetMetrics).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, default=7361, help="server TCP port")
    parser.add_argument(
        "--interval", type=float, default=1.0, help="poll interval in seconds"
    )
    parser.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    parser.add_argument(
        "--json", action="store_true", help="print one raw snapshot as JSON and exit"
    )
    parser.add_argument(
        "--plain",
        action="store_true",
        help="repainted plain text instead of the curses screen",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be > 0")

    poller = _Poller(args.host, args.port)
    try:
        if args.json:
            print(json.dumps(poller.raw(), indent=2, sort_keys=True))
            return 0
        if args.once:
            print(poller.frame())
            return 0
        use_curses = not args.plain and sys.stdout.isatty()
        if use_curses:
            try:
                _curses_loop(poller, args.interval)
            except Exception:  # noqa: BLE001 - no curses? degrade, don't die
                _plain_loop(poller, args.interval)
        else:
            _plain_loop(poller, args.interval)
        return 0
    finally:
        poller.close()


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
