"""Thread-safe metrics: counters, gauges, histograms, collectors, export.

The registry is deliberately *pull-oriented* where the stack already
keeps counters: the result cache and the generation cache move their
counters atomically under their own locks (the stress suite asserts
``hits + misses == lookups`` and ``entries == stores - evictions``), so
the registry reads them through registered *collectors* at snapshot time
instead of duplicating the accounting -- the exported numbers ARE the
in-process numbers, not a parallel set that can drift.

Counters and histograms the stack did not already keep (per-request
totals, latency distributions, push drops) live in the registry itself;
each instrument carries its own lock, so the hot request path pays two
short uncontended acquisitions, never a registry-wide one.

:class:`Clock` is the seam between wall time (display timestamps) and
monotonic time (every duration and histogram observation): an NTP step
moves ``time.time()`` but not ``time.monotonic()``, so durations derived
from wall-clock pairs can come out negative or huge.
:class:`ManualClock` makes both axes scriptable for deterministic tests.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

#: Fixed latency bucket upper bounds, in milliseconds.  Chosen around the
#: measured request profile: cached hits sit well under 1 ms, pipelined
#: batches in the tens, cold generations in the hundreds to seconds.
DEFAULT_LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Version stamp of the snapshot schema (see :func:`validate_snapshot`).
SNAPSHOT_VERSION = 1

Number = Union[int, float]


class Clock:
    """Wall time for timestamps, monotonic time for durations.

    Everything in the service that *displays* a moment reads
    :meth:`time`; everything that *measures* an interval subtracts two
    :meth:`monotonic` readings.  Tests inject a :class:`ManualClock` to
    make both axes deterministic (and to prove wall-clock steps cannot
    poison durations).
    """

    def time(self) -> float:
        return time.time()

    def monotonic(self) -> float:
        return time.monotonic()


class ManualClock(Clock):
    """A scriptable clock for deterministic tests.

    ``advance()`` moves both axes; ``step_wall()`` moves only the wall
    axis (an NTP step), which must never affect measured durations.
    ``auto_tick`` advances the monotonic axis by that much on every
    reading, so code that computes a duration without sleeping still
    observes strictly increasing time.
    """

    def __init__(self, wall: float = 1_000_000.0, mono: float = 50.0,
                 auto_tick: float = 0.0):
        self._lock = threading.Lock()
        self._wall = wall
        self._mono = mono
        self.auto_tick = auto_tick

    def time(self) -> float:
        with self._lock:
            return self._wall

    def monotonic(self) -> float:
        with self._lock:
            value = self._mono
            self._mono += self.auto_tick
            return value

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._wall += seconds
            self._mono += seconds

    def step_wall(self, seconds: float) -> None:
        """Jump the wall clock (either direction) without touching the
        monotonic axis -- what an NTP correction does."""
        with self._lock:
            self._wall += seconds


#: The default clock every production component shares.
SYSTEM_CLOCK = Clock()


class Counter:
    """A monotonically increasing integer (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value: either set directly or read via a callback."""

    __slots__ = ("name", "_lock", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Number]] = None):
        self.name = name
        self._lock = threading.Lock()
        self._value: Number = 0
        self._fn = fn

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Number:
        fn = self._fn
        if fn is not None:
            try:
                return fn()
            except Exception:  # noqa: BLE001 - a dying gauge must not kill an export
                return 0
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution of observations (thread-safe).

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last bound.  The snapshot carries cumulative
    ``count`` / ``sum`` plus ``min`` / ``max``, enough for rate and
    quantile estimates without per-observation storage.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS_MS):
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }


def _flatten(prefix: str, data: Mapping[str, Any], into: Dict[str, Number]) -> None:
    for key, value in data.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            _flatten(name, value, into)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            into[name] = value


class MetricsRegistry:
    """The process-wide metric namespace (thread-safe, get-or-create).

    Three instrument families plus *collectors*: a collector is a
    zero-argument callable returning a (possibly nested) mapping of
    numbers -- the existing ``stats()`` surfaces of the result cache,
    generation cache and job manager plug in unchanged.  Collector output
    is flattened into the ``counters`` section of the snapshot under the
    registered prefix, so the export always equals the authoritative
    in-process state at snapshot time.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self._clock = clock or SYSTEM_CLOCK
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: "Dict[str, Callable[[], Mapping[str, Any]]]" = {}

    # ------------------------------------------------------------ instruments

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str, fn: Optional[Callable[[], Number]] = None) -> Gauge:
        """Get or create a gauge; passing ``fn`` (re)binds its callback.

        Re-registration replaces the callback rather than erroring: a
        service can outlive several session registries, and the newest
        owner of a name is the live one.
        """
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None or fn is not None:
                instrument = self._gauges[name] = Gauge(name, fn)
            return instrument

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS_MS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    def register_collector(
        self, prefix: str, fn: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Pull ``fn()`` into the snapshot under ``prefix.`` (replaces)."""
        with self._lock:
            self._collectors[prefix] = fn

    # --------------------------------------------------------------- snapshot

    def snapshot(
        self,
        prefixes: Tuple[str, ...] = (),
        include_histograms: bool = True,
    ) -> Dict[str, Any]:
        """The JSON-safe state of every instrument and collector.

        ``prefixes`` filters metric names (keep those starting with any
        given prefix); empty means everything.  ``include_histograms=False``
        answers with an empty histogram section -- the cheap polling mode
        for dashboards that only chart counters.  The counters section
        merges owned counters with flattened collector output; a failing
        collector is skipped (an export must never take the service down).

        Collectors run *after* the registry lock is released: a collector
        like ``JobManager.stats`` takes its own subsystem lock, and code
        holding a subsystem lock is allowed to touch instruments (which
        take only the registry or per-instrument lock) -- keeping the two
        lock orders from ever nesting in opposite directions.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values()) if include_histograms else []
            collectors = list(self._collectors.items())
        counter_values: Dict[str, Number] = {c.name: c.value for c in counters}
        for prefix, fn in collectors:
            try:
                data = fn()
            except Exception:  # noqa: BLE001 - see docstring
                continue
            if isinstance(data, Mapping):
                _flatten(prefix, data, counter_values)
        gauge_values: Dict[str, Number] = {g.name: g.value for g in gauges}
        histogram_values = {h.name: h.snapshot() for h in histograms}
        if prefixes:
            def keep(name: str) -> bool:
                return any(name.startswith(p) for p in prefixes)

            counter_values = {k: v for k, v in counter_values.items() if keep(k)}
            gauge_values = {k: v for k, v in gauge_values.items() if keep(k)}
            histogram_values = {
                k: v for k, v in histogram_values.items() if keep(k)
            }
        return {
            "version": SNAPSHOT_VERSION,
            "time": self._clock.time(),
            "counters": counter_values,
            "gauges": gauge_values,
            "histograms": histogram_values,
        }


def validate_snapshot(snapshot: Any) -> Dict[str, Any]:
    """Schema-check one exported snapshot; returns it or raises ValueError.

    The contract the CI artifact (and any external scraper) relies on:
    top-level ``version`` / ``time`` / ``counters`` / ``gauges`` /
    ``histograms``, numeric leaves, and internally consistent histogram
    bucket arrays (``len(counts) == len(bounds) + 1``,
    ``sum(counts) == count``).
    """
    if not isinstance(snapshot, Mapping):
        raise ValueError(f"snapshot must be a mapping, got {type(snapshot).__name__}")
    for key in ("version", "time", "counters", "gauges", "histograms"):
        if key not in snapshot:
            raise ValueError(f"snapshot is missing the {key!r} section")
    if snapshot["version"] != SNAPSHOT_VERSION:
        raise ValueError(f"unknown snapshot version {snapshot['version']!r}")
    if not isinstance(snapshot["time"], (int, float)):
        raise ValueError("snapshot 'time' must be a number")
    for section in ("counters", "gauges"):
        values = snapshot[section]
        if not isinstance(values, Mapping):
            raise ValueError(f"snapshot {section!r} must be a mapping")
        for name, value in values.items():
            if not isinstance(name, str):
                raise ValueError(f"{section} key {name!r} is not a string")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{section}[{name!r}] is not a number: {value!r}")
    histograms = snapshot["histograms"]
    if not isinstance(histograms, Mapping):
        raise ValueError("snapshot 'histograms' must be a mapping")
    for name, hist in histograms.items():
        if not isinstance(hist, Mapping):
            raise ValueError(f"histogram {name!r} must be a mapping")
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            raise ValueError(f"histogram {name!r} needs 'bounds' and 'counts' lists")
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"histogram {name!r}: {len(counts)} counts for "
                f"{len(bounds)} bounds (want bounds + 1)"
            )
        if sum(counts) != hist.get("count"):
            raise ValueError(f"histogram {name!r}: bucket counts do not sum to count")
    return dict(snapshot)


class MetricsExporter:
    """Periodically writes registry snapshots as JSON to a file.

    Writes go to ``<path>.tmp`` then :func:`os.replace`, so a reader
    (dashboard, scraper, CI validation) never observes a torn file.  The
    thread is a daemon and wakes early on :meth:`stop`; ``write_once``
    is the synchronous core the tests call directly.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: Union[str, "os.PathLike[str]"],
        interval: float = 10.0,
    ):
        if interval <= 0:
            raise ValueError(f"exporter interval must be > 0, got {interval}")
        self.registry = registry
        self.path = os.fspath(path)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def write_once(self) -> Dict[str, Any]:
        snapshot = self.registry.snapshot()
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)
        return snapshot

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.write_once()
            except OSError:
                pass  # a full disk must not kill the exporter; retried next tick
            self._stop.wait(self.interval)

    def start(self) -> "MetricsExporter":
        if self._thread is not None:
            raise RuntimeError("exporter is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="icdb-metrics-exporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, write_final: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        if write_final:
            try:
                self.write_once()
            except OSError:
                pass


__all__: List[str] = [
    "Clock",
    "Counter",
    "DEFAULT_LATENCY_BOUNDS_MS",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsExporter",
    "MetricsRegistry",
    "SNAPSHOT_VERSION",
    "SYSTEM_CLOCK",
    "validate_snapshot",
]
