"""``repro.net.server`` with a timing span around every layer boundary.

    python benchmarks/e2e/traced_server.py --trace-out FILE [server args...]

Wraps every entry point of :data:`spans.SPANS`, then runs the normal
server ``main()`` with the remaining arguments.  A span records its name,
start, end, parent span, thread and request id; the request id is
allocated by ``net.dispatch`` (the frame decode that precedes it is
stamped with the same id).  Spans are kept in memory and only while a
client has opened the trace window: the load generator sends a typed
``ping`` with echo :data:`MARKER_START` right before its measured phase
and :data:`MARKER_STOP` right after it.  On exit the per-layer aggregates
(calls, self time, self time on the request path), the time spent
handling frames on the request path, the bytes written to the
design-data store and the first spans verbatim are written to ``FILE``
as JSON.  A frame is handled from the start of its decode to the end of
the send of its reply; the client's round trips minus that time is the
transport, taken from timestamps and independent of the layers' self
times.

A layer's self time is its duration minus the time of its child spans
on the same thread.  Spans on threads that never dispatch a frame (job
workers, fleet pumps, the snapshotter) have no parent request; they are
aggregated per layer but are not on the request path.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from spans import SPANS

MARKER_START = "e2e-trace:start"
MARKER_STOP = "e2e-trace:stop"

#: How many raw spans the dump keeps verbatim (the aggregates cover all).
SAMPLE_SPANS = 200

# Record layout (lists: a decode span's request id is filled in later).
_SID, _NAME, _START, _END, _SELF, _PARENT, _THREAD, _RID = range(8)


class Tracer:
    """In-memory span recorder shared by every wrapped entry point."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.bytes_written = 0
        #: Thread -> ms spent handling frames (decode start to send end).
        self.frame_ms: Dict[int, float] = {}
        self.window_start: Optional[float] = None
        self.window_stop: Optional[float] = None
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    @property
    def recording(self) -> bool:
        return self.window_start is not None and self.window_stop is None

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every span-table row; exit loudly if any does not resolve."""
        unresolved = []
        for index, (name, module_name, path) in enumerate(SPANS):
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError) as exc:
                unresolved.append(f"{name} -> {module_name}.{path} ({exc!r})")
                continue
            if not callable(original):
                unresolved.append(f"{name} -> {module_name}.{path} is not callable")
                continue
            setattr(owner, attribute, self._wrap(index, name, original))
        if unresolved:
            raise SystemExit(
                "traced_server: span targets did not resolve:\n  "
                + "\n  ".join(unresolved)
            )

    def _wrap(self, index: int, name: str, fn: Callable) -> Callable:
        local = self._local
        spans = self.spans
        span_ids = self._span_ids
        clock = time.perf_counter
        is_dispatch = name == "net.dispatch"
        is_decode = name == "net.decode_frame"
        is_send = name == "net.send"
        counts_bytes = name == "db.files.write"
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
            if is_dispatch:
                local.rid = next(tracer._request_ids)
                pending = local.__dict__.pop("pending", None)
                if pending is not None:
                    pending[_RID] = local.rid
                marker = _marker(args[1] if len(args) > 1 else None)
                if marker == MARKER_STOP:
                    tracer.window_stop = clock()
            frame = [next(span_ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                frame_start = local.__dict__.pop("frame_start", None) if is_send else None
                if tracer.recording and start >= tracer.window_start:
                    thread = threading.get_ident()
                    record = [
                        frame[0],
                        index,
                        start,
                        end,
                        duration - frame[1],
                        stack[-1][0] if stack else 0,
                        thread,
                        0 if is_decode else local.__dict__.get("rid", 0),
                    ]
                    if is_decode:
                        local.pending = record
                        local.frame_start = start
                    elif frame_start is not None:
                        tracer.frame_ms[thread] = (
                            tracer.frame_ms.get(thread, 0.0) + (end - frame_start) * 1000.0
                        )
                    if counts_bytes:
                        tracer.bytes_written += len(
                            args[3] if len(args) > 3 else kwargs.get("text", "")
                        )
                    spans.append(record)
                if is_dispatch and marker == MARKER_START:
                    tracer.window_start = clock()
                    tracer.window_stop = None

        return span

    # ------------------------------------------------------------------- dump

    def dump(self, path: str) -> None:
        names = [name for name, _, _ in SPANS]
        dispatch = names.index("net.dispatch")
        path_threads = {
            record[_THREAD] for record in self.spans if record[_NAME] == dispatch
        }
        layers: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_ms": 0.0, "path_self_ms": 0.0} for name in names
        }
        for record in self.spans:
            layer = layers[names[record[_NAME]]]
            layer["calls"] += 1
            layer["self_ms"] += record[_SELF] * 1000.0
            if record[_THREAD] in path_threads:
                layer["path_self_ms"] += record[_SELF] * 1000.0
        sample = [
            {
                "span": record[_SID],
                "name": names[record[_NAME]],
                "start": record[_START],
                "end": record[_END],
                "parent": record[_PARENT],
                "thread": record[_THREAD],
                "request": record[_RID],
            }
            for record in self.spans[:SAMPLE_SPANS]
        ]
        payload = {
            "bytes_written": self.bytes_written,
            "frame_ms": sum(self.frame_ms.get(thread, 0.0) for thread in path_threads),
            "layers": layers,
            "sample": sample,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _marker(payload: Any) -> Optional[str]:
    """The trace-window marker a frame carries, if any."""
    if not isinstance(payload, dict) or payload.get("type") != "request":
        return None
    request = payload.get("request")
    if isinstance(request, dict) and request.get("kind") == "ping":
        echo = request.get("echo")
        if echo in (MARKER_START, MARKER_STOP):
            return echo
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="traced_server.py",
        description="Run repro.net.server with per-layer timing spans.",
    )
    parser.add_argument("--trace-out", required=True, metavar="FILE")
    args, server_args = parser.parse_known_args(argv)
    tracer = Tracer()
    tracer.install()
    from repro.net.server import main as server_main

    code = server_main(server_args)
    tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
