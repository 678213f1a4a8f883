"""Append-only, checksummed, segmented write-ahead journal.

One *record* per line::

    <crc32 as 8 hex chars> <compact JSON event with a "seq" field>\\n

The CRC covers the JSON payload bytes, so a torn write (the process died
mid-``write``, or the file system truncated the tail on crash) shows up
as either an unterminated last line or a checksum mismatch -- both are
detected and cleanly cut off at the last whole record, never half-applied.

Records live in *segments* (``segment-<first_seq>.jrnl``): the writer
rotates to a fresh file once the current one passes ``segment_max_bytes``,
and compaction removes segments every record of which is older than the
latest snapshot.  Sequence numbers are global, strictly increasing and
gap-free across segments; recovery verifies the chain.

Three fsync policies trade durability for throughput:

``always``
    fsync after every append -- an acknowledged write survives power loss.
``interval``
    fsync at most once per ``fsync_interval`` seconds (on the appending
    thread); a crash loses at most that window of acknowledged writes.
``never``
    flush to the OS on every append but never fsync; a *process* crash
    loses nothing (the page cache survives), an OS crash may lose the tail.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..wire import Record, field

#: Valid ``fsync`` policy names.
FSYNC_POLICIES = ("always", "interval", "never")

#: Default fsync coalescing window for the ``interval`` policy, seconds.
DEFAULT_FSYNC_INTERVAL = 0.05

#: Default segment rotation threshold, bytes.
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"segment-(\d{12})\.jrnl$")


class JournalError(ValueError):
    """Raised on malformed journal records or bad writer configuration."""


class JournalCorruptError(JournalError):
    """Raised when corruption is found *before* the journal tail.

    A bad tail is expected after a crash (torn write) and is truncated;
    a bad record with valid data after it -- or a broken sequence chain
    -- means the journal was damaged and recovery must not guess.
    """


def segment_path(directory: Union[str, Path], first_seq: int) -> Path:
    """The path of the segment whose first record is ``first_seq``."""
    return Path(directory) / f"segment-{first_seq:012d}.jrnl"


def segment_first_seq(path: Union[str, Path]) -> Optional[int]:
    """The first-record sequence number encoded in a segment file name."""
    match = _SEGMENT_RE.search(str(path))
    return int(match.group(1)) if match else None


def list_segments(directory: Union[str, Path]) -> List[Path]:
    """Every segment file under ``directory``, in sequence order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        (p for p in directory.iterdir() if _SEGMENT_RE.search(p.name)),
        key=lambda p: segment_first_seq(p) or 0,
    )


#: One reusable compact encoder: ``json.dumps`` with non-default options
#: builds a fresh ``JSONEncoder`` per call, which is measurable at
#: journal append rates (the encode is the single largest append cost).
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_record(event: Mapping[str, Any]) -> bytes:
    """One framed journal line (CRC + compact JSON + newline)."""
    payload = _ENCODER.encode(event).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def decode_record(line: bytes) -> Dict[str, Any]:
    """Parse and checksum one journal line (without its newline)."""
    if len(line) < 10 or line[8:9] != b" ":
        raise JournalError("record too short or missing CRC frame")
    try:
        expected = int(line[:8], 16)
    except ValueError as exc:
        raise JournalError(f"bad CRC field {line[:8]!r}") from exc
    payload = line[9:]
    if zlib.crc32(payload) != expected:
        raise JournalError("CRC mismatch (torn or corrupt record)")
    try:
        event = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"unparseable record payload: {exc}") from exc
    if not isinstance(event, dict) or not isinstance(event.get("seq"), int):
        raise JournalError("record payload is not an event dict with a seq")
    return event


class SegmentScan(Record):
    """The outcome of reading one segment file front to back."""

    path: Path
    #: Every valid record, in file order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Bytes of the file covered by whole, valid records.
    valid_bytes: int = 0
    #: Total bytes in the file.
    total_bytes: int = 0
    #: Why scanning stopped early (``None`` when the segment is clean).
    error: Optional[str] = None

    @property
    def torn(self) -> bool:
        return self.error is not None


def scan_segment(path: Union[str, Path]) -> SegmentScan:
    """Read every whole valid record of a segment; never raises.

    Stops at the first unterminated line or failed checksum and reports
    the byte offset up to which the file is good -- the truncation point
    recovery uses for a torn tail.
    """
    path = Path(path)
    data = path.read_bytes()
    scan = SegmentScan(path=path, total_bytes=len(data))
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            scan.error = "unterminated final record (torn write)"
            break
        try:
            event = decode_record(data[offset:newline])
        except JournalError as exc:
            scan.error = str(exc)
            break
        scan.records.append(event)
        offset = newline + 1
    scan.valid_bytes = offset
    return scan


def fsync_directory(directory: Union[str, Path]) -> None:
    """Best-effort fsync of a directory entry (new/renamed files)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class JournalWriter:
    """Appends checksummed events to the journal, one segment at a time.

    ``next_seq`` is the sequence number the next append will carry --
    recovery hands in ``last_replayed + 1``.  The writer resumes the
    newest existing segment (recovery has already truncated any torn
    tail) and rotates once it exceeds ``segment_max_bytes``.

    Thread-safe: appends serialize on an internal re-entrant lock (pass
    ``lock`` to share it with the database observer lock, making
    journal order equal mutation order by construction).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        next_seq: int = 1,
        fsync: str = "interval",
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        lock: Optional[threading.RLock] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if next_seq < 1:
            raise JournalError(f"next_seq must be >= 1, got {next_seq}")
        if segment_max_bytes < 1:
            raise JournalError("segment_max_bytes must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_max_bytes = int(segment_max_bytes)
        self._lock = lock if lock is not None else threading.RLock()
        self._next_seq = int(next_seq)
        self._handle = None
        self._segment_bytes = 0
        self._last_fsync = 0.0
        #: Monotonic counters (read by DurableStore.stats under the lock).
        self.appends = 0
        self.fsyncs = 0
        self.rotations = 0
        self.bytes_written = 0
        #: Optional latency instruments (Histogram-likes with observe(ms)),
        #: bound by DurableStore.bind_metrics.
        self.append_histogram = None
        self.fsync_histogram = None
        segments = list_segments(self.directory)
        if segments:
            tail = segments[-1]
            self._handle = open(tail, "ab")
            self._segment_bytes = tail.stat().st_size

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    @property
    def last_seq(self) -> int:
        """The sequence number of the last appended record (0 = none)."""
        with self._lock:
            return self._next_seq - 1

    # ------------------------------------------------------------------ write

    def append(self, event: Mapping[str, Any]) -> int:
        """Durably frame one event; returns its sequence number."""
        histogram = self.append_histogram
        start = time.perf_counter() if histogram is not None else 0.0
        with self._lock:
            seq = self._next_seq
            framed = dict(event)
            framed["seq"] = seq
            data = encode_record(framed)
            if (
                self._handle is None
                or self._segment_bytes >= self.segment_max_bytes
            ):
                self._rotate(seq)
            self._handle.write(data)
            self._segment_bytes += len(data)
            self.bytes_written += len(data)
            self._next_seq = seq + 1
            self.appends += 1
            if self.fsync == "always":
                self._handle.flush()
                self._fsync_now()
            elif self.fsync == "never":
                # No fsync ever, but hand each record to the OS: a
                # *process* crash then loses nothing (the page cache
                # survives the process).
                self._handle.flush()
            elif time.monotonic() - self._last_fsync >= self.fsync_interval:
                self._handle.flush()
                self._fsync_now()
            # interval inside the window: leave the record in the stdio
            # buffer.  Any crash loses at most fsync_interval worth of
            # acknowledged writes -- exactly the policy's contract -- and
            # buffered appends cost no syscall on the mutation path.
        if histogram is not None:
            histogram.observe((time.perf_counter() - start) * 1000.0)
        return seq

    def _rotate(self, first_seq: int) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self.rotations += 1
        self._handle = open(segment_path(self.directory, first_seq), "ab")
        self._segment_bytes = self._handle.tell()
        if self.fsync != "never":
            fsync_directory(self.directory)

    def _fsync_now(self) -> None:
        start = time.perf_counter()
        os.fsync(self._handle.fileno())
        self._last_fsync = time.monotonic()
        self.fsyncs += 1
        histogram = self.fsync_histogram
        if histogram is not None:
            histogram.observe((time.perf_counter() - start) * 1000.0)

    def sync(self) -> None:
        """Flush and fsync whatever has been appended so far."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._fsync_now()

    def close(self) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if self.fsync != "never":
                try:
                    self._fsync_now()
                except OSError:
                    pass
            self._handle.close()
            self._handle = None
