"""The durable design store: journal + snapshots + crash recovery.

:class:`DurableStore` owns one data directory::

    <data_dir>/journal/segment-<first_seq>.jrnl   write-ahead event log
    <data_dir>/snapshots/snapshot-<seq>.json      periodic full states

``open()`` recovers: load the newest valid snapshot, replay the journal
tail (records with ``seq`` greater than the snapshot's), truncate a torn
tail record, then attach the journal observer to the recovered
:class:`~repro.db.engine.Database` so every further mutation is written
ahead.  Because the observer emits under the store's re-entrant lock and
:meth:`snapshot` serializes the database under the same lock, a snapshot
always captures a whole-mutation boundary -- recovered state is
byte-identical to the in-memory state at the recorded sequence number.

A background thread snapshots every ``snapshot_interval`` seconds (when
there are new events) and compacts segments the snapshot fully covers.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..db.engine import Database
from ..db.schema import create_schema
from ..wire import Record
from .events import EventError, apply_event
from .journal import (
    DEFAULT_FSYNC_INTERVAL,
    DEFAULT_SEGMENT_MAX_BYTES,
    JournalCorruptError,
    JournalWriter,
    list_segments,
    scan_segment,
    segment_first_seq,
)
from .snapshot import canonical_payload, latest_snapshot, list_snapshots, write_snapshot_text

#: Default seconds between automatic snapshots (None disables the thread).
DEFAULT_SNAPSHOT_INTERVAL = 30.0


class StoreError(ValueError):
    """Raised on invalid durable-store configuration or state."""


class RecoveryReport(Record):
    """What one recovery pass found and did."""

    snapshot_seq: int = 0
    snapshot_path: Optional[Path] = None
    snapshots_skipped: int = 0
    events_replayed: int = 0
    events_skipped: int = 0
    last_seq: int = 0
    segments: int = 0
    #: Torn-tail details (``None`` when the tail was clean).
    truncated_segment: Optional[Path] = None
    truncated_bytes: int = 0
    truncation_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_seq": self.snapshot_seq,
            "snapshot_path": str(self.snapshot_path) if self.snapshot_path else None,
            "snapshots_skipped": self.snapshots_skipped,
            "events_replayed": self.events_replayed,
            "events_skipped": self.events_skipped,
            "last_seq": self.last_seq,
            "segments": self.segments,
            "truncated_segment": (
                str(self.truncated_segment) if self.truncated_segment else None
            ),
            "truncated_bytes": self.truncated_bytes,
            "truncation_reason": self.truncation_reason,
        }


def journal_dir(data_dir: Union[str, Path]) -> Path:
    return Path(data_dir) / "journal"


def snapshot_dir(data_dir: Union[str, Path]) -> Path:
    return Path(data_dir) / "snapshots"


def compact_files(
    data_dir: Union[str, Path], snapshot_seq: int
) -> Tuple[List[Path], List[Path]]:
    """Delete what the newest snapshot (at ``snapshot_seq``) covers.

    A journal segment is covered when the *next* segment starts at or
    below ``snapshot_seq + 1`` -- every record in it then has
    ``seq <= snapshot_seq``; the newest segment always survives (a
    writer holds it open).  Every snapshot but the newest goes too.
    Answers the removed ``(segments, snapshots)``.
    """
    segments = list_segments(journal_dir(data_dir))
    removed_segments: List[Path] = []
    for position, segment in enumerate(segments[:-1]):
        next_first = segment_first_seq(segments[position + 1])
        if next_first is not None and next_first <= snapshot_seq + 1:
            segment.unlink()
            removed_segments.append(segment)
    removed_snapshots = list_snapshots(snapshot_dir(data_dir))[:-1]
    for old in removed_snapshots:
        old.unlink()
    return removed_segments, removed_snapshots


def recover_database(
    data_dir: Union[str, Path], name: str = "icdb"
) -> tuple:
    """Rebuild the database from disk; pure read (shared with the CLI).

    Returns ``(database, report)``.  A torn tail is *reported*, not yet
    truncated -- :meth:`DurableStore.open` performs the truncation before
    it starts appending; the read-only CLI commands leave the files
    untouched.  Corruption anywhere before the tail raises
    :class:`~repro.store.journal.JournalCorruptError`.
    """
    report = RecoveryReport()
    snap = latest_snapshot(snapshot_dir(data_dir))
    report.snapshots_skipped = len(snap.skipped)
    if snap.payload is not None:
        database = Database.from_payload(snap.payload)
        report.snapshot_seq = snap.seq
        report.snapshot_path = snap.path
    else:
        database = Database(name)
    report.last_seq = snap.seq

    segments = list_segments(journal_dir(data_dir))
    report.segments = len(segments)
    previous_seq: Optional[int] = None
    for position, segment in enumerate(segments):
        scan = scan_segment(segment)
        last = position == len(segments) - 1
        if scan.torn and not last:
            raise JournalCorruptError(
                f"corrupt record before the journal tail in {segment.name}: "
                f"{scan.error}"
            )
        for event in scan.records:
            seq = event["seq"]
            if previous_seq is not None and seq != previous_seq + 1:
                raise JournalCorruptError(
                    f"sequence break in {segment.name}: record {seq} follows "
                    f"{previous_seq}"
                )
            if previous_seq is None and seq > snap.seq + 1:
                raise JournalCorruptError(
                    f"journal starts at seq {seq} but the snapshot covers only "
                    f"up to {snap.seq}; intermediate segments are missing"
                )
            previous_seq = seq
            if seq <= snap.seq:
                report.events_skipped += 1
                continue
            try:
                apply_event(database, event)
            except EventError as exc:
                raise JournalCorruptError(
                    f"unreplayable record seq {seq} in {segment.name}: {exc}"
                ) from exc
            report.events_replayed += 1
            report.last_seq = seq
        if scan.torn:
            report.truncated_segment = segment
            report.truncated_bytes = scan.total_bytes - scan.valid_bytes
            report.truncation_reason = scan.error
    return database, report


class DurableStore:
    """Write-ahead durability for one :class:`~repro.db.engine.Database`.

    Typical embedding (what ``python -m repro.net.server --data-dir``
    does)::

        store = DurableStore("var/icdb", fsync="interval")
        service = ComponentService(durable_store=store)   # opens + binds
        ...
        store.close()                                     # final snapshot

    ``open()`` is idempotent and returns the recovered database; until it
    runs, the store holds no file handles.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        name: str = "icdb",
        fsync: str = "interval",
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
        snapshot_interval: Optional[float] = DEFAULT_SNAPSHOT_INTERVAL,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ):
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise StoreError("snapshot_interval must be > 0 (or None to disable)")
        self.data_dir = Path(data_dir)
        self.name = name
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.snapshot_interval = snapshot_interval
        self.segment_max_bytes = segment_max_bytes
        #: THE lock: database mutations (observer emission + application),
        #: journal appends and snapshot serialization all hold it, which
        #: is what makes recovered state equal in-memory state.
        self._lock = threading.RLock()
        self._database: Optional[Database] = None
        self._writer: Optional[JournalWriter] = None
        self._report: Optional[RecoveryReport] = None
        self._snapshot_seq = 0
        self._snapshot_count = 0
        self._compacted_segments = 0
        self._snapshot_errors = 0
        self._recoveries = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------- open

    @property
    def recovery_report(self) -> Optional[RecoveryReport]:
        return self._report

    @property
    def database(self) -> Optional[Database]:
        return self._database

    @property
    def last_seq(self) -> int:
        with self._lock:
            if self._writer is not None:
                return self._writer.last_seq
            return self._report.last_seq if self._report else 0

    def open(self) -> Database:
        """Recover (or initialize) and start journaling; idempotent."""
        with self._lock:
            if self._database is not None:
                return self._database
            journal_dir(self.data_dir).mkdir(parents=True, exist_ok=True)
            snapshot_dir(self.data_dir).mkdir(parents=True, exist_ok=True)
            database, report = recover_database(self.data_dir, name=self.name)
            if report.truncated_segment is not None and report.truncated_bytes:
                # Cut the torn tail off on disk before appending: the
                # journal must never contain a record the recovered state
                # does not reflect.
                with open(report.truncated_segment, "r+b") as handle:
                    handle.truncate(
                        report.truncated_segment.stat().st_size
                        - report.truncated_bytes
                    )
            self._report = report
            self._recoveries += 1
            self._snapshot_seq = report.snapshot_seq
            self._writer = JournalWriter(
                journal_dir(self.data_dir),
                next_seq=report.last_seq + 1,
                fsync=self.fsync,
                fsync_interval=self.fsync_interval,
                segment_max_bytes=self.segment_max_bytes,
                lock=self._lock,
            )
            self._database = database
            database.attach_observer(self._writer.append, lock=self._lock)
            # First boot: journal the schema creation itself, so an empty
            # data dir replays to a schema-complete database.  Later
            # boots: idempotent no-op.
            create_schema(database)
        if self.snapshot_interval is not None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._snapshot_loop, name="icdb-store-snapshot", daemon=True
            )
            self._thread.start()
        return database

    # --------------------------------------------------------------- snapshot

    def snapshot(self, compact: bool = True) -> Optional[Path]:
        """Write a snapshot of the current state; returns its path.

        Serialization happens under the store lock (mutations wait);
        the file write happens outside it.  ``compact`` then removes
        segments every record of which the snapshot covers.  Answers
        ``None`` when nothing changed since the last snapshot.
        """
        with self._lock:
            if self._database is None or self._writer is None:
                raise StoreError("the store is not open")
            seq = self._writer.last_seq
            if seq <= self._snapshot_seq:
                return None
            # fsync before snapshotting: the snapshot must never be more
            # durable than the journal it supersedes.
            if self.fsync != "never":
                self._writer.sync()
            payload_text = canonical_payload(self._database.to_payload())
        path = write_snapshot_text(
            snapshot_dir(self.data_dir), payload_text, seq,
            durable=self.fsync != "never",
        )
        with self._lock:
            self._snapshot_seq = max(self._snapshot_seq, seq)
            self._snapshot_count += 1
        if compact:
            self.compact()
        return path

    def compact(self) -> List[Path]:
        """Remove the journal segments and older snapshots the latest
        snapshot covers (see :func:`compact_files`); answers the removed
        segments."""
        with self._lock:
            removed, _ = compact_files(self.data_dir, self._snapshot_seq)
            self._compacted_segments += len(removed)
        return removed

    def _snapshot_loop(self) -> None:
        while not self._stop.wait(self.snapshot_interval):
            try:
                self.snapshot()
            except OSError:
                # A full disk must not kill the snapshotter; the journal
                # keeps the data safe and the next tick retries.
                with self._lock:
                    self._snapshot_errors += 1

    # ------------------------------------------------------------------ close

    def close(self, snapshot: bool = True) -> None:
        """Stop the snapshot thread, optionally snapshot, close the journal."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            if self._database is None:
                return
            if snapshot:
                try:
                    self.snapshot()
                except OSError:
                    self._snapshot_errors += 1
            self._database.detach_observer()
            self._writer.close()
            self._database = None
            self._writer = None

    def __enter__(self) -> "DurableStore":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- metrics

    def stats(self) -> Dict[str, Any]:
        """Nested counters for the metrics registry collector seam."""
        with self._lock:
            writer = self._writer
            report = self._report
            return {
                "journal": {
                    "appends": writer.appends if writer else 0,
                    "fsyncs": writer.fsyncs if writer else 0,
                    "rotations": writer.rotations if writer else 0,
                    "bytes_written": writer.bytes_written if writer else 0,
                    "segments": len(list_segments(journal_dir(self.data_dir))),
                },
                "snapshot": {
                    "count": self._snapshot_count,
                    "seq": self._snapshot_seq,
                    "errors": self._snapshot_errors,
                    "compacted_segments": self._compacted_segments,
                },
                "recovery": {
                    "count": self._recoveries,
                    "snapshot_seq": report.snapshot_seq if report else 0,
                    "events_replayed": report.events_replayed if report else 0,
                    "events_skipped": report.events_skipped if report else 0,
                    "truncated_bytes": report.truncated_bytes if report else 0,
                },
                "last_seq": self.last_seq,
            }

    def bind_metrics(self, registry) -> None:
        """Surface this store in a :class:`~repro.obs.metrics.MetricsRegistry`.

        Registers the ``store.*`` collector (``store.journal.appends``,
        ``store.snapshot.count``, ``store.recovery.events_replayed`` ...)
        and binds the journal's append/fsync latency histograms.
        """
        registry.register_collector("store", self.stats)
        if self._writer is not None:
            self._writer.append_histogram = registry.histogram(
                "store.journal.append_ms"
            )
            self._writer.fsync_histogram = registry.histogram(
                "store.journal.fsync_ms"
            )
