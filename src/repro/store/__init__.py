"""Durable design store: write-ahead journal, snapshots, crash recovery.

The paper's ICDB inherits durability from INGRES and the UNIX file
system; the in-memory :mod:`repro.db` engine inherits none.  This package
closes that gap: every database mutation is journaled ahead of
application as a typed, CRC-framed JSON event, full-state snapshots are
written atomically in the background, and boot-time recovery replays
``snapshot + journal tail`` to a byte-identical database -- truncating a
torn tail record instead of half-applying it.

See ``docs/durability.md``; the operational CLI is
``python -m repro.store {inspect,verify,compact,restore}``.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".durable": (
        "DEFAULT_SNAPSHOT_INTERVAL",
        "DurableStore",
        "RecoveryReport",
        "StoreError",
        "journal_dir",
        "recover_database",
        "snapshot_dir",
    ),
    ".events": ("ALL_OPS", "EventError", "apply_event"),
    ".journal": (
        "DEFAULT_FSYNC_INTERVAL",
        "DEFAULT_SEGMENT_MAX_BYTES",
        "FSYNC_POLICIES",
        "JournalCorruptError",
        "JournalError",
        "JournalWriter",
        "encode_record",
        "decode_record",
        "list_segments",
        "scan_segment",
        "segment_path",
    ),
    ".snapshot": (
        "SnapshotError",
        "latest_snapshot",
        "list_snapshots",
        "load_snapshot",
        "write_snapshot",
    ),
})
