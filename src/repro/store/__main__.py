"""``python -m repro.store``: operate on a durable-store data directory.

Four subcommands, all offline (they never write the journal; ``compact``
writes a snapshot and removes covered segments, the rest are read-only):

``inspect``
    Summarize snapshots, segments, sequence range and table row counts.
``verify``
    Validate every record CRC, the sequence chain and every snapshot
    checksum; exit 1 on corruption or a torn tail, 0 when clean.
``compact``
    Recover, write a fresh snapshot at the recovered sequence, and
    delete journal segments (and older snapshots) it fully covers.
    Run it only against a stopped server.
``restore``
    Recover and write the database as ``Database.save`` JSON to a file
    (or stdout with ``-``) -- the escape hatch into the plain JSON
    persistence the engine always had.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .durable import compact_files, journal_dir, recover_database, snapshot_dir
from .journal import (
    JournalCorruptError,
    list_segments,
    scan_segment,
)
from .snapshot import SnapshotError, list_snapshots, load_snapshot, write_snapshot


def _cmd_inspect(args: argparse.Namespace) -> int:
    data_dir = args.data_dir
    print(f"durable store at {data_dir}")
    snapshots = list_snapshots(snapshot_dir(data_dir))
    print(f"  snapshots: {len(snapshots)}")
    for path in snapshots:
        try:
            seq, payload = load_snapshot(path)
            tables = payload.get("tables", {})
            rows = sum(len(t.get("rows", ())) for t in tables.values())
            print(
                f"    {path.name}: seq {seq}, {len(tables)} tables, {rows} rows"
            )
        except SnapshotError as exc:
            print(f"    {path.name}: CORRUPT ({exc})")
    segments = list_segments(journal_dir(data_dir))
    print(f"  segments: {len(segments)}")
    for path in segments:
        scan = scan_segment(path)
        seqs = [record["seq"] for record in scan.records]
        span = f"seq {seqs[0]}..{seqs[-1]}" if seqs else "empty"
        tail = f", TORN TAIL ({scan.error})" if scan.torn else ""
        print(
            f"    {path.name}: {len(scan.records)} records, {span}, "
            f"{scan.total_bytes} bytes{tail}"
        )
    try:
        database, report = recover_database(data_dir)
    except JournalCorruptError as exc:
        print(f"  recovery: FAILED ({exc})")
        return 1
    print(
        f"  recovery: snapshot seq {report.snapshot_seq}, "
        f"{report.events_replayed} events replayed, last seq {report.last_seq}"
    )
    for name in sorted(database.tables):
        print(f"    table {name}: {len(database.tables[name])} rows")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    problems: List[str] = []
    for path in list_snapshots(snapshot_dir(args.data_dir)):
        try:
            load_snapshot(path)
        except SnapshotError as exc:
            problems.append(f"snapshot {path.name}: {exc}")
    segments = list_segments(journal_dir(args.data_dir))
    for position, path in enumerate(segments):
        scan = scan_segment(path)
        if scan.torn:
            where = "tail" if position == len(segments) - 1 else "NON-TAIL"
            problems.append(
                f"segment {path.name} ({where}): {scan.error} "
                f"at byte {scan.valid_bytes}"
            )
    try:
        _, report = recover_database(args.data_dir)
    except JournalCorruptError as exc:
        problems.append(f"replay: {exc}")
    else:
        print(
            f"replayable to seq {report.last_seq} "
            f"({report.events_replayed} events past snapshot "
            f"{report.snapshot_seq})"
        )
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("clean" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def _cmd_compact(args: argparse.Namespace) -> int:
    try:
        database, report = recover_database(args.data_dir)
    except JournalCorruptError as exc:
        print(f"cannot compact: {exc}", file=sys.stderr)
        return 1
    if not report.last_seq:
        print("nothing to compact (no journaled state)")
        return 0
    path = write_snapshot(
        snapshot_dir(args.data_dir), database.to_payload(), report.last_seq
    )
    print(f"snapshot written: {path.name} (seq {report.last_seq})")
    segments, snapshots = compact_files(args.data_dir, report.last_seq)
    for removed in segments + snapshots:
        print(f"removed {removed.name}")
    print(f"compacted {len(segments)} segment(s)")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    try:
        database, report = recover_database(args.data_dir)
    except JournalCorruptError as exc:
        print(f"cannot restore: {exc}", file=sys.stderr)
        return 1
    if args.output == "-":
        json.dump(database.to_payload(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        database.save(args.output)
        print(
            f"restored seq {report.last_seq} "
            f"({report.events_replayed} events replayed) to {args.output}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.store",
        description="Inspect, verify, compact or restore a durable design store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("inspect", _cmd_inspect, "summarize snapshots, segments and recovery"),
        ("verify", _cmd_verify, "checksum every record and snapshot"),
        ("compact", _cmd_compact, "snapshot and drop covered segments"),
        ("restore", _cmd_restore, "recover and write plain database JSON"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument(
            "--data-dir", required=True, help="durable store directory"
        )
        command.set_defaults(handler=handler)
        if name == "restore":
            command.add_argument(
                "--output", default="-",
                help="destination JSON file ('-' for stdout)",
            )
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module entry point
    # Piping into ``head`` closes stdout early; die quietly like any
    # well-behaved unix filter instead of tracebacking on EPIPE.
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, AttributeError, ValueError):
        pass
    sys.exit(main())
