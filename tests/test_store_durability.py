"""Durable store unit tests: journal, snapshots, recovery, CLI.

The crash-injection theme: a write-ahead journal must recover to a
byte-identical database from *any* prefix of itself.  The parametrized
torn-tail tests cut the journal at every record boundary (and one byte
to either side) and assert recovery lands exactly on the longest whole
prefix -- twice, because recovery must be idempotent.
"""

from __future__ import annotations

import json
import os
import threading
import zlib

import pytest

from repro.db.engine import Column, Database
from repro.store import (
    DurableStore,
    JournalCorruptError,
    JournalError,
    JournalWriter,
    SnapshotError,
    decode_record,
    encode_record,
    journal_dir,
    latest_snapshot,
    list_segments,
    list_snapshots,
    load_snapshot,
    recover_database,
    scan_segment,
    snapshot_dir,
    write_snapshot,
)
from repro.store.__main__ import main as store_main
from repro.store import snapshot as snapshot_module
from repro.store.snapshot import snapshot_path


def payload_of(database: Database) -> str:
    """Canonical byte-comparable form of a database."""
    return json.dumps(database.to_payload(), sort_keys=True)


def make_store(tmp_path, **kwargs) -> DurableStore:
    kwargs.setdefault("snapshot_interval", None)
    kwargs.setdefault("fsync", "never")
    return DurableStore(tmp_path / "data", **kwargs)


def seed_rows(database: Database, count: int = 5) -> None:
    if not database.has_table("things"):
        database.create_table(
            "things",
            [Column("id", "int"), Column("label", "str"), Column("n", "int")],
            key="id",
        )
    table = database.table("things")
    start = len(table.rows)
    for i in range(start, start + count):
        table.insert(id=i, label=f"thing-{i}", n=i * 10)


# --------------------------------------------------------------------- records


def test_record_roundtrip():
    event = {"op": "insert", "table": "t", "row": {"id": 1}, "seq": 7}
    line = encode_record(event)
    assert line.endswith(b"\n")
    assert decode_record(line[:-1]) == event


def test_record_rejects_bit_flip():
    line = encode_record({"op": "insert", "table": "t", "row": {}, "seq": 1})[:-1]
    flipped = bytearray(line)
    flipped[-3] ^= 0x01
    with pytest.raises(JournalError, match="CRC mismatch"):
        decode_record(bytes(flipped))


def test_record_requires_seq():
    payload = json.dumps({"op": "insert"}, separators=(",", ":")).encode()
    import zlib

    line = b"%08x %s" % (zlib.crc32(payload), payload)
    with pytest.raises(JournalError, match="seq"):
        decode_record(line)


# --------------------------------------------------------------------- journal


def test_journal_writer_appends_and_scans(tmp_path):
    writer = JournalWriter(tmp_path, fsync="never")
    for i in range(4):
        seq = writer.append({"op": "insert", "table": "t", "row": {"id": i}})
        assert seq == i + 1
    writer.close()
    (segment,) = list_segments(tmp_path)
    scan = scan_segment(segment)
    assert not scan.torn
    assert [r["seq"] for r in scan.records] == [1, 2, 3, 4]
    assert scan.valid_bytes == scan.total_bytes


def test_journal_rotation_across_segments(tmp_path):
    writer = JournalWriter(tmp_path, fsync="never", segment_max_bytes=120)
    for i in range(10):
        writer.append({"op": "insert", "table": "t", "row": {"id": i}})
    writer.close()
    segments = list_segments(tmp_path)
    assert len(segments) > 1
    assert writer.rotations == len(segments) - 1
    seqs = [r["seq"] for s in segments for r in scan_segment(s).records]
    assert seqs == list(range(1, 11))


def test_journal_writer_resumes_tail_segment(tmp_path):
    writer = JournalWriter(tmp_path, fsync="never")
    writer.append({"op": "a"})
    writer.close()
    resumed = JournalWriter(tmp_path, next_seq=2, fsync="never")
    resumed.append({"op": "b"})
    resumed.close()
    (segment,) = list_segments(tmp_path)
    assert [r["seq"] for r in scan_segment(segment).records] == [1, 2]


def test_interval_fsync_coalesces_appends(tmp_path):
    # The window outlasts the test, so only the first append may fsync
    # (it does when the clock has run longer than one window).
    coalesced = JournalWriter(
        tmp_path / "interval", fsync="interval", fsync_interval=3600.0
    )
    per_append = JournalWriter(tmp_path / "always", fsync="always")
    for writer in (coalesced, per_append):
        for i in range(50):
            writer.append({"op": "insert", "table": "t", "row": {"id": i}})
    assert coalesced.fsyncs <= 1
    assert per_append.fsyncs == 50
    coalesced.close()
    per_append.close()


def test_journal_writer_rejects_bad_config(tmp_path):
    with pytest.raises(JournalError):
        JournalWriter(tmp_path, fsync="sometimes")
    with pytest.raises(JournalError):
        JournalWriter(tmp_path, next_seq=0)


# ------------------------------------------------------------------- snapshots


def test_snapshot_roundtrip_and_corruption(tmp_path):
    database = Database("icdb")
    seed_rows(database)
    path = write_snapshot(tmp_path, database.to_payload(), 5)
    seq, payload = load_snapshot(path)
    assert seq == 5
    assert json.dumps(payload, sort_keys=True) == payload_of(database)

    # Flip a byte: the checksum must catch it.
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError):
        load_snapshot(path)
    # latest_snapshot() skips it rather than failing recovery outright.
    latest = latest_snapshot(tmp_path)
    assert latest.payload is None
    assert len(latest.skipped) == 1


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_snapshots_load_in_the_compact_and_the_spaced_layout(tmp_path, monkeypatch, chunk):
    """A snapshot file is the compact canonical JSON its checksum covers,
    checksummed and written in chunks from one serialization; a file
    written with ``json.dump``'s default separators, as snapshots used to
    be, loads to the same state."""
    monkeypatch.setattr(snapshot_module, "_CHUNK", chunk)
    database = Database("icdb")
    seed_rows(database, 12)
    payload = json.loads(payload_of(database))
    canonical = json.dumps({"seq": 7, "database": payload}, sort_keys=True, separators=(",", ":"))
    body = {"version": 1, "seq": 7, "crc": zlib.crc32(canonical.encode()), "database": payload}

    compact = write_snapshot(tmp_path / "compact", database.to_payload(), 7)
    assert compact.read_text() == json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
    spaced = snapshot_path(tmp_path / "spaced", 7)
    spaced.parent.mkdir()
    with open(spaced, "w", encoding="utf-8") as handle:
        json.dump(body, handle, sort_keys=True)
        handle.write("\n")
    assert load_snapshot(compact) == load_snapshot(spaced) == (7, payload)


def test_latest_snapshot_falls_back_to_older_valid(tmp_path):
    database = Database("icdb")
    seed_rows(database, 2)
    write_snapshot(tmp_path, database.to_payload(), 3)
    seed_rows(database, 2)
    newer = write_snapshot(tmp_path, database.to_payload(), 6)
    newer.write_text("{ not json")
    latest = latest_snapshot(tmp_path)
    assert latest.seq == 3
    assert latest.skipped == [newer]


# ---------------------------------------------------------- durable store core


def test_store_recovers_byte_identical(tmp_path):
    store = make_store(tmp_path)
    database = store.open()
    seed_rows(database, 8)
    database.table("things").update({"id": 3}, label="renamed")
    database.table("things").delete({"id": 5})
    golden = payload_of(database)
    store.close(snapshot=False)

    recovered, report = recover_database(tmp_path / "data")
    assert payload_of(recovered) == golden
    assert report.events_replayed > 0
    assert report.last_seq == report.events_replayed  # no snapshot taken


def test_store_snapshot_then_tail_replay(tmp_path):
    store = make_store(tmp_path)
    database = store.open()
    seed_rows(database, 4)
    store.snapshot()
    seed_rows(database, 3)  # journal tail past the snapshot
    golden = payload_of(database)
    snap_seq = store.stats()["snapshot"]["seq"]
    store.close(snapshot=False)

    recovered, report = recover_database(tmp_path / "data")
    assert payload_of(recovered) == golden
    assert report.snapshot_seq == snap_seq
    assert report.events_replayed == 3  # only the tail, not the whole history


def test_store_compaction_drops_covered_segments(tmp_path):
    store = make_store(tmp_path, segment_max_bytes=150)
    database = store.open()
    seed_rows(database, 12)
    assert len(list_segments(journal_dir(tmp_path / "data"))) > 2
    golden = payload_of(database)
    store.snapshot()  # compacts by default
    segments = list_segments(journal_dir(tmp_path / "data"))
    assert len(segments) == 1  # only the open tail survives
    assert len(list_snapshots(snapshot_dir(tmp_path / "data"))) == 1
    store.close(snapshot=False)

    recovered, _ = recover_database(tmp_path / "data")
    assert payload_of(recovered) == golden


def test_store_open_is_idempotent_and_reopenable(tmp_path):
    store = make_store(tmp_path)
    database = store.open()
    assert store.open() is database
    seed_rows(database, 2)
    golden = payload_of(database)
    store.close()

    again = make_store(tmp_path)
    assert payload_of(again.open()) == golden
    again.close()


def test_store_metrics_stats_shape(tmp_path):
    store = make_store(tmp_path)
    database = store.open()
    seed_rows(database, 3)
    stats = store.stats()
    assert stats["journal"]["appends"] > 0
    assert stats["last_seq"] == stats["journal"]["appends"]
    assert stats["recovery"]["count"] == 1
    store.close(snapshot=False)


def test_store_bind_metrics_flattens_counters(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    store = make_store(tmp_path)
    database = store.open()
    store.bind_metrics(registry)
    seed_rows(database, 3)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["store.journal.appends"] > 0
    assert "store.last_seq" in snapshot["counters"]
    assert snapshot["histograms"]["store.journal.append_ms"]["count"] > 0
    store.close(snapshot=False)


# ------------------------------------------------------------- crash injection


def _journal_with_history(tmp_path):
    """A closed single-segment store with a mixed mutation history.

    Returns ``(data_dir, records, goldens)`` where ``goldens[k]`` is the
    canonical payload after replaying the first ``k`` records.
    """
    data_dir = tmp_path / "data"
    store = DurableStore(data_dir, snapshot_interval=None, fsync="never")
    database = store.open()
    seed_rows(database, 4)
    database.table("things").update({"id": 1}, n=999)
    database.table("things").delete({"id": 2})
    store.close(snapshot=False)

    (segment,) = list_segments(journal_dir(data_dir))
    records = scan_segment(segment).records
    goldens = []
    replay = Database("icdb")
    from repro.store.events import apply_event

    goldens.append(payload_of(replay))
    for event in records:
        apply_event(replay, event)
        goldens.append(payload_of(replay))
    return data_dir, records, goldens


def _record_offsets(segment) -> list:
    """Byte offset of the end of each record in the segment."""
    data = segment.read_bytes()
    offsets, pos = [], 0
    while True:
        newline = data.find(b"\n", pos)
        if newline == -1:
            break
        pos = newline + 1
        offsets.append(pos)
    return offsets


# Every record boundary, one byte short (torn mid-record) and one byte
# past (newline of a half-framed next record is impossible, but a single
# stray byte is) -- all must recover to the longest whole prefix.
@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("boundary", range(1, 7))
def test_torn_tail_truncates_to_whole_prefix(tmp_path, boundary, delta):
    data_dir, records, goldens = _journal_with_history(tmp_path)
    (segment,) = list_segments(journal_dir(data_dir))
    offsets = _record_offsets(segment)
    assert len(offsets) >= 7  # schema DDL + 4 inserts + update + delete
    cut = offsets[boundary - 1] + delta
    if delta == 1:
        # A stray byte *past* a boundary is the start of a torn record.
        original = segment.read_bytes()
        segment.write_bytes(original[:cut])
        expect_records = boundary
    else:
        segment.write_bytes(segment.read_bytes()[:cut])
        expect_records = boundary if delta == 0 else boundary - 1

    recovered, report = recover_database(data_dir)
    assert payload_of(recovered) == goldens[expect_records]
    assert report.last_seq == expect_records
    if delta != 0:
        assert report.truncation_reason is not None

    # Recovery is pure: run it again, same answer (idempotent).
    recovered2, report2 = recover_database(data_dir)
    assert payload_of(recovered2) == payload_of(recovered)
    assert report2.last_seq == report.last_seq

    # open() truncates the torn bytes on disk, re-creates any schema
    # tables the truncation cut off (journaling the DDL again), then
    # appends cleanly.
    store = DurableStore(data_dir, snapshot_interval=None, fsync="never")
    database = store.open()
    from repro.db.schema import create_schema
    from repro.store.events import apply_event

    expected = Database("icdb")
    for event in records[:expect_records]:
        apply_event(expected, event)
    create_schema(expected)
    assert payload_of(database) == payload_of(expected)
    scan = scan_segment(list_segments(journal_dir(data_dir))[0])
    assert not scan.torn
    store.close(snapshot=False)


def test_corruption_before_tail_refuses_to_guess(tmp_path):
    """A bad record in a non-final segment is damage, not a torn tail."""
    data_dir = tmp_path / "data"
    store = DurableStore(
        data_dir, snapshot_interval=None, fsync="never", segment_max_bytes=150
    )
    seed_rows(store.open(), 12)
    store.close(snapshot=False)
    segments = list_segments(journal_dir(data_dir))
    assert len(segments) >= 3
    first = bytearray(segments[0].read_bytes())
    first[len(first) // 2] ^= 0x01
    segments[0].write_bytes(bytes(first))
    with pytest.raises(JournalCorruptError, match="before the journal tail"):
        recover_database(data_dir)


def test_missing_middle_segment_refuses_to_guess(tmp_path):
    data_dir = tmp_path / "data"
    store = DurableStore(
        data_dir, snapshot_interval=None, fsync="never", segment_max_bytes=150
    )
    seed_rows(store.open(), 12)
    store.close(snapshot=False)
    segments = list_segments(journal_dir(data_dir))
    assert len(segments) >= 3
    segments[1].unlink()
    with pytest.raises(JournalCorruptError, match="seq"):
        recover_database(data_dir)


def test_mid_snapshot_crash_falls_back(tmp_path):
    """A torn snapshot (crash during write) must not poison recovery."""
    data_dir = tmp_path / "data"
    store = DurableStore(data_dir, snapshot_interval=None, fsync="never")
    database = store.open()
    seed_rows(database, 6)
    golden = payload_of(database)
    store.snapshot()
    store.close(snapshot=False)

    # Simulate a crash mid-snapshot-write *after* more events: a partial
    # newer snapshot file appears alongside the journal tail.
    store2 = DurableStore(data_dir, snapshot_interval=None, fsync="never")
    database2 = store2.open()
    seed_rows(database2, 2)
    golden2 = payload_of(database2)
    last_seq = store2.last_seq
    store2.close(snapshot=False)
    torn = snapshot_path(snapshot_dir(data_dir), last_seq)
    torn.write_text('{"version": 1, "seq": %d, "crc"' % last_seq)  # cut off

    recovered, report = recover_database(data_dir)
    assert payload_of(recovered) == golden2
    assert report.snapshots_skipped == 1
    assert report.snapshot_seq < last_seq  # fell back to the older snapshot

    # And golden from the first boot is a strict prefix: sanity.
    assert golden != golden2


def test_concurrent_writers_keep_journal_equal_state(tmp_path):
    """16 threads hammer one table; journal replay equals final state."""
    store = make_store(tmp_path)
    database = store.open()
    database.create_table(
        "hits", [Column("id", "int"), Column("who", "str")], key="id"
    )
    table = database.table("hits")
    barrier = threading.Barrier(16)

    def worker(worker_id: int) -> None:
        barrier.wait()
        for i in range(25):
            table.insert(id=worker_id * 1000 + i, who=f"w{worker_id}")

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(table.rows) == 16 * 25
    golden = payload_of(database)
    store.close(snapshot=False)

    recovered, report = recover_database(tmp_path / "data")
    assert payload_of(recovered) == golden
    assert report.events_replayed == report.last_seq


# ------------------------------------------------------- engine regressions


def test_database_save_is_atomic(tmp_path, monkeypatch):
    """Interrupted save must leave the previous file intact (satellite 1)."""
    database = Database("icdb")
    seed_rows(database, 3)
    target = tmp_path / "db.json"
    database.save(target)
    before = target.read_text()

    seed_rows(database, 3)
    real_replace = os.replace

    def exploding_replace(src, dst):
        raise OSError("simulated crash between write and rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        database.save(target)
    monkeypatch.setattr(os, "replace", real_replace)
    assert target.read_text() == before  # old contents untouched

    database.save(target)
    assert Database.load(target).table("things").rows == database.table(
        "things"
    ).rows


# ------------------------------------------------------------------------ CLI


def _cli(capsys, *argv) -> tuple:
    code = store_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_inspect_verify_clean(tmp_path, capsys):
    data_dir, _, _ = _journal_with_history(tmp_path)
    code, out = _cli(capsys, "inspect", "--data-dir", str(data_dir))
    assert code == 0
    assert "segments: 1" in out
    assert "table things" in out
    code, out = _cli(capsys, "verify", "--data-dir", str(data_dir))
    assert code == 0
    assert "clean" in out


def test_cli_verify_flags_torn_tail(tmp_path, capsys):
    data_dir, _, _ = _journal_with_history(tmp_path)
    (segment,) = list_segments(journal_dir(data_dir))
    segment.write_bytes(segment.read_bytes()[:-3])
    code, out = _cli(capsys, "verify", "--data-dir", str(data_dir))
    assert code == 1
    assert "PROBLEM" in out and "tail" in out


def test_cli_compact_and_restore(tmp_path, capsys):
    data_dir, _, goldens = _journal_with_history(tmp_path)
    code, out = _cli(capsys, "compact", "--data-dir", str(data_dir))
    assert code == 0
    assert "snapshot written" in out
    # The compacted store still recovers to the same state.
    recovered, report = recover_database(data_dir)
    assert payload_of(recovered) == goldens[-1]
    assert report.events_replayed == 0  # everything is in the snapshot now

    output = tmp_path / "restored.json"
    code, _ = _cli(capsys, "restore", "--data-dir", str(data_dir),
                   "--output", str(output))
    assert code == 0
    assert payload_of(Database.load(output)) == goldens[-1]


def test_cli_restore_stdout(tmp_path, capsys):
    data_dir, _, goldens = _journal_with_history(tmp_path)
    code = store_main(["restore", "--data-dir", str(data_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True) == goldens[-1]
