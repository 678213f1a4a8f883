"""Atomic, checksummed database snapshots.

A snapshot is one JSON file (``snapshot-<seq>.json``) holding the full
:meth:`repro.db.engine.Database.to_payload` state as of journal sequence
``seq``: recovery loads the newest *valid* snapshot and replays only the
journal records with a higher sequence number.  Snapshots are written to
a temporary file in the same directory and renamed into place
(``os.replace``), so a crash mid-snapshot leaves at worst an ignorable
``*.tmp`` -- never a half-written file that shadows a good older one.

The embedded CRC covers the canonical ``{"seq", "database"}`` JSON, so a
snapshot damaged on disk (partial write survived a rename-less crash,
bit rot) is detected and *skipped*, falling back to the previous one
plus a longer journal replay, instead of resurrecting garbage.  The file
itself is canonical JSON too (sorted keys, compact separators), so the
payload is serialized once: the checksum and the file are both made from
that one text.  Files written with ``json.dump``'s default separators
load the same way.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..wire import Record
from .journal import fsync_directory

_SNAPSHOT_RE = re.compile(r"snapshot-(\d{12})\.json$")

#: Snapshot file schema version.
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Raised when a snapshot file is missing, malformed or corrupt."""


def snapshot_path(directory: Union[str, Path], seq: int) -> Path:
    return Path(directory) / f"snapshot-{seq:012d}.json"


def snapshot_seq(path: Union[str, Path]) -> Optional[int]:
    match = _SNAPSHOT_RE.search(str(path))
    return int(match.group(1)) if match else None


def list_snapshots(directory: Union[str, Path]) -> List[Path]:
    """Every snapshot file under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        (p for p in directory.iterdir() if _SNAPSHOT_RE.search(p.name)),
        key=lambda p: snapshot_seq(p) or 0,
    )


def _checksum(seq: int, database_payload: Mapping[str, Any]) -> int:
    canonical = json.dumps(
        {"seq": seq, "database": database_payload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return zlib.crc32(canonical)


#: Characters encoded at a time while a snapshot's text is checksummed
#: and written, so neither step holds an encoded copy of the whole text.
_CHUNK = 1 << 16


def canonical_payload(database_payload: Mapping[str, Any]) -> str:
    """The database payload as the canonical JSON text a snapshot holds:
    sorted keys, compact separators (the payload's keys are strings, as
    :meth:`~repro.db.engine.Database.to_payload` makes them)."""
    return json.dumps(database_payload, sort_keys=True, separators=(",", ":"))


def _chunks(text: str):
    for start in range(0, len(text), _CHUNK):
        yield text[start:start + _CHUNK]


def write_snapshot_text(
    directory: Union[str, Path],
    payload_text: str,
    seq: int,
    durable: bool = True,
) -> Path:
    """Atomically persist the :func:`canonical_payload` text
    ``payload_text`` as the state at ``seq``.

    The checksum is :func:`_checksum`'s, computed over the text itself:
    the canonical ``{"seq", "database"}`` JSON is the payload text between
    two fixed pieces.  The file is that text inside the canonical body.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(directory, seq)
    seq = int(seq)
    crc = zlib.crc32(b'{"database":')
    for chunk in _chunks(payload_text):
        crc = zlib.crc32(chunk.encode("utf-8"), crc)
    crc = zlib.crc32(b',"seq":%d}' % seq, crc)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write('{"crc":%d,"database":' % crc)
        handle.writelines(_chunks(payload_text))
        handle.write(',"seq":%d,"version":%d}\n' % (seq, SNAPSHOT_VERSION))
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if durable:
        fsync_directory(directory)
    return path


def write_snapshot(
    directory: Union[str, Path],
    database_payload: Mapping[str, Any],
    seq: int,
    durable: bool = True,
) -> Path:
    """Atomically persist ``database_payload`` as the state at ``seq``."""
    return write_snapshot_text(
        directory, canonical_payload(database_payload), seq, durable=durable
    )


def load_snapshot(path: Union[str, Path]) -> Tuple[int, Dict[str, Any]]:
    """Parse and checksum one snapshot; returns ``(seq, database_payload)``."""
    try:
        body = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(body, dict) or body.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(f"snapshot {path}: unknown version")
    seq = body.get("seq")
    payload = body.get("database")
    if not isinstance(seq, int) or not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {path}: missing seq/database")
    if _checksum(seq, payload) != body.get("crc"):
        raise SnapshotError(f"snapshot {path}: checksum mismatch")
    return seq, payload


class LatestSnapshot(Record):
    """The newest loadable snapshot plus how many newer ones were corrupt."""

    path: Optional[Path]
    seq: int
    payload: Optional[Dict[str, Any]]
    skipped: List[Path]


def latest_snapshot(directory: Union[str, Path]) -> LatestSnapshot:
    """Newest valid snapshot, skipping (not deleting) corrupt ones."""
    skipped: List[Path] = []
    for path in reversed(list_snapshots(directory)):
        try:
            seq, payload = load_snapshot(path)
        except SnapshotError:
            skipped.append(path)
            continue
        return LatestSnapshot(path=path, seq=seq, payload=payload, skipped=skipped)
    return LatestSnapshot(path=None, seq=0, payload=None, skipped=skipped)
