"""Design-data file store (the UNIX file system half of ICDB's storage).

The paper keeps component design data (IIF descriptions, VHDL netlists, CIF
layouts, delay / shape reports) in plain files; tools retrieve the file
names from ICDB and do their own I/O so that ICDB never becomes a data
bottleneck.  :class:`DesignDataStore` reproduces that: it writes text
artifacts under a root directory (a temporary directory by default) and
returns their paths, which the database records per instance.
"""

from __future__ import annotations

import contextlib
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union


class StoreError(ValueError):
    """Raised on bad file-store requests."""


#: Artifact kinds and the file extension used for each.
ARTIFACT_EXTENSIONS = {
    "iif": ".iif",
    "flat_iif": ".piif",
    "vhdl": ".vhd",
    "vhdl_head": ".cmp.vhd",
    "cif": ".cif",
    "delay": ".delay",
    "shape": ".shape",
    "area": ".area",
    "connect": ".connect",
    "report": ".txt",
}


_SAFE_NAME_RE = re.compile(r"[A-Za-z0-9.-][A-Za-z0-9_.-]*")


def _safe_name(name: str) -> str:
    # Fast path: typical instance names (alnum + underscores, no leading /
    # trailing underscore) pass through without the regex substitution.
    # All-dot names ("." / "..") must never pass: instance names reach
    # this from remote clients, and ".." as a path component would write
    # artifacts outside the store root.
    if _SAFE_NAME_RE.fullmatch(name) and not name.endswith("_") and name.strip("."):
        return name
    cleaned = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    if not cleaned.strip("."):
        return "unnamed"
    return cleaned


class TextPieces:
    """An artifact's text as pieces, for :meth:`DesignDataStore.write` to
    write as they come instead of holding the whole text first.

    ``len()`` counts the characters handed out so far, so code that sizes a
    write after it returns sees the whole text's length, as for a ``str``.
    """

    __slots__ = ("_pieces", "_length")

    def __init__(self, pieces: Iterable[str]):
        self._pieces = pieces
        self._length = 0

    def __iter__(self) -> Iterator[str]:
        for piece in self._pieces:
            self._length += len(piece)
            yield piece

    def __len__(self) -> int:
        return self._length


class DesignDataStore:
    """Writes and retrieves per-instance design-data files."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        if root is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="icdb_store_")
            self.root = Path(self._tempdir.name)
        else:
            self._tempdir = None
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
        self._root_str = str(self.root)

    # ------------------------------------------------------------------ write

    def path_for(self, instance: str, kind: str) -> Path:
        """The path an artifact would be written to, whether it exists yet.

        Lazily persisted artifacts record this path before any bytes hit
        the disk; :meth:`write` materializes the same path later.
        """
        if kind not in ARTIFACT_EXTENSIONS:
            raise StoreError(f"unknown artifact kind {kind!r}")
        return self.root / _safe_name(instance) / (
            _safe_name(instance) + ARTIFACT_EXTENSIONS[kind]
        )

    def paths_for(self, instance: str, kinds: Iterable[str]) -> Dict[str, str]:
        """Path strings of several would-be artifacts at once.

        The bulk form of :meth:`path_for`: one name sanitization, plain
        string joins, no filesystem access -- this sits on the cached
        request hot path where every microsecond counts.
        """
        safe = _safe_name(instance)
        base = f"{self._root_str}{os.sep}{safe}{os.sep}{safe}"
        paths: Dict[str, str] = {}
        for kind in kinds:
            extension = ARTIFACT_EXTENSIONS.get(kind)
            if extension is None:
                raise StoreError(f"unknown artifact kind {kind!r}")
            paths[kind] = base + extension
        return paths

    def write(self, instance: str, kind: str, text: Union[str, TextPieces]) -> str:
        """Store one artifact; returns the file path.

        ``text`` is the artifact's text, or its :class:`TextPieces` (a VHDL
        netlist streams gate by gate).  The text goes to a temporary file
        beside the artifact, which then replaces it: a reader sees the old
        file or the whole new one, never a file still being rendered, and a
        render that raises leaves the old file in place.

        Paths are plain strings, as in :meth:`paths_for`: ``pathlib``
        passes every part through ``sys.intern``, and interned strings are
        immortal on Python 3.12, so a server would keep every instance
        name it ever wrote.
        """
        if kind not in ARTIFACT_EXTENSIONS:
            raise StoreError(
                f"unknown artifact kind {kind!r}; expected one of {sorted(ARTIFACT_EXTENSIONS)}"
            )
        safe = _safe_name(instance)
        directory = f"{self._root_str}{os.sep}{safe}"
        os.makedirs(directory, exist_ok=True)
        path = f"{directory}{os.sep}{safe}{ARTIFACT_EXTENSIONS[kind]}"
        # One name per writing thread: the same artifact may be rewritten
        # concurrently (see ComponentService.materialize_artifacts).
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w") as handle:
                if isinstance(text, str):
                    handle.write(text)
                else:
                    handle.writelines(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        return path

    # ------------------------------------------------------------------- read

    def read(self, instance: str, kind: str) -> str:
        path = self.path_of(instance, kind)
        if path is None or not path.exists():
            raise StoreError(f"instance {instance!r} has no stored {kind!r} artifact")
        return path.read_text()

    def path_of(self, instance: str, kind: str) -> Optional[Path]:
        path = self.path_for(instance, kind)
        return path if path.exists() else None

    def artifacts_of(self, instance: str) -> Dict[str, Path]:
        """All stored artifacts of an instance, keyed by kind."""
        directory = self.root / _safe_name(instance)
        found: Dict[str, Path] = {}
        if not directory.exists():
            return found
        for kind, extension in ARTIFACT_EXTENSIONS.items():
            path = directory / (_safe_name(instance) + extension)
            if path.exists():
                found[kind] = path
        return found

    def remove_instance(self, instance: str) -> int:
        """Delete every artifact of an instance; returns the file count."""
        directory = f"{self._root_str}{os.sep}{_safe_name(instance)}"
        if not os.path.exists(directory):
            return 0
        count = 0
        for name in sorted(os.listdir(directory)):
            path = f"{directory}{os.sep}{name}"
            if os.path.isfile(path):
                os.unlink(path)
                count += 1
        try:
            os.rmdir(directory)
        except OSError:
            pass
        return count

    def instances(self) -> List[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())
