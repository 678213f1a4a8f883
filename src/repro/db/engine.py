"""A small relational engine (the INGRES substitute).

The paper stores ICDB's component metadata in the INGRES DBMS and the
design data (IIF, VHDL, CIF files) in the UNIX file system.  This module
provides the relational half: typed tables with insert / select / update /
delete, simple predicates, unique keys, and JSON persistence so a knowledge
base survives between sessions.

Durability seam: a :class:`Database` can carry an *observer* -- a callable
handed one JSON-safe event dict per mutation (table create/drop, insert,
update, delete), invoked **before** the mutation is applied but after all
validation, under a shared re-entrant lock.  :mod:`repro.store` attaches a
write-ahead journal through this hook; while the same lock is held, the
database state and the event stream are mutually consistent, which is what
makes atomic snapshots possible.  With no observer attached the mutators
take no lock and pay nothing.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..wire import Record


class DatabaseError(ValueError):
    """Raised on schema violations and bad queries."""


#: Column types supported by the engine.
COLUMN_TYPES = {"str": str, "int": int, "float": float, "bool": bool, "json": object}

Predicate = Union[Mapping[str, Any], Callable[[Dict[str, Any]], bool], None]


class Column(Record, frozen=True):
    """A typed table column."""

    name: str
    type: str = "str"
    required: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise DatabaseError(f"unknown column type {self.type!r} for {self.name!r}")

    def coerce(self, value: Any) -> Any:
        if value is None:
            if self.required:
                raise DatabaseError(f"column {self.name!r} is required")
            return self.default
        if self.type == "json":
            return value
        expected = COLUMN_TYPES[self.type]
        if isinstance(value, expected):
            return value
        try:
            return expected(value)
        except (TypeError, ValueError) as exc:
            raise DatabaseError(
                f"cannot store {value!r} in {self.type} column {self.name!r}"
            ) from exc


class Table:
    """A single relation: named, typed columns and a list of rows."""

    def __init__(self, name: str, columns: Sequence[Column], key: Optional[str] = None):
        self.name = name
        self.columns: Dict[str, Column] = {column.name: column for column in columns}
        if key is not None and key not in self.columns:
            raise DatabaseError(f"key column {key!r} is not a column of {name!r}")
        self.key = key
        self.rows: List[Dict[str, Any]] = []
        # Key-uniqueness index: without it every keyed insert scans the
        # whole relation, which turns a long-lived server's instance table
        # into a quadratic hot spot.
        self._key_index: set = set()
        #: Mutation observer (the write-ahead journal hook) and the lock
        #: all observed mutations share; both set by
        #: :meth:`Database.attach_observer`, ``None`` when detached.
        self.observer: Optional[Callable[[Dict[str, Any]], None]] = None
        self.observer_lock: Optional[threading.RLock] = None

    def __len__(self) -> int:
        return len(self.rows)

    def _rebuild_key_index(self) -> None:
        if self.key is not None:
            self._key_index = {row[self.key] for row in self.rows}

    # ------------------------------------------------------------------ write

    def insert(self, **values: Any) -> Dict[str, Any]:
        unknown = [name for name in values if name not in self.columns]
        if unknown:
            raise DatabaseError(f"table {self.name!r} has no columns {unknown}")
        row = {
            name: column.coerce(values.get(name))
            for name, column in self.columns.items()
        }
        lock = self.observer_lock
        if lock is None:
            return self._insert_observed(row)
        with lock:
            return self._insert_observed(row)

    def _insert_observed(self, row: Dict[str, Any]) -> Dict[str, Any]:
        if self.key is not None and row[self.key] in self._key_index:
            raise DatabaseError(
                f"duplicate key {row[self.key]!r} in table {self.name!r}"
            )
        if self.observer is not None:
            self.observer(
                {"op": "insert", "table": self.name, "row": dict(row)}
            )
        self.apply_insert(row)
        return dict(row)

    def update(self, where: Predicate, **changes: Any) -> int:
        # Validate names and coerce every change value up front: a
        # coercion error on a later column must leave no row mutated
        # (the row-by-row in-place loop used to leave earlier rows --
        # and earlier columns of the failing row -- already changed).
        for name in changes:
            if name not in self.columns:
                raise DatabaseError(f"table {self.name!r} has no column {name!r}")
        coerced = {
            name: self.columns[name].coerce(value)
            for name, value in changes.items()
        }
        lock = self.observer_lock
        if lock is None:
            return self._update_observed(where, coerced)
        with lock:
            return self._update_observed(where, coerced)

    def _update_observed(self, where: Predicate, coerced: Dict[str, Any]) -> int:
        indexes = [
            index for index, row in enumerate(self.rows)
            if self._matches(row, where)
        ]
        if not indexes:
            return 0
        if self.observer is not None:
            self.observer(
                {
                    "op": "update",
                    "table": self.name,
                    "indexes": list(indexes),
                    "changes": dict(coerced),
                }
            )
        return self.apply_update(indexes, coerced)

    def delete(self, where: Predicate) -> int:
        lock = self.observer_lock
        if lock is None:
            return self._delete_observed(where)
        with lock:
            return self._delete_observed(where)

    def _delete_observed(self, where: Predicate) -> int:
        doomed = [
            index for index, row in enumerate(self.rows)
            if self._matches(row, where)
        ]
        if not doomed:
            return 0
        if self.observer is not None:
            self.observer(
                {"op": "delete", "table": self.name, "indexes": list(doomed)}
            )
        return self.apply_delete(doomed)

    # ------------------------------------------------------------------ replay
    #
    # The apply_* methods below are the *physical* halves of the mutators:
    # no validation, no coercion, no observer -- exactly what a journal
    # replay re-executes.  The mutators themselves call them after
    # validating and emitting, so live execution and replay share one
    # application path and cannot drift.

    def apply_insert(self, row: Dict[str, Any]) -> None:
        """Append an already-coerced row (journal replay seam)."""
        if self.key is not None:
            self._key_index.add(row[self.key])
        self.rows.append(row)

    def apply_update(self, indexes: Sequence[int], changes: Mapping[str, Any]) -> int:
        """Apply coerced changes to the rows at ``indexes`` (replay seam)."""
        for index in indexes:
            self.rows[index].update(changes)
        if self.key is not None and self.key in changes:
            self._rebuild_key_index()
        return len(indexes)

    def apply_delete(self, indexes: Sequence[int]) -> int:
        """Remove the rows at ``indexes`` (journal replay seam)."""
        doomed = set(indexes)
        if self.key is not None:
            # Discarding the removed keys keeps deletion O(n) instead
            # of an O(n) index rebuild per call (which made bulk
            # per-instance teardown quadratic).  Key-changing updates
            # are the one path that can unbalance this; update()
            # rebuilds the index exactly for that case.
            for index in doomed:
                self._key_index.discard(self.rows[index][self.key])
        self.rows = [
            row for index, row in enumerate(self.rows) if index not in doomed
        ]
        return len(doomed)

    # ------------------------------------------------------------------- read

    def select(self, where: Predicate = None, order_by: Optional[str] = None) -> List[Dict[str, Any]]:
        rows = [dict(row) for row in self.rows if self._matches(row, where)]
        if order_by is not None:
            rows.sort(key=lambda row: row.get(order_by))
        return rows

    def get(self, **key_values: Any) -> Optional[Dict[str, Any]]:
        if len(key_values) == 1 and self.key in key_values:
            # A key the index lacks matches no row: answer without a scan.
            try:
                if key_values[self.key] not in self._key_index:
                    return None
            except TypeError:  # an unhashable value: the scan decides
                pass
        matches = self.select(key_values)
        if not matches:
            return None
        if len(matches) > 1:
            raise DatabaseError(
                f"expected at most one row matching {key_values!r} in {self.name!r}"
            )
        return matches[0]

    def count(self, where: Predicate = None) -> int:
        return len(self.select(where))

    @staticmethod
    def _matches(row: Mapping[str, Any], where: Predicate) -> bool:
        if where is None:
            return True
        if callable(where):
            return bool(where(dict(row)))
        return all(row.get(name) == value for name, value in where.items())

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "key": self.key,
            "columns": [
                {
                    "name": column.name,
                    "type": column.type,
                    "required": column.required,
                    "default": column.default,
                }
                for column in self.columns.values()
            ],
            "rows": self.rows,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Table":
        columns = [
            Column(
                name=item["name"],
                type=item.get("type", "str"),
                required=item.get("required", False),
                default=item.get("default"),
            )
            for item in data["columns"]
        ]
        table = Table(data["name"], columns, key=data.get("key"))
        for row in data.get("rows", []):
            table.rows.append(dict(row))
        table._rebuild_key_index()
        return table


class Database:
    """A named collection of tables with JSON persistence."""

    def __init__(self, name: str = "icdb"):
        self.name = name
        self.tables: Dict[str, Table] = {}
        #: Mutation observer and shared lock; see :meth:`attach_observer`.
        self.observer: Optional[Callable[[Dict[str, Any]], None]] = None
        self.observer_lock: Optional[threading.RLock] = None

    # -------------------------------------------------------------- observer

    def attach_observer(
        self,
        observer: Callable[[Dict[str, Any]], None],
        lock: Optional[threading.RLock] = None,
    ) -> threading.RLock:
        """Route every future mutation event through ``observer``.

        The observer is called *before* each mutation is applied (after
        validation), under ``lock`` -- a re-entrant lock shared by every
        table, so a caller holding it (a snapshotter) observes the
        database only between whole mutations, never between an emitted
        event and its application.  Returns the lock in use.
        """
        self.observer_lock = lock if lock is not None else threading.RLock()
        self.observer = observer
        for table in self.tables.values():
            table.observer = observer
            table.observer_lock = self.observer_lock
        return self.observer_lock

    def detach_observer(self) -> None:
        """Stop observing mutations (tables included)."""
        self.observer = None
        self.observer_lock = None
        for table in self.tables.values():
            table.observer = None
            table.observer_lock = None

    # ---------------------------------------------------------------- tables

    def create_table(
        self, name: str, columns: Sequence[Column], key: Optional[str] = None
    ) -> Table:
        table = Table(name, columns, key=key)
        lock = self.observer_lock
        if lock is None:
            return self._create_table_observed(table)
        with lock:
            return self._create_table_observed(table)

    def _create_table_observed(self, table: Table) -> Table:
        if table.name in self.tables:
            raise DatabaseError(f"table {table.name!r} already exists")
        if self.observer is not None:
            schema = table.to_dict()
            schema.pop("rows", None)
            self.observer({"op": "create_table", "schema": schema})
            table.observer = self.observer
            table.observer_lock = self.observer_lock
        self.tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError as exc:
            raise DatabaseError(f"no table named {name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def drop_table(self, name: str) -> None:
        lock = self.observer_lock
        if lock is None:
            self._drop_table_observed(name)
            return
        with lock:
            self._drop_table_observed(name)

    def _drop_table_observed(self, name: str) -> None:
        if name not in self.tables:
            return
        if self.observer is not None:
            self.observer({"op": "drop_table", "table": name})
        table = self.tables.pop(name)
        table.observer = None
        table.observer_lock = None

    def table_names(self) -> List[str]:
        return list(self.tables)

    # ------------------------------------------------------------ persistence

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe persisted form (what :meth:`save` writes)."""
        return {
            "name": self.name,
            "tables": {name: table.to_dict() for name, table in self.tables.items()},
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "Database":
        """Rebuild a database from its :meth:`to_payload` form."""
        database = Database(payload.get("name", "icdb"))
        for name, table_data in payload.get("tables", {}).items():
            database.tables[name] = Table.from_dict(table_data)
        return database

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Serialize first, then write-to-temp and rename: a process dying
        # mid-write (or a failing serialization) must never leave a
        # truncated JSON file where a loadable knowledge base used to be.
        data = json.dumps(self.to_payload(), indent=2, sort_keys=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(data)
        os.replace(tmp, path)
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> "Database":
        return Database.from_payload(json.loads(Path(path).read_text()))
