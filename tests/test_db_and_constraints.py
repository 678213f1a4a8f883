"""Tests for the relational engine, the ICDB schema, the design-data store
and the constraint parsers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.api import ComponentService
from repro.constraints import (
    ConstraintError,
    Constraints,
    PortPosition,
    parse_delay_constraints,
    parse_port_positions,
    render_port_positions,
    STRATEGY_CHEAPEST,
    STRATEGY_FASTEST,
)
from repro.db import (
    Column,
    Database,
    DatabaseError,
    DesignDataStore,
    IMPLEMENTATIONS,
    INSTANCES,
    StoreError,
    Table,
    new_database,
)
from repro.db.store import TextPieces
from repro.wire import fields


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


def _people_table():
    return Table(
        "people",
        [
            Column("name", "str", required=True),
            Column("age", "int", default=0),
            Column("tags", "json", default=[]),
        ],
        key="name",
    )


def test_table_insert_select_update_delete():
    table = _people_table()
    table.insert(name="ada", age=36)
    table.insert(name="grace", age=45, tags=["navy"])
    assert len(table) == 2
    assert table.get(name="ada")["age"] == 36
    assert table.count(lambda row: row["age"] > 40) == 1
    assert table.update({"name": "ada"}, age=37) == 1
    assert table.get(name="ada")["age"] == 37
    assert table.delete({"name": "grace"}) == 1
    assert table.get(name="grace") is None


def test_table_type_coercion_and_errors():
    table = _people_table()
    table.insert(name="t", age="12")
    assert table.get(name="t")["age"] == 12
    with pytest.raises(DatabaseError):
        table.insert(age=3)  # missing required key
    with pytest.raises(DatabaseError):
        table.insert(name="t")  # duplicate key
    with pytest.raises(DatabaseError):
        table.insert(name="x", bogus=1)
    with pytest.raises(DatabaseError):
        table.update(None, bogus=2)
    with pytest.raises(DatabaseError):
        Column("c", "weird")


def test_table_update_is_all_or_nothing():
    """A failed coercion mid-update must not leave earlier changes applied.

    Regression: update() used to coerce change-by-change while already
    mutating matched rows, so ``age=valid, tags=invalid`` could bump the
    age and then raise -- a partial write the journal could never replay
    consistently.  All changes are validated and coerced up front now.
    """
    table = _people_table()
    table.insert(name="ada", age=36)
    table.insert(name="grace", age=45)
    before = [dict(row) for row in table.rows]
    with pytest.raises(DatabaseError):
        table.update(None, age=50, bogus=1)  # second change names no column
    assert table.rows == before  # nothing changed, not even age
    with pytest.raises(DatabaseError):
        table.update({"name": "ada"}, age="not-an-int")
    assert table.rows == before


def test_a_key_miss_is_answered_from_the_key_index(tmp_path, monkeypatch):
    visited = []
    matches = Table._matches

    def counted(row, where):
        visited.append(row)
        return matches(row, where)

    monkeypatch.setattr(Table, "_matches", staticmethod(counted))
    # Loading the catalog into a fresh database looks up 114 names that
    # are all absent; each lookup used to scan its table.
    ComponentService(store_root=tmp_path)
    assert visited == []
    table = _people_table()
    table.insert(name="ada", age=36)
    assert table.get(name="grace") is None and visited == []
    assert table.get(name="ada")["age"] == 36  # a hit still reads its row
    table.update({"name": "ada"}, name="lovelace")
    assert table.get(name="ada") is None
    assert table.get(name="lovelace")["age"] == 36
    # Another predicate, or an unhashable key value, keeps the scan.
    assert table.get(name="lovelace", age=36)["name"] == "lovelace"
    assert table.get(name=["ada"]) is None


def test_table_select_ordering_and_callable_predicates():
    table = _people_table()
    for name, age in (("c", 3), ("a", 1), ("b", 2)):
        table.insert(name=name, age=age)
    ordered = table.select(order_by="age")
    assert [row["name"] for row in ordered] == ["a", "b", "c"]
    assert len(table.select(lambda row: row["age"] % 2 == 1)) == 2


def test_database_tables_and_persistence(tmp_path):
    database = Database("testdb")
    table = database.create_table("t", [Column("k", "str", required=True), Column("v", "int")], key="k")
    table.insert(k="a", v=1)
    with pytest.raises(DatabaseError):
        database.create_table("t", [Column("k")])
    with pytest.raises(DatabaseError):
        database.table("missing")
    path = database.save(tmp_path / "db.json")
    loaded = Database.load(path)
    assert loaded.table("t").get(k="a")["v"] == 1
    assert loaded.name == "testdb"


def test_icdb_schema_created():
    database = new_database()
    assert IMPLEMENTATIONS in database.table_names()
    assert INSTANCES in database.table_names()
    # Creating the schema twice must not fail (idempotent).
    from repro.db import create_schema

    create_schema(database)


# ---------------------------------------------------------------------------
# Design-data store
# ---------------------------------------------------------------------------


def test_store_write_read_and_listing(tmp_path):
    store = DesignDataStore(tmp_path / "root")
    path = store.write("counter_1", "iif", "NAME: X;\n")
    assert Path(path).exists()
    assert store.read("counter_1", "iif") == "NAME: X;\n"
    store.write("counter_1", "delay", "CW 10.0\n")
    artifacts = store.artifacts_of("counter_1")
    assert set(artifacts) == {"iif", "delay"}
    assert store.instances() == ["counter_1"]
    assert store.path_of("counter_1", "cif") is None
    removed = store.remove_instance("counter_1")
    assert removed == 2
    assert store.instances() == []


def test_store_rejects_unknown_kind(tmp_path):
    store = DesignDataStore(tmp_path)
    with pytest.raises(StoreError):
        store.write("x", "unknown_kind", "text")
    with pytest.raises(StoreError):
        store.read("x", "iif")


def test_store_sanitizes_instance_names(tmp_path):
    store = DesignDataStore(tmp_path)
    path = store.write("weird/name with spaces", "iif", "x")
    assert Path(path).exists()
    assert "/" not in Path(path).parent.name


def test_store_never_escapes_its_root(tmp_path):
    """Instance names arrive from remote clients; dot-only names must not
    resolve to parent directories."""
    root = tmp_path / "store_root"
    store = DesignDataStore(root)
    for hostile in ("..", ".", "...", "../..", "a/../.."):
        written = store.write(hostile, "iif", "x")
        assert root.resolve() in Path(written).resolve().parents, hostile
        assert str(store.path_for(hostile, "vhdl").resolve()).startswith(
            str(root.resolve())
        )
        for path in store.paths_for(hostile, ("vhdl", "delay")).values():
            assert str(Path(path).resolve()).startswith(str(root.resolve()))


def test_a_streamed_write_replaces_the_old_file_only_once_complete(tmp_path):
    store = DesignDataStore(tmp_path)
    path = Path(store.write("adder_1", "vhdl", "old text\n"))
    seen_mid_render = []

    def failing_render():
        yield "new "
        seen_mid_render.append(path.read_text())
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError):
        store.write("adder_1", "vhdl", TextPieces(failing_render()))
    assert seen_mid_render == ["old text\n"]
    assert path.read_text() == "old text\n"
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    pieces = TextPieces(iter(["new ", "text\n"]))
    assert Path(store.write("adder_1", "vhdl", pieces)) == path
    assert path.read_text() == "new text\n"
    assert len(pieces) == len("new text\n")


def test_store_never_interns_an_instance_name(tmp_path, monkeypatch):
    """Interned strings are immortal on Python 3.12, so a store that
    passed instance names through ``sys.intern`` (``pathlib`` interns
    every path part) would keep each name it ever wrote or removed."""
    store = DesignDataStore(tmp_path)
    name = "fresh_instance_4c1d"
    interned = []
    intern = sys.intern
    monkeypatch.setattr(sys, "intern", lambda text: interned.append(text) or intern(text))
    path = store.write(name, "vhdl", "text\n")
    assert store.remove_instance(name) == 1
    monkeypatch.undo()
    assert not Path(path).exists()
    assert [text for text in interned if name in text] == []


def test_store_uses_temporary_directory_by_default():
    store = DesignDataStore()
    path = store.write("a", "iif", "x")
    assert Path(path).exists()


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


def test_parse_delay_constraints_rdelay_oload():
    text = "rdelay Q[4] 10\nrdelay Q[3] 10\noload Q[4] 10\n\noload Q[3] 12"
    constraints = parse_delay_constraints(text)
    assert constraints.comb_delay == {"Q[4]": 10.0, "Q[3]": 10.0}
    assert constraints.output_loads == {"Q[4]": 10.0, "Q[3]": 12.0}
    with pytest.raises(ConstraintError):
        parse_delay_constraints("rdelay Q[0]")
    with pytest.raises(ConstraintError):
        parse_delay_constraints("bogus Q[0] 10")


def test_parse_port_positions_paper_example():
    positions = parse_port_positions("CLK left s1.0\nD[0] top 10\nQ[0] bottom 10")
    assert positions[0] == PortPosition("CLK", "left", 1.0)
    assert positions[1].side == "top" and positions[1].order == 10.0
    rendered = render_port_positions(positions)
    assert "CLK left 1" in rendered
    with pytest.raises(ConstraintError):
        parse_port_positions("CLK somewhere 1")
    with pytest.raises(ConstraintError):
        parse_port_positions("CLK left abc")


def test_constraints_strategy_resolution():
    fastest = Constraints(strategy=STRATEGY_FASTEST)
    cheapest = Constraints(strategy=STRATEGY_CHEAPEST)
    assert fastest.effective_clock_width() == 0.0
    assert cheapest.effective_clock_width() == 1000.0
    assert fastest.comb_delay_for("O") == 0.0
    explicit = Constraints(clock_width=25.0, strategy=STRATEGY_CHEAPEST)
    assert explicit.effective_clock_width() == 25.0
    with pytest.raises(ConstraintError):
        Constraints(strategy="weird")


def test_constraints_lookup_and_updates():
    constraints = Constraints(
        comb_delay={"O[1]": 12.0},
        default_comb_delay=20.0,
        output_loads={"O[1]": 5.0},
        default_output_load=2.0,
    )
    assert constraints.comb_delay_for("O[1]") == 12.0
    assert constraints.comb_delay_for("O[0]") == 20.0
    assert constraints.load_for("O[1]") == 5.0
    assert constraints.load_for("O[9]") == 2.0
    assert constraints.all_output_loads(["O[1]", "O[9]"]) == {"O[1]": 5.0, "O[9]": 2.0}
    assert constraints.has_delay_constraints()
    updated = constraints.with_updates(clock_width=30.0)
    assert updated.clock_width == 30.0
    assert constraints.clock_width is None
    assert not Constraints().has_delay_constraints()


def test_constraints_with_updates_keeps_every_field():
    values = {
        "clock_width": 30.0,
        "comb_delay": {"O[1]": 12.0},
        "default_comb_delay": 20.0,
        "setup_time": 1.5,
        "output_loads": {"O[1]": 5.0},
        "default_output_load": 2.0,
        "strategy": STRATEGY_FASTEST,
        "strips": 3,
        "aspect_ratio": 0.5,
        "port_positions": (PortPosition("CLK", "left", 1.0),),
    }
    # A field added to Constraints must be added here too.
    assert set(values) == {entry.name for entry in fields(Constraints)}
    default = Constraints()
    assert all(getattr(default, name) != value for name, value in values.items())
    original = Constraints(**values)
    copy = original.with_updates()
    assert copy == original
    assert copy.comb_delay is not original.comb_delay
    assert copy.output_loads is not original.output_loads
    assert original.with_updates(strips=4) == Constraints(**dict(values, strips=4))
