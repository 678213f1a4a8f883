"""Shared fixtures for the ICDB reproduction test suite."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.components import standard_catalog
from repro.components.counters import counter_parameters, TYPE_SYNCHRONOUS, UP_DOWN, UP_ONLY
from repro.core import ICDB
from repro.logic.milo import synthesize
from repro.techlib import standard_cells


@pytest.fixture(scope="session")
def catalog():
    """The standard component catalog (shared, read-only)."""
    return standard_catalog()


@pytest.fixture(scope="session")
def cells():
    """The default cell library (shared, read-only)."""
    return standard_cells()


@pytest.fixture(scope="session")
def updown_counter_flat(catalog):
    """Flat IIF of the 4-bit synchronous up/down counter with load+enable."""
    return catalog.get("counter").expand(
        counter_parameters(size=4, style=TYPE_SYNCHRONOUS, load=True, enable=True,
                           up_or_down=UP_DOWN)
    )


@pytest.fixture(scope="session")
def updown_counter_netlist(updown_counter_flat, cells):
    """Synthesized gate netlist of the up/down counter fixture."""
    return synthesize(updown_counter_flat, cells)


@pytest.fixture(scope="session")
def adder_flat(catalog):
    """Flat IIF of a 4-bit ripple-carry adder."""
    return catalog.get("ripple_carry_adder").expand({"size": 4})


@pytest.fixture(scope="session")
def adder_netlist(adder_flat, cells):
    return synthesize(adder_flat, cells)


@pytest.fixture()
def icdb(tmp_path):
    """A fresh ICDB server per test (isolated catalog, database and store)."""
    return ICDB(catalog=standard_catalog(fresh=True), store_root=tmp_path / "store")


@pytest.fixture()
def service(tmp_path):
    """A fresh typed component service per test."""
    from repro.api import ComponentService

    return ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path / "svc_store"
    )


@pytest.fixture(scope="session")
def shared_icdb(tmp_path_factory):
    """A session-wide ICDB server for read-mostly integration tests."""
    root = tmp_path_factory.mktemp("icdb_store")
    return ICDB(catalog=standard_catalog(fresh=True), store_root=root)


# ---------------------------------------------------------------------------
# Golden-file regression support
# ---------------------------------------------------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshot files under tests/golden/ instead of "
        "comparing against them",
    )


GOLDEN_DIR = Path(__file__).parent / "golden"


def normalize_golden(text: str) -> str:
    """Whitespace-normalized comparison form: universal newlines, trailing
    whitespace stripped per line, exactly one trailing newline."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    body = "\n".join(line.rstrip() for line in lines).rstrip("\n")
    return body + "\n"


class GoldenComparator:
    """Compares rendered artifacts against the snapshots in tests/golden/."""

    def __init__(self, update: bool):
        self.update = update

    def check(self, name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        actual = normalize_golden(text)
        if self.update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(actual)
            return
        assert path.exists(), (
            f"golden file {path.name} is missing; run "
            f"`pytest --update-golden {Path(__file__).parent / 'test_golden_regressions.py'}` "
            f"to create it"
        )
        expected = normalize_golden(path.read_text())
        assert actual == expected, (
            f"rendered {name} no longer matches its golden snapshot; if the "
            f"change is intentional, refresh with `pytest --update-golden`"
        )


@pytest.fixture()
def golden(request) -> GoldenComparator:
    return GoldenComparator(update=request.config.getoption("--update-golden"))


@pytest.fixture()
def started_processes(monkeypatch):
    """Every subprocess started while the test runs, in start order (the
    fleet tests check that each one was reaped)."""
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    return started
