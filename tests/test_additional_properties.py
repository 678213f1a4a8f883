"""Additional cross-cutting checks: hand-computed delay arithmetic, width
sweeps across the component library, and persistence of the ICDB database."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.components import standard_catalog
from repro.db import Database, INSTANCES
from repro.estimation import estimate_delay
from repro.logic.milo import synthesize
from repro.netlist import GateNetlist
from repro.sim import check_combinational_equivalence_batch
from repro.techlib import standard_cells


def test_delay_estimate_matches_hand_computation(cells):
    """Two inverters in a chain: the estimate equals the X/Y/Z formula."""
    netlist = GateNetlist("chain", ["A"], ["Y"], cells)
    inv = cells.by_kind("INV")
    netlist.add_instance(inv, {"I0": "A", "O": "n1"}, name="u1")
    netlist.add_instance(inv, {"I0": "n1", "O": "Y"}, name="u2")
    external = 10.0
    report = estimate_delay(netlist, external_loads={"Y": external})
    # First inverter drives one inverter input (load = input_load, fanout 1);
    # second drives only the external load (fanout 0).
    expected = (
        inv.output_delay(inv.input_load, 1)
        + inv.output_delay(external, 0)
    )
    assert report.comb_delays["Y"] == pytest.approx(expected)


def test_setup_time_matches_hand_computation(cells):
    """Input -> AND2 -> flip-flop D: set-up = gate delay + FF set-up."""
    netlist = GateNetlist("setup", ["A", "B", "CK"], ["Q"], cells)
    and2 = cells.by_kind("AND2")
    dff = cells.by_kind("DFF")
    netlist.add_instance(and2, {"I0": "A", "I1": "B", "O": "d"}, name="u_and")
    netlist.add_instance(dff, {"D": "d", "CK": "CK", "Q": "Q"}, name="u_ff")
    report = estimate_delay(netlist)
    expected = and2.output_delay(dff.input_load, 1) + dff.setup_time
    assert report.setup_times["A"] == pytest.approx(expected)
    # Minimum clock width is bounded below by the flip-flop's pulse width.
    assert report.clock_width >= dff.min_pulse_width


@given(size=st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_property_adder_synthesis_correct_across_widths(size):
    """Expansion + synthesis stays functionally correct for any bit width."""
    implementation = standard_catalog().get("ripple_carry_adder")
    flat = implementation.expand({"size": size})
    netlist = synthesize(flat, standard_cells())
    result = check_combinational_equivalence_batch(flat, netlist, max_exhaustive=9, samples=64)
    assert result.equivalent, result.counterexample


@given(size=st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_property_component_scaling_monotone(size):
    """Cell count of the counter grows monotonically with the bit width."""
    implementation = standard_catalog().get("counter")
    smaller = synthesize(implementation.expand({"size": size, "type": 2, "load": 0,
                                                "enable": 0, "up_or_down": 1}))
    larger = synthesize(implementation.expand({"size": size + 1, "type": 2, "load": 0,
                                               "enable": 0, "up_or_down": 1}))
    assert larger.cell_count() > smaller.cell_count()
    assert larger.flip_flop_count() == smaller.flip_flop_count() + 1


def test_icdb_database_round_trips_through_json(icdb, tmp_path):
    instance = icdb.request_component(implementation="register", attributes={"size": 2})
    path = icdb.database.save(tmp_path / "icdb.json")
    restored = Database.load(path)
    row = restored.table(INSTANCES).get(name=instance.name)
    assert row is not None
    assert row["implementation"] == "register"
    assert row["area"] == pytest.approx(instance.area)
