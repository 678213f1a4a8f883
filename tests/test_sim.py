"""Tests for the flat-level and gate-level simulators, one lane wide."""

from __future__ import annotations

import pytest

from repro.iif import parse_module, Expander
from repro.logic.milo import synthesize
from repro.sim import (
    BatchFlatSimulator,
    BatchGateSimulator,
    EquivalenceResult,
    GateSimulationError,
    SimulationError,
    bus_assignment,
    check_combinational_equivalence_batch,
    check_sequential_equivalence_batch,
    read_bus,
)


# ---------------------------------------------------------------------------
# Vector helpers
# ---------------------------------------------------------------------------


def test_bus_helpers_round_trip():
    assignment = bus_assignment("D", 5, 19)
    assert assignment == {"D[0]": 1, "D[1]": 1, "D[2]": 0, "D[3]": 0, "D[4]": 1}
    assert read_bus(assignment, "D", 5) == 19


def test_equivalence_result_is_truthy():
    assert EquivalenceResult(equivalent=True, vectors_checked=4)
    assert not EquivalenceResult(equivalent=False, vectors_checked=4)


def test_read_bus_names_the_missing_net():
    with pytest.raises(GateSimulationError, match=r"no net named 'D\[2\]'"):
        read_bus({"D[0]": 1, "D[1]": 0}, "D", 4)


def test_equivalence_result_round_trips_through_dict():
    result = EquivalenceResult(
        equivalent=False,
        vectors_checked=3,
        counterexample={"A": 1, "B": 0},
        mismatched_outputs=("O",),
        mode="combinational",
    )
    restored = EquivalenceResult.from_dict(result.to_dict())
    assert restored == result


# ---------------------------------------------------------------------------
# Flat simulator
# ---------------------------------------------------------------------------


TOGGLE_IIF = """
NAME: TOGGLE;
INORDER: CLK, RST;
OUTORDER: Q;
{
    Q = (!Q) @(~r CLK) ~a(0/(RST));
}
"""


def test_flat_simulator_toggle_and_async_reset():
    flat = Expander().expand(parse_module(TOGGLE_IIF), {})
    sim = BatchFlatSimulator(flat, 1)
    assert sim.value("Q") == 0
    sim.clock_cycle("CLK", {"RST": 0})
    assert sim.value("Q") == 1
    sim.clock_cycle("CLK", {"RST": 0})
    assert sim.value("Q") == 0
    sim.clock_cycle("CLK", {"RST": 0})
    sim.apply({"RST": 1})
    assert sim.value("Q") == 0  # asynchronous reset wins immediately
    # While reset is asserted, clocking does not set the flip-flop.
    sim.clock_cycle("CLK", {"RST": 1})
    assert sim.value("Q") == 0


def test_flat_simulator_rejects_unknown_inputs():
    flat = Expander().expand(parse_module(TOGGLE_IIF), {})
    sim = BatchFlatSimulator(flat, 1)
    with pytest.raises(SimulationError):
        sim.apply({"NOPE": 1})


def test_flat_simulator_clock_cycles_and_state(catalog):
    flat = catalog.get("register").expand({"size": 2})
    sim = BatchFlatSimulator(flat, 1)
    for _ in range(3):
        outputs = sim.clock_cycle("CLK", {"LOAD": 1, **bus_assignment("I", 2, 3)})
    assert read_bus(outputs, "Q", 2) == 3
    assert set(sim.state()) == {"Q[0]", "Q[1]"}
    assert sim.output_values()["Q[0]"] == 1


def test_flat_simulator_detects_combinational_loop():
    source = """
NAME: LOOPY;
INORDER: A;
OUTORDER: O;
PIIFVARIABLE: X;
{
    X = !O;
    O = X * A + !X * !A;
}
"""
    flat = Expander().expand(parse_module(source), {})
    with pytest.raises(SimulationError):
        BatchFlatSimulator(flat, 1).apply({"A": 1})


def test_latch_transparency(catalog):
    source = """
NAME: LATCHY;
INORDER: D, G;
OUTORDER: Q;
{
    Q = (D) @(~h G);
}
"""
    flat = Expander().expand(parse_module(source), {})
    sim = BatchFlatSimulator(flat, 1)
    sim.apply({"D": 1, "G": 1})
    assert sim.value("Q") == 1  # transparent
    sim.apply({"G": 0})
    sim.apply({"D": 0})
    assert sim.value("Q") == 1  # held
    sim.apply({"G": 1})
    assert sim.value("Q") == 0  # transparent again


# ---------------------------------------------------------------------------
# Gate-level simulator
# ---------------------------------------------------------------------------


def test_gate_simulator_matches_adder(adder_flat, adder_netlist):
    sim = BatchGateSimulator(adder_netlist, 1)
    for a, b, cin in [(3, 9, 0), (15, 1, 1), (7, 8, 0)]:
        outputs = sim.apply(
            {"Cin": cin, **bus_assignment("I0", 4, a), **bus_assignment("I1", 4, b)}
        )
        assert read_bus(outputs, "O", 4) == (a + b + cin) % 16
        assert outputs["Cout"] == (a + b + cin) // 16


def test_gate_simulator_counter_counts(updown_counter_flat, updown_counter_netlist):
    sim = BatchGateSimulator(updown_counter_netlist, 1)
    stim = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    values = []
    for _ in range(4):
        out = sim.clock_cycle("CLK", stim)
        values.append(read_bus(out, "Q", 4))
    assert values == [1, 2, 3, 4]
    assert read_bus(sim.values, "Q", 4) == 4


def test_gate_simulator_unknown_input_rejected(adder_netlist):
    sim = BatchGateSimulator(adder_netlist, 1)
    with pytest.raises(GateSimulationError):
        sim.apply({"NOT_A_PORT": 1})


def test_equivalence_checks_pass_for_library_components(catalog, cells):
    mux = catalog.get("mux2").expand({"size": 2})
    assert check_combinational_equivalence_batch(mux, synthesize(mux, cells))
    register = catalog.get("register").expand({"size": 2})
    assert check_sequential_equivalence_batch(
        register, synthesize(register, cells), clock="CLK", cycles=12
    )


def test_equivalence_check_detects_broken_netlist(adder_flat, cells):
    netlist = synthesize(adder_flat, cells)
    # Sabotage: swap the pins of one XOR gate's inputs with a constant tie.
    victim = next(inst for inst in netlist.all_instances() if inst.cell.kind == "XOR2")
    netlist.reconnect(victim.name, {"I0": victim.net("I1")})
    result = check_combinational_equivalence_batch(adder_flat, netlist, max_exhaustive=9)
    assert not result.equivalent
    assert result.counterexample is not None
    assert result.mismatched_outputs


def test_vectors_checked_counts_only_through_the_counterexample(adder_flat, cells):
    # On an early mismatch, vectors_checked must count the vectors actually
    # simulated -- up to and including the counterexample -- not the full
    # sweep size (the pre-fix behavior).
    netlist = synthesize(adder_flat, cells)
    victim = next(inst for inst in netlist.all_instances() if inst.cell.kind == "XOR2")
    netlist.reconnect(victim.name, {"I0": victim.net("I1")})
    result = check_combinational_equivalence_batch(adder_flat, netlist, max_exhaustive=9)
    assert not result.equivalent
    total = 2 ** len(adder_flat.inputs)
    assert 1 <= result.vectors_checked < total
    # The counterexample is the vectors_checked-th vector: re-simulating it
    # reproduces the mismatch on the reported outputs.
    collapsed = adder_flat.collapsed_output_expressions()
    gate_values = BatchGateSimulator(netlist, 1).apply(result.counterexample)
    for output in result.mismatched_outputs:
        assert gate_values[output] != collapsed[output].evaluate(result.counterexample)
