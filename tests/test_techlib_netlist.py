"""Tests for the cell library and the gate-netlist data structures."""

from __future__ import annotations

import pickle
import random
from collections import deque

import pytest

from repro.estimation import AreaEstimator, DelayAnalysis
from repro.logic.milo import synthesize
from repro.netlist import (
    GateNetlist,
    NetlistError,
    combinational_order,
    driver_of,
    fanout_counts,
    gate_netlist_to_vhdl,
    layout_to_cif,
    logic_depth,
    parse_cif_boxes,
    structural_vhdl,
    transitive_fanin,
    transitive_fanout,
    vhdl_component_declaration,
    vhdl_entity,
)
from repro.netlist.structural import StructuralNetlist, flatten_to_gates
from repro.techlib import (
    Cell,
    CellLibraryError,
    MAX_SIZE,
    WIDTH_PER_TRANSISTOR_UM,
    default_library,
    standard_cells,
)
from repro.sim import BatchGateSimulator, GateSimulationError
from test_sim_batch import _random_netlist


# ---------------------------------------------------------------------------
# Cell library
# ---------------------------------------------------------------------------


def test_library_contains_required_kinds(cells):
    for kind in ("INV", "NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2", "AOI21",
                 "OAI21", "MUX2", "BUF", "DFF", "DFF_SR", "DFF_N", "LATCH_H",
                 "LATCH_L", "TRIBUF", "SCHMITT", "DELAY", "WIREOR", "TIE0", "TIE1"):
        assert cells.has_kind(kind), kind


def test_cell_lookup_and_errors(cells):
    assert cells.cell("INV1").kind == "INV"
    assert "INV1" in cells
    with pytest.raises(CellLibraryError):
        cells.cell("NOPE")
    with pytest.raises(CellLibraryError):
        cells.by_kind("NOPE")


def test_delay_formula_matches_paper():
    cell = standard_cells().cell("NAND2")
    load, fanout = 12.0, 3
    expected = load * cell.load_delay + cell.intrinsic_delay + fanout * cell.fanout_delay
    assert cell.output_delay(load, fanout) == pytest.approx(expected)


def test_sizing_scales_delay_width_and_input_load():
    cell = standard_cells().cell("INV1")
    assert cell.load_delay_at_size(2.0) == pytest.approx(cell.load_delay / 2.0)
    assert cell.width_at_size(2.0) > cell.width_um
    assert cell.width_at_size(2.0) < 2.0 * cell.width_um  # sub-linear growth
    assert cell.input_load_at_size(2.0) > cell.input_load
    assert cell.width_um == pytest.approx(cell.transistors * WIDTH_PER_TRANSISTOR_UM)


def test_sequential_cells_have_timing_parameters(cells):
    dff = cells.by_kind("DFF")
    assert dff.is_sequential and dff.clock_pin == "CK"
    assert dff.setup_time > 0 and dff.clock_to_q > 0 and dff.min_pulse_width > 0


def test_default_library_is_fresh_copy():
    library = default_library()
    assert len(library) == len(standard_cells())
    assert library is not standard_cells()


def test_duplicate_cell_rejected():
    library = default_library()
    with pytest.raises(CellLibraryError):
        library.add(library.cell("INV1"))


def test_only_the_standard_library_pickles_by_reference(monkeypatch):
    standard = standard_cells()
    inverter = standard.cell("INV1")
    assert pickle.loads(pickle.dumps(standard)) is standard
    assert pickle.loads(pickle.dumps(inverter)) is inverter
    # Equal content, other objects: a private library travels by value.
    private = default_library()
    copy = pickle.loads(pickle.dumps(private))
    assert copy is not standard and copy.cell("INV1") is not inverter
    assert copy.fingerprint() == private.fingerprint()
    # A reference to a standard library with other parameters is refused.
    blob = pickle.dumps(inverter)
    monkeypatch.setattr(standard, "_fingerprint", standard.fingerprint() ^ 1)
    with pytest.raises(CellLibraryError):
        pickle.loads(blob)


# ---------------------------------------------------------------------------
# Gate netlists
# ---------------------------------------------------------------------------


def _small_netlist(cells):
    netlist = GateNetlist("demo", ["A", "B", "CK"], ["Y", "Q"], cells)
    netlist.add_instance(cells.by_kind("AND2"), {"I0": "A", "I1": "B", "O": "n1"}, name="u_and")
    netlist.add_instance(cells.by_kind("INV"), {"I0": "n1", "O": "Y"}, name="u_inv")
    netlist.add_instance(cells.by_kind("DFF"), {"D": "n1", "CK": "CK", "Q": "Q"}, name="u_ff")
    return netlist


def test_netlist_nets_and_fanout(cells):
    netlist = _small_netlist(cells)
    table = netlist.nets()
    assert table["A"].is_primary_input
    assert table["n1"].driver_instance == "u_and"
    assert table["n1"].fanout == 2
    assert fanout_counts(netlist)["n1"] == 2
    assert driver_of(netlist, "Y").name == "u_inv"
    assert driver_of(netlist, "A") is None


def test_netlist_validation_and_errors(cells):
    netlist = _small_netlist(cells)
    netlist.validate()
    with pytest.raises(NetlistError):
        netlist.add_instance(cells.by_kind("INV"), {"I0": "A"})  # missing output pin
    with pytest.raises(NetlistError):
        netlist.add_instance(cells.by_kind("INV"), {"I0": "A", "O": "x"}, name="u_inv")
    with pytest.raises(NetlistError):
        netlist.add_instance(cells.by_kind("INV"), {"I0": "A", "O": "x", "I9": "B"})
    bad = GateNetlist("bad", ["A"], ["Y"], cells)
    with pytest.raises(NetlistError):
        bad.validate()  # output never driven
    multi = GateNetlist("multi", ["A"], ["Y"], cells)
    multi.add_instance(cells.by_kind("INV"), {"I0": "A", "O": "Y"})
    multi.add_instance(cells.by_kind("BUF"), {"I0": "A", "O": "Y"})
    with pytest.raises(NetlistError):
        multi.nets()  # two drivers on Y


def test_reconnect_replaces_a_gate_in_place(cells):
    netlist = _small_netlist(cells)
    before = netlist.instance("u_and")
    after = netlist.reconnect("u_and", {"I1": "A"})
    assert list(netlist.instances) == ["u_and", "u_inv", "u_ff"]
    assert netlist.instance("u_and") is after
    assert (after.net("I0"), after.net("I1"), after.output_net()) == ("A", "A", "n1")
    assert (after.cell, after.size) == (before.cell, before.size)
    assert before.net("I1") == "B"  # the replaced gate is untouched
    with pytest.raises(NetlistError):
        netlist.reconnect("u_and", {"EN": "A"})


def test_netlist_statistics_and_loads(cells):
    netlist = _small_netlist(cells)
    assert netlist.cell_count() == 3
    assert netlist.flip_flop_count() == 1
    histogram = netlist.cell_histogram()
    assert histogram["AND2"] == 1
    loads = netlist.net_load_units({"Y": 10.0})
    assert loads["Y"] == pytest.approx(10.0)
    assert loads["n1"] > 0
    assert netlist.transistor_units() > 0
    assert "demo" in netlist.summary()


def test_topological_order_and_depth(cells):
    netlist = _small_netlist(cells)
    order = [inst.name for inst in combinational_order(netlist)]
    assert order.index("u_and") < order.index("u_inv")
    assert logic_depth(netlist) == 2
    cone = transitive_fanin(netlist, ["Y"])
    assert {"Y", "n1", "A", "B"} <= cone
    out_cone = transitive_fanout(netlist, ["A"])
    assert "Y" in out_cone


def test_combinational_cycle_detected(cells):
    netlist = GateNetlist("loop", ["A"], ["Y"], cells)
    netlist.add_instance(cells.by_kind("AND2"), {"I0": "A", "I1": "Y", "O": "n1"})
    netlist.add_instance(cells.by_kind("INV"), {"I0": "n1", "O": "Y"})
    with pytest.raises(NetlistError):
        combinational_order(netlist)


# ---------------------------------------------------------------------------
# Per-pass connectivity against the net table
# ---------------------------------------------------------------------------
#
# The flow's passes walk the gates' net tuples instead of building
# ``nets()``; these references rebuild each fact from the net table the
# way the passes used to, and the passes must match them exactly: the
# same floats, summed in the same order, and the same orders.


def _reference_loads(netlist, external):
    loads = {}
    for net, info in netlist.nets().items():
        total = 0.0
        for sink_name, _pin in info.sinks:
            sink = netlist.instances[sink_name]
            total += sink.cell.input_load_at_size(sink.size)
        loads[net] = total
    for net, extra in external.items():
        loads[net] = loads.get(net, 0.0) + float(extra)
    return loads


def _reference_order(netlist):
    """Kahn's algorithm over the net table, one pending-net set per gate."""
    table = netlist.nets()
    ready = set(netlist.inputs)
    for gate in netlist.sequential_instances():
        ready.update(gate.nets[i] for i in gate.cell.output_indices)
    ready.update(net for net, info in table.items() if info.driver_instance is None)
    comb = netlist.combinational_instances()
    pending = {gate.name: set(gate.input_nets()) - ready for gate in comb}
    readers = {}
    for gate in comb:
        for net in pending[gate.name]:
            readers.setdefault(net, []).append(gate)
    queue = deque(gate for gate in comb if not pending[gate.name])
    order = []
    while queue:
        gate = queue.popleft()
        order.append(gate)
        for net in (gate.nets[i] for i in gate.cell.output_indices):
            if net in ready:
                continue
            ready.add(net)
            for reader in readers.get(net, []):
                pending[reader.name].discard(net)
                if not pending[reader.name]:
                    queue.append(reader)
    return order


def _reference_pin_counts(netlist):
    counts = []
    for info in netlist.nets().values():
        pins = info.fanout + (0 if info.driver_instance is None else 1)
        if pins >= 2:
            counts.append(pins)
    return counts


def _resized_and_shuffled(netlist, rng):
    """A copy with random drive sizes and its gates in a random order."""
    gates = netlist.all_instances()
    rng.shuffle(gates)
    copy = GateNetlist(netlist.name, netlist.inputs, netlist.outputs, netlist.library)
    for gate in gates:
        pins = dict(zip(gate.cell.pins, gate.nets))
        size = rng.choice((1.0, 1.3, 2.197, 4.0))
        copy.add_instance(gate.cell, pins, name=gate.name, size=size)
    return copy


def _catalog_netlists(catalog, cells):
    netlists = []
    for implementation in catalog.implementations():
        parameters = dict(implementation.default_parameters)
        if "size" in parameters:
            parameters["size"] = 4
        try:
            flat = implementation.expand(parameters)
        except Exception:
            # A few implementations need co-varying parameters; a bare
            # size override is not meaningful there.
            continue
        netlists.append(synthesize(flat, cells))
    return netlists


def _assert_passes_match_the_net_table(netlist):
    external = {output: 1.5 for output in netlist.outputs}
    loads = netlist.net_load_units(external)
    reference = _reference_loads(netlist, external)
    assert list(loads.items()) == list(reference.items())

    order = [gate.name for gate in combinational_order(netlist)]
    assert order == [gate.name for gate in _reference_order(netlist)]

    table = netlist.nets()
    drivers = {
        net: None if gate is None else gate.name for net, gate in netlist.drivers().items()
    }
    assert drivers == {
        net: info.driver_instance
        for net, info in table.items()
        if info.driver_instance is not None or info.is_primary_input
    }
    analysis = DelayAnalysis(netlist, external)
    assert analysis.fanout == {net: info.fanout for net, info in table.items() if info.sinks}
    assert [gate.name for gate in analysis.order] == order

    assert AreaEstimator(netlist)._multi_pin_counts() == _reference_pin_counts(netlist)


def test_catalog_netlists_match_the_net_table(catalog, cells):
    netlists = _catalog_netlists(catalog, cells)
    assert len(netlists) >= 25  # the check really is catalog-wide
    rng = random.Random(4)
    for netlist in netlists:
        _assert_passes_match_the_net_table(netlist)
        _assert_passes_match_the_net_table(_resized_and_shuffled(netlist, rng))


@pytest.mark.parametrize("seed", range(8))
def test_random_netlists_match_the_net_table(cells, seed):
    rng = random.Random(seed)
    netlist = _random_netlist(cells, rng)
    _assert_passes_match_the_net_table(netlist)
    _assert_passes_match_the_net_table(_resized_and_shuffled(netlist, rng))


def _faulty_netlist(cells, faults):
    """A small netlist carrying the named faults, built in a fixed order."""
    inv, and2 = cells.by_kind("INV"), cells.by_kind("AND2")
    netlist = GateNetlist("faulty", ["A", "B"], ["Y", "Z"], cells)
    netlist.add_instance(and2, {"I0": "A", "I1": "B", "O": "n1"}, name="g1")
    netlist.add_instance(inv, {"I0": "n1", "O": "Y"}, name="g2")
    if "cycle" in faults:
        netlist.add_instance(and2, {"I0": "A", "I1": "c2", "O": "c1"}, name="g3")
        netlist.add_instance(inv, {"I0": "c1", "O": "c2"}, name="g4")
    if "used_undriven" in faults:
        netlist.add_instance(and2, {"I0": "n1", "I1": "u", "O": "n2"}, name="g5")
    if "double_driver" in faults:
        netlist.add_instance(inv, {"I0": "B", "O": "n1"}, name="g6")
    if "driven_input" in faults:
        netlist.add_instance(inv, {"I0": "n1", "O": "B"}, name="g7")
    if "undriven_output" not in faults:
        netlist.add_instance(inv, {"I0": "Y", "O": "Z"}, name="g8")
    return netlist


_CYCLE = "combinational cycle involving instances ['g3', 'g4']"


@pytest.mark.parametrize(
    "faults,from_validate,from_order",
    [
        (
            ("double_driver", "undriven_output", "used_undriven", "cycle"),
            "net 'n1' has multiple drivers",
            "net 'n1' has multiple drivers",
        ),
        (
            ("driven_input", "double_driver", "cycle"),
            "net 'n1' has multiple drivers",
            "net 'n1' has multiple drivers",
        ),
        (
            ("driven_input", "undriven_output"),
            "net 'B' has multiple drivers",
            "net 'B' has multiple drivers",
        ),
        (("undriven_output", "used_undriven", "cycle"), "output 'Z' is not driven", _CYCLE),
        (("used_undriven", "cycle"), "net 'u' is used but never driven", _CYCLE),
        (("used_undriven",), "net 'u' is used but never driven", None),
        (("undriven_output",), "output 'Z' is not driven", None),
    ],
)
def test_faulty_netlists_report_their_first_fault(cells, faults, from_validate, from_order):
    netlist = _faulty_netlist(cells, faults)
    with pytest.raises(NetlistError) as raised:
        netlist.validate()
    assert str(raised.value) == from_validate
    if from_order is None:
        # An undriven net counts as ready, so the order still exists; the
        # simulator then refuses the netlist with validate's message.
        order = [gate.name for gate in combinational_order(netlist)]
        assert order == [gate.name for gate in _reference_order(netlist)]
        with pytest.raises(GateSimulationError) as raised:
            BatchGateSimulator(netlist, 4)
        assert str(raised.value) == f"faulty: {from_validate}"
        return
    for build in (combinational_order, lambda n: BatchGateSimulator(n, 4)):
        with pytest.raises(NetlistError) as raised:
            build(netlist)
        assert str(raised.value) == from_order


# ---------------------------------------------------------------------------
# VHDL / CIF emission
# ---------------------------------------------------------------------------


def test_vhdl_emission_contains_entity_and_instances(cells):
    netlist = _small_netlist(cells)
    text = gate_netlist_to_vhdl(netlist)
    assert "entity demo is" in text
    assert "architecture structure of demo" in text
    assert "port map" in text
    assert text.count("component") >= 3


def test_vhdl_head_and_identifier_sanitizing():
    head = vhdl_component_declaration("counter_1", ["D[0]", "CLK"], ["Q[0]"])
    assert "component counter_1" in head
    assert "d_0 : in bit" in head
    assert "q_0 : out bit" in head
    entity = vhdl_entity("my design", ["A"], ["B"])
    assert "entity my_design is" in entity


def test_structural_vhdl_and_netlist(cells):
    structure = StructuralNetlist("cluster", inputs=["A", "B"], outputs=["Y"])
    structure.add("u1", "adder_x", {"I0": "A", "I1": "B", "O": "t"})
    structure.add("u2", "inv_x", {"I0": "t", "O": "Y"})
    assert structure.internal_nets() == ["t"]
    assert structure.components_used() == ["adder_x", "inv_x"]
    text = structure.to_vhdl()
    assert "u1 : adder_x" in text
    with pytest.raises(NetlistError):
        structure.add("u1", "dup", {})


def test_flatten_to_gates_merges_and_renames(cells, adder_netlist):
    structure = StructuralNetlist("pair", inputs=["X"], outputs=[])
    port_map = {name: f"a_{name}" for name in adder_netlist.inputs + adder_netlist.outputs}
    structure.add("a", adder_netlist.name, port_map)
    structure.add("b", adder_netlist.name, {})
    merged = flatten_to_gates(structure, lambda ref: adder_netlist)
    assert merged.cell_count() == 2 * adder_netlist.cell_count()
    nets = merged.nets()
    assert any(net.startswith("a_") for net in nets)
    assert any(net.startswith("b.") for net in nets)


def test_cif_round_trip(updown_counter_netlist):
    from repro.layout import generate_layout

    layout = generate_layout(updown_counter_netlist, strips=3)
    cif = layout_to_cif(layout)
    assert cif.startswith("(CIF file for")
    assert cif.rstrip().endswith("E")
    boxes = parse_cif_boxes(cif)
    assert len(boxes) >= updown_counter_netlist.cell_count()
    cell_boxes = [box for box in boxes if box[0] == "CPG"]
    assert len(cell_boxes) == updown_counter_netlist.cell_count()
    total_width = sum(box[1] for box in cell_boxes)
    assert total_width == pytest.approx(updown_counter_netlist.total_width_um(), rel=0.01)
