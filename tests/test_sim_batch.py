"""Tests for the bit-parallel engines and the verification layer.

The engines of :mod:`repro.sim.batch` are checked against references
that share no code with them: a one-bit table per cell kind and a small
per-cell next-state stepper (both below), ``BExpr.evaluate`` on a flat
component's collapsed outputs, and arithmetic models of the adder and
the up/down counter.  Lane independence -- lane *i* of a W-lane run is a
one-lane run fed lane *i*'s stimulus -- is checked on its own.  Then the
verification layer (:mod:`repro.sim.verify`) built on top is exercised,
including a catalog-wide equivalence sweep over every implementation.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.components.counters import (
    TYPE_RIPPLE,
    UP_DOWN,
    UP_ONLY,
    counter_parameters,
)
from repro.core.progress import OperationCancelled, observed
from repro.iif import Expander, parse_module
from repro.logic.milo import synthesize
from repro.netlist import GateNetlist
from repro.sim import (
    BatchFlatSimulator,
    BatchGateSimulator,
    GateSimulationError,
    SimulationError,
    VerificationError,
    bus_assignment,
    check_combinational_equivalence_batch,
    check_equivalence,
    check_sequential_equivalence_batch,
    pack_vectors,
    read_bus,
    simulate_vectors,
    unpack_lane,
    unpack_lanes,
)


# ---------------------------------------------------------------------------
# References that share no code with the engines
# ---------------------------------------------------------------------------


#: One-bit function of every combinational cell kind but TRIBUF (which
#: holds state, see ReferenceStepper), over the cell's inputs in declared
#: order (MUX2: I0, I1, S).
CELL_TABLE = {
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "BUFH": lambda a: a,
    "SCHMITT": lambda a: a,
    "DELAY": lambda a: a,
    "AND2": lambda a, b: a & b,
    "AND3": lambda a, b, c: a & b & c,
    "AND4": lambda a, b, c, d: a & b & c & d,
    "OR2": lambda a, b: a | b,
    "OR3": lambda a, b, c: a | b | c,
    "OR4": lambda a, b, c, d: a | b | c | d,
    "NAND2": lambda a, b: 1 - (a & b),
    "NAND3": lambda a, b, c: 1 - (a & b & c),
    "NAND4": lambda a, b, c, d: 1 - (a & b & c & d),
    "NOR2": lambda a, b: 1 - (a | b),
    "NOR3": lambda a, b, c: 1 - (a | b | c),
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "AOI21": lambda a, b, c: 1 - ((a & b) | c),
    "AOI22": lambda a, b, c, d: 1 - ((a & b) | (c & d)),
    "OAI21": lambda a, b, c: 1 - ((a | b) & c),
    "MUX2": lambda i0, i1, s: i1 if s else i0,
    "WIREOR": lambda a, b: a | b,
    "TIE0": lambda: 0,
    "TIE1": lambda: 1,
}


class ReferenceStepper:
    """One-vector reference simulator for small gate netlists.

    ``apply`` settles the combinational cells to a fixpoint (a TRIBUF
    drives its data while EN is 1 and holds its output otherwise), then
    gives every sequential cell its next Q from the settled values -- all
    cells read before any writes (two-phase edge commit) -- and repeats
    until no Q changes.  A latch follows D while its gate is at its
    active level; a flip-flop takes 1 on S, else 0 on R, else D on its
    clock edge.  Cells are visited in netlist order, so a TRIBUF must
    come after the cells driving it.
    """

    def __init__(self, netlist: GateNetlist):
        self.netlist = netlist
        self.values = dict.fromkeys(netlist.inputs, 0)
        for instance in netlist.all_instances():
            self.values[instance.output_net()] = 0
        self.previous_clock = {}
        self.apply({})

    def apply(self, inputs):
        self.values.update(inputs)
        while True:
            self._settle_combinational()
            updates = {
                instance.output_net(): self._next_q(instance)
                for instance in self.netlist.sequential_instances()
            }
            if all(self.values[net] == value for net, value in updates.items()):
                return {name: self.values[name] for name in self.netlist.outputs}
            self.values.update(updates)

    def clock_cycle(self, clock, inputs):
        self.apply({**inputs, clock: 0})
        return self.apply({clock: 1})

    def _settle_combinational(self):
        changed = True
        while changed:
            changed = False
            for instance in self.netlist.combinational_instances():
                bits = [self.values[net] for net in instance.input_nets()]
                out = instance.output_net()
                if instance.cell.kind == "TRIBUF":
                    data, enable = bits
                    value = data if enable else self.values[out]
                else:
                    value = CELL_TABLE[instance.cell.kind](*bits)
                if self.values[out] != value:
                    self.values[out] = value
                    changed = True

    def _next_q(self, instance):
        bit = {
            pin: self.values[net]
            for pin, net in zip(instance.cell.pins, instance.nets)
        }
        kind, q = instance.cell.kind, bit["Q"]
        if kind in ("LATCH_H", "LATCH_L"):
            gate = bit["G"]
            self.previous_clock[instance.name] = gate
            transparent = gate if kind == "LATCH_H" else 1 - gate
            return bit["D"] if transparent else q
        clock = bit["CK"]
        before = self.previous_clock.get(instance.name, clock)
        self.previous_clock[instance.name] = clock
        if bit.get("S"):
            return 1
        if bit.get("R"):
            return 0
        edge = (1, 0) if kind in ("DFF_N", "DFF_N_SR") else (0, 1)
        return bit["D"] if (before, clock) == edge else q


def _counter_model(q, stimulus):
    """Next state and outputs of the 4-bit up/down counter fixture after
    one clock cycle: LOAD is an active-low asynchronous parallel load,
    ENA gates counting, DWUP=1 counts down.  With CLK high after the
    cycle, MINMAX flags the terminal count and RCLK is 1."""
    if not stimulus["LOAD"]:
        q = read_bus(stimulus, "D", 4)
    elif stimulus["ENA"]:
        q = (q + (-1 if stimulus["DWUP"] else 1)) % 16
    terminal = q == (0 if stimulus["DWUP"] else 15)
    return q, {**bus_assignment("Q", 4, q), "MINMAX": int(terminal), "RCLK": 1}


def _all_input_vectors(inputs):
    """Every assignment of ``inputs``, in the exhaustive checker's
    ``itertools.product`` order."""
    return [dict(zip(inputs, bits)) for bits in itertools.product((0, 1), repeat=len(inputs))]


# ---------------------------------------------------------------------------
# Lane packing
# ---------------------------------------------------------------------------


def test_pack_unpack_round_trip():
    vectors = [
        {"A": 1, "B": 0, "C": 1},
        {"A": 0, "B": 1, "C": 1},
        {"A": 1, "B": 1, "C": 0},
    ]
    packed = pack_vectors(vectors)
    assert packed == {"A": 0b101, "B": 0b110, "C": 0b011}
    assert unpack_lanes(packed, len(vectors)) == vectors
    assert unpack_lane(packed, 1) == vectors[1]


def test_pack_vectors_fixed_names_default_missing_to_zero():
    packed = pack_vectors([{"A": 1}, {"B": 1}], names=["A", "B", "C"])
    assert packed == {"A": 0b01, "B": 0b10, "C": 0b00}


def test_batch_simulators_reject_zero_lanes(adder_flat, adder_netlist):
    with pytest.raises(SimulationError):
        BatchFlatSimulator(adder_flat, 0)
    with pytest.raises(GateSimulationError):
        BatchGateSimulator(adder_netlist, 0)


# ---------------------------------------------------------------------------
# Combinational lanes against independent references
# ---------------------------------------------------------------------------


def test_every_combinational_cell_matches_its_table(cells):
    kinds = {cell.kind for cell in cells.cells() if not cell.is_sequential}
    assert kinds - {"TRIBUF"} == set(CELL_TABLE)
    for kind, function in CELL_TABLE.items():
        cell = cells.by_kind(kind)
        netlist = GateNetlist(kind, list(cell.inputs), ["Y"], cells)
        netlist.add_instance(cell, {**{pin: pin for pin in cell.inputs}, "O": "Y"})
        vectors = _all_input_vectors(cell.inputs)
        out = BatchGateSimulator(netlist, len(vectors)).apply(
            pack_vectors(vectors, cell.inputs)
        )
        for lane, vector in enumerate(vectors):
            bits = [vector[pin] for pin in cell.inputs]
            assert (out["Y"] >> lane) & 1 == function(*bits), (kind, vector)


def test_batch_gate_simulator_adds_exhaustively(adder_netlist):
    vectors = _all_input_vectors(adder_netlist.inputs)
    packed = pack_vectors(vectors, adder_netlist.inputs)
    out = BatchGateSimulator(adder_netlist, len(vectors)).apply(packed)
    for lane, vector in enumerate(vectors):
        values = unpack_lane(out, lane)
        total = read_bus(values, "O", 4) + (values["Cout"] << 4)
        expected = read_bus(vector, "I0", 4) + read_bus(vector, "I1", 4) + vector["Cin"]
        assert total == expected


def test_batch_flat_simulator_matches_collapsed_expressions_on_adder(adder_flat):
    vectors = _all_input_vectors(adder_flat.inputs)
    packed = pack_vectors(vectors, adder_flat.inputs)
    batch_out = BatchFlatSimulator(adder_flat, len(vectors)).apply(packed)
    collapsed = adder_flat.collapsed_output_expressions()
    for lane, vector in enumerate(vectors):
        expected = {
            output: collapsed[output].evaluate(vector) for output in adder_flat.outputs
        }
        assert unpack_lane(batch_out, lane) == expected


# ---------------------------------------------------------------------------
# Sequential lock-step lanes against the counter model
# ---------------------------------------------------------------------------


def test_batch_counter_lock_step_matches_counter_model(
    updown_counter_flat, updown_counter_netlist
):
    lanes, cycles = 8, 24
    rng = random.Random(1990)
    free = [name for name in updown_counter_flat.inputs if name != "CLK"]
    batch_flat = BatchFlatSimulator(updown_counter_flat, lanes)
    batch_gate = BatchGateSimulator(updown_counter_netlist, lanes)
    state = [0] * lanes
    for _ in range(cycles):
        stimulus = {name: rng.getrandbits(lanes) for name in free}
        flat_out = batch_flat.clock_cycle("CLK", stimulus)
        gate_out = batch_gate.clock_cycle("CLK", stimulus)
        for lane in range(lanes):
            state[lane], expected = _counter_model(
                state[lane], unpack_lane(stimulus, lane)
            )
            assert unpack_lane(flat_out, lane) == expected
            assert unpack_lane(gate_out, lane) == expected


# ---------------------------------------------------------------------------
# TRIBUF / WIREOR resolution semantics
# ---------------------------------------------------------------------------


@pytest.fixture()
def tribuf_netlist(cells):
    netlist = GateNetlist("tribufs", ["D", "EN"], ["Y"], cells)
    netlist.add_instance(cells.by_kind("TRIBUF"), {"I0": "D", "EN": "EN", "O": "Y"})
    return netlist


@pytest.fixture()
def wireor_netlist(cells):
    netlist = GateNetlist("wired", ["A", "B", "EA", "EB"], ["Y"], cells)
    netlist.add_instance(cells.by_kind("TRIBUF"), {"I0": "A", "EN": "EA", "O": "ta"})
    netlist.add_instance(cells.by_kind("TRIBUF"), {"I0": "B", "EN": "EB", "O": "tb"})
    netlist.add_instance(cells.by_kind("WIREOR"), {"I0": "ta", "I1": "tb", "O": "Y"})
    return netlist


def test_tribuf_bus_hold_semantics(tribuf_netlist):
    # Enabled: the data input drives the output.  Disabled: the output
    # *holds* its last driven value (bus-hold model) -- it does not float
    # or fall to 0.
    sim = BatchGateSimulator(tribuf_netlist, 1)
    assert sim.apply({"D": 1, "EN": 1})["Y"] == 1
    assert sim.apply({"D": 0, "EN": 0})["Y"] == 1  # held high
    assert sim.apply({"D": 0, "EN": 1})["Y"] == 0
    assert sim.apply({"D": 1, "EN": 0})["Y"] == 0  # held low


def test_wireor_resolves_as_or(wireor_netlist):
    sim = BatchGateSimulator(wireor_netlist, 1)
    # Both drivers enabled: wired-or resolution is OR of the drivers.
    assert sim.apply({"A": 1, "B": 0, "EA": 1, "EB": 1})["Y"] == 1
    assert sim.apply({"A": 0, "B": 0, "EA": 1, "EB": 1})["Y"] == 0
    assert sim.apply({"A": 0, "B": 1, "EA": 1, "EB": 1})["Y"] == 1
    # One driver disabled: its bus-hold value (last driven) joins the OR.
    assert sim.apply({"A": 0, "B": 1, "EA": 0, "EB": 1})["Y"] == 1


def _assert_lanes_track_reference(batch, netlist, steps, seed):
    """Free-running ``apply`` with random stimulus: every lane of one
    batch run tracks its own reference stepper over ``netlist``."""
    rng = random.Random(seed)
    references = [ReferenceStepper(netlist) for _ in range(batch.lanes)]
    for _ in range(steps):
        stimulus = {name: rng.getrandbits(batch.lanes) for name in netlist.inputs}
        batch_out = batch.apply(stimulus)
        for lane, reference in enumerate(references):
            expected = reference.apply(unpack_lane(stimulus, lane))
            assert unpack_lane(batch_out, lane) == expected


@pytest.mark.parametrize("fixture_name", ["tribuf_netlist", "wireor_netlist"])
def test_batch_matches_reference_on_tristate_netlists(fixture_name, request):
    # Bus-hold makes TRIBUF stateful, so the lanes must track the
    # reference across a whole stimulus *sequence*.
    netlist = request.getfixturevalue(fixture_name)
    _assert_lanes_track_reference(
        BatchGateSimulator(netlist, 16), netlist, steps=24, seed=7
    )


# ---------------------------------------------------------------------------
# Sequential cell semantics
# ---------------------------------------------------------------------------


@pytest.fixture()
def dffsr_netlist(cells):
    netlist = GateNetlist("sr", ["D", "CK", "S", "R"], ["Q"], cells)
    netlist.add_instance(
        cells.by_kind("DFF_SR"), {"D": "D", "CK": "CK", "S": "S", "R": "R", "Q": "Q"}
    )
    return netlist


def test_dff_sr_async_set_wins_over_reset(dffsr_netlist):
    sim = BatchGateSimulator(dffsr_netlist, 1)
    # Asynchronous set acts without a clock edge.
    assert sim.apply({"D": 0, "CK": 0, "S": 1, "R": 0})["Q"] == 1
    # Set dominates reset when both are asserted.
    assert sim.apply({"S": 1, "R": 1})["Q"] == 1
    # Reset alone clears.
    assert sim.apply({"S": 0, "R": 1})["Q"] == 0
    # While reset is held, a rising edge cannot load D=1.
    assert sim.clock_cycle("CK", {"D": 1, "S": 0, "R": 1})["Q"] == 0
    # Released, the next edge loads D normally.
    assert sim.clock_cycle("CK", {"D": 1, "S": 0, "R": 0})["Q"] == 1


def test_dff_n_triggers_on_falling_edge(cells):
    netlist = GateNetlist("fall", ["D", "CK"], ["Q"], cells)
    netlist.add_instance(cells.by_kind("DFF_N"), {"D": "D", "CK": "CK", "Q": "Q"})
    sim = BatchGateSimulator(netlist, 1)
    # Rising edge: no capture.
    sim.apply({"D": 1, "CK": 0})
    assert sim.apply({"CK": 1})["Q"] == 0
    # Falling edge: captures D.
    assert sim.apply({"CK": 0})["Q"] == 1
    # Changing D with the clock held does nothing; the next falling edge
    # captures the new D.
    assert sim.apply({"D": 0})["Q"] == 1
    sim.apply({"CK": 1})
    assert sim.apply({"CK": 0})["Q"] == 0


@pytest.mark.parametrize(
    "kind,transparent_level", [("LATCH_H", 1), ("LATCH_L", 0)]
)
def test_latch_transparency_and_hold(cells, kind, transparent_level):
    netlist = GateNetlist("latch", ["D", "G"], ["Q"], cells)
    netlist.add_instance(cells.by_kind(kind), {"D": "D", "G": "G", "Q": "Q"})
    sim = BatchGateSimulator(netlist, 1)
    opaque_level = 1 - transparent_level
    # Transparent: Q follows D.
    assert sim.apply({"D": 1, "G": transparent_level})["Q"] == 1
    assert sim.apply({"D": 0})["Q"] == 0
    assert sim.apply({"D": 1})["Q"] == 1
    # Opaque: Q holds the last transparent value.
    assert sim.apply({"G": opaque_level})["Q"] == 1
    assert sim.apply({"D": 0})["Q"] == 1
    # Transparent again: Q follows D again.
    assert sim.apply({"G": transparent_level})["Q"] == 0


def test_edge_commit_is_two_phase(cells):
    # Two flip-flops in a shift chain on one clock: the second samples
    # the first's Q from *before* the edge, so a 1 needs two edges.
    netlist = GateNetlist("chain", ["D", "CK"], ["Q1", "Q2"], cells)
    netlist.add_instance(cells.by_kind("DFF"), {"D": "D", "CK": "CK", "Q": "Q1"})
    netlist.add_instance(cells.by_kind("DFF"), {"D": "Q1", "CK": "CK", "Q": "Q2"})
    sim = BatchGateSimulator(netlist, 1)
    assert sim.clock_cycle("CK", {"D": 1}) == {"Q1": 1, "Q2": 0}
    assert sim.clock_cycle("CK", {"D": 0}) == {"Q1": 0, "Q2": 1}


@pytest.fixture()
def mixed_sequential_netlist(cells):
    """Every sequential cell kind in one netlist, sharing data and clocks,
    plus a second flip-flop shifting the first's Q (two-phase commit)."""
    netlist = GateNetlist(
        "mixed_seq",
        ["D", "CK", "S", "R", "G"],
        ["Q_DFF", "Q_DFFN", "Q_SR", "Q_NSR", "Q_LH", "Q_LL", "Q_SHIFT"],
        cells,
    )
    netlist.add_instance(cells.by_kind("DFF"), {"D": "D", "CK": "CK", "Q": "Q_DFF"})
    netlist.add_instance(cells.by_kind("DFF_N"), {"D": "D", "CK": "CK", "Q": "Q_DFFN"})
    netlist.add_instance(
        cells.by_kind("DFF_SR"), {"D": "D", "CK": "CK", "S": "S", "R": "R", "Q": "Q_SR"}
    )
    netlist.add_instance(
        cells.by_kind("DFF_N_SR"),
        {"D": "D", "CK": "CK", "S": "S", "R": "R", "Q": "Q_NSR"},
    )
    netlist.add_instance(cells.by_kind("LATCH_H"), {"D": "D", "G": "G", "Q": "Q_LH"})
    netlist.add_instance(cells.by_kind("LATCH_L"), {"D": "D", "G": "G", "Q": "Q_LL"})
    netlist.add_instance(
        cells.by_kind("DFF"), {"D": "Q_DFF", "CK": "CK", "Q": "Q_SHIFT"}
    )
    return netlist


#: The flat twin of ``mixed_sequential_netlist``: the same state
#: elements as IIF equations (set is the first, winning async term).
MIXED_SEQUENTIAL_IIF = """
NAME: MIXED_SEQ;
INORDER: D, CK, S, R, G;
OUTORDER: Q_DFF, Q_DFFN, Q_SR, Q_NSR, Q_LH, Q_LL, Q_SHIFT;
{
    Q_DFF = (D) @(~r CK);
    Q_DFFN = (D) @(~f CK);
    Q_SR = (D) @(~r CK) ~a(1/(S), 0/(R));
    Q_NSR = (D) @(~f CK) ~a(1/(S), 0/(R));
    Q_LH = (D) @(~h G);
    Q_LL = (D) @(~l G);
    Q_SHIFT = (Q_DFF) @(~r CK);
}
"""


@pytest.fixture()
def mixed_sequential_flat():
    return Expander().expand(parse_module(MIXED_SEQUENTIAL_IIF), {})


@pytest.mark.parametrize("engine", ["gates", "flat"])
def test_batch_matches_reference_on_mixed_sequential_netlist(
    engine, mixed_sequential_netlist, mixed_sequential_flat
):
    # Free-running apply() (no fixed clocking discipline) exercises rising
    # and falling edges, async set/reset priority, latch transparency and
    # the two-phase shift in arbitrary interleavings, on both engines.
    batch = (
        BatchGateSimulator(mixed_sequential_netlist, 16)
        if engine == "gates"
        else BatchFlatSimulator(mixed_sequential_flat, 16)
    )
    _assert_lanes_track_reference(batch, mixed_sequential_netlist, steps=30, seed=42)


# ---------------------------------------------------------------------------
# Random netlists, random stimulus
# ---------------------------------------------------------------------------


_RANDOM_KINDS = [
    "INV",
    "BUF",
    "AND2",
    "OR2",
    "NAND2",
    "NOR2",
    "XOR2",
    "XNOR2",
    "AOI21",
    "OAI21",
    "MUX2",
    "WIREOR",
]


def _random_netlist(cells, rng, inputs=5, gates=24):
    input_names = [f"I{i}" for i in range(inputs)]
    netlist = GateNetlist("fuzzed", input_names, [], cells)
    nets = list(input_names)
    last = input_names[-1]
    for index in range(gates):
        cell = cells.by_kind(rng.choice(_RANDOM_KINDS))
        out = f"w{index}"
        pins = {pin: rng.choice(nets) for pin in cell.inputs}
        pins[cell.outputs[0]] = out
        netlist.add_instance(cell, pins)
        nets.append(out)
        last = out
    # Expose a handful of internal nets (always including the last, so the
    # whole cone is observable).
    outputs = sorted(set(rng.sample(nets[inputs:], 3) + [last]))
    netlist.outputs = outputs
    return netlist


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batch_matches_cell_tables_on_random_netlists(cells, seed):
    rng = random.Random(seed)
    netlist = _random_netlist(cells, rng)
    lanes = 64
    stimulus = {name: rng.getrandbits(lanes) for name in netlist.inputs}
    batch_out = BatchGateSimulator(netlist, lanes).apply(stimulus)
    for lane in range(lanes):
        expected = ReferenceStepper(netlist).apply(unpack_lane(stimulus, lane))
        assert unpack_lane(batch_out, lane) == expected, f"lane {lane} diverged"


# ---------------------------------------------------------------------------
# Lane independence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine,fixture_name,clock",
    [
        ("flat", "adder_flat", None),
        ("gates", "adder_netlist", None),
        ("flat", "updown_counter_flat", "CLK"),
        ("gates", "updown_counter_netlist", "CLK"),
        ("flat", "mixed_sequential_flat", None),
        ("gates", "mixed_sequential_netlist", None),
        ("gates", "tribuf_netlist", None),
        ("gates", "wireor_netlist", None),
    ],
)
def test_lanes_are_independent(engine, fixture_name, clock, request):
    # Lane i of one W-lane run equals a one-lane run fed lane i's
    # stimulus, on every net and at every step.
    model = request.getfixturevalue(fixture_name)
    simulator = BatchFlatSimulator if engine == "flat" else BatchGateSimulator
    lanes, steps = 16, 12
    rng = random.Random(2026)
    free = [name for name in model.inputs if name != clock]
    wide = simulator(model, lanes)
    singles = [simulator(model, 1) for _ in range(lanes)]
    for _ in range(steps):
        stimulus = {name: rng.getrandbits(lanes) for name in free}
        if clock is None:
            wide.apply(stimulus)
        else:
            wide.clock_cycle(clock, stimulus)
        for lane, single in enumerate(singles):
            own = unpack_lane(stimulus, lane)
            if clock is None:
                single.apply(own)
            else:
                single.clock_cycle(clock, own)
            assert wide.lane_values(lane) == single.values


# ---------------------------------------------------------------------------
# Verification layer
# ---------------------------------------------------------------------------


def _sabotaged_adder(adder_flat, cells):
    netlist = synthesize(adder_flat, cells)
    victim = next(
        inst for inst in netlist.all_instances() if inst.cell.kind == "XOR2"
    )
    netlist.reconnect(victim.name, {"I0": victim.net("I1")})
    return netlist


def _first_mismatch(flat, netlist, vectors):
    """1-based index, vector and mismatched outputs of the first vector on
    which a fresh reference stepper disagrees with the collapsed flat
    outputs, or None."""
    collapsed = flat.collapsed_output_expressions()
    for index, vector in enumerate(vectors, start=1):
        gates = ReferenceStepper(netlist).apply(vector)
        mismatched = tuple(
            output
            for output in flat.outputs
            if gates[output] != collapsed[output].evaluate(vector)
        )
        if mismatched:
            return index, vector, mismatched
    return None


def test_batch_combinational_equivalence_passes(adder_flat, adder_netlist):
    result = check_combinational_equivalence_batch(adder_flat, adder_netlist)
    assert result.equivalent
    assert result.mode == "combinational"
    assert result.vectors_checked == 512  # exhaustive over 9 inputs


def test_batch_combinational_equivalence_reports_the_earliest_counterexample(
    adder_flat, cells
):
    netlist = _sabotaged_adder(adder_flat, cells)
    result = check_combinational_equivalence_batch(adder_flat, netlist, max_exhaustive=9)
    index, vector, mismatched = _first_mismatch(
        adder_flat, netlist, _all_input_vectors(adder_flat.inputs)
    )
    assert not result.equivalent
    assert result.mode == "combinational"
    assert result.vectors_checked == index
    assert result.counterexample == vector
    assert result.mismatched_outputs == mismatched


def test_batch_sequential_equivalence_passes(
    updown_counter_flat, updown_counter_netlist
):
    result = check_sequential_equivalence_batch(
        updown_counter_flat, updown_counter_netlist, "CLK", cycles=8, lanes=16
    )
    assert result.equivalent
    assert result.mode == "sequential"
    assert result.vectors_checked == 8 * 16


def test_batch_sequential_equivalence_catches_sabotage(
    updown_counter_flat, updown_counter_netlist
):
    netlist = updown_counter_netlist.clone("sabotaged")
    victim = next(
        inst for inst in netlist.all_instances() if inst.cell.kind == "XOR2"
    )
    netlist.reconnect(victim.name, {"I0": victim.net("I1")})
    result = check_sequential_equivalence_batch(
        updown_counter_flat, netlist, "CLK", cycles=16, lanes=16
    )
    assert not result.equivalent
    assert result.counterexample is not None
    assert result.mismatched_outputs
    assert 0 < result.vectors_checked <= 16 * 16


def test_check_equivalence_auto_mode_dispatch(
    adder_flat, adder_netlist, updown_counter_flat, updown_counter_netlist
):
    comb = check_equivalence(adder_flat, adder_netlist)
    assert comb.equivalent and comb.mode == "combinational"
    seq = check_equivalence(
        updown_counter_flat, updown_counter_netlist, cycles=8, lanes=16
    )
    assert seq.equivalent and seq.mode == "sequential"


def test_check_equivalence_rejects_bad_requests(
    adder_flat, adder_netlist, updown_counter_flat, updown_counter_netlist
):
    with pytest.raises(VerificationError, match="unknown equivalence mode"):
        check_equivalence(adder_flat, adder_netlist, mode="formal")
    with pytest.raises(VerificationError, match="port mismatch"):
        check_equivalence(updown_counter_flat, adder_netlist)
    with pytest.raises(VerificationError, match="needs a clock input"):
        check_equivalence(adder_flat, adder_netlist, mode="sequential")
    with pytest.raises(VerificationError, match="not an input"):
        check_equivalence(
            updown_counter_flat,
            updown_counter_netlist,
            mode="sequential",
            clock="NOT_A_PIN",
        )


def test_simulate_vectors_engines_agree(adder_flat, adder_netlist):
    rng = random.Random(11)
    vectors = [
        {name: rng.randint(0, 1) for name in adder_flat.inputs} for _ in range(40)
    ]
    gates = simulate_vectors(adder_flat, adder_netlist, vectors, engine="gates")
    flat = simulate_vectors(adder_flat, adder_netlist, vectors, engine="flat")
    assert gates == flat
    assert len(gates) == len(vectors)
    with pytest.raises(VerificationError, match="unknown simulation engine"):
        simulate_vectors(adder_flat, adder_netlist, vectors, engine="spice")


def test_simulate_vectors_clocked_trace_follows_the_counter_model(
    updown_counter_flat, updown_counter_netlist
):
    stim = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    vectors = [dict(stim) for _ in range(5)]
    trace = simulate_vectors(
        updown_counter_flat, updown_counter_netlist, vectors, clock="CLK"
    )
    expected, q = [], 0
    for vector in vectors:
        q, outputs = _counter_model(q, vector)
        expected.append(outputs)
    assert trace == expected
    with pytest.raises(VerificationError, match="not an input"):
        simulate_vectors(
            updown_counter_flat, updown_counter_netlist, vectors, clock="NOT_A_PIN"
        )


def test_equivalence_check_is_cancellable_between_blocks(adder_flat, adder_netlist):
    seen = []

    def observer(stage, fraction):
        seen.append((stage, fraction))
        if len(seen) > 1:
            raise OperationCancelled("stop")

    with observed(observer):
        with pytest.raises(OperationCancelled):
            check_combinational_equivalence_batch(
                adder_flat, adder_netlist, block_lanes=64
            )
    # The first block ran (checkpoint before each block), the second was
    # cancelled before simulating anything.
    assert [stage for stage, _ in seen] == ["equivalence", "equivalence"]


# ---------------------------------------------------------------------------
# Catalog-wide: batch verification over every implementation
# ---------------------------------------------------------------------------


CATALOG_PARAMS = {
    "counter": counter_parameters(size=2, load=True, enable=True, up_or_down=UP_DOWN),
    "up_counter": counter_parameters(size=2, up_or_down=UP_ONLY),
    "ripple_counter": counter_parameters(size=2, style=TYPE_RIPPLE),
    "register_file": {"size": 2, "awidth": 1},
    "shifter": {"size": 4, "shift_distance": 1},
    "barrel_shifter": {"size": 4, "awidth": 2},
    "clock_driver": {"fanout": 4},
    "delay_element": {"size": 1, "amount": 2},
    "concat": {"high_size": 2, "low_size": 2},
    "extract": {"size": 4, "offset": 1, "width": 2},
    "alu": {"size": 2},
    "array_multiplier": {"size": 2},
    "mux_scg2": {"size": 2},
    "logic_unit": {"size": 2},
    "tri_state": {"size": 2},
    "schmitt_trigger": {"size": 1},
}


def _catalog_case(catalog, cells, name):
    flat = catalog.get(name).expand(CATALOG_PARAMS.get(name, {"size": 3}))
    return flat, synthesize(flat, cells)


def _catalog_names(catalog):
    return sorted(impl.name for impl in catalog.implementations())


def test_every_catalog_component_verifies_batch(catalog, cells):
    # tri_state is the one deliberate exception: the flat IIF models the
    # enable as a pure data passthrough while the gate TRIBUF models
    # bus-hold, so flat-vs-gate equivalence legitimately fails (see the
    # companion test below).
    names = _catalog_names(catalog)
    assert len(names) >= 25  # the sweep really is catalog-wide
    failures = []
    for name in names:
        if name == "tri_state":
            continue
        flat, netlist = _catalog_case(catalog, cells, name)
        result = check_equivalence(flat, netlist, cycles=12, lanes=16)
        if not result.equivalent:
            failures.append((name, result.to_dict()))
        elif flat.sequential() and result.mode != "sequential":
            failures.append((name, f"clocked component checked as {result.mode}"))
    assert not failures, failures


def test_tri_state_verdict_names_an_enable_low_counterexample(catalog, cells):
    flat, netlist = _catalog_case(catalog, cells, "tri_state")
    result = check_combinational_equivalence_batch(flat, netlist)
    index, vector, mismatched = _first_mismatch(flat, netlist, _all_input_vectors(flat.inputs))
    assert (result.vectors_checked, result.counterexample) == (index, vector)
    assert result.mismatched_outputs == mismatched
    # The divergence itself is the documented one: with EN=0 the flat
    # side passes data through while the gate side holds the bus.
    assert not result.equivalent
    assert result.counterexample["EN"] == 0
