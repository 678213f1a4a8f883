"""Tests for the bit-parallel batch engines and the verification layer.

The batch simulators of :mod:`repro.sim.batch` promise *lane-for-lane
identity* with the scalar reference engines; these tests hold them to it
on combinational sweeps, sequential lock-step traces, the tristate /
wired-or resolution semantics, and seeded random netlists -- and then
exercise the verification layer (:mod:`repro.sim.verify`) built on top,
including a catalog-wide equivalence sweep over every implementation.
"""

from __future__ import annotations

import random

import pytest

from repro.components.counters import (
    TYPE_RIPPLE,
    UP_DOWN,
    UP_ONLY,
    counter_parameters,
)
from repro.core.progress import OperationCancelled, observed
from repro.logic.milo import synthesize
from repro.netlist import GateNetlist
from repro.sim import (
    BatchFlatSimulator,
    BatchGateSimulator,
    FlatSimulator,
    GateSimulationError,
    GateSimulator,
    SimulationError,
    VerificationError,
    bus_assignment,
    check_combinational_equivalence,
    check_combinational_equivalence_batch,
    check_equivalence,
    check_sequential_equivalence_batch,
    pack_vectors,
    simulate_vectors,
    unpack_lane,
    unpack_lanes,
)


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
# Combinational lane identity against the scalar engines
# ---------------------------------------------------------------------------


def _all_input_vectors(inputs):
    count = len(inputs)
    return [
        {name: (row >> bit) & 1 for bit, name in enumerate(inputs)}
        for row in range(1 << count)
    ]


def test_batch_gate_simulator_matches_scalar_on_adder(adder_netlist):
    vectors = _all_input_vectors(adder_netlist.inputs)
    packed = pack_vectors(vectors, adder_netlist.inputs)
    batch_out = BatchGateSimulator(adder_netlist, len(vectors)).apply(packed)
    scalar = GateSimulator(adder_netlist)
    for lane, vector in enumerate(vectors):
        assert unpack_lane(batch_out, lane) == scalar.apply(vector)


def test_batch_flat_simulator_matches_scalar_on_adder(adder_flat):
    vectors = _all_input_vectors(adder_flat.inputs)
    packed = pack_vectors(vectors, adder_flat.inputs)
    batch_out = BatchFlatSimulator(adder_flat, len(vectors)).apply(packed)
    scalar = FlatSimulator(adder_flat)
    for lane, vector in enumerate(vectors):
        assert unpack_lane(batch_out, lane) == scalar.apply(vector)


def test_batch_gate_simulator_adds_correctly(adder_netlist):
    # A semantic spot check independent of the scalar engine: 64 random
    # additions, one lane each.
    rng = random.Random(2026)
    cases = [(rng.randrange(16), rng.randrange(16), rng.randrange(2)) for _ in range(64)]
    vectors = [
        {"Cin": cin, **bus_assignment("I0", 4, a), **bus_assignment("I1", 4, b)}
        for a, b, cin in cases
    ]
    packed = pack_vectors(vectors, adder_netlist.inputs)
    out = BatchGateSimulator(adder_netlist, len(vectors)).apply(packed)
    for lane, (a, b, cin) in enumerate(cases):
        values = unpack_lane(out, lane)
        total = sum(values[f"O[{i}]"] << i for i in range(4)) + (values["Cout"] << 4)
        assert total == a + b + cin


# ---------------------------------------------------------------------------
# Sequential lock-step lane identity
# ---------------------------------------------------------------------------


def _random_lane_streams(rng, inputs, lanes, cycles):
    """Per-cycle lane-packed stimulus plus its per-lane scalar view."""
    packed_cycles = []
    scalar_cycles = []
    for _ in range(cycles):
        stimulus = {name: rng.getrandbits(lanes) for name in inputs}
        packed_cycles.append(stimulus)
        scalar_cycles.append([unpack_lane(stimulus, lane) for lane in range(lanes)])
    return packed_cycles, scalar_cycles


def test_batch_counter_lock_step_matches_scalar_lanes(
    updown_counter_flat, updown_counter_netlist
):
    lanes, cycles = 8, 12
    rng = random.Random(1990)
    free = [name for name in updown_counter_flat.inputs if name != "CLK"]
    packed_cycles, scalar_cycles = _random_lane_streams(rng, free, lanes, cycles)

    batch_flat = BatchFlatSimulator(updown_counter_flat, lanes)
    batch_gate = BatchGateSimulator(updown_counter_netlist, lanes)
    scalar_flats = [FlatSimulator(updown_counter_flat) for _ in range(lanes)]
    scalar_gates = [GateSimulator(updown_counter_netlist) for _ in range(lanes)]

    for cycle in range(cycles):
        flat_out = batch_flat.clock_cycle("CLK", packed_cycles[cycle])
        gate_out = batch_gate.clock_cycle("CLK", packed_cycles[cycle])
        for lane in range(lanes):
            stimulus = scalar_cycles[cycle][lane]
            assert unpack_lane(flat_out, lane) == scalar_flats[lane].clock_cycle(
                "CLK", stimulus
            )
            assert unpack_lane(gate_out, lane) == scalar_gates[lane].clock_cycle(
                "CLK", stimulus
            )


# ---------------------------------------------------------------------------
# TRIBUF / WIREOR resolution semantics (satellite: pinned-down tristate)
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


def test_tribuf_bus_hold_semantics_scalar(tribuf_netlist):
    # Enabled: the data input drives the output.  Disabled: the output
    # *holds* its last driven value (bus-hold model) -- it does not float
    # or fall to 0.
    sim = GateSimulator(tribuf_netlist)
    assert sim.apply({"D": 1, "EN": 1})["Y"] == 1
    assert sim.apply({"D": 0, "EN": 0})["Y"] == 1  # held high
    assert sim.apply({"D": 0, "EN": 1})["Y"] == 0
    assert sim.apply({"D": 1, "EN": 0})["Y"] == 0  # held low


def test_wireor_resolves_as_or(wireor_netlist):
    sim = GateSimulator(wireor_netlist)
    # Both drivers enabled: wired-or resolution is OR of the drivers.
    assert sim.apply({"A": 1, "B": 0, "EA": 1, "EB": 1})["Y"] == 1
    assert sim.apply({"A": 0, "B": 0, "EA": 1, "EB": 1})["Y"] == 0
    assert sim.apply({"A": 0, "B": 1, "EA": 1, "EB": 1})["Y"] == 1
    # One driver disabled: its bus-hold value (last driven) joins the OR.
    assert sim.apply({"A": 0, "B": 1, "EA": 0, "EB": 1})["Y"] == 1


@pytest.mark.parametrize("fixture_name", ["tribuf_netlist", "wireor_netlist"])
def test_batch_matches_scalar_on_tristate_netlists(fixture_name, request):
    # Bus-hold makes TRIBUF stateful, so identity must hold across a whole
    # stimulus *sequence*, not just independent vectors.
    netlist = request.getfixturevalue(fixture_name)
    lanes, steps = 16, 24
    rng = random.Random(7)
    batch = BatchGateSimulator(netlist, lanes)
    scalars = [GateSimulator(netlist) for _ in range(lanes)]
    for _ in range(steps):
        stimulus = {name: rng.getrandbits(lanes) for name in netlist.inputs}
        batch_out = batch.apply(stimulus)
        for lane in range(lanes):
            scalar_out = scalars[lane].apply(unpack_lane(stimulus, lane))
            assert unpack_lane(batch_out, lane) == scalar_out


# ---------------------------------------------------------------------------
# Sequential cell semantics (satellite: untested _sequential_step paths)
# ---------------------------------------------------------------------------


@pytest.fixture()
def dffsr_netlist(cells):
    netlist = GateNetlist("sr", ["D", "CK", "S", "R"], ["Q"], cells)
    netlist.add_instance(
        cells.by_kind("DFF_SR"), {"D": "D", "CK": "CK", "S": "S", "R": "R", "Q": "Q"}
    )
    return netlist


def test_dff_sr_async_set_wins_over_reset(dffsr_netlist):
    sim = GateSimulator(dffsr_netlist)
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
    sim = GateSimulator(netlist)
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
    sim = GateSimulator(netlist)
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


@pytest.fixture()
def mixed_sequential_netlist(cells):
    """Every sequential cell kind in one netlist, sharing data and clocks."""
    netlist = GateNetlist(
        "mixed_seq",
        ["D", "CK", "S", "R", "G"],
        ["Q_DFF", "Q_DFFN", "Q_SR", "Q_NSR", "Q_LH", "Q_LL"],
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
    return netlist


def test_batch_matches_scalar_on_mixed_sequential_netlist(mixed_sequential_netlist):
    # Free-running apply() (no fixed clocking discipline) exercises rising
    # and falling edges, async set/reset priority and latch transparency in
    # arbitrary interleavings; batch lanes must track scalar replicas
    # exactly through all of it.
    netlist = mixed_sequential_netlist
    lanes, steps = 16, 30
    rng = random.Random(42)
    batch = BatchGateSimulator(netlist, lanes)
    scalars = [GateSimulator(netlist) for _ in range(lanes)]
    for _ in range(steps):
        stimulus = {name: rng.getrandbits(lanes) for name in netlist.inputs}
        batch_out = batch.apply(stimulus)
        for lane in range(lanes):
            scalar_out = scalars[lane].apply(unpack_lane(stimulus, lane))
            assert unpack_lane(batch_out, lane) == scalar_out


# ---------------------------------------------------------------------------
# Property test: random netlists, random stimulus
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
def test_batch_matches_scalar_on_random_netlists(cells, seed):
    rng = random.Random(seed)
    netlist = _random_netlist(cells, rng)
    lanes = 64
    stimulus = {name: rng.getrandbits(lanes) for name in netlist.inputs}
    batch_out = BatchGateSimulator(netlist, lanes).apply(stimulus)
    for lane in range(lanes):
        scalar_out = GateSimulator(netlist).apply(unpack_lane(stimulus, lane))
        assert unpack_lane(batch_out, lane) == scalar_out, f"lane {lane} diverged"


# ---------------------------------------------------------------------------
# Verification layer
# ---------------------------------------------------------------------------


def test_batch_combinational_equivalence_passes(adder_flat, adder_netlist):
    result = check_combinational_equivalence_batch(adder_flat, adder_netlist)
    assert result.equivalent
    assert result.mode == "combinational"
    assert result.vectors_checked == 512  # exhaustive over 9 inputs


def test_batch_combinational_equivalence_matches_scalar_on_broken_netlist(
    adder_flat, cells
):
    netlist = synthesize(adder_flat, cells)
    victim = next(
        inst for inst in netlist.all_instances() if inst.cell.kind == "XOR2"
    )
    netlist.reconnect(victim.name, {"I0": victim.net("I1")})
    scalar = check_combinational_equivalence(adder_flat, netlist, max_exhaustive=9)
    batch = check_combinational_equivalence_batch(adder_flat, netlist, max_exhaustive=9)
    assert not batch.equivalent
    # Earliest-vector counterexample extraction: the batch checker reports
    # exactly what the scalar checker reports, field for field.
    assert batch.equivalent == scalar.equivalent
    assert batch.vectors_checked == scalar.vectors_checked
    assert batch.counterexample == scalar.counterexample
    assert batch.mismatched_outputs == scalar.mismatched_outputs
    assert batch.mode == scalar.mode


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


def test_simulate_vectors_clocked_trace_matches_scalar(
    updown_counter_flat, updown_counter_netlist
):
    stim = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    vectors = [dict(stim) for _ in range(5)]
    trace = simulate_vectors(
        updown_counter_flat, updown_counter_netlist, vectors, clock="CLK"
    )
    scalar = GateSimulator(updown_counter_netlist)
    expected = [scalar.clock_cycle("CLK", stim) for _ in range(5)]
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
    # bus-hold, so flat-vs-gate equivalence legitimately fails -- but the
    # batch checker must still report *exactly* what the scalar checker
    # reports (see the companion test below).
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


def test_tri_state_batch_reports_exactly_the_scalar_verdict(catalog, cells):
    flat, netlist = _catalog_case(catalog, cells, "tri_state")
    scalar = check_combinational_equivalence(flat, netlist)
    batch = check_combinational_equivalence_batch(flat, netlist)
    assert scalar.equivalent == batch.equivalent
    assert scalar.vectors_checked == batch.vectors_checked
    assert scalar.counterexample == batch.counterexample
    assert scalar.mismatched_outputs == batch.mismatched_outputs
    # And the divergence itself is the documented one: with EN=0 the flat
    # side passes data through while the gate side holds the bus.
    assert not batch.equivalent
    assert batch.counterexample["EN"] == 0
