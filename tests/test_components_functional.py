"""Functional correctness of the component library (flat-level simulation).

Every component family is checked against its arithmetic / logical
specification, either exhaustively over small widths or with
hypothesis-generated operands.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.components import standard_catalog
from repro.components.counters import counter_parameters, TYPE_RIPPLE, UP_DOWN, UP_ONLY, DOWN_ONLY
from repro.sim import BatchFlatSimulator, bus_assignment, read_bus


@pytest.fixture(scope="module")
def cat():
    return standard_catalog()


def collapsed(impl, **params):
    flat = impl.expand(params or None)
    return flat, flat.collapsed_output_expressions()


# ---------------------------------------------------------------------------
# Arithmetic components
# ---------------------------------------------------------------------------


@given(a=st.integers(0, 15), b=st.integers(0, 15), cin=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_ripple_carry_adder_adds(a, b, cin):
    impl = standard_catalog().get("ripple_carry_adder")
    flat, outputs = collapsed(impl, size=4)
    env = {"Cin": cin, **bus_assignment("I0", 4, a), **bus_assignment("I1", 4, b)}
    value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
    carry = outputs["Cout"].evaluate(env)
    assert value == (a + b + cin) % 16
    assert carry == (a + b + cin) // 16


@given(a=st.integers(0, 15), b=st.integers(0, 15), mode=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_adder_subtractor(a, b, mode):
    impl = standard_catalog().get("adder_subtractor")
    flat, outputs = collapsed(impl, size=4)
    env = {"ADDSUB": mode, **bus_assignment("A", 4, a), **bus_assignment("B", 4, b)}
    value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
    expected = (a - b) % 16 if mode else (a + b) % 16
    assert value == expected


@pytest.mark.parametrize(
    "select,expected",
    [
        ((0, 0, 0), lambda a, b: (a + b) % 16),
        ((1, 0, 0), lambda a, b: (a - b) % 16),
        ((0, 0, 1), lambda a, b: a & b),
        ((1, 0, 1), lambda a, b: a | b),
        ((0, 1, 1), lambda a, b: a ^ b),
        ((1, 1, 1), lambda a, b: (~a) & 0xF),
    ],
)
def test_alu_operations(cat, select, expected):
    impl = cat.get("alu")
    flat, outputs = collapsed(impl, size=4)
    s0, s1, s2 = select
    for a, b in [(3, 5), (12, 7), (15, 15), (0, 9)]:
        env = {"S0": s0, "S1": s1, "S2": s2,
               **bus_assignment("A", 4, a), **bus_assignment("B", 4, b)}
        value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
        assert value == expected(a, b)


def test_incrementer(cat):
    impl = cat.get("incrementer")
    flat, outputs = collapsed(impl, size=4)
    for a in range(16):
        env = bus_assignment("I0", 4, a)
        value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
        assert value == (a + 1) % 16
        assert outputs["Cout"].evaluate(env) == (1 if a == 15 else 0)


def test_comparator_all_relations(cat):
    impl = cat.get("comparator")
    flat, outputs = collapsed(impl, size=3)
    for a, b in itertools.product(range(8), range(8)):
        env = {**bus_assignment("A", 3, a), **bus_assignment("B", 3, b)}
        assert outputs["OEQ"].evaluate(env) == int(a == b)
        assert outputs["ONEQ"].evaluate(env) == int(a != b)
        assert outputs["OGT"].evaluate(env) == int(a > b)
        assert outputs["OLT"].evaluate(env) == int(a < b)
        assert outputs["OGEQ"].evaluate(env) == int(a >= b)
        assert outputs["OLEQ"].evaluate(env) == int(a <= b)


@given(a=st.integers(0, 15), b=st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_array_multiplier(a, b):
    impl = standard_catalog().get("array_multiplier")
    flat, outputs = collapsed(impl, size=4)
    env = {**bus_assignment("A", 4, a), **bus_assignment("B", 4, b)}
    value = sum(outputs[f"P[{i}]"].evaluate(env) << i for i in range(8))
    assert value == a * b


# ---------------------------------------------------------------------------
# Selection / routing components
# ---------------------------------------------------------------------------


def test_mux2_and_mux4(cat):
    flat, outputs = collapsed(cat.get("mux2"), size=4)
    env = {"SEL": 0, **bus_assignment("I0", 4, 5), **bus_assignment("I1", 4, 9)}
    assert sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4)) == 5
    env["SEL"] = 1
    assert sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4)) == 9

    flat4, outputs4 = collapsed(cat.get("mux4"), size=2)
    inputs = {**bus_assignment("I0", 2, 0), **bus_assignment("I1", 2, 1),
              **bus_assignment("I2", 2, 2), **bus_assignment("I3", 2, 3)}
    for select in range(4):
        env = {**inputs, "S0": select & 1, "S1": (select >> 1) & 1}
        assert sum(outputs4[f"O[{i}]"].evaluate(env) << i for i in range(2)) == select


def test_guard_select_mux(cat):
    flat, outputs = collapsed(cat.get("mux_scg2"), size=2)
    env = {"G0": 1, "G1": 0, **bus_assignment("I0", 2, 2), **bus_assignment("I1", 2, 1)}
    assert sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(2)) == 2
    env = {"G0": 0, "G1": 1, **bus_assignment("I0", 2, 2), **bus_assignment("I1", 2, 1)}
    assert sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(2)) == 1


def test_decoder_one_hot(cat):
    flat, outputs = collapsed(cat.get("decoder"), size=2)
    for code in range(4):
        env = {"EN": 1, **bus_assignment("I", 2, code)}
        onehot = [outputs[f"O[{w}]"].evaluate(env) for w in range(4)]
        assert onehot == [1 if w == code else 0 for w in range(4)]
    env = {"EN": 0, **bus_assignment("I", 2, 2)}
    assert all(outputs[f"O[{w}]"].evaluate(env) == 0 for w in range(4))


def test_priority_encoder(cat):
    flat, outputs = collapsed(cat.get("encoder"), size=2)
    for pattern in range(1, 16):
        env = bus_assignment("I", 4, pattern)
        expected = max(i for i in range(4) if (pattern >> i) & 1)
        code = sum(outputs[f"O[{k}]"].evaluate(env) << k for k in range(2))
        assert code == expected
        assert outputs["V"].evaluate(env) == 1
    assert outputs["V"].evaluate(bus_assignment("I", 4, 0)) == 0


def test_constant_shifter(cat):
    flat, outputs = collapsed(cat.get("shifter"), size=4, shift_distance=2)
    for a in range(16):
        env = bus_assignment("I", 4, a)
        value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
        assert value == (a << 2) & 0xF


def test_barrel_shifter_left_and_right(cat):
    flat, outputs = collapsed(cat.get("barrel_shifter"), size=4, awidth=2)
    for a, amount, direction in itertools.product(range(16), range(4), (0, 1)):
        env = {"DIR": direction, **bus_assignment("I", 4, a), **bus_assignment("SH", 2, amount)}
        value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
        expected = ((a >> amount) if direction else (a << amount)) & 0xF
        assert value == expected


def test_logic_unit_operations(cat):
    flat, outputs = collapsed(cat.get("logic_unit"), size=4)
    cases = {(0, 0): lambda a, b: a & b, (0, 1): lambda a, b: a | b,
             (1, 0): lambda a, b: a ^ b, (1, 1): lambda a, b: (~a) & 0xF}
    for (s1, s0), func in cases.items():
        for a, b in [(5, 3), (12, 10), (15, 0)]:
            env = {"S0": s0, "S1": s1, **bus_assignment("A", 4, a), **bus_assignment("B", 4, b)}
            value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
            assert value == func(a, b)


def test_concat_and_extract(cat):
    flat, outputs = collapsed(cat.get("concat"), high_size=2, low_size=2)
    env = {**bus_assignment("H", 2, 3), **bus_assignment("L", 2, 1)}
    value = sum(outputs[f"O[{i}]"].evaluate(env) << i for i in range(4))
    assert value == (3 << 2) | 1

    flat2, outputs2 = collapsed(cat.get("extract"), size=8, offset=3, width=3)
    env = bus_assignment("I", 8, 0b10110100)
    value = sum(outputs2[f"O[{i}]"].evaluate(env) << i for i in range(3))
    assert value == (0b10110100 >> 3) & 0b111


# ---------------------------------------------------------------------------
# Sequential components
# ---------------------------------------------------------------------------


def test_register_loads_and_holds(cat):
    flat = cat.get("register").expand({"size": 4})
    sim = BatchFlatSimulator(flat, 1)
    sim.clock_cycle("CLK", {"LOAD": 1, **bus_assignment("I", 4, 11)})
    assert read_bus(sim.values, "Q", 4) == 11
    sim.clock_cycle("CLK", {"LOAD": 0, **bus_assignment("I", 4, 5)})
    assert read_bus(sim.values, "Q", 4) == 11  # hold


def test_shift_register_modes(cat):
    flat = cat.get("shift_register").expand({"size": 4})
    sim = BatchFlatSimulator(flat, 1)
    # Parallel load 0b1001.
    sim.clock_cycle("CLK", {"S0": 1, "S1": 1, "SIN_L": 0, "SIN_R": 0,
                            **bus_assignment("I", 4, 0b1001)})
    assert read_bus(sim.values, "Q", 4) == 0b1001
    # Shift left with 1 entering at bit 0.
    sim.clock_cycle("CLK", {"S0": 1, "S1": 0, "SIN_L": 1, "SIN_R": 0,
                            **bus_assignment("I", 4, 0)})
    assert read_bus(sim.values, "Q", 4) == ((0b1001 << 1) | 1) & 0xF
    # Hold.
    sim.clock_cycle("CLK", {"S0": 0, "S1": 0, "SIN_L": 0, "SIN_R": 0,
                            **bus_assignment("I", 4, 0)})
    assert read_bus(sim.values, "Q", 4) == ((0b1001 << 1) | 1) & 0xF


def test_register_file_write_then_read(cat):
    flat = cat.get("register_file").expand({"size": 4, "awidth": 2})
    sim = BatchFlatSimulator(flat, 1)
    for word, value in [(0, 7), (1, 12), (2, 3), (3, 9)]:
        sim.clock_cycle("CLK", {"WE": 1, **bus_assignment("WA", 2, word),
                                **bus_assignment("RA", 2, word),
                                **bus_assignment("WD", 4, value)})
    for word, value in [(0, 7), (1, 12), (2, 3), (3, 9)]:
        sim.apply({"WE": 0, **bus_assignment("RA", 2, word)})
        assert read_bus(sim.values, "RD", 4) == value


def test_counter_up_down_and_async_load(cat):
    flat = cat.get("counter").expand(
        counter_parameters(size=4, load=True, enable=True, up_or_down=UP_DOWN)
    )
    sim = BatchFlatSimulator(flat, 1)
    base = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    for expected in (1, 2, 3):
        sim.clock_cycle("CLK", base)
        assert read_bus(sim.values, "Q", 4) == expected
    down = dict(base, DWUP=1)
    for expected in (2, 1, 0, 15):
        sim.clock_cycle("CLK", down)
        assert read_bus(sim.values, "Q", 4) == expected
    # Asynchronous parallel load (active-low LOAD).
    sim.apply({"LOAD": 0, **bus_assignment("D", 4, 13)})
    assert read_bus(sim.values, "Q", 4) == 13


def test_counter_enable_gates_counting(cat):
    flat = cat.get("counter").expand(
        counter_parameters(size=4, enable=True, up_or_down=UP_ONLY)
    )
    sim = BatchFlatSimulator(flat, 1)
    stim = {"LOAD": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    sim.clock_cycle("CLK", dict(stim, ENA=1))
    sim.clock_cycle("CLK", dict(stim, ENA=1))
    assert read_bus(sim.values, "Q", 4) == 2
    sim.clock_cycle("CLK", dict(stim, ENA=0))
    sim.clock_cycle("CLK", dict(stim, ENA=0))
    assert read_bus(sim.values, "Q", 4) == 2  # disabled: no counting
    sim.clock_cycle("CLK", dict(stim, ENA=1))
    assert read_bus(sim.values, "Q", 4) == 3


def test_down_only_counter(cat):
    flat = cat.get("counter").expand(counter_parameters(size=3, up_or_down=DOWN_ONLY))
    sim = BatchFlatSimulator(flat, 1)
    stim = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 3, 0)}
    values = []
    for _ in range(3):
        sim.clock_cycle("CLK", stim)
        values.append(read_bus(sim.values, "Q", 3))
    assert values == [7, 6, 5]


def test_ripple_counter_counts(cat):
    flat = cat.get("counter").expand(counter_parameters(size=4, style=TYPE_RIPPLE))
    sim = BatchFlatSimulator(flat, 1)
    stim = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    values = [read_bus(sim.values, "Q", 4)]
    for _ in range(6):
        sim.clock_cycle("CLK", stim)
        values.append(read_bus(sim.values, "Q", 4))
    # The ripple counter advances on the falling edge of CLK, so the value
    # observed after each rising edge lags the cycle count by one.
    assert values == [0, 0, 1, 2, 3, 4, 5]


def test_counter_minmax_flags_terminal_count(cat):
    flat = cat.get("counter").expand(counter_parameters(size=2, up_or_down=UP_ONLY))
    sim = BatchFlatSimulator(flat, 1)
    stim = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 2, 0)}
    seen_minmax = []
    for _ in range(4):
        out = sim.clock_cycle("CLK", stim)
        seen_minmax.append(out["MINMAX"])
    # MINMAX pulses (with CLK high) when the counter reaches all ones.
    assert 1 in seen_minmax
