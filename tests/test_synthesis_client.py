"""Tests for the behavioral-synthesis client (DFG, scheduling, allocation,
datapath construction, the Figure 13 simple computer)."""

from __future__ import annotations

import pytest

from repro.constraints import Constraints
from repro.layout.slicing import Block, Shape
from repro.synthesis import (
    AllocationError,
    DataFlowGraph,
    DfgError,
    SchedulingError,
    allocate,
    build_datapath,
    build_simple_computer,
    choose_clock_width,
    control_logic_iif,
    expression_dfg,
    function_delay_table,
    generate_control_logic,
    schedule_asap,
    storage_requirements,
)


# ---------------------------------------------------------------------------
# DFG
# ---------------------------------------------------------------------------


def test_dfg_construction_and_queries():
    dfg = expression_dfg()
    dfg.validate()
    assert set(dfg.functions_used()) == {"ADD", "SUB", "MUL", "GT"}
    add = dfg.operation("add1")
    assert dfg.producer_of("sum") is add
    assert {op.name for op in dfg.successors(add)} == {"mul1", "cmp1"}
    assert dfg.predecessors(dfg.operation("mul1")) == [add, dfg.operation("sub1")]
    order = [op.name for op in dfg.topological_order()]
    assert order.index("add1") < order.index("mul1")


def test_dfg_error_cases():
    dfg = DataFlowGraph("bad")
    dfg.add_input("a")
    with pytest.raises(DfgError):
        dfg.add_input("a")
    with pytest.raises(DfgError):
        dfg.add_operation("op1", "ADD", ("a", "missing"))
    dfg.add_operation("op1", "ADD", ("a", "a"), result="x")
    with pytest.raises(DfgError):
        dfg.add_operation("op1", "SUB", ("a", "a"))
    with pytest.raises(DfgError):
        dfg.add_operation("op2", "SUB", ("a", "a"), result="x")
    with pytest.raises(DfgError):
        dfg.add_output("never_defined")
    with pytest.raises(DfgError):
        dfg.operation("missing_op")


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


DELAYS = {"ADD": 10.0, "SUB": 12.0, "MUL": 45.0, "GT": 8.0}


def test_choose_clock_width_from_delays():
    assert choose_clock_width(DELAYS) == pytest.approx(45.0 * 1.1)
    with pytest.raises(SchedulingError):
        choose_clock_width({})


def test_schedule_chaining_within_clock():
    dfg = expression_dfg()
    schedule = schedule_asap(dfg, clock_width=25.0, function_delays=DELAYS)
    # add (10) then cmp (8) chain into one step; mul (45) is multi-cycle.
    cmp_entry = schedule.entry("cmp1")
    add_entry = schedule.entry("add1")
    assert cmp_entry.start_step == add_entry.start_step
    assert "sum" in cmp_entry.chained_after
    mul_entry = schedule.entry("mul1")
    assert mul_entry.steps == 2
    assert schedule.steps >= mul_entry.end_step + 1


def test_schedule_without_chaining_adds_steps():
    dfg = expression_dfg()
    chained = schedule_asap(dfg, 25.0, DELAYS, allow_chaining=True)
    unchained = schedule_asap(dfg, 25.0, DELAYS, allow_chaining=False)
    assert unchained.entry("cmp1").start_step > chained.entry("cmp1").start_step
    assert unchained.steps >= chained.steps


def test_schedule_render_and_usage():
    dfg = expression_dfg()
    schedule = schedule_asap(dfg, 60.0, DELAYS)
    text = schedule.render()
    assert "step 0" in text
    usage = schedule.functions_per_step()
    assert usage[0].get("ADD") == 1
    with pytest.raises(SchedulingError):
        schedule_asap(dfg, 0.0, DELAYS)
    with pytest.raises(SchedulingError):
        schedule.entry("not_an_op")


def test_function_delay_table_uses_icdb(icdb):
    table = function_delay_table(icdb, ["ADD", "GT"], width=4)
    assert set(table) == {"ADD", "GT"}
    assert all(value > 0 for value in table.values())


# ---------------------------------------------------------------------------
# Allocation / binding
# ---------------------------------------------------------------------------


def test_allocation_shares_units_across_steps(icdb):
    dfg = DataFlowGraph("share")
    for name in ("a", "b", "c"):
        dfg.add_input(name, width=4)
    dfg.add_operation("add1", "ADD", ("a", "b"), result="s1")
    dfg.add_operation("add2", "ADD", ("s1", "c"), result="s2")
    dfg.add_output("s2")
    delays = {"ADD": 30.0}
    schedule = schedule_asap(dfg, 35.0, delays)
    allocation = allocate(icdb, schedule, width=4)
    # The two additions are in different steps, so one adder suffices.
    assert len(allocation.units) == 1
    assert allocation.sharing_factor() == pytest.approx(2.0)
    assert allocation.unit_of("add1") is allocation.unit_of("add2")
    assert allocation.total_area() == allocation.units[0].area


def test_allocation_needs_two_units_for_parallel_ops(icdb):
    dfg = DataFlowGraph("parallel")
    for name in ("a", "b", "c", "d"):
        dfg.add_input(name, width=4)
    dfg.add_operation("add1", "ADD", ("a", "b"), result="s1")
    dfg.add_operation("add2", "ADD", ("c", "d"), result="s2")
    dfg.add_output("s1")
    dfg.add_output("s2")
    schedule = schedule_asap(dfg, 40.0, {"ADD": 30.0})
    allocation = allocate(icdb, schedule, width=4)
    assert len(allocation.units_for_function("ADD")) == 2
    assert "units" in allocation.render()


def test_allocation_prefers_multifunction_components(icdb):
    dfg = DataFlowGraph("chain_add_sub")
    for name in ("a", "b", "c"):
        dfg.add_input(name, width=4)
    dfg.add_operation("add1", "ADD", ("a", "b"), result="s1")
    dfg.add_operation("sub1", "SUB", ("s1", "c"), result="d1")
    dfg.add_output("d1")
    schedule = schedule_asap(dfg, 40.0, {"ADD": 30.0, "SUB": 30.0}, allow_chaining=False)
    allocation = allocate(icdb, schedule, width=4)
    add_unit = allocation.unit_of("add1")
    sub_unit = allocation.unit_of("sub1")
    # ADD and SUB land in different steps, so a shared adder/subtractor (or
    # ALU) should serve both.
    assert add_unit is sub_unit
    assert {"ADD", "SUB"} <= set(add_unit.functions)


def test_storage_requirements_cover_cross_step_values(icdb):
    dfg = expression_dfg()
    schedule = schedule_asap(dfg, 25.0, DELAYS)
    lifetimes = storage_requirements(schedule)
    assert "sum" in lifetimes or "diff" in lifetimes
    for produced, used in lifetimes.values():
        assert used >= produced


# ---------------------------------------------------------------------------
# Datapath and control logic
# ---------------------------------------------------------------------------


def test_control_logic_iif_generates_sequencer(icdb):
    source = control_logic_iif("CTRL", steps=4, command_bits=3)
    assert "NAME: CTRL;" in source
    instance = generate_control_logic(icdb, "ctrl_test", steps=4, command_bits=3)
    assert instance.netlist.flip_flop_count() == 4
    assert any(name.startswith("CMD") for name in instance.outputs)
    with pytest.raises(Exception):
        control_logic_iif("CTRL", steps=1, command_bits=1)


def test_build_datapath_produces_structure_and_control(icdb):
    dfg = expression_dfg()
    schedule = schedule_asap(dfg, 60.0, DELAYS)
    allocation = allocate(icdb, schedule, width=4)
    datapath = build_datapath(icdb, schedule, allocation, width=4)
    assert datapath.control is not None
    assert datapath.functional_units
    assert datapath.registers
    assert datapath.total_area() > 0
    labels = datapath.structure.instance_labels()
    assert "control" in labels
    assert len(datapath.all_instances()) == (
        len(datapath.functional_units) + len(datapath.registers)
        + len(datapath.multiplexers) + 1
    )
    vhdl = datapath.structure.to_vhdl()
    assert "architecture structure" in vhdl
    assert "render" and "datapath" in datapath.render()


# ---------------------------------------------------------------------------
# Figure 13 simple computer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def simple_computer(tmp_path_factory):
    from repro.components import standard_catalog
    from repro.core import ICDB

    server = ICDB(catalog=standard_catalog(fresh=True),
                  store_root=tmp_path_factory.mktemp("cpu_store"))
    return build_simple_computer(server, width=8)


def test_simple_computer_components(simple_computer):
    assert set(simple_computer.datapath_parts) == {
        "alu", "accumulator", "operand_register", "program_counter", "operand_mux",
    }
    assert simple_computer.control.netlist.flip_flop_count() == 8
    assert simple_computer.total_component_area() > 0


def test_simple_computer_floorplans_match_paper_shape(simple_computer):
    left = simple_computer.floorplan_control_left()
    bottom = simple_computer.floorplan_control_bottom()
    # The bottom-control floorplan is wider than tall (about 2:1); the
    # left-control floorplan is closer to square.
    assert bottom.aspect_ratio > 1.5
    assert abs(bottom.aspect_ratio - 2.0) < 1.0
    assert left.aspect_ratio < bottom.aspect_ratio
    # Control logic is tall-and-thin on the left, short-and-wide on the bottom.
    control_left = left.placement_of("control")
    control_bottom = bottom.placement_of("control")
    assert control_left.height > control_left.width
    assert control_bottom.width > control_bottom.height
    # Both floorplans are reasonably tight around the component areas.
    assert left.utilization() > 0.5
    assert bottom.utilization() > 0.5
