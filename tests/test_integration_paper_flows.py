"""End-to-end integration tests mirroring the paper's usage scenarios.

These tie several subsystems together: CQL in, generated artifacts out, and
cross-checks between the estimators, the layout generator, the simulators
and the database records.
"""

from __future__ import annotations

import pytest

from repro.components.counters import FIGURE5_CONFIGURATIONS, counter_parameters, UP_DOWN
from repro.constraints import Constraints
from repro.cql import CqlExecutor
from repro.db import INSTANCES
from repro.sim import BatchGateSimulator, bus_assignment, read_bus


def test_section3_running_example(shared_icdb):
    """The Section 3 scenario: query, request, instance query, layout."""
    executor = CqlExecutor(shared_icdb)
    names = executor.execute_text(
        "command: component_query; component: counter; function: (INC);"
        "attribute: (size:5); implementation: ?s[]"
    )["implementation"]
    assert "counter" in names

    created = executor.execute_text(
        "command: request_component; component_name: counter; attribute: (size:5);"
        "function: (INC); clock_width: 30; set_up_time: 30; generated_component: ?s"
    )
    instance_name = created["instance"]
    instance = shared_icdb.instance(instance_name)
    assert instance.parameters["size"] == 5

    info = shared_icdb.instance_query(instance_name)
    assert info["delay"].splitlines()[0].startswith("CW ")
    assert info["shape_function"].count("Alternative=") == len(instance.shape)

    layout = shared_icdb.request_layout(instance_name, alternative=1)
    assert layout.strips == instance.shape.alternative(1).strips
    # The database row reflects the layout.
    row = shared_icdb.database.table(INSTANCES).get(name=instance_name)
    assert row["strips"] == layout.strips


def test_generated_counter_instance_is_functionally_correct(shared_icdb):
    """The netlist ICDB returns actually counts (gate-level simulation)."""
    instance = shared_icdb.request_component(
        implementation="counter",
        parameters=counter_parameters(size=4, up_or_down=UP_DOWN, load=True, enable=True),
        instance_name=shared_icdb.instances.new_name("integ_counter"),
    )
    simulator = BatchGateSimulator(instance.netlist, 1)
    stimulus = {"LOAD": 1, "ENA": 1, "DWUP": 0, **bus_assignment("D", 4, 0)}
    values = []
    for _ in range(3):
        outputs = simulator.clock_cycle("CLK", stimulus)
        values.append(read_bus(outputs, "Q", 4))
    assert values == [1, 2, 3]
    stimulus["DWUP"] = 1
    outputs = simulator.clock_cycle("CLK", stimulus)
    assert read_bus(outputs, "Q", 4) == 2


def test_estimates_scale_with_component_size(shared_icdb):
    """Bigger attribute values give bigger, slower components."""
    small = shared_icdb.request_component(
        implementation="ripple_carry_adder", attributes={"size": 4},
        instance_name=shared_icdb.instances.new_name("adder4"),
    )
    large = shared_icdb.request_component(
        implementation="ripple_carry_adder", attributes={"size": 12},
        instance_name=shared_icdb.instances.new_name("adder12"),
    )
    assert large.area > small.area * 2
    assert large.delay_to("Cout") > small.delay_to("Cout")
    assert large.netlist.cell_count() > small.netlist.cell_count()


def test_figure5_instances_recorded_in_database(shared_icdb):
    rows = shared_icdb.area_time_tradeoff(
        "counter", FIGURE5_CONFIGURATIONS[:3], delay_output="Q[4]"
    )
    for row in rows:
        record = shared_icdb.database.table(INSTANCES).get(name=row["instance"])
        assert record is not None
        assert record["area"] == pytest.approx(row["area"])
        assert record["implementation"] == "counter"


def test_cluster_request_matches_sum_of_parts(shared_icdb):
    """A VHDL-netlist (cluster) request estimates the merged gate netlist."""
    from repro.netlist.structural import StructuralNetlist

    alu = shared_icdb.request_component(
        implementation="alu", attributes={"size": 4},
        instance_name=shared_icdb.instances.new_name("cluster_alu"),
    )
    register = shared_icdb.request_component(
        implementation="register", attributes={"size": 4},
        instance_name=shared_icdb.instances.new_name("cluster_reg"),
    )
    structure = StructuralNetlist("alu_reg_cluster", inputs=[], outputs=[])
    structure.add("u_alu", alu.name, {})
    structure.add("u_reg", register.name, {})
    cluster = shared_icdb.request_component(
        structure=structure,
        instance_name=shared_icdb.instances.new_name("alu_reg_cluster"),
    )
    total_cells = alu.netlist.cell_count() + register.netlist.cell_count()
    assert cluster.netlist.cell_count() == total_cells
    # A single merged layout is denser than two separate bounding boxes, but
    # the cluster can never be smaller than the bigger of its two parts.
    assert cluster.area > max(alu.area, register.area) * 0.8
    assert len(cluster.shape) >= 1
