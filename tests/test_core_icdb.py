"""Tests for the ICDB server facade, generation manager and knowledge server."""

from __future__ import annotations

import pytest

from repro.components.counters import counter_parameters, UP_DOWN
from repro.constraints import Constraints
from repro.core import ICDB, IcdbError, TARGET_LAYOUT, TARGET_LOGIC, default_tool_manager
from repro.core.generation import EmbeddedGenerator, GenerationError
from repro.core.instances import InstanceError, InstanceManager
from repro.core.knowledge import KnowledgeError
from repro.db import IMPLEMENTATIONS, INSTANCES
from repro.netlist.structural import StructuralNetlist


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def test_function_query_implementations_and_components(icdb):
    implementations = icdb.function_query(["ADD", "SUB"])
    assert set(implementations) == {"adder_subtractor", "alu"}
    components = icdb.function_query(["ADD", "SUB"], want="component")
    assert set(components) == {"Adder_Subtractor", "ALU"}
    assert icdb.function_query(["STORAGE", "INC"]) == ["counter"]


def test_component_query_by_type_and_functions(icdb):
    result = icdb.component_query(component="Counter", functions=["INC"])
    assert "counter" in result["implementation"]
    assert result["component"] == ["Counter"]
    by_impl = icdb.component_query(implementation="alu")
    assert set(by_impl["function"]) == {"ADD", "SUB", "AND", "OR", "XOR", "NOT"}


def test_functions_of_instance_and_implementation(icdb):
    assert "STORAGE" in icdb.functions_of("register")
    instance = icdb.request_component(implementation="register", attributes={"size": 2})
    assert icdb.functions_of(instance.name) == list(instance.functions)


def test_implementations_of_type(icdb):
    assert "mux2" in icdb.implementations_of_type("Mux_scl")


# ---------------------------------------------------------------------------
# Component requests
# ---------------------------------------------------------------------------


def test_request_component_by_component_name_prefers_matching_name(icdb):
    instance = icdb.request_component(
        component_name="counter", functions=["INC"], attributes={"size": 3}
    )
    assert instance.implementation == "counter"
    assert instance.parameters["size"] == 3
    assert instance.flat.outputs[:3] == ["Q[0]", "Q[1]", "Q[2]"]
    assert instance.netlist.cell_count() > 0
    assert instance.name in icdb.instances


def test_request_component_with_constraints_and_violations(icdb):
    ok = icdb.request_component(
        implementation="counter",
        parameters=counter_parameters(size=4, up_or_down=UP_DOWN),
        constraints=Constraints(clock_width=100.0),
    )
    assert ok.met_constraints()
    impossible = icdb.request_component(
        implementation="counter",
        parameters=counter_parameters(size=4, up_or_down=UP_DOWN),
        constraints=Constraints(clock_width=0.5),
    )
    assert not impossible.met_constraints()
    assert impossible.constraint_violations


def test_request_component_strategy_fastest(icdb):
    fast = icdb.request_component(
        implementation="ripple_carry_adder", attributes={"size": 4}, strategy="fastest"
    )
    slow = icdb.request_component(
        implementation="ripple_carry_adder", attributes={"size": 4}, strategy="cheapest"
    )
    assert fast.worst_delay() <= slow.worst_delay()
    assert fast.area >= slow.area


def test_request_component_from_iif(icdb):
    source = """
NAME: PARITY;
FUNCTIONS: XOR;
PARAMETER: size;
INORDER: I[size];
OUTORDER: P;
VARIABLE: i;
{
    #for(i=0; i<size; i++)
        P (+)= I[i];
}
"""
    instance = icdb.request_component(iif=source, parameters={"size": 5}, instance_name="parity5")
    assert instance.name == "parity5"
    assert instance.component_type == "Custom"
    assert instance.netlist.cell_count() >= 4
    assert "flat_iif" in instance.files


def test_request_component_from_structure(icdb):
    adder = icdb.request_component(implementation="ripple_carry_adder", attributes={"size": 2})
    register = icdb.request_component(implementation="register", attributes={"size": 2})
    structure = StructuralNetlist("cluster1", inputs=["X[0]", "X[1]"], outputs=["Y[0]", "Y[1]"])
    structure.add("a1", adder.name, {"I0[0]": "X[0]", "I0[1]": "X[1]", "O[0]": "s0", "O[1]": "s1"})
    structure.add("r1", register.name, {"I[0]": "s0", "I[1]": "s1", "Q[0]": "Y[0]", "Q[1]": "Y[1]"})
    cluster = icdb.request_component(structure=structure, instance_name="cluster1_inst")
    assert cluster.component_type == "Cluster"
    assert cluster.netlist.cell_count() == adder.netlist.cell_count() + register.netlist.cell_count()
    assert cluster.area > 0


def test_aspect_ratio_picks_the_area_record_for_catalog_and_cluster_requests(icdb):
    ratio = 8.0
    constraints = Constraints(aspect_ratio=ratio)
    single = icdb.request_component(
        implementation="register", attributes={"size": 8}, constraints=constraints
    )
    assert single.area_record == single.shape.best_for_aspect_ratio(ratio)
    low, high = (
        icdb.request_component(implementation="register", attributes={"size": 4})
        for _ in range(2)
    )
    structure = StructuralNetlist(
        "register_pair",
        inputs=[f"D[{i}]" for i in range(4)] + ["LOAD", "CLK"],
        outputs=[f"Y[{i}]" for i in range(4)],
    )
    shared = {"LOAD": "LOAD", "CLK": "CLK"}
    structure.add(
        "low",
        low.name,
        {**shared, **{f"I[{i}]": f"D[{i}]" for i in range(4)},
         **{f"Q[{i}]": f"m{i}" for i in range(4)}},
    )
    structure.add(
        "high",
        high.name,
        {**shared, **{f"I[{i}]": f"m{i}" for i in range(4)},
         **{f"Q[{i}]": f"Y[{i}]" for i in range(4)}},
    )
    cluster = icdb.request_component(structure=structure, constraints=constraints)
    assert cluster.area_record == cluster.shape.best_for_aspect_ratio(ratio)
    assert cluster.area_record != cluster.shape.min_area()  # the choice matters


def test_request_component_unknown_target_rejected(icdb):
    with pytest.raises(IcdbError):
        icdb.request_component(implementation="register", target="weird")


def test_request_component_no_match_raises(icdb):
    with pytest.raises(IcdbError):
        icdb.request_component(functions=["MUL", "STORAGE"])


def test_request_layout_target_generates_cif(icdb):
    instance = icdb.request_component(
        implementation="register", attributes={"size": 2}, target=TARGET_LAYOUT
    )
    assert instance.layout is not None
    assert "cif" in instance.files


# ---------------------------------------------------------------------------
# Instance queries and layouts
# ---------------------------------------------------------------------------


def test_instance_query_contents(icdb):
    instance = icdb.request_component(
        component_name="counter", functions=["INC"], attributes={"size": 4}
    )
    info = icdb.instance_query(instance.name)
    assert info["function"] == list(instance.functions)
    assert info["delay"].startswith("CW ")
    assert info["shape_function"].startswith("Alternative=1")
    assert "strip = 1" in info["area"]
    assert "entity" in info["VHDL_net_list"]
    assert "component" in info["VHDL_head"]
    assert "## function INC" in info["connect"]
    assert set(info["files"]) >= {"flat_iif", "vhdl", "delay", "shape"}
    assert icdb.connect_component(instance.name) == info["connect"]


def test_instance_query_unknown_instance(icdb):
    with pytest.raises(InstanceError):
        icdb.instance_query("nope")


def test_request_layout_by_alternative(icdb):
    instance = icdb.request_component(implementation="register", attributes={"size": 4})
    alternatives = len(instance.shape)
    layout = icdb.request_layout(instance.name, alternative=min(2, alternatives))
    assert instance.layout is layout
    assert layout.strips == instance.shape.alternative(min(2, alternatives)).strips
    row = icdb.database.table(INSTANCES).get(name=instance.name)
    assert row["target"] == TARGET_LAYOUT
    assert row["area"] == pytest.approx(layout.area)


# ---------------------------------------------------------------------------
# Designs and transactions
# ---------------------------------------------------------------------------


def test_design_transaction_lifecycle(icdb):
    icdb.start_a_design("demo")
    icdb.start_a_transaction()
    keep = icdb.request_component(implementation="register", attributes={"size": 2})
    drop = icdb.request_component(implementation="mux2", attributes={"size": 2})
    icdb.put_in_component_list(keep.name)
    removed = icdb.end_a_transaction()
    assert drop.name in removed
    assert keep.name not in removed
    assert icdb.component_list("demo") == [keep.name]
    assert drop.name not in icdb.instances
    removed_all = icdb.end_a_design("demo")
    assert keep.name in removed_all
    assert keep.name not in icdb.instances


def test_design_errors(icdb):
    with pytest.raises(IcdbError):
        icdb.start_a_transaction("never_started")
    icdb.start_a_design("dup")
    with pytest.raises(IcdbError):
        icdb.start_a_design("dup")
    with pytest.raises(IcdbError):
        icdb.end_a_transaction("never_started")
    icdb.current_design = ""
    with pytest.raises(IcdbError):
        icdb.put_in_component_list("whatever")


# ---------------------------------------------------------------------------
# Knowledge acquisition and tool management
# ---------------------------------------------------------------------------


def test_catalog_recorded_in_database(icdb):
    rows = icdb.database.table(IMPLEMENTATIONS).select()
    assert len(rows) == len(icdb.catalog)
    counter_row = icdb.database.table(IMPLEMENTATIONS).get(name="counter")
    assert counter_row["component_type"] == "Counter"


def test_insert_implementation_and_request_it(icdb):
    source = """
NAME: NAND_GATE;
FUNCTIONS: NAND;
PARAMETER: size;
INORDER: A[size], B[size];
OUTORDER: O[size];
VARIABLE: i;
{
    #for(i=0; i<size; i++)
        O[i] = !(A[i] * B[i]);
}
"""
    implementation = icdb.knowledge.insert_implementation(
        source,
        component_type="Logic_unit",
        functions=["NAND"],
        default_parameters={"size": 4},
        description="bitwise NAND",
    )
    assert implementation.name == "nand_gate"
    assert "nand_gate" in icdb.catalog
    instance = icdb.request_component(implementation="nand_gate", attributes={"size": 2})
    assert instance.netlist.cell_count() == 2
    with pytest.raises(KnowledgeError):
        icdb.knowledge.insert_implementation(
            source, component_type="Logic_unit", functions=["NAND"],
            default_parameters={"size": 4},
        )


def test_insert_implementation_validation(icdb):
    source = "NAME: T;\nPARAMETER: n;\nINORDER: A;\nOUTORDER: O;\n{ O = A; }"
    with pytest.raises(KnowledgeError):
        icdb.knowledge.insert_implementation(
            source, component_type="Buffer", functions=["BUF"], default_parameters={}
        )
    with pytest.raises(KnowledgeError):
        icdb.knowledge.insert_implementation(
            source, component_type="NotAType", functions=["BUF"], default_parameters={"n": 1}
        )


def test_tool_manager_registration_rules():
    manager = default_tool_manager()
    assert manager.generator_for_format("iif") is not None
    assert manager.unused_tools() == []
    manager.register_tool("lint", "estimate", description="never used")
    assert "lint" in manager.unused_tools()
    with pytest.raises(GenerationError):
        manager.register_generator("bad", "iif", [(1, "missing_tool")])
    manager.register_generator("ok", "vhdl", [(1, "lint")])
    assert manager.unused_tools() == []


def test_knowledge_insert_tool_and_generator(icdb):
    icdb.knowledge.insert_tool("external_placer", "layout", description="external")
    generator = icdb.knowledge.insert_generator(
        "external_flow", "cif", [(2, "external_placer")], description="ext"
    )
    assert generator.steps == ((2, "external_placer"),)
    assert icdb.database.table("tools").get(name="external_placer") is not None
    assert icdb.database.table("generators").get(name="external_flow") is not None


def test_instance_manager_names_and_errors():
    manager = InstanceManager()
    name_a = manager.new_name("x")
    name_b = manager.new_name("x")
    assert name_a != name_b
    with pytest.raises(InstanceError):
        manager.get("missing")
    assert manager.remove("missing") is None


def test_icdb_summary_mentions_counts(icdb):
    summary = icdb.summary()
    assert "implementations" in summary
    assert str(len(icdb.catalog)) in summary
