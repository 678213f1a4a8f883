"""Tests for the CQL parser, executor, ICDB() call interface and interactive
session."""

from __future__ import annotations

import io

import pytest

from jobs_testlib import make_gated_service

from repro.core.icdb import IcdbError
from repro.cql import (
    CqlExecutionError,
    CqlExecutor,
    CqlSyntaxError,
    InteractiveSession,
    OutParam,
    VariableSlot,
    format_result,
    make_icdb_call,
    parse_command,
    split_terms,
)
from repro.cql.interactive import main as interactive_main


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def test_split_terms_and_parse_basic_command():
    pairs = split_terms("command: component_query; component: counter; function: (INC)")
    assert pairs[0] == ("command", "component_query")
    command = parse_command(
        "command: component_query; component: counter; function: (INC); implementation: ?s[]"
    )
    assert command.command == "component_query"
    assert command.get("component") == "counter"
    assert command.get("function") == ["INC"]
    slot = command.get("implementation")
    assert isinstance(slot, VariableSlot)
    assert slot.direction == "out" and slot.is_array


def test_parse_attribute_lists_and_aliases():
    command = parse_command(
        "command: request_component; component_name: counter;"
        "attribute: (size:5, input_type:high); ICDB components: ?s[];"
        "set_up_time: 30; generated_component: ?s"
    )
    assert command.get("attribute") == {"size": "5", "input_type": "high"}
    assert command.get("seq_delay") == "30"
    # keyword aliases map onto canonical names
    assert command.has("implementation")
    assert command.has("instance")


def test_parse_input_and_output_slots_order():
    command = parse_command(
        "command: instance_query; instance: %s; delay: ?s; shape_function: ?s"
    )
    slots = command.slots()
    assert [term.keyword for term in slots] == ["instance", "delay", "shape_function"]
    assert slots[0].is_input_slot and slots[1].is_output_slot
    assert command.input_slots()[0].keyword == "instance"
    assert len(command.output_slots()) == 2


def test_parse_errors():
    with pytest.raises(CqlSyntaxError):
        parse_command("component: counter")  # no command term
    with pytest.raises(CqlSyntaxError):
        parse_command("")
    with pytest.raises(CqlSyntaxError):
        parse_command("command request_component")


def test_variable_slot_render_and_types():
    slot = VariableSlot("out", "d", True)
    assert slot.render() == "?d[]"
    assert slot.python_type is int
    assert VariableSlot("in", "r").render() == "%r"


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def test_executor_component_and_function_queries(icdb):
    executor = CqlExecutor(icdb)
    result = executor.execute_text(
        "command: component_query; component: counter; function: (INC); implementation: ?s[]"
    )
    assert "counter" in result["implementation"]
    result = executor.execute_text(
        "command: function_query; function: (ADD,SUB); implementation: ?s[]; component: ?s[]"
    )
    assert set(result["implementation"]) == {"adder_subtractor", "alu"}
    assert "Adder_Subtractor" in result["component"]
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: function_query; implementation: ?s[]")


@pytest.mark.parametrize(
    "terms, answer",
    [
        ("implementation: counter; implementation: ?s[]", {"implementation": ["counter"]}),
        ("implementation: counter; component: ?s[]", {"component": ["Counter"]}),
        (
            "implementation: COUNTER; implementation: ?s[]; component: ?s[]",
            {"implementation": ["counter"], "component": ["Counter"]},
        ),
        # A name that is no type's: its own type is the one listed.
        ("implementation: incrementer; component: ?s[]", {"component": ["Counter"]}),
        (
            "implementation: no_such_impl; implementation: ?s[]; component: ?s[]",
            {"implementation": [], "component": []},
        ),
        # The name narrows the other filter terms and is narrowed by them.
        ("component: Counter; implementation: counter; implementation: ?s[]",
         {"implementation": ["counter"]}),
        ("component: Register; implementation: counter; implementation: ?s[]",
         {"implementation": []}),
        ("implementation: counter; function: (ADD); implementation: ?s[]",
         {"implementation": []}),
    ],
)
def test_component_query_without_a_function_slot_filters_by_name(icdb, terms, answer):
    executor = CqlExecutor(icdb)
    assert executor.execute_text(f"command: component_query; {terms}") == answer


def test_component_query_with_a_function_slot_answers_the_names_functions(icdb):
    executor = CqlExecutor(icdb)
    result = executor.execute_text(
        "command: component_query; implementation: counter; function: ?s[]"
    )
    assert result == {"function": icdb.functions_of("counter")}


def test_component_query_with_a_function_slot_and_no_name_answers_the_types_functions(icdb):
    """The functions of the types the filter returns (ALU, Adder,
    Adder_Subtractor), each once, in first-seen order."""
    executor = CqlExecutor(icdb)
    result = executor.execute_text(
        "command: component_query; function: (ADD); function: ?s[]; component: ?s[]"
    )
    assert result["component"] == ["ALU", "Adder", "Adder_Subtractor"]
    assert result["function"] == ["ADD", "SUB", "AND", "OR", "XOR", "NOT"]
    assert executor.execute_text(
        "command: component_query; function: (ADD); function: ?s[]"
    ) == {"function": result["function"]}


def test_executor_request_and_instance_query(icdb):
    executor = CqlExecutor(icdb)
    result = executor.execute_text(
        "command: request_component; component_name: counter; function: (INC);"
        "attribute: (size:4); clock_width: 40; set_up_time: 40; instance: ?s"
    )
    name = result["instance"]
    assert name in icdb.instances
    info = executor.execute_text(
        "command: instance_query; instance: %s; delay: ?s; area: ?s; function: ?s[]",
        [name],
    )
    assert info["delay"].startswith("CW")
    assert "strip = 1" in info["area"]
    assert "INC" in info["function"]
    connect = executor.execute_text(
        "command: connect_component; instance: %s; connect: ?s", [name]
    )
    assert "## function" in connect["connect"]


def test_executor_request_with_delay_constraint_text(icdb):
    executor = CqlExecutor(icdb)
    constraint_text = "rdelay O[3] 40\noload O[3] 10"
    result = executor.execute_text(
        "command: request_component; implementation: ripple_carry_adder;"
        "attribute: (size:4); comb_delay: %s; instance: ?s",
        [constraint_text],
    )
    instance = icdb.instance(result["instance"])
    assert instance.constraints.comb_delay == {"O[3]": 40.0}
    assert instance.constraints.output_loads == {"O[3]": 10.0}


def test_executor_layout_request_on_existing_instance(icdb):
    executor = CqlExecutor(icdb)
    created = executor.execute_text(
        "command: request_component; implementation: register; size: 2; instance: ?s"
    )
    result = executor.execute_text(
        "command: request_component; instance: %s; alternative: 1;"
        "port_position: %s; CIF_layout: ?s",
        [created["instance"], "CLK left s1.0"],
    )
    assert result["cif_layout"].startswith("(CIF file for")
    assert icdb.instance(created["instance"]).layout is not None


def test_executor_list_management_commands(icdb):
    executor = CqlExecutor(icdb)
    executor.execute_text("command: start_a_design; design: proj")
    executor.execute_text("command: start_a_transaction; design: proj")
    created = executor.execute_text(
        "command: request_component; implementation: mux2; size: 2; instance: ?s"
    )
    executor.execute_text(
        "command: put_in_component_list; design: proj; instance: %s", [created["instance"]]
    )
    removed = executor.execute_text("command: end_a_transaction; design: proj")
    assert created["instance"] not in removed["removed"]
    removed = executor.execute_text("command: end_a_design; design: proj")
    assert created["instance"] in removed["removed"]


def test_executor_errors(icdb):
    executor = CqlExecutor(icdb)
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: bogus_command; x: 1")
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: instance_query; delay: ?s")
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: instance_query; instance: %s; delay: ?s")  # missing input


# ---------------------------------------------------------------------------
# ICDB() call convention
# ---------------------------------------------------------------------------


def test_icdb_call_with_outparams_and_return_values(icdb):
    call = make_icdb_call(icdb)
    names = call(
        "command: component_query; component: counter; function: (INC);"
        "ICDB components: ?s[]"
    )
    assert "counter" in names
    holder = OutParam()
    returned = call(
        "command: request_component; component_name: counter; attribute: (size:3);"
        "function: (INC); generated_component: ?s",
        holder,
    )
    assert holder.value == returned
    delay, shape = call(
        "command: instance_query; generated_component: %s; delay: ?s; shape_function: ?s",
        returned,
    )
    assert delay.startswith("CW")
    assert shape.startswith("Alternative=1")


def test_icdb_call_input_binding_in_paper_style(icdb):
    call = make_icdb_call(icdb)
    instance = call(
        "command: request_component; component_name: %s; size: %d;"
        "strategy: fastest; component_instance: ?s",
        "Adder_Subtractor",
        4,
    )
    assert instance in icdb.instances
    assert icdb.instance(instance).implementation == "adder_subtractor"


def test_icdb_call_missing_input_raises(icdb):
    call = make_icdb_call(icdb)
    with pytest.raises(CqlExecutionError):
        call("command: instance_query; instance: %s; delay: ?s")


def test_icdb_call_default_server_constructs():
    call = make_icdb_call()
    result = call("command: function_query; function: (MUL); implementation: ?s[]")
    assert "array_multiplier" in result


# ---------------------------------------------------------------------------
# Interactive session
# ---------------------------------------------------------------------------


def test_interactive_session_runs_commands(icdb):
    session = InteractiveSession(icdb)
    text = session.run_command(
        "command: function_query; function: (ADD,SUB); implementation: ?s[]"
    )
    assert "adder_subtractor" in text
    error_text = session.run_command("command: nonsense")
    assert error_text.startswith("error:")
    outputs = session.run_script([
        "command: component_query; component: Register; implementation: ?s[]",
    ])
    assert len(outputs) == 1 and "register" in outputs[0]
    assert len(session.history) == 3


def test_format_result_handles_multiline_and_lists():
    text = format_result({"delay": "CW 1\nWD X 2", "names": ["a", "b"], "n": 3})
    assert "delay:" in text and "  CW 1" in text
    assert "names: a, b" in text
    assert "n: 3" in text


def test_interactive_main_reads_blank_line_separated_commands():
    stdin = io.StringIO(
        "command: function_query; function: (MUL);\nimplementation: ?s[]\n\n"
    )
    stdout = io.StringIO()
    assert interactive_main([], stdin=stdin, stdout=stdout) == 0
    assert "array_multiplier" in stdout.getvalue()


# ---------------------------------------------------------------------------
# Simulation / verification commands
# ---------------------------------------------------------------------------


def test_executor_simulate_command(icdb):
    executor = CqlExecutor(icdb)
    generated = executor.execute_text(
        "command: request_component; implementation: ripple_carry_adder;"
        "attribute: (size:2); instance: ?s"
    )
    name = generated["instance"]
    # 1+2 and 3+3+1: one lane per vector, outputs in vector order.
    vectors = [
        {"I0[0]": 1, "I0[1]": 0, "I1[0]": 0, "I1[1]": 1, "Cin": 0},
        {"I0[0]": 1, "I0[1]": 1, "I1[0]": 1, "I1[1]": 1, "Cin": 1},
    ]
    result = executor.execute_text(
        "command: simulate; instance: %s; vectors: %s; vectors: ?s[]",
        [name, vectors],
    )
    assert result["vectors"] == [
        {"O[0]": 1, "O[1]": 1, "Cout": 0},
        {"O[0]": 1, "O[1]": 1, "Cout": 1},
    ]
    # A single vector dict is accepted without list wrapping.
    single = executor.execute_text(
        "command: simulate; instance: %s; vectors: %s; engine: flat; vectors: ?s[]",
        [name, vectors[0]],
    )
    assert single["vectors"] == [{"O[0]": 1, "O[1]": 1, "Cout": 0}]
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: simulate; vectors: %s", [vectors])
    with pytest.raises(CqlExecutionError):
        executor.execute_text(
            "command: simulate; instance: %s; vectors: %s", [name, "not-vectors"]
        )


def test_executor_verify_command_and_alias(icdb):
    executor = CqlExecutor(icdb)
    adder = executor.execute_text(
        "command: request_component; implementation: ripple_carry_adder;"
        "attribute: (size:2); instance: ?s"
    )["instance"]
    counter = executor.execute_text(
        "command: request_component; component_name: counter; function: (INC);"
        "attribute: (size:2); instance: ?s"
    )["instance"]
    result = executor.execute_text(
        "command: verify; instance: %s; equivalent: ?s; vectors_checked: ?s; mode: ?s",
        [adder],
    )
    assert result["equivalent"] is True
    assert result["mode"] == "combinational"
    assert result["vectors_checked"] == 32  # exhaustive over 5 inputs
    # The clocked instance auto-dispatches to the sequential lock-step check,
    # and 'check_equivalence' is the same command under its wire name.
    sequential = executor.execute_text(
        "command: check_equivalence; instance: %s; equivalent: ?s; mode: ?s",
        [counter],
    )
    assert sequential["equivalent"] is True
    assert sequential["mode"] == "sequential"
    # Default outputs when no slots are given.
    defaults = executor.execute_text("command: verify; instance: %s", [adder])
    assert defaults == {"equivalent": True, "vectors_checked": 32}
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: verify; mode: auto")


# ---------------------------------------------------------------------------
# Metrics command
# ---------------------------------------------------------------------------


def test_executor_metrics_command(icdb):
    executor = CqlExecutor(icdb)
    executor.execute_text(
        "command: request_component; implementation: ripple_carry_adder;"
        "attribute: (size:2); instance: ?s"
    )
    result = executor.execute_text("command: metrics; metrics: ?s")
    snapshot = result["metrics"]
    assert snapshot["version"] == 1
    assert snapshot["counters"]["cache.result.lookups"] >= 1
    # Named counter slots pull individual values out of the snapshot.
    picked = executor.execute_text(
        "command: metrics; requests.total: ?d; cache.result.lookups: ?d"
    )
    assert picked["requests.total"] == snapshot["counters"]["requests.total"] + 1
    assert picked["cache.result.lookups"] >= 1
    # A prefix term filters the snapshot down to matching names.
    filtered = executor.execute_text("command: metrics; prefix: cache.; metrics: ?s")
    assert filtered["metrics"]["counters"]
    assert all(
        name.startswith("cache.") for name in filtered["metrics"]["counters"]
    )


# ---------------------------------------------------------------------------
# Asynchronous job commands
# ---------------------------------------------------------------------------


def test_executor_submit_and_wait_commands(icdb):
    executor = CqlExecutor(icdb)
    submitted = executor.execute_text(
        "command: submit; implementation: ripple_carry_adder; attribute: (size:2);"
        "job: ?s; state: ?s"
    )
    assert set(submitted) == {"job", "state"}
    assert submitted["job"].startswith("job-")
    assert submitted["state"] in ("queued", "running", "done")
    done = executor.execute_text(
        "command: wait; job: %s; instance: ?s; delay: ?s; area: ?s; shape_function: ?s",
        [submitted["job"]],
    )
    assert set(done) == {"instance", "delay", "area", "shape_function", "state"}
    assert done["state"] == "done"
    instance = icdb.instance(done["instance"])
    assert done["delay"] == instance.render_delay()
    assert done["area"] == instance.render_area_records()
    assert done["shape_function"] == instance.render_shape()
    # The job id under its wire name, and the outputs a wait answers when
    # no slot asks for any (an array slot wraps the instance name).
    again = executor.execute_text(
        "command: submit; implementation: ripple_carry_adder; attribute: (size:2);"
        "job_id: ?s"
    )
    assert set(again) == {"job_id", "job"} and again["job_id"] == again["job"]
    plain = executor.execute_text("command: wait; job: %s", [again["job"]])
    assert set(plain) == {"instance", "state"} and plain["state"] == "done"
    listed = executor.execute_text(
        "command: wait; job_id: %s; instance: ?s[]", [again["job"]]
    )
    assert listed == {"instance": [plain["instance"]], "state": "done"}
    with pytest.raises(CqlExecutionError):
        executor.execute_text("command: wait; instance: ?s")


def test_executor_wait_reraises_a_failed_jobs_error(icdb):
    executor = CqlExecutor(icdb)
    job = executor.execute_text(
        "command: submit; implementation: no_such_implementation; job: ?s"
    )["job"]
    with pytest.raises(IcdbError) as raised:
        executor.execute_text("command: wait; job: %s; instance: ?s", [job])
    assert raised.value.code == "NOT_FOUND"
    assert "no_such_implementation" in str(raised.value)


def test_executor_cancel_command_and_wait_timeout(tmp_path):
    service, started, gate = make_gated_service(tmp_path / "store", job_workers=1)
    executor = CqlExecutor(service.create_session())
    try:
        held = executor.execute_text(
            "command: submit; implementation: register; size: 3; job: ?s"
        )["job"]
        assert started.wait(30)
        queued = executor.execute_text(
            "command: submit; implementation: register; size: 4; job: ?s; state: ?s"
        )
        assert queued["state"] == "queued"
        with pytest.raises(IcdbError) as raised:
            executor.execute_text("command: wait; job: %s; timeout: 0.05", [held])
        assert raised.value.code == "TIMEOUT"
        cancelled = executor.execute_text(
            "command: cancel; job: %s; state: ?s", [queued["job"]]
        )
        assert cancelled == {"job": queued["job"], "state": "cancelled"}
        with pytest.raises(IcdbError) as raised:
            executor.execute_text("command: wait; job: %s", [queued["job"]])
        assert raised.value.code == "CANCELLED"
        with pytest.raises(CqlExecutionError):
            executor.execute_text("command: cancel; state: ?s")
    finally:
        gate.set()
    finished = executor.execute_text("command: wait; job: %s; timeout: 30", [held])
    assert finished["state"] == "done"
    # Cancelling a finished job leaves it as it is.
    assert executor.execute_text("command: cancel; job_id: %s", [held]) == {
        "job": held,
        "state": "done",
    }
