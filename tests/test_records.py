"""Every record class behaves as the ``@dataclass`` it replaced.

``repro.wire.Record`` serves ``__init__``, ``==``, ``__hash__``, ``repr``
and the frozen guard from one field table, without generating code.  For
each of the 105 record classes in ``repro`` (the 51 a server or client
defines at boot, and the Figure-8 flow's, the layout, synthesis and CQL
records and the client's retry and chaos settings), a
``dataclasses.make_dataclass`` twin with the same fields, defaults,
factories, flags, slots and methods is built, and both are driven with
the same arguments: results are compared, and exceptions by type only
(Python 3.9 words them differently).  A record holds no more bytes than
its twin.  Tests may import ``dataclasses``; ``repro`` does not
(``tests/test_footprint.py``).
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import sys
import tracemalloc
from pathlib import Path
from typing import ClassVar

import pytest

from repro.api.messages import BatchRequest, NewName, Ping
from repro.api.planner import CandidateReport
from repro.api.query import Bound, QuerySpec, TypePredicate
from repro.components import standard_catalog
from repro.components.catalog import ControlSetting
from repro.constraints import Constraints, PortPosition
from repro.core.generation import EmbeddedGenerator
from repro.cql.parser import CqlTerm
from repro.estimation.area import AreaRecord
from repro.fingerprint import stable_fingerprint
from repro.iif.ast import Assign, Binary, Block, Name, Num
from repro.iif.flat import AsyncTerm, CombAssign
from repro.layout.slicing import Placement, Shape
from repro.layout.slicing import Block as SlicingBlock
from repro.layout.strips import PlacedCell
from repro.logic import expr as E
from repro.logic.sop import Cube
from repro.structure import ComponentRef
from repro.synthesis.dfg import Operation
from repro.techlib import standard_cells
from repro.wire import MISSING, FrozenInstanceError, Record, Wire, field, fields

_MODULES = (
    "repro.api.errors",
    "repro.api.messages",
    "repro.api.planner",
    "repro.api.query",
    "repro.components.catalog",
    "repro.components.genus",
    "repro.constraints",
    "repro.core.instances",
    "repro.core.tools",
    "repro.db.engine",
    "repro.sim.verify",
    "repro.store.durable",
    "repro.store.journal",
    "repro.store.snapshot",
    "repro.structure",
    # Loaded with the Figure-8 flow, or by a client, never at boot:
    "repro.cql.icdb_call",
    "repro.cql.parser",
    "repro.estimation.area",
    "repro.estimation.delay",
    "repro.estimation.shape",
    "repro.iif.ast",
    "repro.iif.expander",
    "repro.iif.flat",
    "repro.iif.lexer",
    "repro.layout.generator",
    "repro.layout.slicing",
    "repro.layout.strips",
    "repro.logic.mapping",
    "repro.logic.milo",
    "repro.logic.sop",
    "repro.net.chaos",
    "repro.net.resilience",
    "repro.netlist.gates",
    "repro.sizing.tilos",
    "repro.synthesis.allocation",
    "repro.synthesis.datapath",
    "repro.synthesis.dfg",
    "repro.synthesis.scheduling",
    "repro.techlib.cells",
)

#: The classes the replaced @dataclass declared without ``frozen=True``.
MUTABLE = {
    "CandidateReport",
    "ComponentImplementation",
    "ComponentInstance",
    "ComponentRef",
    "Constraints",
    "EquivalenceResult",
    "GeneratorDescription",
    "LatestSnapshot",
    "PlanResult",
    "RecoveryReport",
    "Response",
    "SegmentScan",
    "StructuralNetlist",
    "ToolDescription",
    # the flow's and the other modules' records
    "Allocation",
    "Assign",
    "CLine",
    "ComponentLayout",
    "CqlCommand",
    "CqlTerm",
    "DataFlowGraph",
    "Datapath",
    "DelayReport",
    "FlatComponent",
    "FloorplanResult",
    "For",
    "FunctionalUnit",
    "If",
    "IifModule",
    "LayoutRect",
    "MappingOptions",
    "NetInfo",
    "Operation",
    "OutParam",
    "PlacedCell",
    "PlacedPort",
    "Placement",
    "Schedule",
    "ScheduledOperation",
    "ShapeFunction",
    "SimpleComputer",
    "SizingOptions",
    "SizingResult",
    "Slice",
    "StripPlacement",
    "SubCall",
    "SumOfProducts",
    "SynthesisOptions",
    "_Context",
    "iif.ast.Block",
    "layout.slicing.Block",
}

#: Per class: valid keyword arguments, and a change to them that makes a
#: second, unequal instance (empty when the class has no field).
EXAMPLES = {
    "Request": ({}, {}),
    "ComponentQuery": (
        {"component": "Counter", "functions": ("INC",), "attributes": {"size": 4}},
        {"component": "ALU"},
    ),
    "FunctionQuery": ({"functions": ("ADD", "SUB")}, {"want": "component"}),
    "InstanceQuery": ({"name": "alu_1", "fields": ("delay",)}, {"name": "alu_2"}),
    "ComponentRequest": (
        {"implementation": "alu", "attributes": {"size": 8},
         "constraints": Constraints(clock_width=30.0)},
        {"detail": "summary"},
    ),
    "PlanQuery": (
        {"query": QuerySpec(select=(TypePredicate(component="Counter"),),
                            sweep=(("size", (2, 4)),))},
        {"query": QuerySpec(limit=1)},
    ),
    "LayoutRequest": (
        {"name": "counter_1", "alternative": 2,
         "port_positions": (PortPosition("CLK", "left", 1.0),)},
        {"strips": 3},
    ),
    "Simulate": ({"name": "counter_1", "vectors": ({"a": 1, "b": 0},)}, {"engine": "flat"}),
    "CheckEquivalence": ({"name": "counter_1", "reference": "counter_2"}, {"mode": "sequential"}),
    "DesignOp": ({"op": "start_design", "design": "d1"}, {"op": "end_design"}),
    "BatchRequest": ({"requests": (Ping(), NewName())}, {"repeat": 3}),
    "SubmitJob": ({"request": Ping(echo="x"), "label": "probe"}, {"label": "other"}),
    "JobStatus": ({"job_id": "job-1", "timeout_ms": 5.0}, {"wait": True}),
    "CancelJob": ({"job_id": "job-1"}, {"job_id": "job-2"}),
    "GetMetrics": ({"prefixes": ("api.",)}, {"include_histograms": False}),
    "Ping": ({"echo": "a"}, {"echo": "b"}),
    "WarmCache": ({"entries": ({"implementation": "alu"},)}, {"entries": ()}),
    "NewName": ({"base": "alu"}, {"base": "mux"}),
    "DatabaseDump": ({"tables": ("instances",)}, {"tables": ()}),
    "JobEvent": ({"job_id": "job-1", "seq": 1, "progress": 0.5}, {"state": "done"}),
    "AttachSession": ({"token": "t1", "client": "c"}, {"protocol": 2}),
    "Hello": ({"client": "probe"}, {"protocol": 2}),
    "Welcome": ({"session_id": "s1", "session_token": "t1"}, {"server": "icdb"}),
    "Response": ({"ok": True, "value": {"instance": "alu_1"}, "elapsed_ms": 1.5}, {"cached": True}),
    "IcdbErrorInfo": ({"code": "NOT_FOUND", "message": "no such instance"}, {"retry_after_ms": 5.0}),
    "FunctionPredicate": ({"functions": ("ADD",)}, {"functions": ("SUB",)}),
    "TypePredicate": ({"component": "Counter"}, {"component": "ALU"}),
    "NamePredicate": ({"implementations": ("alu",)}, {"implementations": ()}),
    "AttributePredicate": ({"attributes": {"size": 4}}, {"attributes": {}}),
    "Bound": ({"metric": "area", "limit": 100}, {"limit": 50.0}),
    "Objective": ({"kind": "pareto", "metrics": ("area", "delay")}, {"metrics": ("delay", "area")}),
    "PlanPoint": ({"label": "p", "parameters": {"size": 4}}, {"implementation": "alu"}),
    "QuerySpec": (
        {"select": (TypePredicate(component="Counter"),), "where": (Bound("delay", 10.0),)},
        {"limit": 2},
    ),
    "PortPosition": ({"port": "CLK", "side": "left", "order": 1.0}, {"side": "top"}),
    "Constraints": (
        {"clock_width": 30.0, "comb_delay": {"O[0]": 10.0},
         "port_positions": (PortPosition("CLK", "left", 1.0),)},
        {"strategy": "fastest"},
    ),
    "ComponentRef": ({"label": "u1", "component": "alu_1", "port_map": {"A": "a"}}, {"label": "u2"}),
    "StructuralNetlist": (
        {"name": "cluster", "inputs": ["a"], "refs": [ComponentRef("u1", "alu_1", {"A": "a"})]},
        {"outputs": ["o"]},
    ),
    "CandidateReport": (
        {"label": "p", "implementation": "alu", "parameters": {"size": 4},
         "metrics": {"area": 1.0}, "exception": ValueError("boom")},
        {"status": "generated"},
    ),
    "PlanResult": ({"candidates": [CandidateReport("p", "alu")], "winners": [0]}, {"front": [0]}),
    "EquivalenceResult": (
        {"equivalent": False, "vectors_checked": 4, "counterexample": {"a": 1}},
        {"mode": "sequential"},
    ),
    "ComponentInstance": (
        {"name": "alu_1", "implementation": "alu", "component_type": "ALU",
         "parameters": {"size": 4}, "functions": ["ADD"], "constraints": Constraints(),
         "flat": "flat", "netlist": "netlist", "delay_report": "delay",
         "shape": "shape", "area_record": "area"},
        {"design": "d1"},
    ),
    "ToolDescription": ({"name": "milo", "step": "estimate"}, {"description": "logic"}),
    "GeneratorDescription": ({"name": "g", "input_format": "iif", "steps": ((1, "milo"),)},
                             {"description": "d"}),
    "ControlSetting": ({"port": "C0", "value": 1}, {"qualifier": "active"}),
    "FunctionBinding": (
        {"function": "ADD", "operand_map": (("I0", "A"),), "controls": (ControlSetting("C0", 1),)},
        {"polarity": "low"},
    ),
    "ComponentImplementation": (
        {"name": "alu", "component_type": "ALU", "functions": ("add",), "iif_source": "NAME: alu;"},
        {"fixed": True},
    ),
    "ComponentType": ({"name": "ALU", "functions": ("ADD",)}, {"description": "arithmetic"}),
    "Column": ({"name": "size", "type": "int", "default": 0}, {"required": True}),
    "RecoveryReport": ({"snapshot_seq": 3, "snapshot_path": Path("s")}, {"events_replayed": 2}),
    "SegmentScan": ({"path": Path("seg"), "records": [{"seq": 1}], "valid_bytes": 10}, {"error": "torn"}),
    "LatestSnapshot": ({"path": Path("snap"), "seq": 3, "payload": {"t": 1}, "skipped": []}, {"seq": 4}),
    # CQL
    "OutParam": ({"value": 3}, {"value": 4}),
    "VariableSlot": ({"direction": "?", "type_code": "s", "is_array": True}, {"type_code": "d"}),
    "CqlTerm": ({"keyword": "command", "value": "function_query", "raw": "command: x"}, {"raw": ""}),
    "CqlCommand": ({"command": "function_query", "terms": [CqlTerm("command", "x")]}, {"command": "y"}),
    # IIF
    "Num": ({"value": 3}, {"value": 4}),
    "Name": ({"ident": "Q", "indices": (Num(1),)}, {"ident": "D"}),
    "Unary": ({"op": "!", "operand": Name("A")}, {"op": "~b"}),
    "Binary": ({"op": "+", "left": Name("A"), "right": Num(1)}, {"op": "*"}),
    "CallExpr": ({"func": "max", "args": (Num(1), Num(2))}, {"func": "min"}),
    "Assign": ({"target": Name("Q"), "op": "=", "value": Name("D"), "line": 3}, {"op": "+="}),
    "CLine": ({"assign": Assign(Name("i"), "=", Num(0))}, {"line": 2}),
    "If": ({"cond": Name("a"), "then": Block()}, {"orelse": Block()}),
    "For": (
        {"init": Assign(Name("i"), "=", Num(0)), "cond": Binary("<", Name("i"), Num(4)),
         "step": Assign(Name("i"), "+=", Num(1)), "body": Block()},
        {"line": 7},
    ),
    "iif.ast.Block": ({"statements": [Assign(Name("Q"), "=", Num(1))]}, {"line": 1}),
    "SubCall": ({"name": "ADDER", "args": [Num(4)]}, {"name": "MUX"}),
    "DeclItem": ({"ident": "D", "dims": (Name("size"),)}, {"ident": "Q"}),
    "IifModule": ({"name": "counter", "functions": ["INC"], "source": "NAME: counter;"}, {"name": "alu"}),
    "_Context": ({"env": {"size": 4}, "where": "counter"}, {"env": {"size": 8}}),
    "Token": ({"kind": "IDENT", "value": "Q", "line": 3}, {"line": 4}),
    "AsyncTerm": ({"value": 1, "condition": E.Var("R")}, {"value": 0}),
    "CombAssign": ({"target": "O", "expr": E.Var("A")}, {"target": "P"}),
    "SeqAssign": (
        {"target": "Q", "data": E.Var("D"), "clock": E.Var("CLK"), "edge": "r",
         "asyncs": (AsyncTerm(0, E.Var("R")),)},
        {"edge": "f"},
    ),
    "FlatComponent": (
        {"name": "buf", "inputs": ["A"], "outputs": ["O"], "assigns": [CombAssign("O", E.Var("A"))]},
        {"name": "wire"},
    ),
    # logic, netlist, cells
    "Cube": ({"literals": (("a", 1), ("b", 0))}, {"literals": ()}),
    "SumOfProducts": ({"order": ("a", "b"), "cubes": (Cube((("a", 1),)),)}, {"order": ("b", "a")}),
    "MappingOptions": ({"use_complex_gates": False}, {"max_gate_inputs": 3}),
    "SynthesisOptions": ({"sweep": False}, {"max_qm_vars": 4}),
    "NetInfo": (
        {"name": "n1", "driver_instance": "g1", "driver_pin": "O", "sinks": [("g2", "A")]},
        {"is_primary_input": True},
    ),
    "Cell": (
        {"name": "INV", "kind": "inv", "inputs": ("A",), "outputs": ("O",), "transistors": 2,
         "load_delay": 0.1, "intrinsic_delay": 0.5, "fanout_delay": 0.05, "pins": ("O", "A")},
        {"tracks": 3},
    ),
    # sizing and estimation
    "SizingOptions": ({"step": 1.5}, {"uniform": True}),
    "SizingResult": (
        {"netlist": "netlist", "report": "report", "iterations": 3, "met_constraints": True},
        {"violations": ["Q[0]"]},
    ),
    "AreaRecord": ({"strips": 2, "width": 10.0, "height": 20.0}, {"strips": 3}),
    "DelayReport": (
        {"component": "counter_1", "clock_width": 12.5, "clock_to_output": {"Q[0]": 3.0},
         "is_sequential": True},
        {"min_pulse_width": 1.0},
    ),
    "ShapeFunction": (
        {"component": "counter_1", "alternatives": (AreaRecord(3, 1.0, 2.0), AreaRecord(1, 4.0, 1.0))},
        {"component": "alu_1"},
    ),
    # layout
    "PlacedCell": ({"instance": "g1", "cell": "INV", "strip": 0, "x": 0.0, "width": 16.0}, {"strip": 1}),
    "StripPlacement": (
        {"strips": 1, "cells": [PlacedCell("g1", "INV", 0, 0.0, 16.0)], "strip_widths": [16.0]},
        {"strips": 2},
    ),
    "PlacedPort": ({"name": "CLK", "side": "left", "x": 0.0, "y": 1.0}, {"side": "top"}),
    "LayoutRect": ({"layer": "metal1", "x": 0.0, "y": 0.0, "width": 2.0, "height": 3.0}, {"label": "g"}),
    "ComponentLayout": (
        {"name": "counter_1", "strips": 2, "width": 10.0, "height": 20.0, "cells": [],
         "ports": [], "strip_heights": [10.0], "tracks": [3]},
        {"strips": 3},
    ),
    "Shape": ({"width": 1.0, "height": 2.0}, {"width": 3.0}),
    "layout.slicing.Block": ({"name": "alu", "shapes": (Shape(1.0, 2.0),)}, {"name": "reg"}),
    "Placement": ({"name": "alu", "x": 0.0, "y": 0.0, "width": 1.0, "height": 2.0}, {"x": 1.0}),
    "FloorplanResult": (
        {"width": 3.0, "height": 4.0, "placements": [Placement("alu", 0.0, 0.0, 1.0, 2.0)]},
        {"width": 5.0},
    ),
    "Slice": ({"direction": "h", "children": [SlicingBlock("alu", (Shape(1.0, 2.0),))]}, {"direction": "v"}),
    # behavioural synthesis
    "Operation": ({"name": "op1", "function": "ADD", "operands": ("a", "b"), "result": "c"}, {"width": 4}),
    "DataFlowGraph": (
        {"name": "g", "inputs": ["a", "b"], "operations": [Operation("op1", "ADD", ("a", "b"), "c")]},
        {"outputs": ["c"]},
    ),
    "ScheduledOperation": (
        {"operation": Operation("op1", "ADD", ("a", "b"), "c"), "start_step": 0, "end_step": 1,
         "delay": 5.0},
        {"chained_after": ("op0",)},
    ),
    "Schedule": ({"dfg": "dfg", "clock_width": 30.0, "function_delays": {"ADD": 10.0}}, {"clock_width": 40.0}),
    "FunctionalUnit": ({"name": "fu1", "instance": "alu_1", "functions": ("ADD",)}, {"name": "fu2"}),
    "Allocation": ({"schedule": "schedule", "binding": {"op1": "fu1"}}, {"schedule": "other"}),
    "Datapath": ({"name": "dp", "structure": "structure", "registers": ["r1"]}, {"control": "ctl"}),
    "SimpleComputer": ({"datapath_parts": {"alu": "alu_1"}, "control": "ctl", "width": 8}, {"width": 4}),
    # the client's retry and fault-injection settings
    "RetryPolicy": ({"max_attempts": 3, "seed": 7}, {"deadline_s": None}),
    "ChaosConfig": ({"seed": 3, "reset_rate": 0.1}, {"seed": 4}),
}

#: Per class whose ``__post_init__`` checks its fields: arguments it rejects.
INVALID = {
    "PortPosition": {"port": "A", "side": "middle", "order": 1.0},
    "Constraints": {"strategy": "quickest"},
    "StructuralNetlist": {"name": "c", "refs": [ComponentRef("u1", "a"), ComponentRef("u1", "b")]},
    "Column": {"name": "size", "type": "blob"},
    "DesignOp": {"op": "no_such_op"},
    "Simulate": {"engine": "analog"},
    "CheckEquivalence": {"mode": "fuzzy"},
    "BatchRequest": {"requests": (BatchRequest(),)},
    "SubmitJob": {},
    "Bound": {"metric": "area", "limit": "high"},
    "Objective": {"kind": "sideways"},
    "QuerySpec": {"limit": -1},
    "Cell": {"name": "INV", "kind": "inv", "inputs": ("A",), "outputs": ("O",), "transistors": 2,
             "load_delay": 0.1, "intrinsic_delay": 0.5, "fanout_delay": 0.05, "pins": ("A",)},
    "AsyncTerm": {"value": 2, "condition": E.Var("R")},
    "SeqAssign": {"target": "Q", "data": E.Var("D"), "clock": E.Var("CLK"), "edge": "x",
                  "asyncs": ()},
    "Slice": {"direction": "d", "children": []},
    "Operation": {"name": "op1", "function": "NO_SUCH_FUNCTION", "operands": (), "result": "c"},
}


def _records():
    """Every record class in ``repro``, by name; a name two modules use is
    qualified by its module (``iif.ast.Block``, ``layout.slicing.Block``)."""
    for module in _MODULES:
        importlib.import_module(module)
    classes, pending = [], [Record]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.") and sub is not Wire:
                classes.append(sub)
    names = [cls.__name__ for cls in classes]
    return {
        cls.__name__ if names.count(cls.__name__) == 1
        else f"{cls.__module__[len('repro.'):]}.{cls.__name__}": cls
        for cls in classes
    }


RECORDS = _records()

#: What no dataclass has, or makes for itself.
_SERVED = {
    "__dict__", "__weakref__", "__module__", "__qualname__", "__doc__",
    "__annotations__", "__record_fields__", "__record_frozen__",
}
#: What the twin leaves to dataclasses unless the class body defines it.
_METHODS = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}


def _served_by_record(key, value):
    return key in _SERVED or (
        key in _METHODS and (value is None or getattr(value, "__module__", None) == "repro.wire")
    )


def _twin(name):
    """The @dataclass twin of record class ``name``: its field table as
    dataclass fields, the class attributes and methods (``__post_init__``,
    tags, ``__slots__``) of it and its record bases, and its other bases
    (``iif.ast.Node``) as bases."""
    cls = RECORDS[name]
    specs = []
    for entry in fields(cls):
        options = {"compare": entry.compare, "repr": entry.repr, "metadata": entry.metadata}
        if entry.default is not MISSING:
            options["default"] = entry.default
        if entry.default_factory is not MISSING:
            options["default_factory"] = entry.default_factory
        if "__slots__" in vars(cls):  # a slot cannot share its name with a class attribute
            specs.append((entry.name, object))
        else:
            specs.append((entry.name, object, dataclasses.field(**options)))
    names = {entry.name for entry in fields(cls)}
    namespace = {}
    for klass in reversed(cls.__mro__[: cls.__mro__.index(Record)]):
        if issubclass(klass, Record):
            for key, value in vars(klass).items():
                if key not in names and not _served_by_record(key, value):
                    namespace[key] = value
    bases = tuple(base for base in cls.__bases__ if not issubclass(base, Record))
    return dataclasses.make_dataclass(
        cls.__name__, specs, bases=bases, namespace=namespace, frozen=name not in MUTABLE
    )


def _state(record):
    """What an instance holds itself, by name: its ``__dict__`` or its slots."""
    if hasattr(record, "__dict__"):
        return vars(record)
    return {
        slot: getattr(record, slot)
        for klass in type(record).__mro__
        for slot in klass.__dict__.get("__slots__", ())
        if hasattr(record, slot)
    }


def _outcome(call):
    """What ``call()`` returns, or the type of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared by type: messages vary by version
        return type(exc)


def test_every_record_class_has_an_example():
    assert len(RECORDS) == 105
    assert sorted(EXAMPLES) == sorted(RECORDS)
    assert set(INVALID) <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_record_behaves_as_its_dataclass_twin(name):
    cls, twin = RECORDS[name], _twin(name)
    kwargs, change = EXAMPLES[name]
    other = {**kwargs, **change}
    frozen = name not in MUTABLE
    assert cls.__record_frozen__ is frozen
    names = [entry.name for entry in fields(cls)]
    own = [
        key for key, annotation in vars(cls).get("__annotations__", {}).items()
        if not annotation.startswith("ClassVar")
    ]
    assert names == [entry.name for entry in dataclasses.fields(twin)] == own

    first, again, second = cls(**kwargs), cls(**kwargs), cls(**other)
    twins = twin(**kwargs), twin(**kwargs), twin(**other)
    assert _state(first) == _state(twins[0])  # fields after __post_init__
    assert [repr(r) for r in (first, second)] == [repr(t) for t in (twins[0], twins[2])]
    assert first == again and (first != second) == bool(change)
    for a, b in ((0, 1), (0, 2), (2, 0)):
        records = (first, again, second)
        assert (records[a] == records[b], records[a] != records[b]) == (
            twins[a] == twins[b], twins[a] != twins[b]
        )
    # Equal frozen records hash equal; a mutable record has no hash.
    assert _outcome(lambda: hash(first) == hash(again)) == _outcome(
        lambda: hash(twins[0]) == hash(twins[1])
    )
    assert (_outcome(lambda: hash(first)) is TypeError) == (
        _outcome(lambda: hash(twins[0])) is TypeError
    )

    # Positional binding in field order; bad calls fail alike.
    values = [getattr(first, key) for key in names]
    assert cls(*values) == first and repr(cls(*values)) == repr(twin(*values))
    bad = [lambda k: k(**kwargs, no_such_field=1), lambda k: k(*values, 0)]
    if names:
        bad.append(lambda k: k(values[0], **{names[0]: values[0]}))
    if any(e.default is MISSING and e.default_factory is MISSING for e in fields(cls)):
        bad.append(lambda k: k())
    for call in bad:
        assert _outcome(lambda: call(cls)) is _outcome(lambda: call(twin)) is TypeError

    # Each instance runs the factories for itself.
    for entry in fields(cls):
        if entry.default_factory is not MISSING:
            rest = {key: value for key, value in kwargs.items() if key != entry.name}
            one, two = cls(**rest), cls(**rest)
            assert getattr(one, entry.name) == entry.default_factory()
            assert getattr(one, entry.name) is not getattr(two, entry.name)

    target = names[0] if names else "anything"
    if frozen:
        with pytest.raises(FrozenInstanceError):
            setattr(first, target, values[0] if values else None)
        with pytest.raises(FrozenInstanceError):
            delattr(first, target)
    else:
        setattr(second, target, values[0])  # a mutable record takes it

    for clone in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
        assert type(clone) is cls and clone == first and repr(clone) == repr(first)
        assert _state(clone).keys() == _state(first).keys()


@pytest.mark.parametrize("name", sorted(INVALID))
def test_a_post_init_check_fails_as_the_twins_does(name):
    kwargs = INVALID[name]
    raised = _outcome(lambda: RECORDS[name](**kwargs))
    assert isinstance(raised, type) and issubclass(raised, Exception)
    assert raised is _outcome(lambda: _twin(name)(**kwargs))


def _bytes_per_instance(make, count=1000):
    """Traced bytes one more instance holds, over ``count`` instances.

    ``count`` instances are made first and dropped: a class's first few
    dozen instances size their attribute storage for keys yet to come, and
    the interpreter's dict free lists (at most 80 entries, process-wide)
    fill up as calls that take ``**kwargs`` come and go."""
    for _ in range(count):
        make()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [make() for _ in range(count)]
        held = tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(kept)
    finally:
        tracemalloc.stop()
    return held / count


def _least_bytes_per_instance(make):
    """The least of three runs: a one-off allocation elsewhere in the
    process (a cache or table growing) lands in one run, not in all."""
    return min(_bytes_per_instance(make) for _ in range(3))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_record_holds_no_more_bytes_than_its_twin(name):
    kwargs = EXAMPLES[name][0]
    twin = _twin(name)
    record_bytes = _least_bytes_per_instance(lambda: RECORDS[name](**kwargs))
    twin_bytes = _least_bytes_per_instance(lambda: twin(**kwargs))
    # What is left is a block or two the interpreter parks on a free list
    # while the instances are made (under a byte per instance over 1,000);
    # one more attribute slot per instance would be 8 bytes.
    assert record_bytes < twin_bytes + 1


def test_a_field_first_given_late_costs_what_it_costs_a_dataclass():
    # CPython lets a class's shared instance keys grow only while its first
    # few dozen instances are made.  A record sets every field in field
    # order, as a dataclass does, so a field no early instance was given
    # still lands in the shared storage, not in a dict of its own.
    names = [f"f{index}" for index in range(13)]
    Late = type("Late", (Record,), {"__annotations__": dict.fromkeys(names, "int"),
                                    **dict.fromkeys(names, 0)})
    twin = dataclasses.make_dataclass("Late", [(name, int, 0) for name in names])
    for cls in (Late, twin):
        for _ in range(100):
            cls(f0=1)
    late = {"f5": 1, "f12": 2}
    record_bytes = _least_bytes_per_instance(lambda: Late(**late))
    assert record_bytes < _least_bytes_per_instance(lambda: twin(**late)) + 1


def test_fingerprints_and_memo_keys_are_those_of_the_dataclasses():
    """Goldens recorded with the flow's @dataclass records: the cell
    library's and ``counter``'s fingerprints, and the (expand, synth, flow)
    memo keys of ``counter``/8 at ``clock_width=30``, which hold flat
    assignment records, options tuples and the canonical constraints."""
    assert standard_cells().fingerprint() == 3666840753393901354
    counter = standard_catalog().get("counter")
    assert counter.fingerprint() == 8625901827104934759
    keys = EmbeddedGenerator().stage_keys(counter, {"size": 8}, Constraints(clock_width=30.0))
    assert [stable_fingerprint(key) for key in keys] == [
        2185967768181175092, 1000092913801106962, 8445063683924014755,
    ]


def test_records_of_different_classes_compare_as_their_twins_do():
    names = sorted(EXAMPLES)
    records = [RECORDS[name](**EXAMPLES[name][0]) for name in names]
    twins = [_twin(name)(**EXAMPLES[name][0]) for name in names]
    for i, record in enumerate(records):
        for j, other in enumerate(records):
            assert (record == other, record != other) == (
                twins[i] == twins[j], twins[i] != twins[j]
            ), (names[i], names[j])


def test_an_uncompared_field_is_neither_compared_nor_shown():
    report = CandidateReport("p", "alu", requested_implementation="ALU")
    assert report == CandidateReport("p", "alu", exception=ValueError("x"))
    assert "requested_implementation" not in repr(report) and "exception" not in repr(report)
    assert "requested_implementation" not in report.to_dict()


def test_declarations_follow_the_dataclass_rules():
    class Base(Record):
        a: int
        b: str = "x"
        tag: ClassVar[str] = "base"

    class Sub(Base):
        b: str = "y"  # an override keeps its base position
        c: list = field(default_factory=list)

    @dataclasses.dataclass
    class DataBase:
        a: int
        b: str = "x"
        tag: ClassVar[str] = "base"

    @dataclasses.dataclass
    class DataSub(DataBase):
        b: str = "y"
        c: list = dataclasses.field(default_factory=list)

    assert [e.name for e in fields(Sub)] == [f.name for f in dataclasses.fields(DataSub)]
    assert repr(Sub(1)).partition("(")[2] == repr(DataSub(1)).partition("(")[2]
    assert (Sub.tag, Sub.b, hasattr(Sub, "c")) == (DataSub.tag, DataSub.b, hasattr(DataSub, "c"))
    assert fields(Sub(1)) == fields(Sub)
    with pytest.raises(TypeError):
        fields(object())

    with pytest.raises(TypeError):
        class Unordered(Record):
            a: int = 0
            b: int

    with pytest.raises(ValueError):
        class Shared(Record):
            a: list = []

    class Frozen(Record, frozen=True):
        a: int = 0

    with pytest.raises(TypeError):
        class Thawed(Frozen, frozen=False):
            pass

    class Own(Record, frozen=True):
        a: int = 0

        def __eq__(self, other):
            return True

        def __hash__(self):
            return 7

        def __repr__(self):
            return "own"

    assert (Own() == 3, hash(Own()), repr(Own())) == (True, 7, "own")

    class EqualsOnly(Record, frozen=True):  # Python sets __hash__ = None itself
        a: int = 0

        def __eq__(self, other):
            return True

    assert hash(EqualsOnly(1)) == hash(EqualsOnly(1))

    class Deeper(Frozen):  # frozen is inherited
        extra: int = 0

    assert Deeper.__record_frozen__ and hash(Deeper()) == hash(Deeper())
    with pytest.raises(AttributeError):  # FrozenInstanceError is one
        Deeper().extra = 1
