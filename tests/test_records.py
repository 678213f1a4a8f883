"""Every record class behaves as the ``@dataclass`` it replaced.

``repro.wire.Record`` serves ``__init__``, ``==``, ``__hash__``, ``repr``
and the frozen guard from one field table, without generating code.  For
each of the 51 record classes a server or client defines, a
``dataclasses.make_dataclass`` twin with the same fields, defaults,
factories, flags and methods is built, and both are driven with the same
arguments: results are compared, and exceptions by type only (Python 3.9
words them differently).  Tests may import ``dataclasses``; a booted
server does not (``tests/test_footprint.py``).
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
from pathlib import Path
from typing import ClassVar

import pytest

from repro.api.messages import NewName, Ping
from repro.api.planner import CandidateReport
from repro.api.query import Bound, QuerySpec, TypePredicate
from repro.components.catalog import ControlSetting
from repro.constraints import Constraints, PortPosition
from repro.structure import ComponentRef
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
}


def _records():
    for module in _MODULES:
        importlib.import_module(module)
    found, pending = {}, [Record]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.") and sub is not Wire:
                found[sub.__name__] = sub
    return found


RECORDS = _records()

#: What the twin leaves to dataclasses, or what no dataclass has.
_SERVED = {
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
    "__dict__", "__weakref__", "__module__", "__qualname__", "__doc__",
    "__annotations__", "__record_fields__", "__record_frozen__",
}


def _twin(cls):
    """The @dataclass twin of ``cls``: its field table as dataclass fields,
    and its own class attributes and methods (``__post_init__``, tags)."""
    specs = []
    for entry in fields(cls):
        options = {"compare": entry.compare, "repr": entry.repr, "metadata": entry.metadata}
        if entry.default is not MISSING:
            options["default"] = entry.default
        if entry.default_factory is not MISSING:
            options["default_factory"] = entry.default_factory
        specs.append((entry.name, object, dataclasses.field(**options)))
    names = {entry.name for entry in fields(cls)}
    namespace = {}
    for klass in reversed(cls.__mro__[: cls.__mro__.index(Record)]):
        for key, value in vars(klass).items():
            if key not in names and key not in _SERVED:
                namespace[key] = value
    return dataclasses.make_dataclass(
        cls.__name__, specs, namespace=namespace, frozen=cls.__name__ not in MUTABLE
    )


def _outcome(call):
    """What ``call()`` returns, or the type of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared by type: messages vary by version
        return type(exc)


def test_every_record_class_has_an_example():
    assert len(RECORDS) == 51
    assert sorted(EXAMPLES) == sorted(RECORDS)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_record_behaves_as_its_dataclass_twin(name):
    cls, twin = RECORDS[name], _twin(RECORDS[name])
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
    assert vars(first) == vars(twins[0])  # fields after __post_init__
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


def test_records_of_different_classes_compare_as_their_twins_do():
    names = sorted(EXAMPLES)
    records = [RECORDS[name](**EXAMPLES[name][0]) for name in names]
    twins = [_twin(RECORDS[name])(**EXAMPLES[name][0]) for name in names]
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
