"""Footprint guard: generated designs carry no per-object bookkeeping.

A server keeps every generated instance (its gate netlist and flat
equations) plus the stage memos keyed on them, so a few bytes of
overhead per gate or per expression node add up over tens of thousands
of objects.  These checks pin the compact representation: gates keep one
net tuple in their cell's pin order, gates / expression nodes / flat
assignment records have no ``__dict__``, expression nodes hash by
identity, and all of it survives the pickle round trip fleet bundles
take.  Expression nodes hold no per-node set and no per-node key tuple:
a node's support is a sorted tuple it shares with a child that covers
it, and its intern entry is keyed by an object it already holds.

They also pin what the server process does not hold at all: OpenSSL
(no module it imports loads ``_hashlib``), the Figure-8 flow before a
request needs it (a booted server that has answered queries, pings and
errors has imported no flow module), ``dataclasses``, ``inspect`` and
``logging`` even once it has generated (a static guard fails on any
module that imports ``dataclasses``, or ``logging`` at load), and a
second in-memory copy of the artifact text a generated instance has
already written to disk.

And what a cold request does not build: the Figure-8 flow derives its
connectivity per pass without ``GateNetlist.nets()`` tables, designs
share one string object per name, and the synthesis memo key reuses
the flat component's own assignment records.  These guards count
objects and calls, never time.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.api import ComponentService
from repro.api.messages import ComponentRequest
from repro.components import standard_catalog
from repro.constraints import Constraints
from repro.fingerprint import stable_fingerprint
from repro.fleet.worker import READY
from repro.iif import printer
from repro.iif.flat import AsyncTerm, CombAssign, FlatComponent, SeqAssign
from repro.iif.printer import flat_to_milo
from repro.logic import expr as E
from repro.netlist import vhdl
from repro.netlist.gates import GateNetlist
from repro.netlist.vhdl import gate_netlist_to_vhdl
from repro.wire import fields

SRC = Path(__file__).resolve().parents[1] / "src"

#: Render-cache keys of the artifact bodies (VHDL architecture body and
#: port blocks, flat-IIF body), memoized from their second render on.
BODY_KINDS = ("vhdl_body", "vhdl_ports", "flat_iif_body", "vhdl_head_ports")
#: The report renders, which follow the bodies' rule.
REPORT_KINDS = ("delay", "shape", "area")

PARITY_IIF = """
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


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=tmp_path_factory.mktemp("store"),
    )
    session = service.create_session()
    return [
        session.request_component(implementation=name, parameters={"size": 8})
        for name in ("counter", "array_multiplier")
    ]


def _records_and_nodes(flat):
    """The assignment records and every expression node they reach."""
    records, stack = [], []
    for assign in flat.assigns:
        records.append(assign)
        if isinstance(assign, CombAssign):
            stack.append(assign.expr)
        else:
            records.extend(assign.asyncs)
            stack += [assign.data, assign.clock]
            stack += [term.condition for term in assign.asyncs]
    nodes = {}
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.children())
    return records, list(nodes.values())


def test_gates_keep_one_net_tuple_in_their_cells_pin_order(generated):
    kinds = set()
    for instance in generated:
        for gate in instance.netlist.all_instances():
            kinds.add(gate.cell.kind)
            assert type(gate.nets) is tuple
            assert len(gate.nets) == len(gate.cell.pins)
            assert not hasattr(gate, "__dict__")
    # The set/reset flops are the one cell whose pin order is not
    # "inputs, then outputs"; the counter uses them.
    assert "DFF_SR" in kinds


def test_flat_records_and_expression_nodes_are_compact(generated):
    seen = set()
    for instance in generated:
        records, nodes = _records_and_nodes(instance.flat)
        for record in records:
            seen.add(type(record))
            assert not hasattr(record, "__dict__")
        assert nodes
        for node in nodes:
            assert not hasattr(node, "__dict__")
            assert type(node).__hash__ is object.__hash__
    assert seen == {AsyncTerm, CombAssign, SeqAssign}


def _slot_values(node):
    """Every object an expression node holds in its slots."""
    return [
        getattr(node, slot)
        for klass in type(node).__mro__
        for slot in getattr(klass, "__slots__", ())
        if slot != "__weakref__"
    ]


def test_expression_nodes_hold_no_frozenset(generated):
    _, nodes = _records_and_nodes(generated[1].flat)
    assert nodes
    for node in nodes:
        assert not any(isinstance(value, frozenset) for value in _slot_values(node))


#: The node classes whose intern entry is keyed by one of their own slots.
_KEYED_BY = {E.Var: "name", E.Not: "operand", E.Buf: "operand", E.And: "args", E.Or: "args"}


def test_intern_entries_are_keyed_by_what_the_node_holds(generated):
    nodes = [node for instance in generated for node in _records_and_nodes(instance.flat)[1]]
    nodes.append(E.buf(E.Var("A[0]")))
    keys = {}
    for table in vars(E).values():
        if isinstance(table, weakref.WeakValueDictionary):
            for key, ref in list(table.data.items()):
                keys[id(ref())] = key
    checked = set()
    for node in nodes:
        attribute = _KEYED_BY.get(type(node))
        if attribute is not None:
            assert keys[id(node)] is getattr(node, attribute)
            checked.add(type(node))
    assert checked == set(_KEYED_BY)


def test_a_node_shares_the_support_of_a_child_that_covers_it(generated):
    # No multiplier node reads only what one child reads; the counter's
    # inverters and one OR gate do.
    nodes = [node for instance in generated for node in _records_and_nodes(instance.flat)[1]]
    shared = set()
    for node in nodes:
        covering = [child._vars for child in node.children() if child._vars == node._vars]
        if covering:
            assert any(node._vars is support for support in covering)
            shared.add(type(node))
    assert {E.Not, E.Or} <= shared


#: Itemizes what each live expression node costs, in a fresh interpreter
#: that holds array_multiplier/8's flat component: the node, its ``args``
#: tuple and support (each distinct object once), an intern key the node
#: does not hold itself, the table's ``KeyedRef`` and the tables' dicts.
_NODE_BYTES_PROBE = """
import gc, json, sys, weakref

from repro.components import standard_catalog
from repro.logic import expr as E

flat = standard_catalog().get("array_multiplier").expand({"size": 8})
gc.collect()
parts = dict.fromkeys(("node", "args", "support", "key", "keyedref", "dict"), 0)
seen, nodes = set(), 0
for table in [v for v in vars(E).values() if isinstance(v, weakref.WeakValueDictionary)]:
    parts["dict"] += sys.getsizeof(table.data)
    for key, ref in list(table.data.items()):
        node = ref()
        if node is None:
            continue
        nodes += 1
        parts["node"] += sys.getsizeof(node)
        parts["keyedref"] += sys.getsizeof(ref)
        owned = [getattr(node, slot) for klass in type(node).__mro__
                 for slot in getattr(klass, "__slots__", ()) if slot != "__weakref__"]
        for kind, value in (("args", getattr(node, "args", None)), ("support", node._vars)):
            if value is not None and id(value) not in seen:
                seen.add(id(value))
                parts[kind] += sys.getsizeof(value)
        if not any(key is value for value in owned) and id(key) not in seen:
            seen.add(id(key))
            parts["key"] += sys.getsizeof(key)
print(json.dumps({"nodes": nodes, "bytes": sum(parts.values()), "parts": parts}))
"""


def test_bytes_per_live_expression_node(tmp_path):
    # A subprocess, so the intern tables hold this one flat component.
    proc = subprocess.run(
        [sys.executable, "-c", _NODE_BYTES_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["nodes"] >= 600
    # 311 B on Python 3.9.18, 314 B on 3.11.7 and 322 B on 3.12.1 (a
    # frozenset support and a key tuple per node cost 526-543 B).
    assert result["bytes"] / result["nodes"] < 360, result["parts"]


def test_flat_components_and_netlists_survive_pickle(generated):
    for instance in generated:
        flat = pickle.loads(pickle.dumps(instance.flat))
        assert flat == instance.flat
        netlist = pickle.loads(pickle.dumps(instance.netlist))
        original = instance.netlist
        assert (netlist.name, netlist.inputs, netlist.outputs) == (
            original.name,
            original.inputs,
            original.outputs,
        )
        assert netlist.library is original.library
        assert netlist.instances == original.instances


def test_synthesis_memo_key_reuses_the_flats_own_records(generated):
    for instance in generated:
        flat = instance.flat
        own = {id(assign) for assign in flat.assigns}
        key = flat.signature()[3]
        assert len(key) == len(flat.assigns)
        assert all(id(record) in own for record in key)


# ---------------------------------------------------------------------------
# What a cold request does not build
# ---------------------------------------------------------------------------


def test_a_cold_request_builds_no_net_table(tmp_path, monkeypatch):
    calls = []
    build_table = GateNetlist.nets

    def counted(netlist):
        calls.append(netlist.name)
        return build_table(netlist)

    monkeypatch.setattr(GateNetlist, "nets", counted)
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path
    )
    request = ComponentRequest(implementation="array_multiplier", attributes={"size": 8})
    response = service.execute(request)
    assert response.ok and not response.value["cached"]
    assert calls == []


def test_designs_share_one_string_per_name(tmp_path):
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path
    )
    session = service.create_session()
    first = {}
    common = set()
    for implementation in ("counter", "alu"):
        design = session.request_component(
            implementation=implementation, parameters={"size": 8}
        )
        netlist = design.netlist
        names = design.flat.signals() + list(netlist.instances)
        names += [net for gate in netlist.all_instances() for net in gate.nets]
        common |= {name for name in names if name in first}
        for name in names:
            assert first.setdefault(name, name) is name
    # Signal names (the carry chain), counter-derived gate and net names.
    assert {"C[1]", "U1_xor2", "n$2"} <= common


#: A custom module whose identifiers carry a tag, so each request brings
#: ``2 * size`` port names no other request uses.
FRESH_IIF = """
NAME: TAP{tag};
PARAMETER: size;
INORDER: FreshIn{tag}[size];
OUTORDER: FreshOut{tag}[size];
VARIABLE: i;
{{
    #for(i=0; i<size; i++)
        FreshOut{tag}[i] = !FreshIn{tag}[i];
}}
"""


def _sweep_shared_names():
    with E._NAMES_LOCK:
        E._sweep_names()


def test_shared_names_forget_what_nothing_holds(tmp_path):
    # 100 custom components of 256 fresh port names each: 25,600 names pass
    # through the table, in batches that end the transaction and clear the
    # stage memo, as a long-running server does.
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path
    )
    session = service.create_session()
    session.start_a_design("fresh_names")
    session.start_a_transaction()
    per_batch, size = 4, 128
    _sweep_shared_names()
    live_before = len(E._NAMES)
    peak = 0
    for first in range(0, 100, per_batch):
        designs = [
            session.request_component(
                iif=FRESH_IIF.format(tag=tag), parameters={"size": size}
            )
            for tag in range(first, first + per_batch)
        ]
        kept = designs[0].flat.inputs[0]
        del designs
        session.end_a_transaction()
        session.start_a_transaction()
        service.generator.generation_cache.clear()
        gc.collect()
        peak = max(peak, len(E._NAMES))
    # Sweeps keep the table within its stated slack of the names alive at
    # any one time (at most two batches' worth here), not of the run's.
    assert peak <= max(E.NAMES_FLOOR, 2 * (live_before + 2 * per_batch * 2 * size))
    # Once only this test holds one of the run's names, a sweep forgets
    # every other one ...
    _sweep_shared_names()
    assert [name for name in E._NAMES if name.startswith("Fresh")] == [kept]
    # ... and the kept one is an ordinary object, held by the table and
    # this test alone.  A bare ``sys.intern`` name would be immortal on
    # Python 3.12, which reports a refcount of about 2**32 for it.
    alone = "".join(("Fresh", "Probe"))
    assert sys.getrefcount(kept) == sys.getrefcount(alone) + 2


# ---------------------------------------------------------------------------
# What the server process does not hold
# ---------------------------------------------------------------------------

#: The Figure-8 flow: no request before the first generation runs it, so
#: a booted server has not imported it.
FLOW_PACKAGES = (
    "repro.iif",
    "repro.logic",
    "repro.netlist",
    "repro.sizing",
    "repro.estimation",
    "repro.layout",
    "repro.sim",
    "repro.core.generation",
)

#: Boots the server module, then serves what needs no generation through a
#: FrameDispatcher on a durable store (hello mints a session token, a ping,
#: a component query, one error answer), then one cold request_component.
_BOOT_PROBE = """
import json
import sys

compiled = []

def audit(event, args):
    # Code compiled from a string: per-class generated methods, typing's
    # forward references.  A module compiled from its own source file
    # (no cached bytecode) is an import, counted by boot_modules.
    if event == "compile" and not str(args[1]).endswith(".py"):
        compiled.append(str(args[1]))

sys.addaudithook(audit)

import repro.net.server

def loaded():
    return [m for m in sys.modules if m == "repro" or m.startswith("repro.")]

boot_modules = loaded()

from repro.api import PROTOCOL_VERSION, ComponentService
from repro.api.messages import ComponentQuery, ComponentRequest, InstanceQuery, Ping
from repro.store import DurableStore

durable = DurableStore(sys.argv[1] + "/data")
service = ComponentService(store_root=sys.argv[1] + "/files", durable_store=durable)
dispatcher = repro.net.server.FrameDispatcher(service, client_label="probe")
welcome = dispatcher.dispatch({"type": "hello", "protocol": PROTOCOL_VERSION})

def send(request):
    return dispatcher.dispatch({"type": "request", "request": request.to_dict()})["response"]

def stdlib_modules():
    return [m for m in ("dataclasses", "inspect", "logging") if m in sys.modules]

ping = send(Ping())
pinged = {"compiles": len(compiled), "modules": stdlib_modules()}
answers = [ping, send(ComponentQuery(component="Counter"))]
error = send(InstanceQuery(name="no_such_instance"))
lean_modules = loaded()
before = len(compiled)
reply = send(ComponentRequest(implementation="counter", attributes={"size": 4}))
generated = {"compiles": len(compiled) - before, "modules": stdlib_modules()}
dispatcher.close()
durable.close()
print(json.dumps({
    "welcome": welcome["type"],
    "lean_ok": [answer["ok"] for answer in answers],
    "error": error["error"]["code"],
    "cached": reply["value"]["cached"],
    "boot_modules": len(boot_modules),
    "pinged": pinged,
    "generated": generated,
    "lean_modules": lean_modules,
    "loaded": [m for m in ("_hashlib", "hashlib", "hmac", "ssl") if m in sys.modules],
}))
"""


def test_booted_server_loads_no_openssl_and_no_extra_modules(tmp_path):
    # A subprocess, because pytest and hypothesis import hashlib themselves.
    proc = subprocess.run(
        [sys.executable, "-c", _BOOT_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["welcome"], result["lean_ok"], result["error"]) == (
        "welcome", [True, True], "NOT_FOUND"
    )
    flow = [
        m for m in result["lean_modules"]
        if any(m == p or m.startswith(p + ".") for p in FLOW_PACKAGES)
    ]
    assert flow == []
    assert result["cached"] is False
    assert result["loaded"] == []
    assert result["boot_modules"] <= 39
    # Up to the first ping no class compiles methods of its own (records
    # serve theirs from a field table; what is counted is the codecs'
    # typing forward references and stdlib namedtuples) and nothing
    # loads dataclasses, inspect or logging.
    assert result["pinged"]["modules"] == []
    assert result["pinged"]["compiles"] <= 40
    # Nor does the first generation: the Figure-8 flow's records are
    # records too, and no event of the request reached a log handler.
    # Its compiles are the request codec's forward references (179 when
    # the flow's 54 classes were @dataclasses).
    assert result["generated"]["modules"] == []
    assert result["generated"]["compiles"] <= 40


def _imports(node):
    """The top-level package names an import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return {node.module.split(".")[0]}
    return set()


def _load_time(tree):
    """The statements a module runs when it is imported: its body, and the
    bodies of its classes and of its if / try / with / loop blocks, but
    not of its functions."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                pending.append(child)


def test_no_module_imports_dataclasses_or_logging_at_load():
    """A static guard for every module, the ones a server never loads (the
    CQL front end, behavioural synthesis) included: records are
    ``repro.wire.Record`` s, never ``@dataclass`` es, and a logger imports
    ``logging`` on the first event it must hand over, not at load."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=name)
        if any("dataclasses" in _imports(node) for node in ast.walk(tree)):
            offenders.append(f"{name} imports dataclasses")
        if any("logging" in _imports(node) for node in _load_time(tree)):
            offenders.append(f"{name} imports logging at load")
    assert offenders == []


#: Runs a fleet child on the task fed to its stdin, then reports what it
#: loaded (on stderr: the child points its stdout there once it starts).
_FLEET_CHILD_PROBE = """
import json
import sys

from repro.fleet import worker

status = worker.main()
modules = [m for m in ("dataclasses", "inspect", "logging") if m in sys.modules]
print(json.dumps({"status": status, "modules": modules}), file=sys.stderr)
"""


def test_a_fleet_child_that_computed_a_bundle_loads_no_dataclasses_or_logging():
    task = ("counter", {"size": 4}, Constraints(clock_width=30.0), "counter_1")
    proc = subprocess.run(
        [sys.executable, "-c", _FLEET_CHILD_PROBE],
        input=pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL),
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    answers = io.BytesIO(proc.stdout)
    assert pickle.load(answers) == READY
    ok, bundle = pickle.load(answers)
    assert ok is True and isinstance(bundle, bytes), bundle
    report = json.loads(proc.stderr.decode().splitlines()[-1])
    assert report == {"status": 0, "modules": []}


@pytest.mark.parametrize(
    "parts",
    [
        (),
        ("",),
        ("alu", 8),
        ("counter", (("size", 4), ("type", 2)), 30.0, None),
        (Constraints(clock_width=20.0), frozenset()),
        ("a\x1fb",),
        ("ab", "c"),
    ],
)
def test_stable_fingerprint_is_the_hashlib_blake2b_digest(parts):
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8") + b"\x1f")
    assert stable_fingerprint(*parts) == int.from_bytes(digest.digest(), "big")


def test_generated_instance_keeps_no_copy_of_its_persisted_bodies(generated):
    for instance in generated:
        assert not instance.cached
        assert set(instance.files) >= {"vhdl", "vhdl_head", "flat_iif"}
        assert [instance.render_cache.get(kind) for kind in BODY_KINDS] == [None] * 4


def test_generated_instance_keeps_no_copy_of_its_persisted_reports(generated):
    for instance in generated:
        assert set(instance.files) >= set(REPORT_KINDS)
        assert [instance.render_cache.get(kind) for kind in REPORT_KINDS] == [None] * 3
        assert [kind in instance.render_cache for kind in REPORT_KINDS] == [True] * 3


def test_lazy_clone_materializes_the_bytes_of_a_fresh_render(tmp_path):
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path
    )
    session = service.create_session()
    request = ComponentRequest(implementation="counter", attributes={"size": 4})
    session.execute(request).unwrap()
    clone = session.instance(session.execute(request).value["instance"])
    assert clone.cached
    assert service.materialize_artifacts(clone.name) == [clone.name]
    fresh = {
        "vhdl": gate_netlist_to_vhdl(clone.netlist, name=clone.name),
        "flat_iif": flat_to_milo(FlatComponent(**{
            **{f.name: getattr(clone.flat, f.name) for f in fields(clone.flat)},
            "name": clone.name,
        })),
    }
    for kind, text in fresh.items():
        assert Path(clone.files[kind]).read_bytes() == text.encode()
    # The clone's render was the family's second, so the next clone reuses it.
    assert all(isinstance(clone.render_cache[kind], str) for kind in BODY_KINDS)
    assert all(isinstance(clone.render_cache[kind], str) for kind in REPORT_KINDS)


@pytest.fixture
def body_renders(monkeypatch):
    """Names of the body producers ``ComponentInstance`` calls, in order
    (patched in their own modules: an instance imports its renderers when
    it renders)."""
    calls = []
    for module, producer in (
        (vhdl, "gate_netlist_architecture_body"),
        (vhdl, "vhdl_port_block"),
        (printer, "flat_milo_body"),
    ):
        original = getattr(module, producer)

        def counted(*args, _original=original, _producer=producer):
            calls.append(_producer)
            return _original(*args)

        monkeypatch.setattr(module, producer, counted)
    return calls


def test_a_body_read_again_is_memoized(tmp_path, body_renders):
    service = ComponentService(
        catalog=standard_catalog(fresh=True), store_root=tmp_path
    )
    session = service.create_session()

    # A default instance_query renders the VHDL netlist and head again.
    generated = session.request_component(
        implementation="array_multiplier", parameters={"size": 4}
    )
    assert len(body_renders) == 4
    body_renders.clear()
    answer = session.instance_query(generated.name)
    assert sorted(body_renders) == [
        "gate_netlist_architecture_body", "vhdl_port_block", "vhdl_port_block"
    ]
    body_renders.clear()
    assert session.instance_query(generated.name) == answer
    assert body_renders == []

    # A custom IIF request is never result-cached: a repeat is a flow hit
    # that builds a new instance on the shared render cache and persists it.
    custom = []
    for expected in (4, 4, 0):
        body_renders.clear()
        custom.append(session.request_component(iif=PARITY_IIF, parameters={"size": 5}))
        assert len(body_renders) == expected
    assert not any(instance.cached for instance in custom)
    assert custom[2].render_cache is custom[0].render_cache
    assert custom[2].vhdl_netlist() == Path(custom[2].files["vhdl"]).read_text()
