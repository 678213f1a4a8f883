"""Footprint guard: generated designs carry no per-object bookkeeping.

A server keeps every generated instance (its gate netlist and flat
equations) plus the stage memos keyed on them, so a few bytes of
overhead per gate or per expression node add up over tens of thousands
of objects.  These checks pin the compact representation: gates keep one
net tuple in their cell's pin order, gates / expression nodes / flat
assignment records have no ``__dict__``, expression nodes hash by
identity, and all of it survives the pickle round trip fleet bundles
take.

They also pin what the server process does not hold at all: OpenSSL
(no module it imports loads ``_hashlib``), and a second in-memory copy
of the artifact text a generated instance has already written to disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ComponentService
from repro.api.messages import ComponentRequest
from repro.components import standard_catalog
from repro.constraints import Constraints
from repro.core import instances
from repro.fingerprint import stable_fingerprint
from repro.iif.flat import AsyncTerm, CombAssign, SeqAssign
from repro.iif.printer import flat_to_milo
from repro.netlist.vhdl import gate_netlist_to_vhdl

SRC = Path(__file__).resolve().parents[1] / "src"

#: Render-cache keys of the artifact bodies (VHDL architecture body and
#: port blocks, flat-IIF body), memoized from their second render on.
BODY_KINDS = ("vhdl_body", "vhdl_ports", "flat_iif_body", "vhdl_head_ports")

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


# ---------------------------------------------------------------------------
# What the server process does not hold
# ---------------------------------------------------------------------------

#: Boots the server module, then serves one cold request_component through
#: a FrameDispatcher (hello mints a session token) on a durable store.
_BOOT_PROBE = """
import json
import sys

import repro.net.server

boot_modules = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]

from repro.api import PROTOCOL_VERSION, ComponentService
from repro.api.messages import ComponentRequest
from repro.store import DurableStore

durable = DurableStore(sys.argv[1] + "/data")
service = ComponentService(store_root=sys.argv[1] + "/files", durable_store=durable)
dispatcher = repro.net.server.FrameDispatcher(service, client_label="probe")
welcome = dispatcher.dispatch({"type": "hello", "protocol": PROTOCOL_VERSION})
request = ComponentRequest(implementation="counter", attributes={"size": 4})
reply = dispatcher.dispatch({"type": "request", "request": request.to_dict()})
dispatcher.close()
durable.close()
print(json.dumps({
    "welcome": welcome["type"],
    "cached": reply["response"]["value"]["cached"],
    "boot_modules": len(boot_modules),
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
    assert (result["welcome"], result["cached"]) == ("welcome", False)
    assert result["loaded"] == []
    assert result["boot_modules"] <= 74


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
        "flat_iif": flat_to_milo(dataclasses.replace(clone.flat, name=clone.name)),
    }
    for kind, text in fresh.items():
        assert Path(clone.files[kind]).read_bytes() == text.encode()
    # The clone's render was the family's second, so the next clone reuses it.
    assert all(isinstance(clone.render_cache[kind], str) for kind in BODY_KINDS)


@pytest.fixture
def body_renders(monkeypatch):
    """Names of the body producers ``ComponentInstance`` calls, in order."""
    calls = []
    for producer in ("gate_netlist_architecture_body", "vhdl_port_block", "flat_to_milo"):
        original = getattr(instances, producer)

        def counted(*args, _original=original, _producer=producer):
            calls.append(_producer)
            return _original(*args)

        monkeypatch.setattr(instances, producer, counted)
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
