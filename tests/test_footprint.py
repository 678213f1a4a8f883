"""Footprint guard: generated designs carry no per-object bookkeeping.

A server keeps every generated instance (its gate netlist and flat
equations) plus the stage memos keyed on them, so a few bytes of
overhead per gate or per expression node add up over tens of thousands
of objects.  These checks pin the compact representation: gates keep one
net tuple in their cell's pin order, gates / expression nodes / flat
assignment records have no ``__dict__``, expression nodes hash by
identity, and all of it survives the pickle round trip fleet bundles
take.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import ComponentService
from repro.components import standard_catalog
from repro.iif.flat import AsyncTerm, CombAssign, SeqAssign


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
