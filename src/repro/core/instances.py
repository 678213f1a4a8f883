"""Generated component instances and their in-memory manager.

A *component instance* is a design ICDB generated for one
``request_component`` command (Appendix B.2): the flat IIF, the mapped and
sized gate netlist, the delay report, the shape function, the connection
information and the generated files.  Instances are kept so they can be
queried, refined and reused instead of regenerated (Section 2.2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints import Constraints
from ..estimation.area import AreaRecord
from ..estimation.delay import DelayReport
from ..estimation.shape import ShapeFunction
from ..iif.flat import FlatComponent
from ..iif.printer import flat_to_milo
from ..layout.generator import ComponentLayout
from ..netlist.gates import GateNetlist
from ..netlist.vhdl import (
    gate_netlist_architecture_body,
    gate_netlist_to_vhdl,
    vhdl_component_declaration,
    vhdl_port_block,
)


class InstanceError(KeyError):
    """Raised when an instance lookup fails."""


#: Generation target levels (Appendix B.6.1): a logic-level netlist or a layout.
TARGET_LOGIC = "logic"
TARGET_LAYOUT = "layout"


@dataclass
class ComponentInstance:
    """One generated component and everything ICDB knows about it."""

    name: str
    implementation: str
    component_type: str
    parameters: Dict[str, int]
    functions: List[str]
    constraints: Constraints
    flat: FlatComponent
    netlist: GateNetlist
    delay_report: DelayReport
    shape: ShapeFunction
    area_record: AreaRecord
    connection_info: str = ""
    target: str = TARGET_LOGIC
    layout: Optional[ComponentLayout] = None
    constraint_violations: List[str] = field(default_factory=list)
    sizing_iterations: int = 0
    design: str = ""
    files: Dict[str, str] = field(default_factory=dict)
    #: True when the instance was produced by the result cache rather than a
    #: full generator run (the netlist and estimates are shared with the
    #: originally synthesized template).
    cached: bool = False
    #: Memoized name-independent derivations of the shared netlist / report
    #: objects: report renders (delay, shape, area), the transistor count,
    #: summary fragments, and -- from their second render on -- the
    #: artifact bodies (VHDL architecture and ports, flat IIF).  Cache
    #: clones share this dict with their template, so each value is
    #: computed once per synthesized netlist.
    render_cache: Dict[str, object] = field(default_factory=dict)

    def __copy__(self) -> "ComponentInstance":
        # copy.copy's generic __reduce_ex__ path is measurable on the
        # cached request_component hot path; a plain __dict__ copy is the
        # exact same shallow semantics.
        clone = object.__new__(ComponentInstance)
        clone.__dict__.update(self.__dict__)
        return clone

    # ------------------------------------------------------------------ facts

    @property
    def area(self) -> float:
        """Estimated (or laid-out) area in square microns."""
        if self.layout is not None:
            return self.layout.area
        return self.area_record.area

    @property
    def clock_width(self) -> float:
        return self.delay_report.clock_width

    def delay_to(self, output: str) -> float:
        return self.delay_report.delay_to(output)

    def worst_delay(self) -> float:
        return self.delay_report.worst_output_delay()

    @property
    def inputs(self) -> List[str]:
        return list(self.flat.inputs)

    @property
    def outputs(self) -> List[str]:
        return list(self.flat.outputs)

    def met_constraints(self) -> bool:
        return not self.constraint_violations

    def transistor_units(self) -> float:
        """Total transistor units of the sized netlist.

        Sizing is finished by the time an instance exists, so the count is
        a constant of the shared netlist; it is memoized through
        ``render_cache`` and therefore computed once per synthesized
        netlist, not once per cache clone.
        """
        value = self.render_cache.get("transistor_units")
        if value is None:
            value = self.netlist.transistor_units()
            self.render_cache["transistor_units"] = value
        return float(value)

    # -------------------------------------------------------------- renderings

    def _render(self, kind: str, producer) -> str:
        text = self.render_cache.get(kind)
        if text is None:
            text = producer()
            self.render_cache[kind] = text
        return text

    def _render_body(self, kind: str, producer) -> str:
        # An artifact body is memoized from its second render on.  Most
        # families render it once, for their eager files, and keeping that
        # render would only duplicate text already on disk; a body that is
        # read again (a VHDL instance query, a flow hit's persist, a clone)
        # is kept.  The first render leaves a None marker, read as missing.
        text = self.render_cache.get(kind)
        if text is None:
            text = producer()
            self.render_cache[kind] = text if kind in self.render_cache else None
        return text

    def render_delay(self) -> str:
        """Delay information in the paper's instance-query format."""
        return self._render("delay", self.delay_report.render)

    def render_shape(self) -> str:
        """Shape function in the ``Alternative=...`` format."""
        return self._render("shape", self.shape.render)

    def render_area_records(self) -> str:
        """Area records in the ``strip = ...`` format."""
        return self._render(
            "area",
            lambda: "\n".join(record.render() for record in self.shape.alternatives),
        )

    def _vhdl_ports(self) -> str:
        # The port-declaration block is name-independent and shared with
        # cache clones, like the architecture body.
        return self._render_body(
            "vhdl_ports",
            lambda: vhdl_port_block(self.netlist.inputs, self.netlist.outputs),
        )

    def vhdl_netlist(self) -> str:
        # The architecture body is name-independent and shared with cache
        # clones; the entity header always carries this instance's name.
        body = self._render_body(
            "vhdl_body", lambda: gate_netlist_architecture_body(self.netlist)
        )
        return gate_netlist_to_vhdl(
            self.netlist, name=self.name, body=body, ports=self._vhdl_ports()
        )

    def flat_milo(self) -> str:
        """The flat IIF in MILO form, headed by this instance's name."""
        body = self._render_body(
            "flat_iif_body", lambda: flat_to_milo(self.flat).split("\n", 1)[1]
        )
        return f"NAME={self.name};\n{body}"

    def vhdl_head(self) -> str:
        # Same sharing trick, but over the flat component's port lists
        # (their ordering can differ from the mapped netlist's).
        ports = self._render_body(
            "vhdl_head_ports", lambda: vhdl_port_block(self.inputs, self.outputs)
        )
        return vhdl_component_declaration(
            self.name, self.inputs, self.outputs, ports=ports
        )

    def summary(self) -> str:
        return (
            f"{self.name}: impl={self.implementation} "
            f"cells={self.netlist.cell_count()} CW={self.clock_width:.1f} ns "
            f"area={self.area:,.0f} um^2"
        )


class InstanceManager:
    """Keeps the generated instances of one ICDB server.

    The manager is shared by every :class:`~repro.api.service.Session` of a
    :class:`~repro.api.service.ComponentService`, so naming and registration
    are serialized under a lock: concurrent sessions always receive distinct
    fresh names and registration of a duplicate name fails atomically.
    """

    def __init__(self) -> None:
        self._instances: Dict[str, ComponentInstance] = {}
        self._reserved: set = set()
        self._counter = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instances)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instances

    def new_name(self, base: str) -> str:
        """A fresh instance name derived from ``base``.

        The counter is bumped on every call, so two threads asking for names
        from the same base never receive the same candidate.
        """
        with self._lock:
            self._counter += 1
            candidate = f"{base}_{self._counter}"
            while candidate in self._instances or candidate in self._reserved:
                self._counter += 1
                candidate = f"{base}_{self._counter}"
            return candidate

    def reserve(self, names: "Sequence[str]") -> None:
        """Bar ``names`` from ever coming out of :meth:`new_name`.

        Crash recovery restores the relational rows of past instances but
        not the in-memory objects; reserving the recovered names keeps the
        fresh-name counter from colliding with rows that survived the
        restart.
        """
        with self._lock:
            self._reserved.update(names)

    def add(self, instance: ComponentInstance) -> ComponentInstance:
        with self._lock:
            if instance.name in self._instances:
                raise InstanceError(f"instance {instance.name!r} already exists")
            self._instances[instance.name] = instance
            return instance

    def get(self, name: str) -> ComponentInstance:
        with self._lock:
            try:
                return self._instances[name]
            except KeyError as exc:
                raise InstanceError(
                    f"no generated component instance named {name!r}"
                ) from exc

    def remove(self, name: str) -> Optional[ComponentInstance]:
        with self._lock:
            return self._instances.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._instances)

    def instances(self) -> List[ComponentInstance]:
        with self._lock:
            return list(self._instances.values())
