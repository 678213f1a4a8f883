"""Microarchitecture (datapath + control) construction on top of ICDB.

Two builders live here:

* :func:`build_datapath` turns a schedule + allocation into a structural
  netlist of ICDB component instances (functional units, registers for
  values that cross control steps, multiplexers for shared units) plus a
  control-logic IIF description that ICDB turns into a component -- the
  control-generation path of Section 3.2.2.

* :func:`build_simple_computer` assembles the "simple computer" of
  Figure 13: an ALU, two operand registers, an accumulator, a program
  counter, an operand multiplexer and generated control logic, and returns
  the pieces the floorplanning benchmark composes in the two styles shown
  in the paper (control logic tall-and-thin on the left vs. short-and-wide
  on the bottom).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, TYPE_CHECKING, Tuple, Union

from ..components.counters import counter_parameters, TYPE_SYNCHRONOUS, UP_ONLY
from ..api.service import Session
from ..constraints import Constraints
from ..core.instances import ComponentInstance
from ..estimation.shape import ShapeFunction
from ..layout.slicing import Block, FloorplanResult, floorplan, row, stack
from ..structure import StructuralNetlist
from ..wire import Record, field
from .allocation import Allocation, storage_requirements
from .dfg import DataFlowGraph
from .scheduling import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.client import RemoteClient

#: Builders accept a service session (the legacy facade is one) or a
#: network :class:`~repro.net.client.RemoteClient`; both expose the classic
#: surface and the shared instance registry's naming surface.
IcdbClient = Union[Session, "RemoteClient"]


class DatapathError(RuntimeError):
    """Raised when a microarchitecture cannot be assembled."""


class Datapath(Record):
    """A built microarchitecture: instances, structure and control logic."""

    name: str
    structure: StructuralNetlist
    functional_units: List[ComponentInstance] = field(default_factory=list)
    registers: List[ComponentInstance] = field(default_factory=list)
    multiplexers: List[ComponentInstance] = field(default_factory=list)
    control: Optional[ComponentInstance] = None

    def all_instances(self) -> List[ComponentInstance]:
        parts = list(self.functional_units) + list(self.registers) + list(self.multiplexers)
        if self.control is not None:
            parts.append(self.control)
        return parts

    def total_area(self) -> float:
        return sum(instance.area for instance in self.all_instances())

    def render(self) -> str:
        lines = [f"datapath {self.name}: {len(self.all_instances())} components"]
        for instance in self.all_instances():
            lines.append(f"  {instance.summary()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Control logic generation
# ---------------------------------------------------------------------------


def control_logic_iif(
    name: str,
    steps: int,
    command_bits: int,
) -> str:
    """IIF for a one-hot control sequencer.

    ``steps`` one-hot state flip-flops advance on every clock (wrapping
    around); each state drives ``command_bits`` command outputs through a
    small decode plane.  This is the kind of control logic the paper's
    control synthesis tool hands to ICDB as boolean equations plus a
    register list.
    """
    if steps < 2:
        raise DatapathError("a control sequencer needs at least two steps")
    return f"""
NAME: {name};
PARAMETER: steps, cbits;
INORDER: CLK, RESET;
OUTORDER: CMD[cbits], STATE[steps];
PIIFVARIABLE: NEXT[steps];
VARIABLE: i, j;
{{
    #for(i=0; i<steps; i++)
    {{
        #if (i == 0)
            NEXT[i] = STATE[steps-1] + RESET;
        #else
            NEXT[i] = STATE[i-1] * !RESET;
        STATE[i] = (NEXT[i]) @(~r CLK);
    }}
    #for(j=0; j<cbits; j++)
    {{
        #for(i=0; i<steps; i++)
        {{
            #if ((i + j) % 3 != 0)
                CMD[j] += STATE[i];
        }}
    }}
}}
"""


def generate_control_logic(
    icdb: IcdbClient,
    name: str,
    steps: int,
    command_bits: int,
    constraints: Optional[Constraints] = None,
) -> ComponentInstance:
    """Ask ICDB to generate the control-logic component from IIF."""
    source = control_logic_iif(name.upper(), steps, command_bits)
    return icdb.request_component(
        iif=source,
        parameters={"steps": steps, "cbits": command_bits},
        constraints=constraints,
        instance_name=icdb.instances.new_name(name),
    )


# ---------------------------------------------------------------------------
# Datapath from schedule + allocation
# ---------------------------------------------------------------------------


def build_datapath(
    icdb: IcdbClient,
    schedule: Schedule,
    allocation: Allocation,
    width: int = 8,
    name: Optional[str] = None,
    constraints: Optional[Constraints] = None,
) -> Datapath:
    """Assemble the microarchitecture for a scheduled, allocated DFG."""
    dfg = schedule.dfg
    datapath_name = name or f"{dfg.name}_datapath"
    structure = StructuralNetlist(
        name=datapath_name,
        inputs=list(dfg.inputs) + ["CLK", "RESET"],
        outputs=list(dfg.outputs),
    )
    datapath = Datapath(name=datapath_name, structure=structure)

    for unit in allocation.units:
        datapath.functional_units.append(unit.instance)
        operand_nets = {
            f"I{i}": f"{unit.name}_in{i}" for i in range(2)
        }
        structure.add(unit.name, unit.instance.name, {**operand_nets, "O0": f"{unit.name}_out"})

    # Registers for values that live across control steps (and the
    # outputs), plus a multiplexer in front of every functional unit that
    # serves more than one operation (operand steering).  Every name is
    # allocated up front, before the first of them generates, which fixes
    # the names the builder has always given.
    lifetimes = storage_requirements(schedule)
    specs: List[Tuple[str, Dict[str, object]]] = []
    for value, (produced, last_use) in sorted(lifetimes.items()):
        specs.append(
            (
                f"reg_{value}",
                dict(
                    component_name="Register",
                    functions=["STORAGE"],
                    attributes={"size": width},
                    constraints=constraints,
                    instance_name=icdb.instances.new_name(f"reg_{value}"),
                ),
            )
        )
    shared_units = [
        unit for unit in allocation.units if len(unit.bound_operations) > 1
    ]
    for unit in shared_units:
        specs.append(
            (
                f"mux_{unit.name}",
                dict(
                    component_name="Mux_scl",
                    functions=["MUX_SCL"],
                    attributes={"size": width},
                    constraints=constraints,
                    instance_name=icdb.instances.new_name(f"mux_{unit.name}"),
                ),
            )
        )
    generated = {key: icdb.request_component(**kwargs) for key, kwargs in specs}

    for value, (produced, last_use) in sorted(lifetimes.items()):
        register = generated[f"reg_{value}"]
        datapath.registers.append(register)
        structure.add(
            f"reg_{value}",
            register.name,
            {"I": value, "Q": f"{value}_q", "CLK": "CLK", "LOAD": f"load_{value}"},
        )
    for unit in shared_units:
        mux = generated[f"mux_{unit.name}"]
        datapath.multiplexers.append(mux)
        structure.add(
            f"mux_{unit.name}",
            mux.name,
            {"I0": f"{unit.name}_src0", "I1": f"{unit.name}_src1",
             "SEL": f"sel_{unit.name}", "O": f"{unit.name}_in0"},
        )

    # Control logic: one command bit per register load plus per mux select.
    command_bits = max(1, len(datapath.registers) + len(datapath.multiplexers))
    control = generate_control_logic(
        icdb,
        f"{datapath_name}_control",
        steps=max(2, schedule.steps),
        command_bits=command_bits,
        constraints=constraints,
    )
    datapath.control = control
    structure.add(
        "control",
        control.name,
        {"CLK": "CLK", "RESET": "RESET", "CMD[0]": "cmd0"},
    )
    return datapath


# ---------------------------------------------------------------------------
# The Figure 13 simple computer
# ---------------------------------------------------------------------------


class SimpleComputer(Record):
    """The components of the Figure 13 example and its floorplans."""

    datapath_parts: Dict[str, ComponentInstance]
    control: ComponentInstance
    width: int

    def part_block(self, label: str) -> Block:
        instance = self.datapath_parts[label]
        return Block.from_shape_function(label, instance.shape)

    def control_block(self) -> Block:
        return Block.from_shape_function("control", self.control.shape)

    def datapath_blocks(self) -> List[Block]:
        return [self.part_block(label) for label in self.datapath_parts]

    def floorplan_control_left(self) -> FloorplanResult:
        """Control logic placed tall-and-thin on the left of the datapath."""
        datapath = stack(*self.datapath_blocks())
        return floorplan(row(self.control_block(), datapath), target_aspect=1.0)

    def floorplan_control_bottom(self) -> FloorplanResult:
        """Control logic placed short-and-wide under the datapath."""
        datapath = row(*self.datapath_blocks())
        return floorplan(stack(self.control_block(), datapath), target_aspect=2.0)

    def total_component_area(self) -> float:
        total = sum(inst.area for inst in self.datapath_parts.values())
        return total + self.control.area


def build_simple_computer(
    icdb: IcdbClient,
    width: int = 8,
    constraints: Optional[Constraints] = None,
) -> SimpleComputer:
    """Generate the components of the Figure 13 simple computer."""
    constraints = constraints or Constraints()
    specs = [
        (
            "alu",
            dict(
                implementation="alu", attributes={"size": width},
                constraints=constraints,
                instance_name=icdb.instances.new_name("cpu_alu"),
            ),
        ),
        (
            "accumulator",
            dict(
                implementation="register", attributes={"size": width},
                constraints=constraints,
                instance_name=icdb.instances.new_name("cpu_acc"),
            ),
        ),
        (
            "operand_register",
            dict(
                implementation="register", attributes={"size": width},
                constraints=constraints,
                instance_name=icdb.instances.new_name("cpu_opreg"),
            ),
        ),
        (
            "program_counter",
            dict(
                implementation="counter",
                parameters=counter_parameters(size=width, style=TYPE_SYNCHRONOUS,
                                              load=True, enable=True,
                                              up_or_down=UP_ONLY),
                constraints=constraints,
                instance_name=icdb.instances.new_name("cpu_pc"),
            ),
        ),
        (
            "operand_mux",
            dict(
                implementation="mux2", attributes={"size": width},
                constraints=constraints,
                instance_name=icdb.instances.new_name("cpu_mux"),
            ),
        ),
    ]
    parts = {key: icdb.request_component(**kwargs) for key, kwargs in specs}
    control = generate_control_logic(
        icdb, "cpu_control", steps=8, command_bits=12, constraints=constraints
    )
    return SimpleComputer(datapath_parts=parts, control=control, width=width)
