"""GENUS-style function and component taxonomy.

The paper classifies and retrieves ICDB components by either a *component
type* (Counter, Register, Adder_Subtractor, ...) or by the *functions* they
perform (ADD, INC, STORAGE, ...), following the GENUS generic component
library [Dutt 88].  This module defines that vocabulary:

* the function names grouped exactly as in Appendix B.2;
* the predefined component types and the functions each performs;
* the predefined attribute names and their defaults;
* the I/O port naming conventions (``I0``/``I1``/``O0``, control lines
  ``C0``/``C1``, and per-component alias names).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..wire import Record


class UnknownFunctionError(KeyError):
    """Raised when a function name is not part of the GENUS vocabulary."""


class UnknownComponentTypeError(KeyError):
    """Raised when a component type is not part of the GENUS vocabulary."""


# ---------------------------------------------------------------------------
# Function taxonomy (Appendix B.2)
# ---------------------------------------------------------------------------

LOGIC_FUNCTIONS = ("AND", "OR", "NOT", "NAND", "NOR", "XOR", "XNOR")
ARITHMETIC_FUNCTIONS = ("ADD", "SUB", "MUL", "DIV", "INC", "DEC")
RELATIONAL_FUNCTIONS = ("EQ", "NEQ", "GT", "GE", "LT", "LE")
SELECT_FUNCTIONS = ("MUX_SCL", "MUX_SCG")
SHIFT_FUNCTIONS = (
    "SHL1",
    "SHR1",
    "ROTL1",
    "ROTR1",
    "ASHL1",
    "ASHR1",
    "SHL",
    "SHR",
    "ROTL",
    "ROTR",
    "ASHL",
    "ASHR",
)
CODING_FUNCTIONS = ("ENCODE", "DECODE")
INTERFACE_FUNCTIONS = ("BUF", "CLK_DR", "SCHM_TGR", "TRI_STATE")
WIRE_FUNCTIONS = ("PORT", "BUS", "WIRE_OR")
SWITCHBOX_FUNCTIONS = ("CONCAT", "EXTRACT")
CLOCK_FUNCTIONS = ("CLK_GEN",)
DELAY_FUNCTIONS = ("DELAY",)
MEMORY_FUNCTIONS = ("LOAD", "STORE", "MEMORY", "READ", "WRITE", "PUSH", "POP")

#: Functions used by the component-management examples in Section 4.1 of the
#: paper (a register performs STORAGE, an up-counter INCREMENT and COUNTER).
STRUCTURAL_FUNCTIONS = ("STORAGE", "COUNTER", "INCREMENT", "DECREMENT")

FUNCTION_GROUPS: Dict[str, Tuple[str, ...]] = {
    "logic": LOGIC_FUNCTIONS,
    "arithmetic": ARITHMETIC_FUNCTIONS,
    "relational": RELATIONAL_FUNCTIONS,
    "select": SELECT_FUNCTIONS,
    "shift": SHIFT_FUNCTIONS,
    "coding": CODING_FUNCTIONS,
    "interface": INTERFACE_FUNCTIONS,
    "wire": WIRE_FUNCTIONS,
    "switchbox": SWITCHBOX_FUNCTIONS,
    "clock": CLOCK_FUNCTIONS,
    "delay": DELAY_FUNCTIONS,
    "memory": MEMORY_FUNCTIONS,
    "structural": STRUCTURAL_FUNCTIONS,
}

ALL_FUNCTIONS: Tuple[str, ...] = tuple(
    name for group in FUNCTION_GROUPS.values() for name in group
)

_FUNCTION_SET = frozenset(ALL_FUNCTIONS)

#: Operator spellings the synthesis front end may use, mapped onto functions.
FUNCTION_ALIASES: Dict[str, str] = {
    "+": "ADD",
    "-": "SUB",
    "*": "MUL",
    "/": "DIV",
    "++": "INC",
    "--": "DEC",
    "==": "EQ",
    "!=": "NEQ",
    ">": "GT",
    ">=": "GE",
    "<": "LT",
    "<=": "LE",
}


def normalize_function(name: str) -> str:
    """Map a function name or operator spelling onto the canonical name."""
    candidate = FUNCTION_ALIASES.get(name, name).upper()
    if candidate not in _FUNCTION_SET:
        raise UnknownFunctionError(name)
    return candidate


def function_group(name: str) -> str:
    """Return the group ("arithmetic", "logic", ...) a function belongs to."""
    canonical = normalize_function(name)
    for group, members in FUNCTION_GROUPS.items():
        if canonical in members:
            return group
    raise UnknownFunctionError(name)  # pragma: no cover - unreachable


# ---------------------------------------------------------------------------
# Attributes
# ---------------------------------------------------------------------------

#: The predefined attribute names of Appendix B.3 with their default values.
DEFAULT_ATTRIBUTES: Dict[str, object] = {
    "size": 4,
    "input_latch": 0,
    "output_latch": 0,
    "input_type": "high",
    "output_type": "high",
    "output_tri_state": 0,
}


def merge_attributes(overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    """Return the attribute dictionary with defaults filled in."""
    merged = dict(DEFAULT_ATTRIBUTES)
    if overrides:
        for key, value in overrides.items():
            merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# Component types
# ---------------------------------------------------------------------------


class ComponentType(Record, frozen=True):
    """A predefined microarchitecture component type.

    ``functions`` lists the functions an implementation of this type is
    expected to perform (an individual implementation may perform more, e.g.
    an up/down counter with parallel load also performs STORAGE).
    ``port_aliases`` maps the canonical ``I0/O0/C0`` names to the
    human-friendly alias used in queries and connection info.
    """

    name: str
    functions: Tuple[str, ...]
    description: str = ""
    port_aliases: Tuple[Tuple[str, str], ...] = ()

    def alias_map(self) -> Dict[str, str]:
        return dict(self.port_aliases)


_COMPONENT_TYPES: Dict[str, ComponentType] = {}


def _register_type(component_type: ComponentType) -> ComponentType:
    _COMPONENT_TYPES[component_type.name.lower()] = component_type
    return component_type


LOGIC_UNIT = _register_type(
    ComponentType(
        "Logic_unit",
        ("AND", "OR", "NOT", "NAND", "NOR", "XOR", "XNOR"),
        "Bitwise logic unit with a selectable operation",
    )
)
MUX_SCL = _register_type(
    ComponentType(
        "Mux_scl",
        ("MUX_SCL",),
        "Multiplexer selected by encoded control lines",
    )
)
MUX_SCG = _register_type(
    ComponentType(
        "Mux_scg",
        ("MUX_SCG",),
        "Multiplexer selected by one-hot guard values",
    )
)
DECODE = _register_type(
    ComponentType("Decode", ("DECODE",), "Binary decoder")
)
ENCODE = _register_type(
    ComponentType("Encode", ("ENCODE",), "Priority encoder")
)
COMPARATOR = _register_type(
    ComponentType(
        "Comparator",
        ("EQ", "NEQ", "GT", "GE", "LT", "LE"),
        "Magnitude comparator",
        port_aliases=(
            ("O0", "OEQ"),
            ("O1", "ONEQ"),
            ("O2", "OGT"),
            ("O3", "OLT"),
            ("O4", "OGEQ"),
            ("O5", "OLEQ"),
        ),
    )
)
SHIFTER = _register_type(
    ComponentType("Shifter", ("SHL1", "SHR1"), "Single-position shifter")
)
BARREL_SHIFTER = _register_type(
    ComponentType("Barrel_shifter", ("SHL", "SHR", "ROTL", "ROTR"), "Barrel shifter")
)
ADDER = _register_type(
    ComponentType(
        "Adder",
        ("ADD",),
        "Binary adder",
        port_aliases=(("I2", "Cin"), ("O1", "Cout")),
    )
)
ADDER_SUBTRACTOR = _register_type(
    ComponentType(
        "Adder_Subtractor",
        ("ADD", "SUB"),
        "Adder / subtractor with mode control",
        port_aliases=(("C0", "Add_Sub"), ("O1", "Cout")),
    )
)
ALU = _register_type(
    ComponentType(
        "ALU",
        ("ADD", "SUB", "AND", "OR", "XOR", "NOT", "INC", "DEC"),
        "Arithmetic logic unit",
    )
)
MULTIPLIER = _register_type(
    ComponentType("Multiplier", ("MUL",), "Array multiplier")
)
DIVIDER = _register_type(
    ComponentType("Divider", ("DIV",), "Sequential divider")
)
REGISTER = _register_type(
    ComponentType(
        "Register",
        ("STORAGE", "LOAD", "STORE"),
        "Parallel-load register",
    )
)
COUNTER = _register_type(
    ComponentType(
        "Counter",
        ("INC", "COUNTER", "INCREMENT"),
        "Counter (ripple or synchronous, optional up/down, load, enable)",
    )
)
REGISTER_FILE = _register_type(
    ComponentType("Register_file", ("READ", "WRITE", "STORAGE"), "Register file")
)
STACK = _register_type(
    ComponentType("Stack", ("PUSH", "POP", "STORAGE"), "LIFO stack")
)
MEMORY = _register_type(
    ComponentType("Memory", ("READ", "WRITE", "MEMORY"), "RAM block")
)
BUFFER = _register_type(ComponentType("Buffer", ("BUF",), "Signal buffer"))
CLOCK_DRIVER = _register_type(
    ComponentType("Clock_driver", ("CLK_DR",), "Clock distribution driver")
)
SCHMITT_TRIGGER = _register_type(
    ComponentType("Schmitt_trigger", ("SCHM_TGR",), "Schmitt-trigger input conditioner")
)
TRI_STATE = _register_type(
    ComponentType("Tri_state", ("TRI_STATE",), "Tri-state bus driver")
)
PORT = _register_type(ComponentType("Port", ("PORT",), "Chip I/O port"))
BUS = _register_type(ComponentType("Bus", ("BUS",), "Shared bus"))
WIRE_OR = _register_type(ComponentType("Wire_or", ("WIRE_OR",), "Wired-or net"))
CONCAT = _register_type(
    ComponentType("Concat", ("CONCAT",), "Bit-field concatenation switch box")
)
EXTRACT = _register_type(
    ComponentType("Extract", ("EXTRACT",), "Bit-field extraction switch box")
)
CLOCK_GENERATOR = _register_type(
    ComponentType("Clock_generator", ("CLK_GEN",), "Clock generator")
)
DELAY = _register_type(ComponentType("Delay", ("DELAY",), "Pure delay element"))


PREDEFINED_COMPONENT_TYPES: Tuple[str, ...] = tuple(
    ct.name for ct in _COMPONENT_TYPES.values()
)


def component_type(name: str) -> ComponentType:
    """Look up a component type by (case-insensitive) name."""
    try:
        return _COMPONENT_TYPES[name.lower()]
    except KeyError as exc:
        raise UnknownComponentTypeError(name) from exc


def is_component_type(name: str) -> bool:
    return name.lower() in _COMPONENT_TYPES


def component_types_for_function(function: str) -> List[ComponentType]:
    """Component types whose default function set includes ``function``."""
    canonical = normalize_function(function)
    return [ct for ct in _COMPONENT_TYPES.values() if canonical in ct.functions]


def all_component_types() -> List[ComponentType]:
    return list(_COMPONENT_TYPES.values())


# ---------------------------------------------------------------------------
# Function operand naming (Appendix B.3)
# ---------------------------------------------------------------------------


def function_operands(function: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Return (input operand names, output operand names) of a function.

    Unary operators use ``I0`` -> ``O0``; binary operators ``I0``/``I1`` ->
    ``O0``.  ADD and SUB get a carry alias ``Cin`` on ``I2``; relational
    functions produce a single flag output.
    """
    canonical = normalize_function(function)
    if canonical in ("NOT", "BUF", "SCHM_TGR", "CLK_DR", "INC", "DEC", "ENCODE",
                     "DECODE", "SHL1", "SHR1", "ROTL1", "ROTR1", "ASHL1", "ASHR1",
                     "DELAY", "STORAGE", "LOAD", "STORE"):
        return ("I0",), ("O0",)
    if canonical in ("ADD", "SUB"):
        return ("I0", "I1", "Cin"), ("O0", "Cout")
    if canonical in ("SHL", "SHR", "ROTL", "ROTR", "ASHL", "ASHR"):
        return ("I0", "I1"), ("O0",)
    if canonical in RELATIONAL_FUNCTIONS:
        return ("I0", "I1"), ("O0",)
    if canonical in ("MUX_SCL", "MUX_SCG"):
        return ("I0", "I1", "C0"), ("O0",)
    if canonical in ("TRI_STATE",):
        return ("I0", "C0"), ("O0",)
    if canonical in ("WIRE_OR", "CONCAT"):
        return ("I0", "I1"), ("O0",)
    if canonical in ("EXTRACT",):
        return ("I0",), ("O0",)
    if canonical in ("MUL", "DIV"):
        return ("I0", "I1"), ("O0",)
    if canonical in ("READ", "WRITE", "MEMORY", "PUSH", "POP"):
        return ("I0", "I1"), ("O0",)
    if canonical in ("COUNTER", "INCREMENT", "DECREMENT"):
        return ("I0",), ("O0",)
    if canonical in ("CLK_GEN", "PORT", "BUS"):
        return ("I0",), ("O0",)
    # Remaining bitwise logic functions.
    return ("I0", "I1"), ("O0",)
