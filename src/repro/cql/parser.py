"""Component Query Language (CQL) command-string parser.

A CQL command is a semicolon-separated list of ``keyword: value`` terms
(Appendix B.4).  Values can be plain strings, parenthesized lists
(``(INC,DEC)``), attribute lists (``(size:5)``), numbers, or *variable
descriptions*: ``%`` marks a value supplied by the caller's next variable,
``?`` marks an output ICDB stores into the caller's next variable; the
second character gives the type (``s`` string, ``d`` integer, ``r`` float,
``f`` file name) optionally followed by ``[]`` for arrays.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..wire import Record, field


class CqlSyntaxError(ValueError):
    """Raised on malformed CQL command strings."""


#: Variable description types (Appendix B.4).
VARIABLE_TYPES = {"s": str, "d": int, "r": float, "f": str}

_VARIABLE_RE = re.compile(r"^([%?])([sdrf])(\[\])?$")


class VariableSlot(Record, frozen=True):
    """A ``%``/``?`` variable description found in a command term."""

    direction: str  # "in" for %, "out" for ?
    type_code: str  # s, d, r, f
    is_array: bool = False

    @property
    def python_type(self):
        return VARIABLE_TYPES[self.type_code]

    def render(self) -> str:
        marker = "%" if self.direction == "in" else "?"
        return f"{marker}{self.type_code}" + ("[]" if self.is_array else "")


Value = Union[str, int, float, List[str], Dict[str, str], VariableSlot]


class CqlTerm(Record):
    """One ``keyword: value`` term of a command."""

    keyword: str
    value: Value
    raw: str = ""

    @property
    def is_input_slot(self) -> bool:
        return isinstance(self.value, VariableSlot) and self.value.direction == "in"

    @property
    def is_output_slot(self) -> bool:
        return isinstance(self.value, VariableSlot) and self.value.direction == "out"


class CqlCommand(Record):
    """A parsed CQL command."""

    command: str
    terms: List[CqlTerm] = field(default_factory=list)

    def get(self, keyword: str, default=None):
        for term in self.terms:
            if term.keyword == keyword:
                return term.value
        return default

    def has(self, keyword: str) -> bool:
        return any(term.keyword == keyword for term in self.terms)

    def keywords(self) -> List[str]:
        return [term.keyword for term in self.terms]

    def input_slots(self) -> List[CqlTerm]:
        return [term for term in self.terms if term.is_input_slot]

    def output_slots(self) -> List[CqlTerm]:
        return [term for term in self.terms if term.is_output_slot]

    def slots(self) -> List[CqlTerm]:
        """Input and output slots in the order they appear in the command."""
        return [term for term in self.terms if isinstance(term.value, VariableSlot)]


def _parse_value(raw: str) -> Value:
    text = raw.strip()
    if not text:
        return ""
    match = _VARIABLE_RE.match(text)
    if match:
        direction = "in" if match.group(1) == "%" else "out"
        return VariableSlot(direction=direction, type_code=match.group(2), is_array=bool(match.group(3)))
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = [item.strip() for item in inner.split(",") if item.strip()]
        if all(":" in item for item in items):
            pairs: Dict[str, str] = {}
            for item in items:
                key, _, value = item.partition(":")
                pairs[key.strip()] = value.strip()
            return pairs
        return items
    # Bare numbers stay strings unless they are clean integers / floats; the
    # executor decides how to interpret them per keyword.
    return text


def split_terms(text: str) -> List[Tuple[str, str]]:
    """Split a command string into (keyword, raw value) pairs.

    Semicolons inside parentheses do not split terms (attribute lists never
    contain semicolons in the paper, but be permissive).
    """
    terms: List[Tuple[str, str]] = []
    depth = 0
    current = []
    pieces: List[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        if char == ";" and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    if "".join(current).strip():
        pieces.append("".join(current))
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise CqlSyntaxError(f"term {piece!r} is missing a ':' separator")
        keyword, _, value = piece.partition(":")
        terms.append((keyword.strip(), value.strip()))
    return terms


#: Alternate spellings used across the paper's examples, normalized here.
KEYWORD_ALIASES = {
    "implemntation": "implementation",
    "implementations": "implementation",
    "icdb components": "implementation",
    "icdbcomponents": "implementation",
    "icdb_components": "implementation",
    "generated_component": "instance",
    "component_instance": "instance",
    "functions": "function",
    "attributes": "attribute",
    "set_up_time": "seq_delay",
    "setup_time": "seq_delay",
    "clk_width": "clock_width",
    "objectives": "objective",
    "goal": "objective",
    "sweeps": "sweep",
    "pareto_front": "front",
    "max_rdelay": "max_delay",
    "equivalent_to": "require_equivalent_to",
    "equiv_to": "require_equivalent_to",
    "cif_layout": "cif_layout",
    "vhdl_net_list": "vhdl_net_list",
    "vhdl_head": "vhdl_head",
}


def _normalize_keyword(keyword: str) -> str:
    collapsed = re.sub(r"\s+", " ", keyword.strip())
    lowered = collapsed.lower()
    return KEYWORD_ALIASES.get(lowered, lowered.replace(" ", "_"))


def parse_command(text: str) -> CqlCommand:
    """Parse a CQL command description string."""
    pairs = split_terms(text)
    if not pairs:
        raise CqlSyntaxError("empty CQL command")
    command_name: Optional[str] = None
    terms: List[CqlTerm] = []
    for keyword, raw in pairs:
        normalized = _normalize_keyword(keyword)
        if normalized == "command":
            command_name = raw.strip()
            continue
        terms.append(CqlTerm(keyword=normalized, value=_parse_value(raw), raw=raw))
    if command_name is None:
        raise CqlSyntaxError("CQL command is missing the 'command:' term")
    return CqlCommand(command=command_name, terms=terms)
