"""Technology mapping: boolean expressions onto library cells.

The mapper covers each (minimized, factored) equation with cells from the
:mod:`repro.techlib` library.  Simple tree covering is used, with optional
complex-gate pattern matching (NAND/NOR, AOI21/OAI21/AOI22, 2:1 MUX) --
the paper's third MILO step "performs technology mapping by combining gates
into complex gates".

Sub-expressions are structurally cached per component, so logic shared by
several equations is built only once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.gates import GateNetlist
from ..techlib import Cell, CellLibrary
from ..wire import Record
from . import expr as E


class MappingError(ValueError):
    """Raised when an expression cannot be mapped onto the library."""


class MappingOptions(Record):
    """Mapping options (the ablation benches toggle ``use_complex_gates``)."""

    use_complex_gates: bool = True
    max_gate_inputs: int = 4


class TechnologyMapper:
    """Maps expressions onto cells, adding instances to a netlist."""

    def __init__(
        self,
        netlist: GateNetlist,
        library: CellLibrary,
        options: Optional[MappingOptions] = None,
    ):
        self.netlist = netlist
        self.library = library
        self.options = options or MappingOptions()
        self._cache: Dict[E.BExpr, str] = {}

    # ------------------------------------------------------------------ API

    def map_to_net(self, expression: E.BExpr, target: Optional[str] = None) -> str:
        """Map ``expression``; return the net holding its value.

        When ``target`` is given, a cell is guaranteed to drive exactly that
        net (inserting a buffer when the expression is a bare signal or an
        already-mapped shared sub-expression).
        """
        if target is None:
            return self._map(expression)
        existing = self._lookup(expression)
        if existing is not None or isinstance(expression, E.Var):
            source = existing if existing is not None else expression.name  # type: ignore[union-attr]
            if source == target:
                return target
            self._add("BUF", {"I0": source}, target)
            return target
        self._emit(expression, target)
        self._cache.setdefault(expression, target)
        return target

    # ------------------------------------------------------------------ core

    def _lookup(self, expression: E.BExpr) -> Optional[str]:
        return self._cache.get(expression)

    def _map(self, expression: E.BExpr) -> str:
        if isinstance(expression, E.Var):
            return expression.name
        cached = self._cache.get(expression)
        if cached is not None:
            return cached
        net = self.netlist.new_net()
        self._emit(expression, net)
        self._cache[expression] = net
        return net

    def _add(self, kind: str, input_map: Dict[str, str], output_net: str) -> None:
        cell = self.library.by_kind(kind)
        pins = dict(input_map)
        pins[cell.outputs[0]] = output_net
        self.netlist.add_instance(cell, pins)

    def _emit(self, expression: E.BExpr, out_net: str) -> None:
        if isinstance(expression, E.Const):
            self._add("TIE1" if expression.value else "TIE0", {}, out_net)
            return
        if isinstance(expression, E.Var):
            self._add("BUF", {"I0": expression.name}, out_net)
            return
        if isinstance(expression, E.Buf):
            self._add("BUF", {"I0": self._map(expression.operand)}, out_net)
            return
        if isinstance(expression, E.Not):
            self._emit_not(expression.operand, out_net)
            return
        if isinstance(expression, E.And):
            self._emit_nary("AND", expression.args, out_net)
            return
        if isinstance(expression, E.Or):
            if self.options.use_complex_gates and self._try_mux(expression, out_net):
                return
            self._emit_nary("OR", expression.args, out_net)
            return
        if isinstance(expression, E.Xor):
            self._add(
                "XOR2",
                {"I0": self._map(expression.left), "I1": self._map(expression.right)},
                out_net,
            )
            return
        if isinstance(expression, E.Xnor):
            self._add(
                "XNOR2",
                {"I0": self._map(expression.left), "I1": self._map(expression.right)},
                out_net,
            )
            return
        if isinstance(expression, E.Special):
            self._emit_special(expression, out_net)
            return
        raise MappingError(f"cannot map expression {expression!r}")

    # ------------------------------------------------------------- inverters

    def _emit_not(self, operand: E.BExpr, out_net: str) -> None:
        if self.options.use_complex_gates:
            # Try the and-or-invert / or-and-invert patterns first: they are
            # strictly better matches than decomposing into an AND/OR feeding
            # a NOR/NAND.
            aoi = self._match_aoi(operand)
            if aoi is not None:
                kind, pins = aoi
                self._add(kind, pins, out_net)
                return
            if isinstance(operand, E.And) and 2 <= len(operand.args) <= 4:
                kind = f"NAND{len(operand.args)}"
                if self.library.has_kind(kind):
                    pins = {
                        f"I{i}": self._map(arg) for i, arg in enumerate(operand.args)
                    }
                    self._add(kind, pins, out_net)
                    return
            if isinstance(operand, E.Or) and 2 <= len(operand.args) <= 3:
                kind = f"NOR{len(operand.args)}"
                if self.library.has_kind(kind):
                    pins = {
                        f"I{i}": self._map(arg) for i, arg in enumerate(operand.args)
                    }
                    self._add(kind, pins, out_net)
                    return
        self._add("INV", {"I0": self._map(operand)}, out_net)

    def _match_aoi(self, operand: E.BExpr) -> Optional[Tuple[str, Dict[str, str]]]:
        """Match !((a*b)+c), !((a*b)+(c*d)) and !((a+b)*c) complex gates."""
        if isinstance(operand, E.Or) and len(operand.args) == 2:
            ands = [arg for arg in operand.args if isinstance(arg, E.And) and len(arg.args) == 2]
            others = [arg for arg in operand.args if not (isinstance(arg, E.And) and len(arg.args) == 2)]
            if len(ands) == 2 and self.library.has_kind("AOI22"):
                first, second = ands
                return "AOI22", {
                    "I0": self._map(first.args[0]),
                    "I1": self._map(first.args[1]),
                    "I2": self._map(second.args[0]),
                    "I3": self._map(second.args[1]),
                }
            if len(ands) == 1 and len(others) == 1 and self.library.has_kind("AOI21"):
                return "AOI21", {
                    "I0": self._map(ands[0].args[0]),
                    "I1": self._map(ands[0].args[1]),
                    "I2": self._map(others[0]),
                }
        if isinstance(operand, E.And) and len(operand.args) == 2:
            ors = [arg for arg in operand.args if isinstance(arg, E.Or) and len(arg.args) == 2]
            others = [arg for arg in operand.args if not (isinstance(arg, E.Or) and len(arg.args) == 2)]
            if len(ors) == 1 and len(others) == 1 and self.library.has_kind("OAI21"):
                return "OAI21", {
                    "I0": self._map(ors[0].args[0]),
                    "I1": self._map(ors[0].args[1]),
                    "I2": self._map(others[0]),
                }
        return None

    # ------------------------------------------------------------- n-ary trees

    def _emit_nary(self, base: str, args: Sequence[E.BExpr], out_net: str) -> None:
        nets = [self._map(arg) for arg in args]
        self._emit_net_tree(base, nets, out_net)

    def _emit_net_tree(self, base: str, nets: List[str], out_net: str) -> None:
        limit = self.options.max_gate_inputs
        while len(nets) > limit:
            grouped: List[str] = []
            for start in range(0, len(nets), limit):
                chunk = nets[start : start + limit]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                    continue
                intermediate = self.netlist.new_net()
                self._emit_gate(base, chunk, intermediate)
                grouped.append(intermediate)
            nets = grouped
        if len(nets) == 1:
            self._add("BUF", {"I0": nets[0]}, out_net)
            return
        self._emit_gate(base, nets, out_net)

    def _emit_gate(self, base: str, nets: Sequence[str], out_net: str) -> None:
        kind = f"{base}{len(nets)}"
        if not self.library.has_kind(kind):
            raise MappingError(f"library has no {kind} cell")
        pins = {f"I{i}": net for i, net in enumerate(nets)}
        self._add(kind, pins, out_net)

    # ------------------------------------------------------------------ MUX

    def _try_mux(self, expression: E.Or, out_net: str) -> bool:
        """Match ``!s*a + s*b`` and map it onto a 2:1 multiplexer cell."""
        if len(expression.args) != 2 or not self.library.has_kind("MUX2"):
            return False
        left, right = expression.args
        if not (isinstance(left, E.And) and isinstance(right, E.And)):
            return False
        if len(left.args) != 2 or len(right.args) != 2:
            return False
        for select in right.args:
            negated = E.not_(select)
            if isinstance(select, E.Not):
                continue
            if negated in left.args:
                data_when_low = [arg for arg in left.args if arg != negated]
                data_when_high = [arg for arg in right.args if arg != select]
                if len(data_when_low) == 1 and len(data_when_high) == 1:
                    self._add(
                        "MUX2",
                        {
                            "I0": self._map(data_when_low[0]),
                            "I1": self._map(data_when_high[0]),
                            "S": self._map(select),
                        },
                        out_net,
                    )
                    return True
        return False

    # ------------------------------------------------------------- specials

    def _emit_special(self, expression: E.Special, out_net: str) -> None:
        if expression.kind == "tristate":
            self._add(
                "TRIBUF",
                {"I0": self._map(expression.args[0]), "EN": self._map(expression.args[1])},
                out_net,
            )
        elif expression.kind == "wireor":
            self._add(
                "WIREOR",
                {"I0": self._map(expression.args[0]), "I1": self._map(expression.args[1])},
                out_net,
            )
        elif expression.kind == "schmitt":
            self._add("SCHMITT", {"I0": self._map(expression.args[0])}, out_net)
        elif expression.kind == "delay":
            self._add("DELAY", {"I0": self._map(expression.args[0])}, out_net)
        else:  # pragma: no cover - SPECIAL_KINDS is closed
            raise MappingError(f"unknown special kind {expression.kind!r}")
