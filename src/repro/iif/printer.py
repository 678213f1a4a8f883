"""Text emitters for IIF.

Two forms are produced:

* :func:`module_to_iif` re-emits a parsed parameterized module as IIF source
  (round-trip printing, used when component implementations are stored in
  the knowledge base);
* :func:`flat_to_milo` emits the flat (non-parameterized) form used as the
  input file of the MILO logic optimizer / technology mapper, equivalent to
  the ``file_4_MILO`` output of the paper's ``piif2`` expander phase.
"""

from __future__ import annotations

from typing import Iterator, List

from ..logic import expr as E
from .ast import (
    Assign,
    Binary,
    Block,
    CLine,
    CallExpr,
    DeclItem,
    For,
    If,
    IifModule,
    Name,
    Node,
    Num,
    SubCall,
    Unary,
)
from .flat import CombAssign, FlatComponent, SeqAssign


# ---------------------------------------------------------------------------
# Parameterized module printing
# ---------------------------------------------------------------------------


def module_to_iif(module: IifModule) -> str:
    """Render a parameterized module back to IIF source text."""
    lines: List[str] = [f"NAME: {module.name};"]
    if module.functions:
        lines.append("FUNCTIONS: " + ", ".join(module.functions) + ";")
    _decl_line(lines, "PARAMETER", module.parameters)
    _decl_line(lines, "INORDER", module.inorder)
    _decl_line(lines, "OUTORDER", module.outorder)
    _decl_line(lines, "PIIFVARIABLE", module.piif_variables)
    _decl_line(lines, "VARIABLE", module.variables)
    if module.subfunctions:
        lines.append("SUBFUNCTION: " + ", ".join(module.subfunctions) + ";")
    if module.subcomponents:
        lines.append("SUBCOMPONENT: " + ", ".join(module.subcomponents) + ";")
    lines.extend(_statement_lines(module.body, 0))
    return "\n".join(lines) + "\n"


def _decl_line(lines: List[str], keyword: str, items) -> None:
    if not items:
        return
    rendered = ", ".join(_decl_item(item) for item in items)
    lines.append(f"{keyword}: {rendered};")


def _decl_item(item: DeclItem) -> str:
    dims = "".join(f"[{expr_to_text(dim)}]" for dim in item.dims)
    return item.ident + dims


def _statement_lines(statement, indent: int) -> List[str]:
    pad = "    " * indent
    if isinstance(statement, Block):
        lines = [pad + "{"]
        for child in statement.statements:
            lines.extend(_statement_lines(child, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(statement, Assign):
        return [pad + f"{_name_text(statement.target)} {statement.op} "
                f"{expr_to_text(statement.value)};"]
    if isinstance(statement, CLine):
        inner = _statement_lines(statement.assign, 0)[0]
        return [pad + "#c_line " + inner]
    if isinstance(statement, If):
        lines = [pad + f"#if ({expr_to_text(statement.cond)})"]
        lines.extend(_statement_lines(statement.then, indent + 1))
        if statement.orelse is not None:
            lines.append(pad + "#else")
            lines.extend(_statement_lines(statement.orelse, indent + 1))
        return lines
    if isinstance(statement, For):
        init = _assign_text(statement.init)
        step = _assign_text(statement.step)
        lines = [pad + f"#for({init}; {expr_to_text(statement.cond)}; {step})"]
        lines.extend(_statement_lines(statement.body, indent + 1))
        return lines
    if isinstance(statement, SubCall):
        args = ", ".join(expr_to_text(arg) for arg in statement.args)
        return [pad + f"#{statement.name}({args});"]
    raise TypeError(f"cannot print statement {statement!r}")


def _assign_text(assign: Assign) -> str:
    return f"{_name_text(assign.target)} {assign.op} {expr_to_text(assign.value)}"


def _name_text(name: Name) -> str:
    return name.ident + "".join(f"[{expr_to_text(index)}]" for index in name.indices)


_BINARY_TEXT_PAREN = {"+", "-", "*", "/", "%", "(+)", "(.)", "~w", "||", "&&"}


def expr_to_text(node: Node) -> str:
    """Render a parameterized IIF expression node to text."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return _name_text(node)
    if isinstance(node, Unary):
        spacer = "" if node.op == "!" else " "
        return f"{node.op}{spacer}{_maybe_paren(node.operand)}"
    if isinstance(node, Binary):
        left = _maybe_paren(node.left)
        right = _maybe_paren(node.right)
        if node.op == ",":
            return f"{left}, {right}"
        return f"{left} {node.op} {right}"
    if isinstance(node, CallExpr):
        args = ", ".join(expr_to_text(arg) for arg in node.args)
        return f"{node.func}({args})"
    raise TypeError(f"cannot print expression {node!r}")


def _maybe_paren(node: Node) -> str:
    text = expr_to_text(node)
    if isinstance(node, Binary):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Flat component printing (MILO input format)
# ---------------------------------------------------------------------------


def flat_to_milo(component: FlatComponent) -> str:
    """Render a flat component in the MILO-style non-parameterized form."""
    return f"NAME={component.name};\n" + "".join(flat_milo_body(component))


def flat_milo_body(component: FlatComponent) -> Iterator[str]:
    """The lines of :func:`flat_to_milo` after its ``NAME=`` line, one at a
    time, so a file can take the text without anyone holding all of it.
    The body never mentions the component's name."""
    yield "INORDER= " + " ".join(component.inputs) + ";\n"
    yield "OUTORDER= " + " ".join(component.outputs) + ";\n"
    for assign in component.assigns:
        yield assign_to_text(assign) + "\n"


def assign_to_text(assign) -> str:
    """Render a flat assignment as a single IIF statement."""
    if isinstance(assign, CombAssign):
        return f"{assign.target} = {E.to_iif_string(assign.expr)};"
    if isinstance(assign, SeqAssign):
        text = (
            f"{assign.target} = ({E.to_iif_string(assign.data)}) "
            f"@(~{assign.edge} {E.to_iif_string(assign.clock)})"
        )
        if assign.asyncs:
            terms = ",".join(
                f"{term.value}/({E.to_iif_string(term.condition)})" for term in assign.asyncs
            )
            text += f" ~a({terms})"
        return text + ";"
    raise TypeError(f"cannot print assignment {assign!r}")
