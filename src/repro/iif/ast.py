"""Abstract syntax tree for the Irvine Intermediate Form (IIF).

IIF, as defined in Appendix A of the paper, is a boolean equation language
extended with:

* sequential operators -- ``@`` (clocking), ``~a`` (asynchronous set/reset),
  ``~r ~f ~h ~l`` (edge / level clock qualifiers);
* interface operators -- ``~b`` (buffer), ``~s`` (schmitt trigger),
  ``~d`` (delay), ``~t`` (tri-state), ``~w`` (wire-or);
* parameterization constructs -- ``#if`` / ``#else``, ``#for``, ``#c_line``,
  IIF sub-function calls (``#ADDER(...)``) and aggregate assignments
  (``+=``, ``*=``, ``(+)=``, ``(.)=``).

The AST here is *parameterized*: index expressions and conditions may refer
to parameters and loop variables.  :mod:`repro.iif.expander` elaborates a
module with concrete parameter values into a flat component
(:mod:`repro.iif.flat`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..wire import Record, field


class IifSyntaxError(ValueError):
    """Raised on malformed IIF source."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Node:
    """Base class for all IIF expression nodes."""

    __slots__ = ()


class Num(Node, Record, frozen=True):
    """Integer literal."""

    value: int


class Name(Node, Record, frozen=True):
    """A signal or variable reference, possibly indexed: ``Q[i+1]``."""

    ident: str
    indices: Tuple[Node, ...] = ()


class Unary(Node, Record, frozen=True):
    """Unary operator application.

    ``op`` is one of ``!`` (NOT), ``~b`` (buffer), ``~s`` (schmitt),
    ``~r ~f ~h ~l`` (clock qualifiers), ``-`` (arithmetic negation).
    """

    op: str
    operand: Node


class Binary(Node, Record, frozen=True):
    """Binary operator application.

    Boolean operators: ``+`` (OR), ``*`` (AND), ``(+)`` (XOR), ``(.)``
    (XNOR), ``~d`` (delay), ``~t`` (tri-state), ``~w`` (wire-or), ``@``
    (clocked-at), ``~a`` (async set/reset attachment), ``/`` inside an async
    list (value/condition pair).

    Arithmetic / comparison operators used in parameterized structure:
    ``+ - * / % **`` and ``== != < <= > >= && ||``.
    """

    op: str
    left: Node
    right: Node


class CallExpr(Node, Record, frozen=True):
    """A C-style function call appearing inside an expression (rare)."""

    func: str
    args: Tuple[Node, ...] = ()


ASSIGN_OPS = ("=", "+=", "*=", "(+)=", "(.)=")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for IIF statements."""

    __slots__ = ()


class Assign(Stmt, Record):
    """A signal assignment or an arithmetic ``#c_line`` assignment.

    ``op`` is ``=`` or one of the aggregate operators.
    """

    target: Name
    op: str
    value: Node
    line: int = 0


class CLine(Stmt, Record):
    """A ``#c_line`` statement: arithmetic executed at expansion time."""

    assign: Assign
    line: int = 0


class If(Stmt, Record):
    """``#if (cond) stmt [#else stmt]`` -- evaluated at expansion time."""

    cond: Node
    then: Stmt
    orelse: Optional[Stmt] = None
    line: int = 0


class For(Stmt, Record):
    """``#for(init; cond; step) stmt`` -- unrolled at expansion time."""

    init: Assign
    cond: Node
    step: Assign
    body: Stmt
    line: int = 0


class Block(Stmt, Record):
    """A ``{ ... }`` sequence of statements."""

    statements: List[Stmt] = field(default_factory=list)
    line: int = 0


class SubCall(Stmt, Record):
    """A sub-function macro call: ``#ADDER(size, A, B1, ADDSUB, O, Cout, C);``.

    Arguments are bound *call-by-name* to the callee's declaration entries in
    declaration order (parameters, INORDER, OUTORDER, PIIFVARIABLE).
    """

    name: str
    args: List[Node] = field(default_factory=list)
    line: int = 0


# ---------------------------------------------------------------------------
# Declarations and modules
# ---------------------------------------------------------------------------


class DeclItem(Record, frozen=True):
    """A declared name with optional dimension expressions: ``D[size]``."""

    ident: str
    dims: Tuple[Node, ...] = ()


#: Declaration section keywords, in the order they bind sub-call arguments.
DECL_KEYWORDS = (
    "NAME",
    "FUNCTIONS",
    "PARAMETER",
    "INORDER",
    "OUTORDER",
    "PIIFVARIABLE",
    "VARIABLE",
    "SUBFUNCTION",
    "SUBCOMPONENT",
)


class IifModule(Record):
    """A parsed IIF design: declarations plus the body block.

    ``subfunctions`` lists the names of sub-functions the body calls; the
    expander resolves them against locally attached modules first
    (``local_subfunctions``) and then against the component library it is
    given.
    """

    name: str
    functions: List[str] = field(default_factory=list)
    parameters: List[DeclItem] = field(default_factory=list)
    inorder: List[DeclItem] = field(default_factory=list)
    outorder: List[DeclItem] = field(default_factory=list)
    piif_variables: List[DeclItem] = field(default_factory=list)
    variables: List[DeclItem] = field(default_factory=list)
    subfunctions: List[str] = field(default_factory=list)
    subcomponents: List[str] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    source: str = ""
    local_subfunctions: dict = field(default_factory=dict)

    def parameter_names(self) -> List[str]:
        """Names of the user-supplied parameters, in declaration order."""
        return [item.ident for item in self.parameters]

    def binding_order(self) -> List[DeclItem]:
        """Declaration items in the order sub-call arguments bind to them.

        Per Appendix A the parameter file supplies ``name`` then one value per
        declared item "in the same order as they appeared in IIF":
        parameters, inputs, outputs, then internal (PIIF) signals.
        """
        return (
            list(self.parameters)
            + list(self.inorder)
            + list(self.outorder)
            + list(self.piif_variables)
        )


# ---------------------------------------------------------------------------
# Small helpers used by both the parser and the expander
# ---------------------------------------------------------------------------


BOOLEAN_BINARY_OPS = {"+", "*", "(+)", "(.)", "~d", "~t", "~w", "@", "~a", "/"}
ARITH_BINARY_OPS = {"+", "-", "*", "/", "%", "**"}
COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">=", "&&", "||"}
CLOCK_QUALIFIERS = {"~r": "r", "~f": "f", "~h": "h", "~l": "l"}


def iter_nodes(node: Node):
    """Yield ``node`` and all sub-nodes, pre-order."""
    yield node
    if isinstance(node, Unary):
        yield from iter_nodes(node.operand)
    elif isinstance(node, Binary):
        yield from iter_nodes(node.left)
        yield from iter_nodes(node.right)
    elif isinstance(node, Name):
        for index in node.indices:
            yield from iter_nodes(index)
    elif isinstance(node, CallExpr):
        for arg in node.args:
            yield from iter_nodes(arg)
