"""IIF macro expander.

The expander is the first tool on the paper's component-generation path
(Figure 8): it takes a parameterized IIF module plus parameter values and
produces the non-parameterized (flat) IIF form that the logic optimizer and
technology mapper consume.

Expansion evaluates ``#if`` conditions, unrolls ``#for`` loops, executes
``#c_line`` arithmetic, performs call-by-name macro expansion of
sub-function calls (``#ADDER(size, A, B1, ...)``), accumulates aggregate
assignments (``O *= IO[i]``), and rewrites indexed signals into flat names
(``Q[i]`` with ``i = 3`` becomes ``Q[3]``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic import expr as E
from ..wire import Record, field
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
    IifSyntaxError,
    Name,
    Node,
    Num,
    SubCall,
    Unary,
)
from .flat import AsyncTerm, CombAssign, FlatComponent, FlatIifError, SeqAssign


class IifExpansionError(ValueError):
    """Raised when a module cannot be elaborated."""


#: Safety bound on #for unrolling to catch non-terminating loop conditions.
MAX_LOOP_ITERATIONS = 65536

_CLOCK_OPS = {"~r": "r", "~f": "f", "~h": "h", "~l": "l"}


class _Context(Record):
    """Expansion context: integer environment plus signal renaming."""

    env: Dict[str, int]
    rename: Dict[str, str] = field(default_factory=dict)
    signal_bases: Dict[str, int] = field(default_factory=dict)
    where: str = ""


class Expander:
    """Elaborates parameterized IIF modules into :class:`FlatComponent`."""

    def __init__(self, library: Optional[Mapping[str, IifModule]] = None):
        #: sub-function library, looked up by (case-insensitive) module name
        self.library: Dict[str, IifModule] = {}
        if library:
            for name, module in library.items():
                self.library[name.upper()] = module

    # ------------------------------------------------------------------ API

    def register(self, module: IifModule) -> None:
        """Add a module to the sub-function library."""
        self.library[module.name.upper()] = module

    def expand(
        self,
        module: IifModule,
        parameters: Optional[Mapping[str, int]] = None,
        name: Optional[str] = None,
        validate: bool = True,
    ) -> FlatComponent:
        """Expand ``module`` with the given parameter values.

        ``parameters`` must supply a value for every name in the module's
        PARAMETER declaration (extra keys are ignored).  ``name`` overrides
        the flat component's name (defaults to the module name).
        """
        parameters = dict(parameters or {})
        env: Dict[str, int] = {}
        for item in module.parameters:
            if item.ident not in parameters:
                raise IifExpansionError(
                    f"missing value for parameter {item.ident!r} of {module.name}"
                )
            env[item.ident] = int(parameters[item.ident])
        for item in module.variables:
            env.setdefault(item.ident, 0)

        self._assigned: Dict[str, object] = {}
        self._order: List[str] = []
        self._aggregate_ops: Dict[str, str] = {}
        self._fresh_counter = 0
        self._extra_internals: List[str] = []

        ctx = _Context(env=env, where=module.name)
        ctx.signal_bases = self._declared_signal_bases(module, ctx)

        self._execute_block(module.body, module, ctx)

        component = FlatComponent(
            name=name or module.name,
            functions=list(module.functions),
            parameters={item.ident: env[item.ident] for item in module.parameters},
        )
        component.inputs = self._flatten_decl_items(module.inorder, ctx)
        component.outputs = self._flatten_decl_items(module.outorder, ctx)
        declared_internal = self._flatten_decl_items(module.piif_variables, ctx)

        io = set(component.inputs) | set(component.outputs)
        internals: List[str] = []
        for signal in declared_internal + self._extra_internals:
            if signal not in io and signal not in internals and signal in self._assigned:
                internals.append(signal)
        # Any driven signal that was never declared becomes an internal net.
        for target in self._order:
            if target not in io and target not in internals:
                internals.append(target)
        component.internals = internals
        component.assigns = [self._assigned[target] for target in self._order]

        if validate:
            try:
                component.validate()
            except FlatIifError as exc:
                raise IifExpansionError(f"{module.name}: {exc}") from exc
        return component

    # ------------------------------------------------------------- declarations

    def _declared_signal_bases(self, module: IifModule, ctx: _Context) -> Dict[str, int]:
        bases: Dict[str, int] = {}
        for item in module.inorder + module.outorder + module.piif_variables:
            width = 0
            if item.dims:
                width = self._eval_int(item.dims[0], ctx)
            bases[item.ident] = width
        return bases

    def _flatten_decl_items(self, items: Sequence[DeclItem], ctx: _Context) -> List[str]:
        flat: List[str] = []
        for item in items:
            if not item.dims:
                flat.append(E.shared_name(item.ident))
                continue
            width = self._eval_int(item.dims[0], ctx)
            flat.extend(E.shared_name(f"{item.ident}[{i}]") for i in range(width))
        return flat

    # --------------------------------------------------------------- statements

    def _execute_block(self, block: Block, module: IifModule, ctx: _Context) -> None:
        for statement in block.statements:
            self._execute(statement, module, ctx)

    def _execute(self, statement, module: IifModule, ctx: _Context) -> None:
        if isinstance(statement, Block):
            self._execute_block(statement, module, ctx)
        elif isinstance(statement, CLine):
            self._execute_cline(statement.assign, ctx)
        elif isinstance(statement, If):
            if self._eval_int(statement.cond, ctx):
                self._execute(statement.then, module, ctx)
            elif statement.orelse is not None:
                self._execute(statement.orelse, module, ctx)
        elif isinstance(statement, For):
            self._execute_for(statement, module, ctx)
        elif isinstance(statement, SubCall):
            self._execute_subcall(statement, module, ctx)
        elif isinstance(statement, Assign):
            self._execute_assign(statement, ctx)
        else:  # pragma: no cover - parser only produces the types above
            raise IifExpansionError(f"unknown statement {statement!r}")

    def _execute_cline(self, assign: Assign, ctx: _Context) -> None:
        if assign.target.indices:
            raise IifExpansionError("#c_line target must be a plain variable")
        value = self._eval_int(assign.value, ctx)
        name = assign.target.ident
        if assign.op == "=":
            ctx.env[name] = value
        elif assign.op == "+=":
            ctx.env[name] = ctx.env.get(name, 0) + value
        elif assign.op == "*=":
            ctx.env[name] = ctx.env.get(name, 0) * value
        else:
            raise IifExpansionError(f"unsupported #c_line operator {assign.op!r}")

    def _execute_for(self, statement: For, module: IifModule, ctx: _Context) -> None:
        self._execute_cline(statement.init, ctx)
        iterations = 0
        while self._eval_int(statement.cond, ctx):
            self._execute(statement.body, module, ctx)
            self._execute_cline(statement.step, ctx)
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise IifExpansionError(
                    f"#for loop at line {statement.line} exceeded "
                    f"{MAX_LOOP_ITERATIONS} iterations"
                )

    def _execute_assign(self, statement: Assign, ctx: _Context) -> None:
        target = self._flatten_name(statement.target, ctx)
        if statement.op == "=":
            assign = self._build_assignment(target, statement.value, ctx)
            self._record(target, assign, aggregate=None)
        else:
            operand = self._to_bexpr(statement.value, ctx)
            self._record_aggregate(target, statement.op, operand)

    def _record(self, target: str, assign, aggregate: Optional[str]) -> None:
        if target in self._assigned and aggregate is None:
            raise IifExpansionError(f"signal {target!r} assigned more than once")
        if target not in self._assigned:
            self._order.append(target)
        self._assigned[target] = assign

    def _record_aggregate(self, target: str, op: str, operand: E.BExpr) -> None:
        combine = {
            "+=": E.or_,
            "*=": E.and_,
            "(+)=": E.xor,
            "(.)=": E.xnor,
        }[op]
        previous = self._assigned.get(target)
        if previous is None:
            self._record(target, CombAssign(target, operand), aggregate=op)
            self._aggregate_ops[target] = op
        else:
            if not isinstance(previous, CombAssign):
                raise IifExpansionError(
                    f"aggregate assignment to sequential signal {target!r}"
                )
            if self._aggregate_ops.get(target) != op:
                raise IifExpansionError(
                    f"mixed aggregate operators on signal {target!r}"
                )
            self._assigned[target] = CombAssign(target, combine(previous.expr, operand))

    # --------------------------------------------------------------- sub-calls

    def _execute_subcall(self, call: SubCall, module: IifModule, ctx: _Context) -> None:
        callee = self._resolve_subfunction(call.name, module)
        binding = callee.binding_order()
        if len(call.args) > len(binding):
            raise IifExpansionError(
                f"sub-function {callee.name} called with {len(call.args)} arguments, "
                f"expected at most {len(binding)}"
            )
        sub_env: Dict[str, int] = {}
        rename: Dict[str, str] = {}
        param_names = {item.ident for item in callee.parameters}
        for item, arg in zip(binding, call.args):
            if item.ident in param_names:
                sub_env[item.ident] = self._eval_int(arg, ctx)
            else:
                if not isinstance(arg, Name) or arg.indices:
                    raise IifExpansionError(
                        f"signal argument for {item.ident!r} of {callee.name} "
                        "must be an un-indexed signal name"
                    )
                rename[item.ident] = ctx.rename.get(arg.ident, arg.ident)
        # Unbound items: parameters are an error; unbound I/O signals are
        # captured by name from the caller (call-by-name macro semantics, as
        # in the paper's ``#RIPPLE_COUNTER(size)`` call); unbound internal
        # (PIIFVARIABLE) signals get fresh hygienic names so that two
        # instantiations of the same sub-function never collide.
        internal_names = {item.ident for item in callee.piif_variables}
        for item in binding[len(call.args):]:
            if item.ident in param_names:
                raise IifExpansionError(
                    f"missing value for parameter {item.ident!r} of {callee.name}"
                )
            if item.ident in internal_names:
                rename[item.ident] = self._fresh_base(callee.name, item.ident)
            else:
                rename[item.ident] = ctx.rename.get(item.ident, item.ident)
        for item in callee.variables:
            sub_env.setdefault(item.ident, 0)

        sub_ctx = _Context(
            env=sub_env,
            rename=rename,
            where=f"{ctx.where}/{callee.name}",
        )
        sub_ctx.signal_bases = self._declared_signal_bases(callee, sub_ctx)
        self._execute_block(callee.body, callee, sub_ctx)

    def _resolve_subfunction(self, name: str, module: IifModule) -> IifModule:
        local = module.local_subfunctions or {}
        for key, candidate in local.items():
            if key.upper() == name.upper():
                return candidate
        candidate = self.library.get(name.upper())
        if candidate is None:
            raise IifExpansionError(
                f"sub-function {name!r} is not defined locally nor in the library"
            )
        return candidate

    def _fresh_base(self, callee_name: str, ident: str) -> str:
        self._fresh_counter += 1
        base = E.shared_name(f"{callee_name.lower()}_{self._fresh_counter}_{ident}")
        self._extra_internals.append(base)
        return base

    # --------------------------------------------------------------- expressions

    def _flatten_name(self, name: Name, ctx: _Context) -> str:
        base = ctx.rename.get(name.ident, name.ident)
        if not name.indices:
            return E.shared_name(base)
        indices = [self._eval_int(index, ctx) for index in name.indices]
        return E.shared_name(base + "".join(f"[{index}]" for index in indices))

    def _build_assignment(self, target: str, value: Node, ctx: _Context):
        asyncs: Tuple[AsyncTerm, ...] = ()
        node = value
        if isinstance(node, Binary) and node.op == "~a":
            asyncs = self._parse_async_terms(node.right, ctx)
            node = node.left
        if isinstance(node, Binary) and node.op == "@":
            data = self._to_bexpr(node.left, ctx)
            edge, clock = self._parse_clock(node.right, ctx)
            return SeqAssign(target=target, data=data, clock=clock, edge=edge, asyncs=asyncs)
        if asyncs:
            raise IifExpansionError(
                f"asynchronous terms on {target!r} require a clocked (@) expression"
            )
        return CombAssign(target, self._to_bexpr(node, ctx))

    def _parse_clock(self, node: Node, ctx: _Context) -> Tuple[str, E.BExpr]:
        if isinstance(node, Unary) and node.op in _CLOCK_OPS:
            return _CLOCK_OPS[node.op], self._to_bexpr(node.operand, ctx)
        raise IifExpansionError(
            "clock expression must use a qualifier (~r, ~f, ~h or ~l)"
        )

    def _parse_async_terms(self, node: Node, ctx: _Context) -> Tuple[AsyncTerm, ...]:
        terms: List[AsyncTerm] = []
        for item in self._comma_items(node):
            if not (isinstance(item, Binary) and item.op == "/"):
                raise IifExpansionError(
                    "asynchronous list entries must have the form value/condition"
                )
            value = self._eval_int(item.left, ctx)
            condition = self._to_bexpr(item.right, ctx)
            terms.append(AsyncTerm(value=value, condition=condition))
        return tuple(terms)

    def _comma_items(self, node: Node) -> List[Node]:
        if isinstance(node, Binary) and node.op == ",":
            return self._comma_items(node.left) + self._comma_items(node.right)
        return [node]

    def _to_bexpr(self, node: Node, ctx: _Context) -> E.BExpr:
        if isinstance(node, Num):
            return E.const(1 if node.value else 0)
        if isinstance(node, Name):
            if not node.indices and node.ident in ctx.env and node.ident not in ctx.signal_bases:
                return E.const(1 if ctx.env[node.ident] else 0)
            return E.Var(self._flatten_name(node, ctx))
        if isinstance(node, Unary):
            if node.op == "!":
                return E.not_(self._to_bexpr(node.operand, ctx))
            if node.op == "~b":
                return E.buf(self._to_bexpr(node.operand, ctx))
            if node.op == "~s":
                return E.schmitt(self._to_bexpr(node.operand, ctx))
            raise IifExpansionError(
                f"operator {node.op!r} is not valid in a boolean expression"
            )
        if isinstance(node, Binary):
            op = node.op
            if op == "+":
                return E.or_(self._to_bexpr(node.left, ctx), self._to_bexpr(node.right, ctx))
            if op == "*":
                return E.and_(self._to_bexpr(node.left, ctx), self._to_bexpr(node.right, ctx))
            if op in ("(+)", "!="):
                return E.xor(self._to_bexpr(node.left, ctx), self._to_bexpr(node.right, ctx))
            if op in ("(.)", "=="):
                return E.xnor(self._to_bexpr(node.left, ctx), self._to_bexpr(node.right, ctx))
            if op == "~w":
                return E.wire_or(self._to_bexpr(node.left, ctx), self._to_bexpr(node.right, ctx))
            if op == "~t":
                return E.tristate(self._to_bexpr(node.left, ctx), self._to_bexpr(node.right, ctx))
            if op == "~d":
                return E.delay(self._to_bexpr(node.left, ctx), self._eval_int(node.right, ctx))
            raise IifExpansionError(
                f"operator {op!r} is not valid in a boolean expression"
            )
        raise IifExpansionError(f"cannot convert {node!r} to a boolean expression")

    # --------------------------------------------------------------- arithmetic

    def _eval_int(self, node: Node, ctx: _Context) -> int:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Name):
            if node.indices:
                raise IifExpansionError(
                    f"indexed name {node.ident!r} cannot be used in a C expression"
                )
            if node.ident not in ctx.env:
                raise IifExpansionError(
                    f"variable {node.ident!r} has no value in {ctx.where or 'module'}"
                )
            return int(ctx.env[node.ident])
        if isinstance(node, Unary):
            value = self._eval_int(node.operand, ctx)
            if node.op == "-":
                return -value
            if node.op == "!":
                return 0 if value else 1
            if node.op == "++":
                return value + 1
            if node.op == "--":
                return value - 1
            raise IifExpansionError(f"operator {node.op!r} is not valid in a C expression")
        if isinstance(node, Binary):
            op = node.op
            left = self._eval_int(node.left, ctx)
            right = self._eval_int(node.right, ctx)
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise IifExpansionError("division by zero in C expression")
                return left // right
            if op == "%":
                if right == 0:
                    raise IifExpansionError("modulo by zero in C expression")
                return left % right
            if op == "**":
                return left ** right
            if op == "==":
                return 1 if left == right else 0
            if op == "!=":
                return 1 if left != right else 0
            if op == "<":
                return 1 if left < right else 0
            if op == "<=":
                return 1 if left <= right else 0
            if op == ">":
                return 1 if left > right else 0
            if op == ">=":
                return 1 if left >= right else 0
            if op == "&&":
                return 1 if (left and right) else 0
            if op == "||":
                return 1 if (left or right) else 0
            raise IifExpansionError(f"operator {op!r} is not valid in a C expression")
        if isinstance(node, CallExpr):
            raise IifExpansionError(
                f"function call {node.func!r} is not supported in C expressions"
            )
        raise IifExpansionError(f"cannot evaluate {node!r} as an integer")


def expand_module(
    module: IifModule,
    parameters: Optional[Mapping[str, int]] = None,
    library: Optional[Mapping[str, IifModule]] = None,
    name: Optional[str] = None,
) -> FlatComponent:
    """Convenience wrapper: expand ``module`` with ``parameters``."""
    return Expander(library).expand(module, parameters, name=name)
