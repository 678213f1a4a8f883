"""Flat (non-parameterized) IIF components.

The expander elaborates a parameterized :class:`~repro.iif.ast.IifModule`
with concrete parameter values into a :class:`FlatComponent`: a list of
signal assignments over flat signal names (``Q[3]``, ``CLK`` ...).  The flat
form is exactly what the paper feeds to the MILO logic optimizer /
technology mapper.

Two kinds of assignments exist:

* :class:`CombAssign` -- a purely combinational equation
  ``target = boolean expression``;
* :class:`SeqAssign` -- a clocked assignment
  ``target = (data) @ (~edge clock) ~a (value/cond, ...)`` describing a D
  flip-flop (edge ``r``/``f``) or a transparent latch (level ``h``/``l``)
  with optional asynchronous set/reset terms.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..logic import expr as E
from ..wire import Record, field


class FlatIifError(ValueError):
    """Raised when a flat component is malformed."""


#: Valid clocking qualifiers: rising edge, falling edge, level-high, level-low.
CLOCK_EDGES = ("r", "f", "h", "l")


# The three assignment records below are frozen records that declare
# ``__slots__``: a component holds one per assignment, and every cached or
# unpickled component holds its own, so a per-record ``__dict__`` would
# outweigh the record.  A frozen slotted class cannot restore its slots
# through ``__setattr__`` on unpickling, hence ``__reduce__``.  The
# reconstructors pass every signal name through
# :func:`~repro.logic.expr.shared_name`, so an unpickled component holds
# the receiver's one string per name, as an expanded one does.


def _comb_assign(target: str, expr: E.BExpr) -> "CombAssign":
    return CombAssign(E.shared_name(target), expr)


def _seq_assign(target, data, clock, edge, asyncs) -> "SeqAssign":
    return SeqAssign(E.shared_name(target), data, clock, edge, asyncs)


class AsyncTerm(Record, frozen=True):
    """One ``value/condition`` entry of an asynchronous set/reset list."""

    __slots__ = ("value", "condition")

    value: int
    condition: E.BExpr

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise FlatIifError(f"async value must be 0 or 1, got {self.value!r}")

    def __reduce__(self):
        return (AsyncTerm, (self.value, self.condition))


class CombAssign(Record, frozen=True):
    """A combinational assignment ``target = expr``."""

    __slots__ = ("target", "expr")

    target: str
    expr: E.BExpr

    def __reduce__(self):
        return (_comb_assign, (self.target, self.expr))

    @property
    def is_sequential(self) -> bool:
        return False


class SeqAssign(Record, frozen=True):
    """A clocked assignment describing a flip-flop or latch bit."""

    __slots__ = ("target", "data", "clock", "edge", "asyncs")

    target: str
    data: E.BExpr
    clock: E.BExpr
    edge: str
    asyncs: Tuple[AsyncTerm, ...]

    def __post_init__(self) -> None:
        if self.edge not in CLOCK_EDGES:
            raise FlatIifError(f"unknown clock qualifier {self.edge!r}")

    def __reduce__(self):
        return (_seq_assign, (self.target, self.data, self.clock, self.edge, self.asyncs))

    @property
    def is_sequential(self) -> bool:
        return True

    @property
    def is_latch(self) -> bool:
        """True for level-sensitive (latch) clocking."""
        return self.edge in ("h", "l")


FlatAssign = (CombAssign, SeqAssign)


def _flat_component(name, inputs, outputs, internals, assigns, functions, parameters):
    share = E.shared_name
    return FlatComponent(
        name,
        [share(signal) for signal in inputs],
        [share(signal) for signal in outputs],
        [share(signal) for signal in internals],
        assigns,
        functions,
        parameters,
    )


class FlatComponent(Record):
    """A fully elaborated component: flat signals plus assignments."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    internals: List[str] = field(default_factory=list)
    assigns: List = field(default_factory=list)
    functions: List[str] = field(default_factory=list)
    parameters: Dict[str, int] = field(default_factory=dict)

    def __reduce__(self):
        return (
            _flat_component,
            (
                self.name,
                self.inputs,
                self.outputs,
                self.internals,
                self.assigns,
                self.functions,
                self.parameters,
            ),
        )

    # ------------------------------------------------------------------ views

    def combinational(self) -> List[CombAssign]:
        """All combinational assignments, in definition order."""
        return [a for a in self.assigns if isinstance(a, CombAssign)]

    def sequential(self) -> List[SeqAssign]:
        """All clocked assignments, in definition order."""
        return [a for a in self.assigns if isinstance(a, SeqAssign)]

    def state_signals(self) -> List[str]:
        """Signals driven by flip-flops / latches."""
        return [a.target for a in self.sequential()]

    def signals(self) -> List[str]:
        """All declared signals (inputs, outputs, internals)."""
        return list(self.inputs) + list(self.outputs) + list(self.internals)

    def assignment_for(self, target: str):
        """Return the assignment driving ``target`` or ``None``."""
        for assign in self.assigns:
            if assign.target == target:
                return assign
        return None

    def driven_signals(self) -> Set[str]:
        return {assign.target for assign in self.assigns}

    def clock_inputs(self) -> List[str]:
        """Primary inputs that (transitively) drive a clock pin.

        Clock nets can be gated through combinational logic, latches (the
        enable option of the counter) or other flip-flop outputs (ripple
        counters); the traversal follows all of them back to primary inputs.
        """
        clock_exprs = [assign.clock for assign in self.sequential()]
        comb = {a.target: a.expr for a in self.combinational()}
        seq = {a.target: a for a in self.sequential()}
        found: List[str] = []
        seen: Set[str] = set()
        frontier: List[str] = []
        for clock in clock_exprs:
            frontier.extend(clock.support())
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self.inputs:
                if name not in found:
                    found.append(name)
            elif name in comb:
                frontier.extend(comb[name].support())
            elif name in seq:
                frontier.extend(seq[name].clock.support())
                frontier.extend(seq[name].data.support())
        return found

    # ------------------------------------------------------------- signature

    def signature(self) -> Tuple:
        """Name-independent structural identity of the component.

        Two flat components with equal signatures have identical ports and
        identical assignments, so they synthesize to identical netlists
        under the same options and cell library -- the key the generation
        cache memoizes synthesis on.  The component *name* is deliberately
        excluded (it differs per instance); ``functions`` / ``parameters``
        are excluded because synthesis never reads them.  The assignments
        enter as the component's own records: frozen, value-equal and
        over hash-consed expressions, so the key costs one tuple of
        references, not a copy of every assignment.
        """
        return (
            tuple(self.inputs),
            tuple(self.outputs),
            tuple(self.internals),
            tuple(self.assigns),
        )

    # --------------------------------------------------------------- analysis

    def validate(self) -> None:
        """Check structural sanity; raise :class:`FlatIifError` otherwise."""
        declared = set(self.signals())
        driven: Set[str] = set()
        for assign in self.assigns:
            if assign.target in driven:
                raise FlatIifError(f"signal {assign.target!r} has multiple drivers")
            driven.add(assign.target)
            if assign.target in self.inputs:
                raise FlatIifError(f"input signal {assign.target!r} is driven")
            if assign.target not in declared:
                raise FlatIifError(f"assignment to undeclared signal {assign.target!r}")
            for expression in _assign_expressions(assign):
                for name in expression.support():
                    if name not in declared:
                        raise FlatIifError(
                            f"reference to undeclared signal {name!r} in {assign.target!r}"
                        )
        for output in self.outputs:
            if output not in driven:
                raise FlatIifError(f"output {output!r} is never driven")
        for internal in self.internals:
            if internal not in driven:
                raise FlatIifError(f"internal signal {internal!r} is never driven")
        for name in self._referenced():
            if name not in driven and name not in self.inputs:
                raise FlatIifError(f"signal {name!r} is referenced but never driven")

    def _referenced(self) -> Set[str]:
        names: Set[str] = set()
        for assign in self.assigns:
            for expression in _assign_expressions(assign):
                names.update(expression.support())
        return names

    # --------------------------------------------------------------- collapse

    def collapsed_output_expressions(self) -> Dict[str, E.BExpr]:
        """Express every output purely over inputs and state signals.

        Internal combinational signals are substituted away.  Sequential
        targets are left as free variables (they are state).  Useful for
        functional equivalence checks in tests and for estimation.
        """
        comb = {a.target: a.expr for a in self.combinational()}
        cache: Dict[str, E.BExpr] = {}

        def resolve(name: str, trail: Tuple[str, ...]) -> E.BExpr:
            if name in cache:
                return cache[name]
            if name not in comb or name in trail:
                return E.Var(name)
            expression = comb[name]
            mapping = {
                ref: resolve(ref, trail + (name,))
                for ref in expression.support()
            }
            result = E.substitute(expression, mapping)
            cache[name] = result
            return result

        collapsed: Dict[str, E.BExpr] = {}
        for output in self.outputs:
            assign = self.assignment_for(output)
            if assign is None:
                continue
            if isinstance(assign, CombAssign):
                collapsed[output] = resolve(output, ())
            else:
                collapsed[output] = E.Var(output)
        return collapsed

    # --------------------------------------------------------------- pretty

    def summary(self) -> str:
        """One-line human readable summary."""
        n_ff = len(self.sequential())
        n_comb = len(self.combinational())
        return (
            f"{self.name}: {len(self.inputs)} in, {len(self.outputs)} out, "
            f"{n_comb} comb eq, {n_ff} seq eq"
        )


def _assign_expressions(assign) -> Iterable[E.BExpr]:
    if isinstance(assign, CombAssign):
        yield assign.expr
    else:
        yield assign.data
        yield assign.clock
        for term in assign.asyncs:
            yield term.condition


def expand_signal(base: str, width: int) -> List[str]:
    """Flat names of an indexed signal: ``expand_signal("D", 3)`` ->
    ``["D[0]", "D[1]", "D[2]"]``.  A width of 0 means a scalar signal."""
    if width <= 0:
        return [base]
    return [f"{base}[{i}]" for i in range(width)]


def bus_signals(component: FlatComponent, base: str) -> List[str]:
    """All flat signals of ``component`` belonging to bus ``base`` in index
    order (or the scalar signal itself)."""
    names = [s for s in component.signals() if s == base or s.startswith(base + "[")]

    def key(name: str) -> Tuple[int, int]:
        if name == base:
            return (0, 0)
        index = int(name[len(base) + 1 : -1])
        return (1, index)

    return sorted(names, key=key)
