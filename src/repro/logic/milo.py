"""MILO-like logic optimization and technology mapping flow.

Section 4.3.1 of the paper describes the steps of the logic synthesis /
technology mapping tool.  :func:`synthesize` reproduces them:

1. remove the sequential constructs, leaving a set of boolean equations
   (plus flip-flop / latch specifications);
2. minimize the equations (two-level, per equation) after sweeping away
   trivial internal nets and constants;
3. factor the equations to reduce literal count and level count;
4. map the equations onto library cells, combining gates into complex gates;
5. reinsert the sequential logic as flip-flop / latch cells (asynchronous
   set / reset conditions become combinational set / reset nets);
6. (transistor sizing is a separate tool, :mod:`repro.sizing`.)

The result is a :class:`~repro.netlist.gates.GateNetlist` ready for delay /
area estimation, sizing and layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..iif.flat import AsyncTerm, CombAssign, FlatComponent, SeqAssign
from ..netlist.gates import GateNetlist
from ..techlib import CellLibrary, standard_cells
from . import expr as E
from .factor import factor
from .mapping import MappingOptions, TechnologyMapper
from .minimize import DEFAULT_MAX_VARS, minimize


class SynthesisError(ValueError):
    """Raised when a flat component cannot be synthesized."""


@dataclass
class SynthesisOptions:
    """Options of the MILO-like flow (ablation benches toggle these)."""

    minimize: bool = True
    factor: bool = True
    use_complex_gates: bool = True
    sweep: bool = True
    max_qm_vars: int = DEFAULT_MAX_VARS
    max_inline_literals: int = 24


# ---------------------------------------------------------------------------
# Sweep: constant propagation and trivial-net elimination
# ---------------------------------------------------------------------------


def sweep(flat: FlatComponent, options: Optional[SynthesisOptions] = None) -> FlatComponent:
    """Propagate constants and inline trivial / single-use internal nets.

    Internal combinational signals whose definition is a constant, a literal
    or that are used exactly once (and are reasonably small) are substituted
    into their uses.  Multi-fanout signals (carry chains, decoded selects)
    are kept as shared nets.  Outputs are never removed.
    """
    options = options or SynthesisOptions()
    comb: Dict[str, E.BExpr] = {a.target: a.expr for a in flat.combinational()}
    seq: Dict[str, SeqAssign] = {a.target: a for a in flat.sequential()}
    outputs = set(flat.outputs)

    def use_counts() -> Dict[str, int]:
        counts: Dict[str, int] = {}

        def visit(expression: E.BExpr) -> None:
            for name in expression.variables():
                counts[name] = counts.get(name, 0) + 1

        for expression in comb.values():
            visit(expression)
        for assign in seq.values():
            visit(assign.data)
            visit(assign.clock)
            for term in assign.asyncs:
                visit(term.condition)
        return counts

    def substitute_everywhere(name: str, value: E.BExpr) -> None:
        mapping = {name: value}
        for target in list(comb):
            comb[target] = E.substitute(comb[target], mapping)
        for target, assign in list(seq.items()):
            seq[target] = SeqAssign(
                target=assign.target,
                data=E.substitute(assign.data, mapping),
                clock=E.substitute(assign.clock, mapping),
                edge=assign.edge,
                asyncs=tuple(
                    AsyncTerm(term.value, E.substitute(term.condition, mapping))
                    for term in assign.asyncs
                ),
            )

    changed = True
    iterations = 0
    while changed and iterations < 100:
        changed = False
        iterations += 1
        counts = use_counts()
        for name in list(comb):
            if name in outputs:
                continue
            expression = comb[name]
            trivial = isinstance(expression, (E.Const, E.Var)) or (
                isinstance(expression, E.Not) and isinstance(expression.operand, E.Var)
            )
            single_use = (
                counts.get(name, 0) == 1
                and E.count_literals(expression) <= options.max_inline_literals
                and not E.has_opaque(expression)
            )
            if not (trivial or single_use):
                continue
            if name in expression.variables():
                continue
            del comb[name]
            substitute_everywhere(name, expression)
            changed = True

    result = FlatComponent(
        name=flat.name,
        inputs=list(flat.inputs),
        outputs=list(flat.outputs),
        internals=[name for name in flat.internals if name in comb or name in seq],
        functions=list(flat.functions),
        parameters=dict(flat.parameters),
    )
    assigns: List = []
    for assign in flat.assigns:
        if isinstance(assign, CombAssign):
            if assign.target in comb:
                assigns.append(CombAssign(assign.target, comb[assign.target]))
        else:
            assigns.append(seq[assign.target])
    result.assigns = assigns
    return result


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _optimize_direct(expression: E.BExpr, options: SynthesisOptions) -> E.BExpr:
    if options.minimize:
        expression = minimize(expression, options.max_qm_vars)
    if options.factor:
        expression = factor(expression)
    return expression


def optimize_expression(
    expression: E.BExpr,
    options: SynthesisOptions,
    cache=None,
) -> E.BExpr:
    """Minimize and factor one equation, with canonical-form memoization.

    ``cache`` (a :class:`~repro.core.gencache.CountedLruCache`, usually
    the generation cache's ``optimize`` stage) memoizes results keyed on
    the equation's *canonical form*: the support renamed to
    position-stable placeholders (:func:`~repro.logic.expr.canonical_form`).
    The n bit slices of a regular structure -- counter toggle bits, ALU
    slices, decoded selects -- are variable-renamings of one another, so
    they share a single canonical entry: one representative bit pays for
    Quine-McCluskey and factoring, the rest replay the result through a
    rename.  The first occurrence always returns the directly-computed
    expression, and the rename is monotone on the sorted support, so
    replayed slices match what direct optimization produces (asserted
    catalog-wide by the synthesis test suite).

    Expressions containing opaque Buf/Special subterms are optimized
    directly, never through the memo: :func:`minimize` abstracts those
    subterms as ``_opq<i>`` pseudo-variables, and ``_opq`` names do not
    keep one lexicographic position relative to arbitrary signal names
    and the canonical placeholders alike, so a replay would not be
    rename-equivariant (the QM variable order -- and with it the cover
    tie-breaks -- could differ between a slice and its canonical form).
    """
    if cache is None or isinstance(expression, (E.Var, E.Const)):
        return _optimize_direct(expression, options)
    if E.has_opaque(expression) or not E.is_canonicalizable(expression):
        return _optimize_direct(expression, options)
    canonical, names = E.canonical_form(expression)
    key = (canonical, options.minimize, options.factor, options.max_qm_vars)
    stored = cache.lookup(key)
    if stored is not None:
        back = {
            E.canonical_name(index): E.Var(name) for index, name in enumerate(names)
        }
        return E.substitute(stored, back)
    result = _optimize_direct(expression, options)
    to_canonical = {
        name: E.Var(E.canonical_name(index)) for index, name in enumerate(names)
    }
    cache.store(key, E.substitute(result, to_canonical))
    return result


def synthesize(
    flat: FlatComponent,
    library: Optional[CellLibrary] = None,
    options: Optional[SynthesisOptions] = None,
    optimize_cache=None,
) -> GateNetlist:
    """Run the full MILO-like flow on a flat component.

    ``optimize_cache`` optionally memoizes the per-equation minimize /
    factor step across equations and invocations (see
    :func:`optimize_expression`); the synthesized netlist is identical
    with or without it.
    """
    library = library or standard_cells()
    options = options or SynthesisOptions()
    working = sweep(flat, options) if options.sweep else flat

    netlist = GateNetlist(
        name=working.name,
        inputs=list(working.inputs),
        outputs=list(working.outputs),
        library=library,
    )
    mapper = TechnologyMapper(
        netlist,
        library,
        MappingOptions(use_complex_gates=options.use_complex_gates),
    )

    def optimize(expression: E.BExpr) -> E.BExpr:
        return optimize_expression(expression, options, optimize_cache)

    # Combinational equations.
    for assign in working.combinational():
        mapper.map_to_net(optimize(assign.expr), target=assign.target)

    # Sequential equations: data / clock / async conditions are combinational
    # nets feeding a flip-flop or latch cell whose output is the target.
    for assign in working.sequential():
        data_net = mapper.map_to_net(optimize(assign.data))
        clock_net = mapper.map_to_net(optimize(assign.clock))
        _emit_state_cell(netlist, mapper, library, assign, data_net, clock_net, optimize)

    netlist.validate()
    return netlist


def _emit_state_cell(
    netlist: GateNetlist,
    mapper: TechnologyMapper,
    library: CellLibrary,
    assign: SeqAssign,
    data_net: str,
    clock_net: str,
    optimize,
) -> None:
    set_terms = [term.condition for term in assign.asyncs if term.value == 1]
    reset_terms = [term.condition for term in assign.asyncs if term.value == 0]
    has_async = bool(set_terms or reset_terms)

    if assign.edge in ("r", "f"):
        if has_async:
            kind = "DFF_SR" if assign.edge == "r" else "DFF_N_SR"
        else:
            kind = "DFF" if assign.edge == "r" else "DFF_N"
    else:
        if has_async:
            raise SynthesisError(
                f"latch {assign.target!r} with asynchronous set/reset is not supported"
            )
        kind = "LATCH_H" if assign.edge == "h" else "LATCH_L"
    cell = library.by_kind(kind)

    pins = {"D": data_net, cell.clock_pin or "CK": clock_net, cell.outputs[0]: assign.target}
    if has_async:
        set_net = mapper.map_to_net(optimize(E.or_(*set_terms))) if set_terms else _tie(netlist, library, 0)
        reset_net = (
            mapper.map_to_net(optimize(E.or_(*reset_terms))) if reset_terms else _tie(netlist, library, 0)
        )
        pins["S"] = set_net
        pins["R"] = reset_net
    netlist.add_instance(cell, pins)


def _tie(netlist: GateNetlist, library: CellLibrary, value: int) -> str:
    net = netlist.new_net("tie")
    cell = library.by_kind("TIE1" if value else "TIE0")
    netlist.add_instance(cell, {cell.outputs[0]: net})
    return net
