"""Two-level logic minimization (Quine-McCluskey with a greedy cover).

The MILO-like flow minimizes every equation of a flat component before
factoring and technology mapping.  The component equations ICDB manipulates
are small (a handful of variables each), so an exact prime-implicant
computation is affordable; larger equations fall back to the expression's
smart-constructor simplifications.

XOR-rich designer equations (adder sum bits, counter toggle bits) are *not*
forced into sum-of-products form: the minimizer keeps whichever of the
original and the minimized expression has the lower literal count, so the
technology mapper can still use XOR cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from . import expr as E
from .sop import Cube, SumOfProducts, cube_minterms, expr_minterms, remove_contained_cubes

#: Above this support size the exact minimizer is skipped.
DEFAULT_MAX_VARS = 10


# ---------------------------------------------------------------------------
# Quine-McCluskey
# ---------------------------------------------------------------------------


def prime_implicants(minterms: Set[int], order: Sequence[str]) -> List[Cube]:
    """Compute all prime implicants of the on-set ``minterms``.

    Cubes are packed ``(value, care)`` integer pairs over ``order``
    (``care`` bit set = the variable is fixed).  Two cubes combine exactly
    when they share a care mask and their values differ in one care bit,
    so each generation probes ``O(cubes * n)`` set lookups instead of
    comparing every cube pair through per-variable dictionaries.  The
    resulting prime set is identical to the classic tabulation.
    """
    if not minterms:
        return []
    names = list(order)
    n = len(names)
    full = (1 << n) - 1
    current: Set[Tuple[int, int]] = {(index & full, full) for index in minterms}
    primes: List[Tuple[int, int]] = []
    while current:
        combined: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        for cube in current:
            value, care = cube
            remaining = care
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                if (value ^ bit, care) in current:
                    used.add(cube)
                    combined.add((value & ~bit, care ^ bit))
        primes.extend(cube for cube in current if cube not in used)
        current = combined
    result: List[Cube] = []
    for value, care in primes:
        literals = []
        for position, name in enumerate(names):
            bit = 1 << (n - 1 - position)
            if care & bit:
                literals.append((name, 1 if value & bit else 0))
        result.append(Cube(tuple(sorted(literals))))
    return result


def select_cover(
    minterms: Set[int], primes: Sequence[Cube], order: Sequence[str]
) -> List[Cube]:
    """Select a small set of primes covering all minterms.

    Essential primes are chosen first, then remaining minterms are covered
    greedily (largest coverage per literal).
    """
    if not minterms:
        return []
    # Deterministic prime order (fewest literals first, then lexicographic)
    # so the greedy cover does not depend on set-iteration order.
    primes = sorted(primes, key=lambda cube: (cube.literal_count(), str(cube)))
    coverage: Dict[Cube, Set[int]] = {
        prime: cube_minterms(prime, order) & minterms for prime in primes
    }
    uncovered = set(minterms)
    chosen: List[Cube] = []

    # Essential primes: minterms covered by exactly one prime.
    for minterm in sorted(minterms):
        covering = [prime for prime, covered in coverage.items() if minterm in covered]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
            uncovered -= coverage[covering[0]]

    while uncovered:
        best: Optional[Cube] = None
        best_key: Tuple[float, int] = (-1.0, 0)
        for prime, covered in coverage.items():
            if prime in chosen:
                continue
            gain = len(covered & uncovered)
            if gain == 0:
                continue
            literals = prime.literal_count() or 1
            key = (gain / literals, gain)
            if key > best_key:
                best_key = key
                best = prime
        if best is None:  # pragma: no cover - cannot happen if primes cover on-set
            raise RuntimeError("prime implicants do not cover the on-set")
        chosen.append(best)
        uncovered -= coverage[best]
    return remove_contained_cubes(chosen)


def minimize_to_sop(
    expression: E.BExpr, order: Optional[Sequence[str]] = None
) -> SumOfProducts:
    """Exact two-level minimization of a (small) expression."""
    names = tuple(order) if order is not None else tuple(sorted(expression.variables()))
    minterms = expr_minterms(expression, names)
    primes = prime_implicants(minterms, names)
    cover = select_cover(minterms, primes, names)
    return SumOfProducts(names, tuple(cover))


# ---------------------------------------------------------------------------
# Expression-level minimization with opaque sub-terms
# ---------------------------------------------------------------------------


def _abstract_opaque(
    expression: E.BExpr, table: Dict[E.BExpr, str], prefix: str = "_opq"
) -> E.BExpr:
    """Replace Buf / Special sub-terms by fresh pseudo-variables.

    The minimizer only restructures AND/OR/NOT/XOR logic; interface
    operators and explicit buffers are kept opaque and re-substituted after
    minimization.
    """
    if isinstance(expression, (E.Var, E.Const)):
        return expression
    if isinstance(expression, (E.Buf, E.Special)):
        if expression not in table:
            table[expression] = f"{prefix}{len(table)}"
        return E.Var(table[expression])
    if isinstance(expression, E.Not):
        return E.not_(_abstract_opaque(expression.operand, table, prefix))
    if isinstance(expression, E.And):
        return E.and_(*(_abstract_opaque(arg, table, prefix) for arg in expression.args))
    if isinstance(expression, E.Or):
        return E.or_(*(_abstract_opaque(arg, table, prefix) for arg in expression.args))
    if isinstance(expression, E.Xor):
        return E.xor(
            _abstract_opaque(expression.left, table, prefix),
            _abstract_opaque(expression.right, table, prefix),
        )
    if isinstance(expression, E.Xnor):
        return E.xnor(
            _abstract_opaque(expression.left, table, prefix),
            _abstract_opaque(expression.right, table, prefix),
        )
    raise E.ExprError(f"cannot abstract {expression!r}")


def _expr_cost(expression: E.BExpr) -> int:
    """Literal count plus a small operator charge (ties broken toward fewer nodes)."""
    return E.count_literals(expression) * 4 + E.count_nodes(expression)


def minimize(expression: E.BExpr, max_vars: int = DEFAULT_MAX_VARS) -> E.BExpr:
    """Minimize an expression, keeping it if minimization does not help.

    Buf / Special sub-terms are treated as opaque inputs; their operands are
    minimized recursively.
    """
    if isinstance(expression, (E.Var, E.Const)):
        return expression
    if isinstance(expression, E.Buf):
        return E.buf(minimize(expression.operand, max_vars))
    if isinstance(expression, E.Special):
        return E.Special(
            expression.kind,
            tuple(minimize(arg, max_vars) for arg in expression.args),
            expression.param,
        )

    table: Dict[E.BExpr, str] = {}
    abstract = _abstract_opaque(expression, table)
    support = abstract.variables()
    if len(support) > max_vars:
        minimized_abstract = abstract
    else:
        sop = minimize_to_sop(abstract)
        candidate = sop.to_expr()
        minimized_abstract = (
            candidate if _expr_cost(candidate) < _expr_cost(abstract) else abstract
        )
    if not table:
        return minimized_abstract
    # Re-substitute opaque terms (their operands minimized recursively).
    back = {
        name: (
            E.buf(minimize(term.operand, max_vars))
            if isinstance(term, E.Buf)
            else E.Special(
                term.kind,
                tuple(minimize(arg, max_vars) for arg in term.args),
                term.param,
            )
        )
        for term, name in table.items()
    }
    return E.substitute(minimized_abstract, back)
