"""Sum-of-products (two-level) representation used by the minimizer.

A :class:`Cube` is a product term: a partial assignment of variables to
0 / 1.  A :class:`SumOfProducts` is a list of cubes over a fixed variable
order.  The minimizer converts small expressions to minterms, computes prime
implicants (Quine-McCluskey) and covers them; this module holds the data
structures and the conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from . import expr as E


@dataclass(frozen=True)
class Cube:
    """A product term: mapping of variable name to required value (0 or 1).

    An empty cube is the constant-1 term.
    """

    literals: Tuple[Tuple[str, int], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[str, int]) -> "Cube":
        items = tuple(sorted((name, 1 if value else 0) for name, value in mapping.items()))
        return Cube(items)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.literals)

    def variables(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.literals)

    def literal_count(self) -> int:
        return len(self.literals)

    def evaluate(self, env: Mapping[str, int]) -> int:
        for name, value in self.literals:
            if (1 if env[name] else 0) != value:
                return 0
        return 1

    def covers(self, other: "Cube") -> bool:
        """True if every assignment satisfying ``other`` satisfies ``self``."""
        own = self.as_dict()
        theirs = other.as_dict()
        for name, value in own.items():
            if name not in theirs or theirs[name] != value:
                return False
        return True

    def to_expr(self) -> E.BExpr:
        if not self.literals:
            return E.TRUE
        terms = [
            E.Var(name) if value else E.not_(E.Var(name))
            for name, value in self.literals
        ]
        return E.and_(*terms)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if not self.literals:
            return "1"
        return "*".join(
            (name if value else f"!{name}") for name, value in self.literals
        )


@dataclass
class SumOfProducts:
    """A disjunction of cubes over an explicit variable order."""

    order: Tuple[str, ...]
    cubes: Tuple[Cube, ...]

    def literal_count(self) -> int:
        return sum(cube.literal_count() for cube in self.cubes)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return 1 if any(cube.evaluate(env) for cube in self.cubes) else 0

    def to_expr(self) -> E.BExpr:
        if not self.cubes:
            return E.FALSE
        return E.or_(*(cube.to_expr() for cube in self.cubes))


# ---------------------------------------------------------------------------
# Expression <-> minterms
# ---------------------------------------------------------------------------


def expr_minterms(expression: E.BExpr, order: Sequence[str]) -> Set[int]:
    """Minterm indices (over ``order``; index bit 0 is ``order[-1]``) where
    the expression evaluates to 1.

    Computed from the packed :func:`~repro.logic.expr.truth_mask` -- one
    evaluation of the shared expression graph for all ``2**n`` rows --
    instead of re-walking the tree once per row.
    """
    mask = E.truth_mask(expression, order)
    minterms: Set[int] = set()
    while mask:
        low = mask & -mask
        minterms.add(low.bit_length() - 1)
        mask ^= low
    return minterms


def cube_minterms(cube: Cube, order: Sequence[str]) -> Set[int]:
    """All minterm indices covered by ``cube`` over ``order``.

    The cube is packed into a ``(value, care)`` bit pair over ``order``
    and the free positions are enumerated as integer subsets.
    """
    names = list(order)
    n = len(names)
    fixed = cube.as_dict()
    value = 0
    care = 0
    for position, name in enumerate(names):
        if name in fixed:
            bit = 1 << (n - 1 - position)
            care |= bit
            if fixed[name]:
                value |= bit
    free = ((1 << n) - 1) ^ care
    minterms: Set[int] = set()
    subset = free
    while True:
        minterms.add(value | subset)
        if subset == 0:
            break
        subset = (subset - 1) & free
    return minterms


def remove_contained_cubes(cubes: Sequence[Cube]) -> List[Cube]:
    """Single-cube containment: drop cubes covered by another cube."""
    kept: List[Cube] = []
    for cube in cubes:
        if any(other is not cube and other.covers(cube) for other in cubes):
            continue
        kept.append(cube)
    # Deduplicate while preserving order.
    seen: Set[Cube] = set()
    unique: List[Cube] = []
    for cube in kept:
        if cube not in seen:
            seen.add(cube)
            unique.append(cube)
    return unique
