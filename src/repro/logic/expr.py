"""Boolean expression intermediate representation.

Every stage of the ICDB component-generation pipeline that manipulates
combinational behaviour (the IIF expander output, the MILO-like optimizer,
the technology mapper and the estimators) works on the small expression IR
defined here.

The IR is deliberately minimal: variables, the constants 0/1, NOT, n-ary
AND/OR, binary XOR/XNOR, an explicit BUF node, and a ``Special`` node for
the interface operators of IIF (tri-state, wire-or, delay, schmitt trigger)
that map one-to-one onto library cells and are never restructured by the
optimizer.

Expressions are immutable, *hash-consed* and structurally shared: one
canonical node exists per structurally-distinct expression, so equality
and hashing are by identity (``object``'s own ``__eq__`` and
``__hash__``), ``support()`` / ``depth`` / literal counts are cached
O(1) lookups, and expressions can be used directly as memoization keys
by the generation cache.  Interning is thread-safe (job workers
synthesize concurrently).

A server keeps every generated design's equations, so a node holds no
set of its own, and the common nodes need no key object either.  A
node's support is one sorted tuple of names: ``Not`` and ``Buf`` share
their operand's tuple, and an n-ary node whose support one child already
covers shares that child's.  ``variables()`` builds its frozenset from
that tuple on each call.  Each node class has its own weak intern table,
keyed by what the node already holds: a ``Var`` by its name, a ``Not``
or ``Buf`` by its operand, an ``And`` or ``Or`` by its ``args`` tuple.
The tables hold nodes weakly, so expressions no stage references any
more are garbage-collected.

Truth tables are computed over the shared subgraph with one big-integer
bitmask per node (a cofactor-free evaluation of all ``2**n`` rows at
once) instead of re-walking the tree once per input row.  The same walk,
:func:`evaluate_lanes`, runs the simulator's lane-packed test vectors
(:func:`repro.sim.batch.batch_evaluate`).

Signal names get the same treatment without the weak references a
``str`` cannot take: :func:`shared_name` keeps one string object per
live name for the expander and the netlist builder.
"""

from __future__ import annotations

import itertools
import sys
import threading
import weakref
from bisect import bisect_left
from typing import Callable, Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple


class ExprError(ValueError):
    """Raised for malformed boolean expressions."""


# ---------------------------------------------------------------------------
# Signal names
# ---------------------------------------------------------------------------

#: One string object per distinct live signal, gate or net name.  A str
#: cannot be weakly referenced, so the table holds its names strongly and
#: a sweep drops those that nothing else holds any more.
_NAMES: Dict[str, str] = {}
_NAMES_LOCK = threading.Lock()
#: The table is swept when it grows past ``_names_bound`` entries; each
#: sweep sets the bound to twice the names it kept, never below the floor.
NAMES_FLOOR = 1024
_names_bound = NAMES_FLOOR


def shared_name(name: str) -> str:
    """The one live string object equal to ``name``.

    Generated designs repeat the same names across components and stages
    (``A[0]``, ``U12_nand2``, ``n$7``); the expander and the netlist builder
    pass every name they make through here, so a server keeps each live
    name once.  Unlike ``sys.intern`` this forgets a name once nothing else
    holds it: interned strings are immortal on Python 3.12, and client-chosen
    IIF identifiers would grow the process for good.  A sweep runs whenever
    the table has doubled since the last one, so it never holds more than
    ``max(NAMES_FLOOR, 2 * k)`` names, ``k`` being the names alive at the
    last sweep.
    """
    shared = _NAMES.get(name)
    if shared is not None:
        return shared
    with _NAMES_LOCK:
        shared = _NAMES.setdefault(name, name)
        if len(_NAMES) > _names_bound:
            _sweep_names()
    return shared


def _sweep_names() -> None:
    """Drop the names only the table holds (the caller holds the lock)."""
    global _names_bound
    # What sys.getrefcount reports for a name nothing else holds differs
    # between Python versions, so a fresh probe string calibrates it: the
    # reversed loop meets the probe (inserted last) first.
    probe = "".join(("\x00", str(len(_NAMES))))
    _NAMES[probe] = probe
    del probe
    unheld = 0
    for name in reversed(list(_NAMES)):
        count = sys.getrefcount(name)
        if not unheld:
            unheld = count
        if count <= unheld:
            del _NAMES[name]
    _names_bound = max(NAMES_FLOOR, 2 * len(_NAMES))


# ---------------------------------------------------------------------------
# Interning machinery
# ---------------------------------------------------------------------------

#: One weak intern table per node class, one canonical node per
#: structurally-distinct expression.  ``Var`` nodes are keyed by their
#: name, ``Not`` / ``Buf`` by their operand and ``And`` / ``Or`` by their
#: own ``args`` tuple: objects the node holds anyway, so the table adds
#: no key object per node.  ``Const`` nodes key by their value, and the
#: rarer ``Xor`` / ``Xnor`` / ``Special`` nodes by a small tuple.
#: Values are held weakly: an expression nothing references dies, and
#: its entry (whose key holds the only remaining strong references to its
#: children) follows.  The lookups outside ``_INTERN_LOCK`` are the
#: unlocked fast path: dict operations are atomic under the GIL, and a
#: ref that died mid-read falls through to the locked slow path.
_CONSTS, _VARS, _NOTS, _BUFS, _ANDS, _ORS, _XORS, _XNORS, _SPECIALS = (
    weakref.WeakValueDictionary() for _ in range(9)
)
_INTERN_LOCK = threading.Lock()


class BExpr:
    """Base class for boolean expressions (interned, immutable)."""

    __slots__ = ("_vars", "_depth", "_lits", "_nodes", "_opaque", "__weakref__")

    # -- structural queries -------------------------------------------------

    def variables(self) -> FrozenSet[str]:
        """The set of variable names appearing in the expression (a new
        frozenset; :meth:`support` answers the same names without a copy)."""
        return frozenset(self._vars)

    def support(self) -> Tuple[str, ...]:
        """The variable names appearing in the expression, sorted (cached)."""
        return self._vars

    def children(self) -> Tuple["BExpr", ...]:
        """Return direct sub-expressions."""
        return ()

    # -- semantics -----------------------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a 0/1 assignment.  Missing variables raise KeyError."""
        raise NotImplementedError

    # -- identity ------------------------------------------------------------

    # Equality and hashing are object identity (inherited from ``object``):
    # interning guarantees one node per structure, so an identity hash
    # costs no slot per node.  Nothing orders expressions by hash.

    def __copy__(self) -> "BExpr":
        return self

    def __deepcopy__(self, memo) -> "BExpr":
        return self

    # -- convenience operators ------------------------------------------------

    def __and__(self, other: "BExpr") -> "BExpr":
        return and_(self, other)

    def __or__(self, other: "BExpr") -> "BExpr":
        return or_(self, other)

    def __xor__(self, other: "BExpr") -> "BExpr":
        return xor(self, other)

    def __invert__(self) -> "BExpr":
        return not_(self)


def _support(args: Sequence[BExpr]) -> Tuple[str, ...]:
    """The sorted union of the arguments' supports.

    When one argument's support already covers the others, the node
    shares that argument's tuple instead of building its own.
    """
    widest: Tuple[str, ...] = ()
    for arg in args:
        if len(arg._vars) > len(widest):
            widest = arg._vars
    names = None
    for arg in args:
        support = arg._vars
        if support is widest or not support:
            continue
        if names is None:
            names = set(widest)
        names.update(support)
    if names is None or len(names) == len(widest):
        return widest
    return tuple(sorted(names))


def _finish(node: BExpr, vars_, depth, lits, nodes, opaque) -> None:
    node._vars = vars_
    node._depth = depth
    node._lits = lits
    node._nodes = nodes
    node._opaque = opaque


class Const(BExpr):
    """The constant 0 or 1."""

    __slots__ = ("value",)

    def __new__(cls, value: int):
        if value not in (0, 1):
            raise ExprError(f"constant must be 0 or 1, got {value!r}")
        self = _CONSTS.get(value)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _CONSTS.get(value)
            if self is None:
                self = object.__new__(cls)
                self.value = value
                _finish(self, (), 0, 0, 0, False)
                _CONSTS[value] = self
            return self

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def __reduce__(self):
        return (Const, (self.value,))

    def __repr__(self) -> str:
        return f"Const({self.value})"


TRUE = Const(1)
FALSE = Const(0)

# Keep the two constants alive for the lifetime of the module even if user
# code rebinds TRUE/FALSE (the intern table alone holds them weakly).
_CONST_ANCHOR = (TRUE, FALSE)


class Var(BExpr):
    """A named signal."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        self = _VARS.get(name)
        if self is not None:
            return self
        # A new node keeps the shared name object (an unpickled name is a
        # fresh copy), and so does every support tuple built from it.
        name = shared_name(name)
        with _INTERN_LOCK:
            self = _VARS.get(name)
            if self is None:
                self = object.__new__(cls)
                self.name = name
                _finish(self, (name,), 0, 1, 0, False)
                _VARS[name] = self
            return self

    def evaluate(self, env: Mapping[str, int]) -> int:
        return 1 if env[self.name] else 0

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


def _unary_new(cls, table, operand: BExpr):
    self = table.get(operand)
    if self is not None:
        return self
    with _INTERN_LOCK:
        self = table.get(operand)
        if self is None:
            self = object.__new__(cls)
            self.operand = operand
            _finish(
                self,
                operand._vars,
                operand._depth + 1,
                operand._lits,
                operand._nodes + 1,
                cls is Buf or operand._opaque,
            )
            table[operand] = self
        return self


class Not(BExpr):
    __slots__ = ("operand",)

    def __new__(cls, operand: BExpr):
        return _unary_new(cls, _NOTS, operand)

    def children(self) -> Tuple[BExpr, ...]:
        return (self.operand,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return 1 - self.operand.evaluate(env)

    def __reduce__(self):
        return (Not, (self.operand,))

    def __repr__(self) -> str:
        return f"Not(operand={self.operand!r})"


class Buf(BExpr):
    """An explicit buffer (kept so technology mapping can emit a BUF cell)."""

    __slots__ = ("operand",)

    def __new__(cls, operand: BExpr):
        return _unary_new(cls, _BUFS, operand)

    def children(self) -> Tuple[BExpr, ...]:
        return (self.operand,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.operand.evaluate(env)

    def __reduce__(self):
        return (Buf, (self.operand,))

    def __repr__(self) -> str:
        return f"Buf(operand={self.operand!r})"


def _nary_new(cls, table, args: Tuple[BExpr, ...]):
    args = tuple(args)
    self = table.get(args)
    if self is not None:
        return self
    with _INTERN_LOCK:
        self = table.get(args)
        if self is None:
            self = object.__new__(cls)
            self.args = args
            _finish(
                self,
                _support(args),
                1 + max((a._depth for a in args), default=-1),
                sum(a._lits for a in args),
                1 + sum(a._nodes for a in args),
                any(a._opaque for a in args),
            )
            table[args] = self
        return self


class And(BExpr):
    __slots__ = ("args",)

    def __new__(cls, args):
        return _nary_new(cls, _ANDS, args)

    def children(self) -> Tuple[BExpr, ...]:
        return self.args

    def evaluate(self, env: Mapping[str, int]) -> int:
        for arg in self.args:
            if not arg.evaluate(env):
                return 0
        return 1

    def __reduce__(self):
        return (And, (self.args,))

    def __repr__(self) -> str:
        return f"And(args={self.args!r})"


class Or(BExpr):
    __slots__ = ("args",)

    def __new__(cls, args):
        return _nary_new(cls, _ORS, args)

    def children(self) -> Tuple[BExpr, ...]:
        return self.args

    def evaluate(self, env: Mapping[str, int]) -> int:
        for arg in self.args:
            if arg.evaluate(env):
                return 1
        return 0

    def __reduce__(self):
        return (Or, (self.args,))

    def __repr__(self) -> str:
        return f"Or(args={self.args!r})"


def _binary_new(cls, table, left: BExpr, right: BExpr):
    key = (left, right)
    self = table.get(key)
    if self is not None:
        return self
    with _INTERN_LOCK:
        self = table.get(key)
        if self is None:
            self = object.__new__(cls)
            self.left = left
            self.right = right
            _finish(
                self,
                _support(key),
                1 + max(left._depth, right._depth),
                left._lits + right._lits,
                1 + left._nodes + right._nodes,
                left._opaque or right._opaque,
            )
            table[key] = self
        return self


class Xor(BExpr):
    __slots__ = ("left", "right")

    def __new__(cls, left: BExpr, right: BExpr):
        return _binary_new(cls, _XORS, left, right)

    def children(self) -> Tuple[BExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) ^ self.right.evaluate(env)

    def __reduce__(self):
        return (Xor, (self.left, self.right))

    def __repr__(self) -> str:
        return f"Xor(left={self.left!r}, right={self.right!r})"


class Xnor(BExpr):
    __slots__ = ("left", "right")

    def __new__(cls, left: BExpr, right: BExpr):
        return _binary_new(cls, _XNORS, left, right)

    def children(self) -> Tuple[BExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return 1 - (self.left.evaluate(env) ^ self.right.evaluate(env))

    def __reduce__(self):
        return (Xnor, (self.left, self.right))

    def __repr__(self) -> str:
        return f"Xnor(left={self.left!r}, right={self.right!r})"


#: IIF interface operators that bypass boolean restructuring.
SPECIAL_KINDS = ("tristate", "wireor", "delay", "schmitt")


class Special(BExpr):
    """Interface operator node (tri-state, wire-or, delay, schmitt trigger).

    ``param`` carries the delay amount for ``delay`` nodes and is ``None``
    otherwise.  The optimizer treats these nodes as opaque: their operands are
    optimized independently and the node itself maps onto a dedicated cell.
    """

    __slots__ = ("kind", "args", "param")

    def __new__(cls, kind: str, args, param: Optional[int] = None):
        if kind not in SPECIAL_KINDS:
            raise ExprError(f"unknown special kind {kind!r}")
        args = tuple(args)
        key = (kind, args, param)
        self = _SPECIALS.get(key)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _SPECIALS.get(key)
            if self is None:
                self = object.__new__(cls)
                self.kind = kind
                self.args = args
                self.param = param
                _finish(
                    self,
                    _support(args),
                    1 + max((a._depth for a in args), default=-1),
                    sum(a._lits for a in args),
                    1 + sum(a._nodes for a in args),
                    True,
                )
                _SPECIALS[key] = self
            return self

    def children(self) -> Tuple[BExpr, ...]:
        return self.args

    def evaluate(self, env: Mapping[str, int]) -> int:
        # Functional (zero-delay, driven) semantics: the data input wins for
        # tri-state and delay, wire-or behaves as OR, schmitt as buffer.
        if self.kind == "wireor":
            return 1 if any(arg.evaluate(env) for arg in self.args) else 0
        return self.args[0].evaluate(env)

    def __reduce__(self):
        return (Special, (self.kind, self.args, self.param))

    def __repr__(self) -> str:
        return f"Special(kind={self.kind!r}, args={self.args!r}, param={self.param!r})"


# ---------------------------------------------------------------------------
# Smart constructors (light constant folding / flattening)
# ---------------------------------------------------------------------------


def const(value: int) -> Const:
    """Return the constant TRUE or FALSE node for ``value``."""
    return TRUE if value else FALSE


def var(name: str) -> Var:
    """Return a variable node."""
    return Var(name)


def not_(operand: BExpr) -> BExpr:
    """Negation with folding of constants and double negation."""
    if isinstance(operand, Const):
        return const(1 - operand.value)
    if isinstance(operand, Not):
        return operand.operand
    return Not(operand)


def buf(operand: BExpr) -> BExpr:
    """Explicit buffer node (constants pass through)."""
    if isinstance(operand, Const):
        return operand
    return Buf(operand)


def _flatten(cls, args) -> Iterator[BExpr]:
    for arg in args:
        if isinstance(arg, cls):
            yield from arg.args
        else:
            yield arg


def and_(*args: BExpr) -> BExpr:
    """N-ary AND with flattening, constant folding and duplicate removal."""
    flat = list(_flatten(And, args))
    kept = []
    seen = set()
    for arg in flat:
        if isinstance(arg, Const):
            if arg.value == 0:
                return FALSE
            continue
        if arg in seen:
            continue
        seen.add(arg)
        kept.append(arg)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return And(tuple(kept))


def or_(*args: BExpr) -> BExpr:
    """N-ary OR with flattening, constant folding and duplicate removal."""
    flat = list(_flatten(Or, args))
    kept = []
    seen = set()
    for arg in flat:
        if isinstance(arg, Const):
            if arg.value == 1:
                return TRUE
            continue
        if arg in seen:
            continue
        seen.add(arg)
        kept.append(arg)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return Or(tuple(kept))


def xor(left: BExpr, right: BExpr) -> BExpr:
    """Binary XOR with constant folding."""
    if isinstance(left, Const):
        return right if left.value == 0 else not_(right)
    if isinstance(right, Const):
        return left if right.value == 0 else not_(left)
    if left == right:
        return FALSE
    return Xor(left, right)


def xnor(left: BExpr, right: BExpr) -> BExpr:
    """Binary XNOR with constant folding."""
    if isinstance(left, Const):
        return not_(right) if left.value == 0 else right
    if isinstance(right, Const):
        return not_(left) if right.value == 0 else left
    if left == right:
        return TRUE
    return Xnor(left, right)


def special(kind: str, args: Sequence[BExpr], param: Optional[int] = None) -> Special:
    """Construct an interface-operator node."""
    return Special(kind, tuple(args), param)


def tristate(data: BExpr, control: BExpr) -> Special:
    """Tri-state buffer: ``data ~t control``."""
    return special("tristate", (data, control))


def wire_or(left: BExpr, right: BExpr) -> Special:
    """Wired-or of two driven nets: ``a ~w b``."""
    return special("wireor", (left, right))


def delay(data: BExpr, amount: int) -> Special:
    """Pure delay element of ``amount`` nanoseconds: ``a ~d amount``."""
    return special("delay", (data,), amount)


def schmitt(data: BExpr) -> Special:
    """Schmitt-trigger input conditioner: ``~s a``."""
    return special("schmitt", (data,))


# ---------------------------------------------------------------------------
# Traversal / analysis helpers
# ---------------------------------------------------------------------------


def walk(expr: BExpr) -> Iterator[BExpr]:
    """Yield ``expr`` and every sub-expression (pre-order, tree semantics:
    a shared subgraph is yielded once per occurrence)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def count_literals(expr: BExpr) -> int:
    """Count literal occurrences (variable references) -- the classic cost."""
    return expr._lits


def count_nodes(expr: BExpr) -> int:
    """Count operator nodes (excluding variables and constants)."""
    return expr._nodes


def has_opaque(expr: BExpr) -> bool:
    """True if the expression contains a Buf or Special node (cached)."""
    return expr._opaque


def depth(expr: BExpr) -> int:
    """Return the operator depth (a variable or constant has depth 0)."""
    return expr._depth


def substitute(expr: BExpr, mapping: Mapping[str, BExpr]) -> BExpr:
    """Replace variables by expressions (simultaneously).

    Subtrees whose support is disjoint from the mapping are returned
    unchanged (a binary search of the cached sorted support per mapped
    name), and shared subgraphs are rewritten once per :func:`substitute`
    call.
    """
    if not mapping:
        return expr
    return _substitute(expr, mapping, {})


def _reads(support: Tuple[str, ...], mapping: Mapping[str, BExpr]) -> bool:
    """True when the sorted ``support`` holds a name ``mapping`` maps."""
    if len(mapping) < len(support):
        for name in mapping:
            index = bisect_left(support, name)
            if index < len(support) and support[index] == name:
                return True
        return False
    for name in support:
        if name in mapping:
            return True
    return False


def _substitute(expr: BExpr, mapping: Mapping[str, BExpr], memo: Dict[BExpr, BExpr]) -> BExpr:
    if not _reads(expr._vars, mapping):
        return expr
    done = memo.get(expr)
    if done is not None:
        return done
    if isinstance(expr, Var):
        result = mapping.get(expr.name, expr)
    elif isinstance(expr, Not):
        result = not_(_substitute(expr.operand, mapping, memo))
    elif isinstance(expr, Buf):
        result = buf(_substitute(expr.operand, mapping, memo))
    elif isinstance(expr, And):
        result = and_(*(_substitute(arg, mapping, memo) for arg in expr.args))
    elif isinstance(expr, Or):
        result = or_(*(_substitute(arg, mapping, memo) for arg in expr.args))
    elif isinstance(expr, Xor):
        result = xor(
            _substitute(expr.left, mapping, memo), _substitute(expr.right, mapping, memo)
        )
    elif isinstance(expr, Xnor):
        result = xnor(
            _substitute(expr.left, mapping, memo), _substitute(expr.right, mapping, memo)
        )
    elif isinstance(expr, Special):
        result = Special(
            expr.kind,
            tuple(_substitute(arg, mapping, memo) for arg in expr.args),
            expr.param,
        )
    else:
        raise ExprError(f"cannot substitute into {expr!r}")
    memo[expr] = result
    return result


def rename_variables(expr: BExpr, mapping: Mapping[str, str]) -> BExpr:
    """Rename variables according to ``mapping`` (missing names unchanged)."""
    return substitute(expr, {old: Var(new) for old, new in mapping.items()})


def cofactor(expr: BExpr, name: str, value: int) -> BExpr:
    """Shannon cofactor of ``expr`` with respect to ``name`` = ``value``."""
    return substitute(expr, {name: const(value)})


# ---------------------------------------------------------------------------
# Truth tables over shared subgraphs
# ---------------------------------------------------------------------------

#: Cached per-variable row masks, keyed by (variable count, bit shift).
#: Only small supports are cached: the flow's equations live well under
#: ``_VAR_MASK_CACHE_VARS`` variables, and one 24-variable mask alone is
#: 2 MB -- caching those would pin tens of megabytes for the process
#: lifetime after a single large query.
_VAR_MASKS: Dict[Tuple[int, int], int] = {}
_VAR_MASK_CACHE_VARS = 16


def _var_mask(n: int, shift: int) -> int:
    """Bitmask over the 2**n truth-table rows where row index bit ``shift``
    is set (row i of the table assigns ``(i >> shift) & 1`` to the
    variable whose index-significance is ``shift``)."""
    cacheable = n <= _VAR_MASK_CACHE_VARS
    if cacheable:
        mask = _VAR_MASKS.get((n, shift))
        if mask is not None:
            return mask
    block = ((1 << (1 << shift)) - 1) << (1 << shift)
    width = 1 << (shift + 1)
    total = 1 << n
    mask = block
    while width < total:
        mask |= mask << width
        width <<= 1
    if cacheable:
        _VAR_MASKS[(n, shift)] = mask
    return mask


def evaluate_lanes(
    expr: BExpr,
    variable: Callable[[str], int],
    full: int,
    memo: Optional[Dict[BExpr, int]] = None,
) -> int:
    """Evaluate ``expr`` on many assignments at once, one bit per lane.

    ``variable(name)`` answers a variable's lanes as one integer (bit
    ``i`` is its value in lane ``i``); its exceptions propagate, and lanes
    beyond ``full``, the all-lanes mask, are dropped.  Every node of the
    shared expression graph is evaluated once, for all lanes with one
    bitwise operation; ``memo`` carries node results across calls against
    the same variable values.  :func:`truth_mask` runs it over the
    ``2**n`` truth-table rows, the simulator over lane-packed test
    vectors.
    """
    if memo is None:
        memo = {}

    def rec(node: BExpr) -> int:
        result = memo.get(node)
        if result is not None:
            return result
        if isinstance(node, Const):
            result = full if node.value else 0
        elif isinstance(node, Var):
            result = variable(node.name) & full
        elif isinstance(node, Not):
            result = full ^ rec(node.operand)
        elif isinstance(node, Buf):
            result = rec(node.operand)
        elif isinstance(node, And):
            result = full
            for arg in node.args:
                result &= rec(arg)
        elif isinstance(node, Or):
            result = 0
            for arg in node.args:
                result |= rec(arg)
        elif isinstance(node, Xor):
            result = rec(node.left) ^ rec(node.right)
        elif isinstance(node, Xnor):
            result = full ^ rec(node.left) ^ rec(node.right)
        elif isinstance(node, Special):
            # Functional (zero-delay, driven) semantics, as in
            # ``Special.evaluate``: wire-or resolves as OR, the data input
            # wins for tri-state / delay / schmitt.
            if node.kind == "wireor":
                result = 0
                for arg in node.args:
                    result |= rec(arg)
            else:
                result = rec(node.args[0])
        else:
            raise ExprError(f"cannot evaluate {node!r}")
        memo[node] = result
        return result

    return rec(expr)


def truth_mask(expr: BExpr, order: Sequence[str]) -> int:
    """The truth table of ``expr`` over ``order`` packed into one integer.

    Bit ``i`` of the result is the value of the expression on row ``i``
    of the table, with ``order[0]`` the most-significant index bit (the
    same row convention as :func:`truth_table`).  Every node of the shared
    expression graph is evaluated exactly once, for all rows at once; a
    variable missing from ``order`` raises ``KeyError``.
    """
    names = list(order)
    n = len(names)
    if n > 24:
        raise ExprError(f"truth table over {n} variables is too large")
    shifts = {name: n - 1 - position for position, name in enumerate(names)}
    return evaluate_lanes(
        expr, lambda name: _var_mask(n, shifts[name]), (1 << (1 << n)) - 1
    )


def truth_table(expr: BExpr, order: Optional[Sequence[str]] = None) -> Tuple[int, ...]:
    """Return the truth table of ``expr`` over ``order`` (default: sorted vars).

    The result has ``2**n`` entries; entry ``i`` is the value of the
    expression when the variables take the bits of ``i`` (``order[0]`` is the
    most-significant bit).  Only usable for small variable counts.
    """
    names = list(order) if order is not None else list(expr._vars)
    n = len(names)
    if n > 20:
        raise ExprError(f"truth table over {n} variables is too large")
    mask = truth_mask(expr, names)
    rows = 1 << n
    # Serialize the big integer once: per-row `mask >> i` shifts would
    # make extraction quadratic in the row count for large supports.
    packed = mask.to_bytes((rows + 7) // 8, "little")
    return tuple((packed[i >> 3] >> (i & 7)) & 1 for i in range(rows))


def equivalent(left: BExpr, right: BExpr, max_vars: int = 16) -> bool:
    """Check semantic equivalence by exhaustive evaluation over the union of
    the two expressions' variables.  Intended for tests and assertions on the
    small component functions ICDB manipulates."""
    names = sorted(set(left._vars).union(right._vars))
    if len(names) > max_vars:
        raise ExprError(
            f"equivalence check over {len(names)} variables exceeds max_vars={max_vars}"
        )
    if len(names) > 24:
        # Callers may raise max_vars beyond the packed-mask limit; fall
        # back to the classic row-by-row sweep rather than narrowing the
        # documented contract.
        for bits in itertools.product((0, 1), repeat=len(names)):
            env = dict(zip(names, bits))
            if left.evaluate(env) != right.evaluate(env):
                return False
        return True
    return truth_mask(left, names) == truth_mask(right, names)


def support_size(expr: BExpr) -> int:
    """Number of distinct variables in the expression."""
    return len(expr._vars)


# ---------------------------------------------------------------------------
# Canonical (rename-abstracted) forms for slice detection
# ---------------------------------------------------------------------------

#: Placeholder variable prefix.  '~' is an operator character in IIF, so no
#: real signal name can collide with a placeholder.
_CANONICAL_PREFIX = "~"


def canonical_name(index: int) -> str:
    """The placeholder name for support position ``index`` (order-stable:
    placeholders sort exactly like the sorted original support)."""
    return f"{_CANONICAL_PREFIX}{index:04d}"


def canonical_form(expr: BExpr) -> Tuple[BExpr, Tuple[str, ...]]:
    """Rename the support to position-stable placeholders.

    Returns ``(canonical expression, sorted original names)``: two
    expressions that are variable-renamings of each other (the regular bit
    slices of counters and datapaths) intern to the *same* canonical node,
    which is what the generation cache keys per-slice optimization reuse
    on.  The rename maps ``sorted(vars)[i]`` to :func:`canonical_name`
    ``(i)``, preserving relative sorted order.
    """
    names = expr._vars
    mapping = {name: Var(canonical_name(index)) for index, name in enumerate(names)}
    return substitute(expr, mapping), names


def is_canonicalizable(expr: BExpr) -> bool:
    """True when the support is safe to abstract (no placeholder collisions,
    small enough for 4-digit placeholders)."""
    vars_ = expr._vars
    if len(vars_) >= 10000:
        return False
    return not any(name.startswith(_CANONICAL_PREFIX) for name in vars_)


# ---------------------------------------------------------------------------
# Text rendering (IIF-style operators)
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "or": 1,
    "xor": 2,
    "and": 3,
    "unary": 4,
    "atom": 5,
}


def to_iif_string(expr: BExpr) -> str:
    """Render an expression using IIF operator syntax (``+ * ! (+) (.)``)."""
    return _render(expr, 0)


def _paren(text: str, inner: int, outer: int) -> str:
    return f"({text})" if inner < outer else text


def _render(expr: BExpr, outer: int) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Not):
        return "!" + _render(expr.operand, _PRECEDENCE["unary"])
    if isinstance(expr, Buf):
        return "~b " + _render(expr.operand, _PRECEDENCE["unary"])
    if isinstance(expr, And):
        text = "*".join(_render(arg, _PRECEDENCE["and"]) for arg in expr.args)
        return _paren(text, _PRECEDENCE["and"], outer)
    if isinstance(expr, Or):
        text = " + ".join(_render(arg, _PRECEDENCE["or"]) for arg in expr.args)
        return _paren(text, _PRECEDENCE["or"], outer)
    if isinstance(expr, Xor):
        text = (
            _render(expr.left, _PRECEDENCE["xor"])
            + " (+) "
            + _render(expr.right, _PRECEDENCE["xor"])
        )
        return _paren(text, _PRECEDENCE["xor"], outer)
    if isinstance(expr, Xnor):
        text = (
            _render(expr.left, _PRECEDENCE["xor"])
            + " (.) "
            + _render(expr.right, _PRECEDENCE["xor"])
        )
        return _paren(text, _PRECEDENCE["xor"], outer)
    if isinstance(expr, Special):
        if expr.kind == "tristate":
            return (
                _render(expr.args[0], _PRECEDENCE["unary"])
                + " ~t "
                + _render(expr.args[1], _PRECEDENCE["unary"])
            )
        if expr.kind == "wireor":
            return (
                _render(expr.args[0], _PRECEDENCE["unary"])
                + " ~w "
                + _render(expr.args[1], _PRECEDENCE["unary"])
            )
        if expr.kind == "delay":
            return _render(expr.args[0], _PRECEDENCE["unary"]) + f" ~d {expr.param}"
        if expr.kind == "schmitt":
            return "~s " + _render(expr.args[0], _PRECEDENCE["unary"])
    raise ExprError(f"cannot render {expr!r}")
