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
``__hash__``), ``variables()`` / ``depth`` / literal counts are cached
O(1) lookups, and expressions can be used directly as memoization keys
by the generation cache.  The intern table holds nodes weakly, so
expressions no stage references any more are garbage-collected; interning
is thread-safe (the PR-3 job workers synthesize concurrently).

Truth tables are computed over the shared subgraph with one big-integer
bitmask per node (a cofactor-free evaluation of all ``2**n`` rows at
once) instead of re-walking the tree once per input row.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple


class ExprError(ValueError):
    """Raised for malformed boolean expressions."""


# ---------------------------------------------------------------------------
# Interning machinery
# ---------------------------------------------------------------------------

#: One canonical node per structurally-distinct expression.  Values are held
#: weakly: an expression nothing references dies, and its table entry (whose
#: key holds the only remaining strong references to its children) follows.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()

# Class tags used in intern keys (cheaper to hash than class objects).
_T_CONST, _T_VAR, _T_NOT, _T_BUF, _T_AND, _T_OR, _T_XOR, _T_XNOR, _T_SPECIAL = range(9)


class BExpr:
    """Base class for boolean expressions (interned, immutable)."""

    __slots__ = ("_vars", "_depth", "_lits", "_nodes", "_opaque", "__weakref__")

    # -- structural queries -------------------------------------------------

    def variables(self) -> FrozenSet[str]:
        """The set of variable names appearing in the expression (cached)."""
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


def _lookup(key):
    # Unlocked fast path: dict operations are atomic under the GIL and a
    # ref that died mid-read simply falls through to the locked slow path.
    return _INTERN.get(key)


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
        key = (_T_CONST, value)
        self = _lookup(key)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _INTERN.get(key)
            if self is None:
                self = object.__new__(cls)
                self.value = value
                _finish(self, frozenset(), 0, 0, 0, False)
                _INTERN[key] = self
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
        key = (_T_VAR, name)
        self = _lookup(key)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _INTERN.get(key)
            if self is None:
                self = object.__new__(cls)
                self.name = name
                _finish(self, frozenset((name,)), 0, 1, 0, False)
                _INTERN[key] = self
            return self

    def evaluate(self, env: Mapping[str, int]) -> int:
        return 1 if env[self.name] else 0

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


def _unary_new(cls, tag, operand: BExpr):
    key = (tag, operand)
    self = _lookup(key)
    if self is not None:
        return self
    with _INTERN_LOCK:
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            self.operand = operand
            _finish(
                self,
                operand._vars,
                operand._depth + 1,
                operand._lits,
                operand._nodes + 1,
                tag == _T_BUF or operand._opaque,
            )
            _INTERN[key] = self
        return self


class Not(BExpr):
    __slots__ = ("operand",)

    def __new__(cls, operand: BExpr):
        return _unary_new(cls, _T_NOT, operand)

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
        return _unary_new(cls, _T_BUF, operand)

    def children(self) -> Tuple[BExpr, ...]:
        return (self.operand,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.operand.evaluate(env)

    def __reduce__(self):
        return (Buf, (self.operand,))

    def __repr__(self) -> str:
        return f"Buf(operand={self.operand!r})"


def _nary_new(cls, tag, args: Tuple[BExpr, ...]):
    args = tuple(args)
    key = (tag, args)
    self = _lookup(key)
    if self is not None:
        return self
    with _INTERN_LOCK:
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            self.args = args
            vars_: FrozenSet[str] = frozenset().union(*(a._vars for a in args)) if args else frozenset()
            depth = 1 + max((a._depth for a in args), default=-1)
            _finish(
                self,
                vars_,
                depth,
                sum(a._lits for a in args),
                1 + sum(a._nodes for a in args),
                any(a._opaque for a in args),
            )
            _INTERN[key] = self
        return self


class And(BExpr):
    __slots__ = ("args",)

    def __new__(cls, args):
        return _nary_new(cls, _T_AND, args)

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
        return _nary_new(cls, _T_OR, args)

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


def _binary_new(cls, tag, left: BExpr, right: BExpr):
    key = (tag, left, right)
    self = _lookup(key)
    if self is not None:
        return self
    with _INTERN_LOCK:
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            self.left = left
            self.right = right
            _finish(
                self,
                left._vars | right._vars,
                1 + max(left._depth, right._depth),
                left._lits + right._lits,
                1 + left._nodes + right._nodes,
                left._opaque or right._opaque,
            )
            _INTERN[key] = self
        return self


class Xor(BExpr):
    __slots__ = ("left", "right")

    def __new__(cls, left: BExpr, right: BExpr):
        return _binary_new(cls, _T_XOR, left, right)

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
        return _binary_new(cls, _T_XNOR, left, right)

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
        key = (_T_SPECIAL, kind, args, param)
        self = _lookup(key)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _INTERN.get(key)
            if self is None:
                self = object.__new__(cls)
                self.kind = kind
                self.args = args
                self.param = param
                vars_: FrozenSet[str] = frozenset().union(*(a._vars for a in args)) if args else frozenset()
                _finish(
                    self,
                    vars_,
                    1 + max((a._depth for a in args), default=-1),
                    sum(a._lits for a in args),
                    1 + sum(a._nodes for a in args),
                    True,
                )
                _INTERN[key] = self
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
    unchanged (an O(1) check on the cached variable sets), and shared
    subgraphs are rewritten once per :func:`substitute` call.
    """
    if not mapping:
        return expr
    return _substitute(expr, mapping, {})


def _substitute(expr: BExpr, mapping: Mapping[str, BExpr], memo: Dict[BExpr, BExpr]) -> BExpr:
    if expr._vars.isdisjoint(mapping):
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


def truth_mask(expr: BExpr, order: Sequence[str]) -> int:
    """The truth table of ``expr`` over ``order`` packed into one integer.

    Bit ``i`` of the result is the value of the expression on row ``i``
    of the table, with ``order[0]`` the most-significant index bit (the
    same row convention as :func:`truth_table`).  Every node of the shared
    expression graph is evaluated exactly once, for all rows at once.
    """
    names = list(order)
    n = len(names)
    if n > 24:
        raise ExprError(f"truth table over {n} variables is too large")
    full = (1 << (1 << n)) - 1
    shifts = {name: n - 1 - position for position, name in enumerate(names)}
    memo: Dict[BExpr, int] = {}

    def rec(node: BExpr) -> int:
        result = memo.get(node)
        if result is not None:
            return result
        if isinstance(node, Const):
            result = full if node.value else 0
        elif isinstance(node, Var):
            result = _var_mask(n, shifts[node.name])  # KeyError on missing vars
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


def truth_table(expr: BExpr, order: Optional[Sequence[str]] = None) -> Tuple[int, ...]:
    """Return the truth table of ``expr`` over ``order`` (default: sorted vars).

    The result has ``2**n`` entries; entry ``i`` is the value of the
    expression when the variables take the bits of ``i`` (``order[0]`` is the
    most-significant bit).  Only usable for small variable counts.
    """
    names = list(order) if order is not None else sorted(expr._vars)
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
    names = sorted(left._vars | right._vars)
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
    names = tuple(sorted(expr._vars))
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
