"""Counting gate for the MILO sweep (:func:`repro.logic.milo.sweep`).

The sweep inlines constants, literals and small single-use internal nets.
Its user index substitutes an eliminated net only into the equations that
read it, so its work follows the equations it rewrites, not eliminated
nets times equations.  The gate counts ``substitute`` calls, which do not
drift with the host.  Every decision must match a reference sweep written
out here: the same pass-start use counts, substituted into every
equation, where a quadratic loop is fine.
"""

from __future__ import annotations

import random

import pytest

from repro.components import standard_catalog
from repro.iif.flat import AsyncTerm, CombAssign, FlatComponent, SeqAssign
from repro.logic import expr as E
from repro.logic.milo import SynthesisOptions, sweep

#: A decoder's outputs and an encoder's inputs grow as 2**size, so they
#: stop at the largest size the end-to-end cold sweep elaborates.
EXPONENTIAL = {"decoder", "encoder"}


def reference_sweep(flat, options=None):
    """The sweep's rule, written out: at each pass start, count the
    expressions that read each net; inline a trivial net, or a small
    opaque-free one that one expression reads, into every equation."""
    options = options or SynthesisOptions()
    comb = {a.target: a.expr for a in flat.combinational()}
    seq = {a.target: a for a in flat.sequential()}
    outputs = set(flat.outputs)

    def use_counts():
        expressions = list(comb.values())
        for assign in seq.values():
            expressions += [assign.data, assign.clock]
            expressions += [term.condition for term in assign.asyncs]
        counts = {}
        for expression in expressions:
            for name in expression.variables():
                counts[name] = counts.get(name, 0) + 1
        return counts

    changed, passes = True, 0
    while changed and passes < 100:
        changed, passes = False, passes + 1
        counts = use_counts()
        for name in list(comb):
            expression = comb[name]
            trivial = isinstance(expression, (E.Const, E.Var)) or (
                isinstance(expression, E.Not) and isinstance(expression.operand, E.Var)
            )
            single_use = (
                counts.get(name, 0) == 1
                and E.count_literals(expression) <= options.max_inline_literals
                and not E.has_opaque(expression)
            )
            if name in outputs or not (trivial or single_use):
                continue
            if name in expression.variables():
                continue
            del comb[name]
            mapping = {name: expression}
            for target in comb:
                comb[target] = E.substitute(comb[target], mapping)
            for target, assign in seq.items():
                seq[target] = SeqAssign(
                    assign.target,
                    E.substitute(assign.data, mapping),
                    E.substitute(assign.clock, mapping),
                    assign.edge,
                    tuple(
                        AsyncTerm(term.value, E.substitute(term.condition, mapping))
                        for term in assign.asyncs
                    ),
                )
            changed = True

    internals = [name for name in flat.internals if name in comb or name in seq]
    assigns = []
    for assign in flat.assigns:
        if isinstance(assign, SeqAssign):
            assigns.append(seq[assign.target])
        elif assign.target in comb:
            assigns.append(CombAssign(assign.target, comb[assign.target]))
    return internals, assigns


def assert_sweeps_alike(flat):
    swept = sweep(flat)
    internals, assigns = reference_sweep(flat)
    assert (swept.name, swept.inputs, swept.outputs) == (flat.name, flat.inputs, flat.outputs)
    assert swept.internals == internals
    assert len(swept.assigns) == len(assigns)
    for mine, reference in zip(swept.assigns, assigns):
        assert mine == reference


def _catalog_cases():
    cases = []
    for implementation in standard_catalog().implementations():
        if "size" not in implementation.parameter_names():
            cases.append((implementation.name, None))
            continue
        sizes = (4, 6) if implementation.name in EXPONENTIAL else (4, 16)
        cases += [(implementation.name, size) for size in sizes]
    return cases


@pytest.mark.parametrize(
    "name, size", _catalog_cases(), ids=lambda value: str(value)
)
def test_sweep_matches_the_reference_on_the_catalog(catalog, name, size):
    implementation = catalog.get(name)
    assert_sweeps_alike(implementation.expand({"size": size} if size else None))


def _random_expression(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.08:
            return E.const(rng.randrange(2))
        variable = E.Var(rng.choice(names))
        return E.not_(variable) if pick < 0.3 else variable
    kind = rng.choice(("and", "or", "xor", "xnor", "not", "buf", "special"))
    if kind in ("and", "or"):
        args = [_random_expression(rng, names, depth - 1) for _ in range(rng.randrange(2, 4))]
        return E.and_(*args) if kind == "and" else E.or_(*args)
    if kind in ("xor", "xnor"):
        left = _random_expression(rng, names, depth - 1)
        right = _random_expression(rng, names, depth - 1)
        return E.xor(left, right) if kind == "xor" else E.xnor(left, right)
    operand = _random_expression(rng, names, depth - 1)
    if kind == "not":
        return E.not_(operand)
    if kind == "buf" or rng.random() < 0.5:
        return E.buf(operand)
    return E.schmitt(operand)


def random_flat(seed):
    """A flat component whose nets read inputs, state and each other
    (cycles included), with set/reset flip-flops and a latch."""
    rng = random.Random(seed)
    inputs = [f"I{index}" for index in range(6)]
    outputs = [f"O{index}" for index in range(4)]
    nets = [f"N{index}" for index in range(24)]
    state = [f"S{index}" for index in range(3)]
    readable = inputs + nets + state
    assigns = []
    for target in nets + outputs:
        assigns.append(CombAssign(target, _random_expression(rng, readable, rng.randrange(4))))
    for index, target in enumerate(state):
        asyncs = tuple(
            AsyncTerm(value, _random_expression(rng, readable, 1))
            for value in (1, 0)[: rng.randrange(3)]
        )
        assigns.append(SeqAssign(
            target,
            _random_expression(rng, readable, 2),
            E.Var(rng.choice(inputs + nets)),
            "h" if index == 2 and not asyncs else "r",
            asyncs,
        ))
    rng.shuffle(assigns)
    return FlatComponent(
        name=f"random_{seed}", inputs=inputs, outputs=outputs,
        internals=nets + state, assigns=assigns,
    )


@pytest.mark.parametrize("seed", range(16))
def test_sweep_matches_the_reference_on_random_flats(seed):
    assert_sweeps_alike(random_flat(seed))


def test_sweep_decides_on_the_counts_of_the_pass_start():
    # X is a literal copy of Y, so inlining X hands Y its three readers.
    # Y had one reader when the pass started, so the same pass inlines it.
    a, b = E.Var("A"), E.Var("B")
    outputs = ["O0", "O1", "O2"]
    flat = FlatComponent(
        name="stale_count",
        inputs=["A", "B"],
        outputs=outputs,
        internals=["X", "Y"],
        assigns=[CombAssign("X", E.Var("Y")), CombAssign("Y", E.and_(a, b))]
        + [CombAssign(name, E.xor(E.Var("X"), a)) for name in outputs],
    )
    assert_sweeps_alike(flat)
    assert sweep(flat).assigns == [
        CombAssign(name, E.xor(E.and_(a, b), a)) for name in outputs
    ]


def test_sweep_substitutes_an_eliminated_net_into_its_users_only(catalog, monkeypatch):
    calls = []
    substitute = E.substitute

    def counted(expression, mapping):
        calls.append(len(mapping))
        return substitute(expression, mapping)

    monkeypatch.setattr(E, "substitute", counted)
    sweep(catalog.get("array_multiplier").expand({"size": 16}))
    # 303 calls; substituting each eliminated net into every equation,
    # as the reference does, takes 183,393.
    assert 0 < len(calls) <= 1000
