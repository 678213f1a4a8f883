"""Tests for minimization, factoring, technology mapping and the MILO flow."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.iif.flat import CombAssign, FlatComponent
from repro.logic import expr as E
from repro.logic.factor import factor, factoring_gain
from repro.logic.mapping import MappingError, MappingOptions, TechnologyMapper
from repro.logic.milo import SynthesisOptions, sweep, synthesize
from repro.logic.minimize import minimize, minimize_to_sop, prime_implicants, select_cover
from repro.logic.sop import Cube, cube_minterms, expr_minterms, remove_contained_cubes
from repro.netlist.gates import GateNetlist
from repro.sim import (
    BatchGateSimulator,
    check_combinational_equivalence_batch,
    check_sequential_equivalence_batch,
)
from repro.techlib import standard_cells


def _v(name):
    return E.Var(name)


# ---------------------------------------------------------------------------
# SOP / Quine-McCluskey
# ---------------------------------------------------------------------------


def test_cube_basics():
    cube = Cube.from_mapping({"a": 1, "b": 0})
    assert cube.literal_count() == 2
    assert cube.evaluate({"a": 1, "b": 0}) == 1
    assert cube.evaluate({"a": 1, "b": 1}) == 0
    wider = Cube.from_mapping({"a": 1})
    assert wider.covers(cube)
    assert not cube.covers(wider)
    assert E.equivalent(cube.to_expr(), E.and_(_v("a"), E.not_(_v("b"))))


def test_expr_minterms_and_cube_minterms():
    expression = E.or_(E.and_(_v("a"), _v("b")), E.not_(_v("a")))
    order = ("a", "b")
    minterms = expr_minterms(expression, order)
    assert minterms == {0, 1, 3}
    assert cube_minterms(Cube.from_mapping({"a": 1}), order) == {2, 3}


def test_remove_contained_cubes():
    big = Cube.from_mapping({"a": 1})
    small = Cube.from_mapping({"a": 1, "b": 0})
    kept = remove_contained_cubes([big, small, big])
    assert kept == [big]


def test_prime_implicants_classic_example():
    # f(a,b,c) = sum of minterms {0,1,2,5,6,7}: classic two-solution cover.
    order = ("a", "b", "c")
    minterms = {0, 1, 2, 5, 6, 7}
    primes = prime_implicants(minterms, order)
    cover = select_cover(minterms, primes, order)
    sop = E.or_(*(cube.to_expr() for cube in cover))
    reference = E.or_(*(Cube.from_mapping(
        {"a": (m >> 2) & 1, "b": (m >> 1) & 1, "c": m & 1}).to_expr() for m in minterms))
    assert E.equivalent(sop, reference)
    # The greedy cover is not guaranteed minimum (the exact minimum here is
    # 3 cubes) but must stay close to it and use only 2-literal primes.
    assert len(cover) <= 4
    assert all(cube.literal_count() == 2 for cube in cover)


def test_minimize_to_sop_is_equivalent_and_compact():
    a, b, c = _v("a"), _v("b"), _v("c")
    redundant = E.or_(E.and_(a, b), E.and_(a, E.not_(b)), E.and_(a, c))
    sop = minimize_to_sop(redundant)
    assert E.equivalent(sop.to_expr(), a)
    assert sop.literal_count() <= 1


def test_minimize_keeps_xor_structure():
    a, b, c = _v("a"), _v("b"), _v("c")
    sum_bit = E.xor(E.xor(a, b), c)
    minimized = minimize(sum_bit)
    assert E.count_literals(minimized) <= E.count_literals(
        E.or_(*(cube.to_expr() for cube in minimize_to_sop(sum_bit).cubes))
    )
    assert E.equivalent(minimized, sum_bit)


def test_minimize_handles_opaque_specials():
    a, en = _v("a"), _v("en")
    expression = E.or_(E.and_(a, a), E.tristate(a, en))
    minimized = minimize(expression)
    assert any(isinstance(node, E.Special) for node in E.walk(minimized))


def test_minimize_skips_large_supports():
    wide = E.or_(*(E.and_(_v(f"x{i}"), _v(f"y{i}")) for i in range(8)))
    minimized = minimize(wide, max_vars=6)
    assert E.equivalent(minimized, wide, max_vars=16)


@st.composite
def small_exprs(draw, depth=3):
    names = st.sampled_from(["a", "b", "c", "d"])
    if depth == 0:
        return E.Var(draw(names))
    kind = draw(st.integers(0, 4))
    child = small_exprs(depth=depth - 1)
    if kind == 0:
        return E.not_(draw(child))
    if kind == 1:
        return E.and_(draw(child), draw(child))
    if kind == 2:
        return E.or_(draw(child), draw(child))
    if kind == 3:
        return E.xor(draw(child), draw(child))
    return E.Var(draw(names))


@given(small_exprs())
@settings(max_examples=80, deadline=None)
def test_property_minimize_preserves_function(expression):
    assert E.equivalent(minimize(expression), expression)


@given(small_exprs())
@settings(max_examples=80, deadline=None)
def test_property_minimize_never_increases_literals_much(expression):
    minimized = minimize(expression)
    assert E.count_literals(minimized) <= E.count_literals(expression)


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------


def test_factor_reduces_literals_on_common_factor():
    a, b, c, d = (_v(x) for x in "abcd")
    expression = E.or_(E.and_(a, b), E.and_(a, c), E.and_(a, d))
    factored = factor(expression)
    assert E.equivalent(factored, expression)
    assert E.count_literals(factored) < E.count_literals(expression)
    assert factoring_gain(expression) >= 2


def test_factor_leaves_irreducible_expressions_alone():
    a, b = _v("a"), _v("b")
    expression = E.or_(a, b)
    assert factor(expression) == expression


@given(small_exprs())
@settings(max_examples=80, deadline=None)
def test_property_factor_preserves_function(expression):
    assert E.equivalent(factor(expression), expression)


# ---------------------------------------------------------------------------
# Technology mapping
# ---------------------------------------------------------------------------


def _map_single(expression, use_complex=True):
    library = standard_cells()
    netlist = GateNetlist("single", sorted(expression.variables()), ["OUT"], library)
    mapper = TechnologyMapper(netlist, library, MappingOptions(use_complex_gates=use_complex))
    mapper.map_to_net(expression, target="OUT")
    netlist.validate()
    return netlist


def test_mapping_simple_gates():
    a, b = _v("A"), _v("B")
    netlist = _map_single(E.and_(a, b))
    assert netlist.cell_histogram() == {"AND2": 1}
    netlist = _map_single(E.not_(E.and_(a, b)))
    assert netlist.cell_histogram() == {"NAND2": 1}
    netlist = _map_single(E.xor(a, b))
    assert netlist.cell_histogram() == {"XOR2": 1}


def test_mapping_complex_gates_and_mux():
    a, b, c, s = _v("A"), _v("B"), _v("C"), _v("S")
    aoi = E.not_(E.or_(E.and_(a, b), c))
    assert "AOI21" in _map_single(aoi).cell_histogram()
    mux = E.or_(E.and_(E.not_(s), a), E.and_(s, b))
    assert "MUX21" in _map_single(mux).cell_histogram()
    without = _map_single(mux, use_complex=False).cell_histogram()
    assert "MUX21" not in without


def test_mapping_wide_gates_build_trees():
    wide = E.and_(*(_v(f"I{i}") for i in range(9)))
    netlist = _map_single(wide)
    assert netlist.cell_count() >= 3
    sim = BatchGateSimulator(netlist, 1)
    assert sim.apply({f"I{i}": 1 for i in range(9)})["OUT"] == 1
    out = sim.apply({"I4": 0})
    assert out["OUT"] == 0


def test_mapping_constants_and_buffers():
    netlist = _map_single(E.TRUE)
    assert "TIE1" in netlist.cell_histogram()
    netlist = _map_single(E.buf(_v("A")))
    assert "BUF1" in netlist.cell_histogram()


def test_mapping_shares_common_subexpressions():
    a, b, c = _v("A"), _v("B"), _v("C")
    library = standard_cells()
    netlist = GateNetlist("share", ["A", "B", "C"], ["X", "Y"], library)
    mapper = TechnologyMapper(netlist, library)
    shared = E.and_(a, b)
    mapper.map_to_net(E.or_(shared, c), target="X")
    mapper.map_to_net(E.xor(shared, c), target="Y")
    histogram = netlist.cell_histogram()
    assert histogram.get("AND2", 0) == 1  # built once, reused


# ---------------------------------------------------------------------------
# The MILO flow
# ---------------------------------------------------------------------------


def test_sweep_propagates_constants_and_trivial_nets():
    component = FlatComponent(
        name="sweep_me",
        inputs=["A", "B"],
        outputs=["O"],
        internals=["T1", "T2"],
        assigns=[
            CombAssign("T1", E.TRUE),
            CombAssign("T2", E.and_(_v("A"), _v("T1"))),
            CombAssign("O", E.or_(_v("T2"), _v("B"))),
        ],
    )
    swept = sweep(component)
    assert swept.assignment_for("O") is not None
    assert "T1" not in swept.driven_signals()
    collapsed = swept.collapsed_output_expressions()["O"]
    assert E.equivalent(collapsed, E.or_(_v("A"), _v("B")))


def test_synthesize_combinational_equivalence(adder_flat, cells):
    netlist = synthesize(adder_flat, cells)
    result = check_combinational_equivalence_batch(adder_flat, netlist, max_exhaustive=9)
    assert result.equivalent, result.counterexample


def test_synthesize_sequential_equivalence(catalog, cells):
    flat = catalog.get("counter").expand(
        {"size": 3, "type": 2, "load": 1, "enable": 1, "up_or_down": 3}
    )
    netlist = synthesize(flat, cells)
    result = check_sequential_equivalence_batch(flat, netlist, clock="CLK", cycles=24)
    assert result.equivalent, (result.counterexample, result.mismatched_outputs)


def test_synthesize_uses_sr_flops_for_async_load(catalog, cells):
    flat = catalog.get("counter").expand(
        {"size": 3, "type": 2, "load": 1, "enable": 0, "up_or_down": 1}
    )
    netlist = synthesize(flat, cells)
    histogram = netlist.cell_histogram()
    assert histogram.get("DFFSR1", 0) == 3
    flat_plain = catalog.get("counter").expand(
        {"size": 3, "type": 2, "load": 0, "enable": 0, "up_or_down": 1}
    )
    plain = synthesize(flat_plain, cells)
    assert plain.cell_histogram().get("DFF1", 0) == 3


def test_synthesize_latch_for_enable_gating(catalog, cells):
    flat = catalog.get("counter").expand(
        {"size": 2, "type": 2, "load": 0, "enable": 1, "up_or_down": 1}
    )
    netlist = synthesize(flat, cells)
    assert "LATH1" in netlist.cell_histogram()


def test_synthesize_falling_edge_flops_for_ripple(catalog, cells):
    flat = catalog.get("counter").expand(
        {"size": 3, "type": 1, "load": 0, "enable": 0, "up_or_down": 1}
    )
    netlist = synthesize(flat, cells)
    assert netlist.cell_histogram().get("DFFN1", 0) == 3


def test_synthesis_options_affect_cell_count(catalog, cells):
    flat = catalog.get("alu").expand({"size": 4})
    optimized = synthesize(flat, cells)
    naive = synthesize(
        flat, cells, SynthesisOptions(minimize=False, factor=False, use_complex_gates=False)
    )
    assert optimized.transistor_units() <= naive.transistor_units()


def test_synthesized_netlists_validate(catalog, cells):
    for name in ("register", "mux4", "comparator", "decoder", "barrel_shifter"):
        flat = catalog.get(name).expand()
        netlist = synthesize(flat, cells)
        netlist.validate()
        assert netlist.cell_count() > 0


# ---------------------------------------------------------------------------
# Common-slice (canonical-form) optimization reuse
# ---------------------------------------------------------------------------


def test_optimize_memo_replays_byte_identical_across_catalog(catalog, cells):
    """The generation cache replays a slice's minimize/factor result
    through a variable rename.  For that to be sound the replay must be
    *identical* to direct optimization -- not merely equivalent -- for
    every equation of every catalog component: the golden netlists depend
    on it.  This asserts it catalog-wide at two bit widths."""
    from repro.core.gencache import CountedLruCache
    from repro.logic.milo import optimize_expression

    options = SynthesisOptions()
    checked = 0
    total_hits = 0
    for implementation in catalog.implementations():
        for size in (3, 6):
            parameters = dict(implementation.default_parameters)
            if "size" in parameters:
                parameters["size"] = size
            try:
                flat = implementation.expand(parameters, name="slice_check")
            except Exception:
                # Some implementations (e.g. extract) need co-varying
                # parameters; a bare size override is not meaningful there.
                continue
            working = sweep(flat, options)
            memo = CountedLruCache(4096)
            expressions = [assign.expr for assign in working.combinational()]
            for assign in working.sequential():
                expressions.append(assign.data)
                expressions.append(assign.clock)
                expressions.extend(term.condition for term in assign.asyncs)
            for expression in expressions:
                direct = optimize_expression(expression, options, None)
                replayed = optimize_expression(expression, options, memo)
                assert replayed is direct, (implementation.name, size, expression)
                checked += 1
            total_hits += memo.stats()["hits"]
    assert checked > 300
    # Slice reuse actually engages: across the catalog, regular multi-bit
    # structures share canonical forms between their bit equations.
    assert total_hits > 50


def test_optimize_memo_skips_opaque_slices_that_straddle_placeholders():
    """Equations with opaque Buf/Special subterms must not replay through
    the canonical memo: minimize abstracts them as `_opq<i>` variables,
    and '_' sorts between uppercase and lowercase, so the QM variable
    order of a slice and its rename can differ.  This is the concrete
    straddling case (uppercase vs lowercase support) that produced a
    structurally different -- though equivalent -- replay before the
    opaque guard existed."""
    from repro.core.gencache import CountedLruCache
    from repro.logic.milo import optimize_expression

    options = SynthesisOptions()
    memo = CountedLruCache(64)

    def slice_over(x, y, z):
        return E.or_(
            E.and_(E.var(z), E.or_(E.buf(E.and_(E.var(x), E.var(y))), E.var(y))),
            E.var(x),
        )

    upper = slice_over("A", "B", "C")
    lower = slice_over("a", "b", "c")
    assert optimize_expression(upper, options, memo) is optimize_expression(
        upper, options, None
    )
    assert optimize_expression(lower, options, memo) is optimize_expression(
        lower, options, None
    )
    # The guard keeps opaque expressions out of the memo entirely.
    assert memo.stats()["lookups"] == 0


def test_synthesize_with_optimize_cache_is_byte_identical(catalog, cells):
    """Whole-netlist check: synthesis with a shared optimize memo emits
    exactly the same instances, nets and pin maps as without."""
    from repro.core.gencache import CountedLruCache

    for name in ("alu", "counter", "ripple_carry_adder", "decoder"):
        implementation = catalog.get(name)
        parameters = dict(implementation.default_parameters)
        if "size" in parameters:
            parameters["size"] = 5
        flat = implementation.expand(parameters, name="memo_check")
        plain = synthesize(flat, cells)
        memoized = synthesize(flat, cells, optimize_cache=CountedLruCache(4096))
        assert list(plain.instances) == list(memoized.instances)
        for key in plain.instances:
            left, right = plain.instances[key], memoized.instances[key]
            assert left.cell.name == right.cell.name
            assert left.nets == right.nets
            assert left.size == right.size
