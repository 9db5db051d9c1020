import itertools
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gfdelta.combinat import degree_after_diff, digit_sum
import gfdelta.diff as diff_module
from gfdelta.diff import (
    DELTA_TERM_LIMIT,
    DiffError,
    DiffPlan,
    _binomial_row,
    _term_grid,
    basis_step_sequence,
    blackbox_delta,
    check_delta_size,
    delta,
    delta_plan,
    grid_points,
    inclusion_exclusion,
    parse_plan,
    superpoly_constants,
)
from gfdelta.field import (
    ExtFieldSpec,
    FieldError,
    basis_elements,
    ext_field,
    parse_field_spec,
    prime_field,
)
from gfdelta.poly import (
    MultiPoly,
    all_points,
    format_poly,
    monomial_text,
    parse_poly,
    random_poly,
)

from conftest import GF3, GF4, GF5, GF7, GF8, GF9, GF27, GF31
import oracles
from oracles import (
    binomial_mod,
    coefficient,
    ext_diff_constant,
    grid_size,
    term,
    variable,
)

GF2 = prime_field(2)

PAPER_F = "x1^5*x2 + x1^4*x3*x4 + x4^6"


def paper_poly():
    return parse_poly(PAPER_F, GF31)


def unit_direction(spec, n, i, h=None):
    direction = [spec.zero] * n
    direction[i] = h if h is not None else spec.one
    return direction


def wrap(f):
    return lambda point: f.evaluate(point)


# -- symbolic differencing ----------------------------------------------------


def test_first_order_expansion_matches_worked_example():
    f = paper_poly()
    got = delta(f, unit_direction(GF31, 4, 0))
    expected = parse_poly(
        "5*x1^4*x2 + 10*x1^3*x2 + 4*x1^3*x3*x4 + 10*x1^2*x2 + 6*x1^2*x3*x4"
        " + 5*x1*x2 + 4*x1*x3*x4 + x2 + x3*x4",
        GF31,
        n=4,
    )
    assert got == expected


def test_second_order_expansion_matches_worked_example():
    f = paper_poly()
    plan = DiffPlan.make(GF31, {0: 2})
    expected = parse_poly(
        "20*x1^3*x2 + 29*x1^2*x2 + 12*x1^2*x3*x4 + 8*x1*x2 + 24*x1*x3*x4"
        " + 30*x2 + 14*x3*x4",
        GF31,
        n=4,
    )
    assert delta_plan(f, plan) == expected


def test_fifth_order_collapses_to_27_x2():
    f = paper_poly()
    plan = DiffPlan.make(GF31, {0: 5})
    assert delta_plan(f, plan) == parse_poly("27*x2", GF31, n=4)


def test_delta_of_constant_is_zero():
    c = MultiPoly.constant(GF31, 2, 9)
    assert delta(c, unit_direction(GF31, 2, 0)).is_zero()


def test_delta_degree_one_scales_cofactor(rng):
    # f = x_i*g1 + g2 differences to h*g1
    for _ in range(20):
        spec = random.Random(rng.random()).choice([GF5, GF31])
        g1 = random_poly(spec, 3, 3, 3, rng=rng).substitute({0: spec.zero})
        g2 = random_poly(spec, 3, 3, 3, rng=rng).substitute({0: spec.zero})
        x0 = variable(spec, 3, 0)
        f = x0 * g1 + g2
        h = spec.random_element(rng, nonzero=True)
        assert delta(f, unit_direction(spec, 3, 0, h)) == g1.scale(h)


def test_delta_rejects_zero_direction():
    f = paper_poly()
    with pytest.raises(DiffError):
        delta(f, [GF31.zero] * 4)


def test_plan_order_does_not_matter(rng):
    for _ in range(15):
        f = random_poly(GF5, 3, 6, 5, rng=rng)
        m0, m1 = rng.randint(1, 3), rng.randint(1, 3)
        s0 = tuple(GF5.random_element(rng, nonzero=True) for _ in range(m0))
        s1 = tuple(GF5.random_element(rng, nonzero=True) for _ in range(m1))
        forward = DiffPlan(GF5, (0, 2), (m0, m1), (s0, s1))
        backward = DiffPlan(GF5, (2, 0), (m1, m0), (s1, s0))
        assert delta_plan(f, forward) == delta_plan(f, backward)


def test_factorial_law_all_small_primes():
    for spec in (GF3, GF5, prime_field(7), GF31):
        p = spec.p
        for d in range(1, p):
            x_d = term(spec, 1, 1, (d,))
            result = delta_plan(x_d, DiffPlan.make(spec, {0: d}))
            assert result == MultiPoly.constant(spec, 1, math.factorial(d) % p)


def test_exact_degree_drop_with_any_steps(rng):
    # degree falls by exactly the multiplicity; leading coefficient is
    # d!/(d-m)! times the product of the steps
    for spec in (GF3, GF5, prime_field(7)):
        p = spec.p
        for d in range(1, p):
            for m in range(1, d + 1):
                steps = tuple(
                    spec.random_element(rng, nonzero=True) for _ in range(m)
                )
                plan = DiffPlan(spec, (0,), (m,), (steps,))
                out = delta_plan(term(spec, 1, 1, (d,)), plan)
                assert out.degrees().per_variable[0] == d - m
                lead = spec.element(math.factorial(d) // math.factorial(d - m))
                for h in steps:
                    lead = lead * h
                assert coefficient(out, (d - m,)) == lead


def test_degree_bounded_by_quotient_degree(rng):
    for _ in range(25):
        spec = GF5
        f = random_poly(spec, 3, 6, 6, rng=rng)
        t = tuple(rng.randint(0, 2) for _ in range(3))
        if not any(t):
            t = (1, 0, 0)
        plan = DiffPlan.make(spec, {i: m for i, m in enumerate(t) if m})
        f_t = delta_plan(f, plan)
        quotient = f.factor_term(t).quotient
        if quotient.is_zero():
            assert f_t.is_zero()
        else:
            assert f_t.degrees().total <= quotient.degrees().total


# -- grids --------------------------------------------------------------------


def test_grid_points_first_difference():
    plan = DiffPlan.make(GF31, {0: 1})
    assert grid_points(plan, (GF31.zero,)) == [
        ((GF31.zero,), GF31.element(-1)),
        ((GF31.one,), GF31.one),
    ]


def test_grid_points_second_difference():
    plan = DiffPlan.make(GF31, {0: 2})
    assert grid_points(plan, (GF31.zero,)) == [
        ((GF31.zero,), GF31.one),
        ((GF31.one,), GF31.element(-2)),
        ((GF31.element(2),), GF31.one),
    ]


def test_grid_points_two_variables_is_signed_cube():
    plan = DiffPlan.make(GF5, {0: 1, 1: 1})
    pts = grid_points(plan, (GF5.zero, GF5.zero))
    assert len(pts) == 4
    signs = {tuple(map(int, pt)): w for pt, w in pts}
    plus, minus = GF5.one, GF5.element(-1)
    assert signs == {(0, 0): plus, (0, 1): minus, (1, 0): minus, (1, 1): plus}


def test_grid_points_match_the_binomial_closed_form(rng):
    # dual route: offsets 0..m with weights (-1)^(m-j) C(m, j), per variable
    for spec in (GF5, GF31):
        for _ in range(10):
            n = rng.randint(1, 3)
            term = {
                i: rng.randint(1, min(3, spec.p - 1))
                for i in sorted(rng.sample(range(n), rng.randint(1, n)))
            }
            plan = DiffPlan.make(spec, term)
            closed = {}
            for offsets in itertools.product(*(range(m + 1) for m in term.values())):
                point = [spec.zero] * n
                weight = spec.one
                for (var, m), j in zip(term.items(), offsets):
                    point[var] = spec.element(j)
                    weight = weight * spec.element((-1) ** (m - j) * math.comb(m, j))
                closed[tuple(point)] = weight
            assert dict(grid_points(plan, (spec.zero,) * n)) == closed
            f = random_poly(spec, n, 5, 5, rng=rng)
            base = tuple(spec.random_element(rng) for _ in range(n))
            total = spec.zero
            for offsets, w in closed.items():
                total = total + w * f.evaluate([b + o for b, o in zip(base, offsets)])
            assert total == blackbox_delta(wrap(f), plan, base)


def test_term_grid_is_the_zero_base_grid_in_residues():
    # the cached residue grid of a unit-step term, which the attack and the
    # reduction check read, is `grid_points` at zero, converted
    rng = random.Random(30)
    for spec in (GF3, GF7, GF31):
        for _ in range(12):
            n = rng.randint(1, 4)
            term = tuple(rng.choice([0, rng.randint(1, spec.p - 1)]) for _ in range(n))
            plan = DiffPlan.make(spec, {i: m for i, m in enumerate(term) if m})
            entries = grid_points(plan, (spec.zero,) * n)
            grid = _term_grid(spec, term)
            assert grid.residues == tuple(tuple(map(int, pt)) for pt, _ in entries)
            assert grid.weights == tuple(int(w) for _, w in entries)
            assert _term_grid(spec, term) is grid
        term = (0,) * rng.randrange(3) + (spec.p,)
        with pytest.raises(DiffError, match="term multiplicities must stay below p"):
            _term_grid(spec, term)


def test_binomial_rows_match_lucas_residues():
    # rows are built digit by digit, single residues by the multinomial kernel;
    # each entry carries the base-p digit sum of its j
    def lucas(e, p):
        return tuple(
            (j, w, digit_sum(j, p))
            for j in range(e + 1)
            if (w := binomial_mod(e, j, p))
        )

    for p in (2, 3, 5, 7, 31):
        for e in range(300):
            assert _binomial_row(e, p) == lucas(e, p)
    rng = random.Random(3)
    for e in [0, 1] + [rng.randrange(3000) for _ in range(3)]:
        assert _binomial_row(e, 10**9 + 7) == lucas(e, 10**9 + 7)
    # one digit of p - 1, where every factorial up to (p - 1)! is inverted
    assert _binomial_row(4092, 4093) == lucas(4092, 4093)


@given(st.data())
def test_step_table_matches_unmerged_inclusion_exclusion(data):
    # the closed-form runs, convolved and merged, against all 2^k subsets
    spec = data.draw(st.sampled_from([GF2, GF3, GF5, GF7, GF31, GF4, GF8, GF9, GF27]))
    nonzero = st.integers(1, spec.order - 1)
    pool = data.draw(st.lists(nonzero, min_size=1, max_size=3, unique=True))
    cap = min(12, spec.m * (spec.p - 1))
    k = data.draw(st.integers(1, cap))
    steps = [spec.from_index(i) for i in data.draw(
        st.lists(st.sampled_from(pool), min_size=k, max_size=k)
    )]
    table_rng = random.Random(data.draw(st.integers(0, 2**32)))
    table = {pt: spec.random_element(table_rng) for pt in all_points(spec, 1)}
    bb = lambda pt: table[pt]
    base = (spec.from_index(data.draw(st.integers(0, spec.order - 1))),)
    plan = DiffPlan.make(spec, {0: k}, steps)
    oracle = inclusion_exclusion(bb, [(h,) for h in steps], base)
    assert blackbox_delta(bb, plan, base) == oracle


def test_blackbox_examples_from_worked_polynomial():
    f = paper_poly()
    plan5 = DiffPlan.make(GF31, {0: 5})
    base = (GF31.zero, GF31.one, GF31.zero, GF31.zero)
    assert blackbox_delta(wrap(f), plan5, base) == GF31.element(27)
    plan2 = DiffPlan.make(GF31, {0: 2})
    base2 = (GF31.zero, GF31.zero, GF31.one, GF31.one)
    assert blackbox_delta(wrap(f), plan2, base2) == GF31.element(14)


def test_blackbox_beyond_degree_is_zero(rng):
    f = random_poly(GF5, 2, 3, 4, rng=rng)
    plan = DiffPlan.make(GF5, {0: 4})  # degree in x1 is at most 3
    for _ in range(5):
        base = tuple(GF5.random_element(rng) for _ in range(2))
        assert blackbox_delta(wrap(f), plan, base) == GF5.zero


def test_grid_size_counts_probes():
    plan = DiffPlan.make(GF31, {0: 2, 2: 1})
    assert grid_size(plan) == 6
    calls = 0
    f = paper_poly()

    def counting(pt):
        nonlocal calls
        calls += 1
        return f.evaluate(pt)

    blackbox_delta(counting, plan, (GF31.zero,) * 4)
    assert calls == 6


def test_equal_plans_share_one_grid_entry():
    # a plan's hash is computed at construction: two equal plans built
    # separately, the second over the field built again (which is the same
    # spec object), find one cached grid
    again = ExtFieldSpec(3, 3, GF27.modulus)
    steps = [GF27.from_index(5), GF27.from_index(5), GF27.generator, GF27.one]
    first = DiffPlan.make(GF27, {1: 3, 3: 1}, steps)
    second = DiffPlan.make(again, {3: 1, 1: 3}, [again.from_index(5)] * 2 + steps[2:])
    assert again is GF27 and first is not second
    assert first == second and hash(first) == hash(second)
    diff_module._plan_grid.cache_clear()
    entries = diff_module._plan_grid(first)
    assert diff_module._plan_grid(second) is entries
    info = diff_module._plan_grid.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_blackbox_delta_probes_the_grid_points_in_order(rng):
    f = random_poly(GF27, 4, 26, 8, rng=rng)
    plan = DiffPlan.make(GF27, {0: 2, 2: 3})
    base = tuple(GF27.random_element(rng) for _ in range(4))
    probed = []

    def box(point):
        probed.append(point)
        return f.evaluate(point)

    value = blackbox_delta(box, plan, base)
    grid = grid_points(plan, base)
    assert probed == [point for point, _ in grid]
    assert value == sum((w * f.evaluate(pt) for pt, w in grid), GF27.zero)
    with pytest.raises(DiffError, match="outside the base point"):
        blackbox_delta(box, plan, base[:2])


def test_duality_symbolic_vs_grid(rng):
    # basis-block plans (unit steps over GF(p)) or random nonzero steps; over
    # the extension fields this ties the table route of `evaluate` to
    # `delta_plan`
    specs = [GF3, GF5, GF31, GF4, GF8, GF9, GF27]
    for _ in range(120):
        spec = specs[rng.randrange(len(specs))]
        n = rng.randint(1, 4)
        f = random_poly(spec, n, 6, rng.randint(1, 6), rng=rng)
        k = rng.randint(1, n)
        variables = sorted(rng.sample(range(n), k))
        term = {}
        basis_block = rng.random() < 0.5
        steps = []
        for v in variables:
            mult = rng.randint(1, min(3, spec.m * (spec.p - 1)))
            term[v] = mult
            if not basis_block:
                steps += [spec.random_element(rng, nonzero=True) for _ in range(mult)]
        plan = DiffPlan.make(spec, term, None if basis_block else steps)
        base = tuple(spec.random_element(rng) for _ in range(n))
        assert blackbox_delta(wrap(f), plan, base) == delta_plan(f, plan).evaluate(
            base
        )


GF_BIG = prime_field(10**9 + 7)


@given(st.data())
def test_delta_plan_matches_step_by_step_and_inclusion_exclusion(data):
    # `delta_plan` and `blackbox_delta` both read the step tables, so check
    # the symbolic route against two references that do not: one `delta` per
    # step, and the signed sum over all subsets of the steps
    spec = data.draw(
        st.sampled_from([GF2, GF3, GF5, GF7, GF31, GF4, GF8, GF9, GF27, GF_BIG])
    )
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 3))
    variables = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    # a small pool of steps, so that both repeated and distinct steps occur
    pool = data.draw(
        st.lists(st.integers(1, spec.order - 1), min_size=1, max_size=3, unique=True)
    )
    cap = min(4, spec.m * (spec.p - 1))
    term = {v: data.draw(st.integers(1, cap)) for v in variables}
    flat = [
        (v, spec.from_index(data.draw(st.sampled_from(pool))))
        for v in variables
        for _ in range(term[v])
    ]
    f = random_poly(spec, n, data.draw(st.integers(0, 9)), 8, rng=rng)
    check_delta_plan_references(f, flat, rng)


def check_delta_plan_references(f, flat, rng):
    """`delta_plan` with the steps `flat`, (variable, step) pairs in plan
    order, against one `delta` per step and the signed subset sum."""
    spec, n = f.spec, f.n
    term = Counter(v for v, _ in flat)
    plan = DiffPlan.make(spec, term, [h for _, h in flat])
    got = delta_plan(f, plan)
    expected = f
    for v, h in flat:
        expected = delta(expected, unit_direction(spec, n, v, h))
    assert got == expected
    diffs = [unit_direction(spec, n, v, h) for v, h in flat]
    for _ in range(2):
        base = tuple(spec.random_element(rng) for _ in range(n))
        assert got.evaluate(base) == inclusion_exclusion(wrap(f), diffs, base)
    return got


@pytest.mark.parametrize(
    "spec, text, steps",
    [
        (GF8, "x1^4 + x1^5*x2 + 3*x1^6 + x2^3", [1, 2, 4]),
        (GF8, "x1^6*x2 + x1^5", [3, 5, 6]),
        (GF9, "x1^3 + 2*x1^4*x2 + x1^6 + x1^4", [1, 1, 3]),
        (GF27, "x1^9 + x1^10*x2 + 2*x1^12 + x1^18 + x1^21", [1, 2, 3, 9]),
    ],
)
def test_delta_plan_skips_moments_below_the_digit_sum(rng, spec, text, steps):
    # every moment M(d) these differences need has d at or past the step
    # count but a base-p digit sum below it, so `delta_plan` skips them all;
    # the references sum no moment and must agree, and each skipped moment
    # summed over the step table is indeed zero
    f = parse_poly(text, spec, n=2)
    flat = [(0, spec.from_index(h)) for h in steps]
    table = diff_module._step_table(spec, tuple(h for _, h in flat))
    needed = {
        e - k
        for e in {mono[0] for mono in f._terms}
        for k, _, _ in diff_module._binomial_row(e, spec.p)
    }
    assert max(needed) >= len(steps)
    for d in needed:
        assert digit_sum(d, spec.p) < len(steps)
        assert sum((w * o**d for o, w in table), spec.zero) == spec.zero
    assert check_delta_plan_references(f, flat, rng).is_zero()


GF_61 = prime_field(2**61 - 1)
# x^20 + x^3 + 1: an extension field past the table limit
GF2_20 = parse_field_spec("2^20/1," + "0," * 16 + "1,0,0,1")


def same_terms(got, want):
    """The same terms in the same order, each coefficient an interned element
    of `got`'s own spec where its spec interns."""
    assert list(got._terms.items()) == list(want._terms.items())
    spec = got.spec
    for c in got._terms.values():
        assert c.spec is spec
        assert spec._tables is None or spec._box(c.coeffs) is c


@given(st.data())
def test_kept_step_tables_match_the_per_call_reference(data):
    # `delta_plan` against the reference that builds every step table and
    # sums every moment afresh in each call; one plan differences several
    # polynomials in one order and then the other, the kept tables cleared
    # before each, so rows one polynomial fills serve the next. `delta`
    # shifts by one offset through the same rows
    spec = data.draw(st.sampled_from([GF2, GF7, GF31, GF8, GF27, GF_61, GF2_20]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 3))
    variables = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    cap = min(4, spec.m * (spec.p - 1))
    term = {v: data.draw(st.integers(1, cap)) for v in variables}
    steps = None  # the default steps
    if data.draw(st.booleans()):
        # a small pool, so that both repeated and distinct steps occur
        pool = data.draw(
            st.lists(
                st.integers(1, spec.order - 1), min_size=1, max_size=3, unique=True
            )
        )
        steps = [
            spec.from_index(data.draw(st.sampled_from(pool)))
            for _ in range(sum(term.values()))
        ]
    plan = DiffPlan.make(spec, term, steps)
    polys = [
        random_poly(spec, n, data.draw(st.integers(0, 12)), 8, rng=rng)
        for _ in range(3)
    ]
    for order in (polys, polys[::-1]):
        diff_module._kept_table.cache_clear()
        for f in order:
            same_terms(delta_plan(f, plan), oracles.delta_plan(f, plan))
    f = polys[0]
    a = [rng.choice((spec.zero, spec.random_element(rng))) for _ in range(n)]
    a[variables[0]] = spec.random_element(rng, nonzero=True)
    shift = {i: ([(ai, spec.one)], 0) for i, ai in enumerate(a) if ai}
    same_terms(delta(f, a), oracles._apply_tables(f, shift) - f)


def test_equal_plans_share_one_step_table(monkeypatch):
    # the symbolic sibling of `test_equal_plans_share_one_grid_entry`: a
    # second `delta_plan` under an equal plan, also one built separately
    # over the field built again (the same spec object), builds no step
    # table, moment or row, and neither does the grid of that plan
    again = ExtFieldSpec(3, 3, GF27.modulus)
    steps = [GF27.from_index(5), GF27.from_index(5), GF27.generator, GF27.one]
    first = DiffPlan.make(GF27, {0: 3, 2: 1}, steps)
    second = DiffPlan.make(again, {2: 1, 0: 3}, [again.from_index(5)] * 2 + steps[2:])
    assert again is GF27 and first is not second and first == second
    text = "x1^5*x2^3 + 2*x1^14 + x2^26*x3 + x1^3*x3^4 + x1^25*x3^9"
    f, g = parse_poly(text, GF27, n=3), parse_poly(text, again, n=3)
    diff_module._kept_table.cache_clear()
    diff_module._plan_grid.cache_clear()
    want = delta_plan(f, first)
    assert not want.is_zero()
    built = []
    step_table, build_row = diff_module._step_table, diff_module.StepTable._build_row
    monkeypatch.setattr(
        diff_module, "_step_table", lambda *args: built.append(args) or step_table(*args)
    )
    monkeypatch.setattr(
        diff_module.StepTable,
        "_build_row",
        lambda table, e: built.append(e) or build_row(table, e),
    )
    same_terms(delta_plan(f, first), want)
    same_terms(delta_plan(g, second), want)
    diff_module._plan_grid(second)
    assert built == []
    info = diff_module._kept_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_fields_above_the_table_limit_keep_no_step_table(monkeypatch):
    # past the table limit nothing bounds the exponents a call asks for, so
    # each `delta_plan` builds its own step tables and keeps none
    spec = GF_BIG
    f = parse_poly("x1^40 + 3*x1^30*x2 + x2^7", spec)
    plan = DiffPlan.make(spec, {0: 3, 1: 2})
    diff_module._kept_table.cache_clear()
    built = []
    step_table = diff_module._step_table
    monkeypatch.setattr(
        diff_module, "_step_table", lambda *args: built.append(args) or step_table(*args)
    )
    first = delta_plan(f, plan)
    same_terms(delta_plan(f, plan), first)
    assert len(built) == 4
    assert diff_module._kept_table.cache_info().currsize == 0


def test_kept_tables_keep_rows_up_to_their_room(monkeypatch):
    # a kept table keeps rows of at most KEPT_ROW_ENTRIES entries in all;
    # a row past that is built afresh from the kept moments on every call,
    # and the differences stay those of the per-call reference
    monkeypatch.setattr(diff_module, "KEPT_ROW_ENTRIES", 60)
    diff_module._kept_table.cache_clear()
    f = MultiPoly(GF31, 2, {(e, e % 3): GF31.one for e in range(31)})
    plan = DiffPlan.make(GF31, {0: 2})
    table = diff_module._plan_table(GF31, plan.steps[0])
    first = delta_plan(f, plan)
    same_terms(first, oracles.delta_plan(f, plan))
    kept = sum(map(len, table.rows.values()))
    assert 0 < kept <= 60 and table.room == 60 - kept
    assert len(table.rows) < 31
    rows, moments = dict(table.rows), dict(table.moments)
    built = []
    build_row = diff_module.StepTable._build_row
    monkeypatch.setattr(
        diff_module.StepTable,
        "_build_row",
        lambda table, e: built.append(e) or build_row(table, e),
    )
    same_terms(delta_plan(f, plan), first)
    assert sorted(built) == [e for e in range(31) if e not in rows]
    assert table.rows == rows and table.moments == moments


@pytest.mark.parametrize("spec", [GF8, GF27], ids=repr)
def test_small_extension_tables_keep_every_row(spec):
    # the fields of the ext-duality benchmark: every row of every exponent
    # below q, under every count of basis-block steps, fits in a kept table
    for count in range(1, spec.m * (spec.p - 1) + 1):
        diff_module._kept_table.cache_clear()
        table = diff_module._plan_table(spec, basis_step_sequence(spec, count))
        for e in range(spec.order):
            table.row(e)
        assert len(table.rows) == spec.order
        assert table.room >= diff_module.KEPT_ROW_ENTRIES - 6**3


# -- the log-domain grid sum ----------------------------------------------------


GRID_SPECS = [GF2, GF5, GF31, GF4, GF8, GF9, GF27, GF_BIG]


def answer_box(kind, spec, f, probed):
    """A box that records each probe and answers f's value, zero, or an
    int (negative, or past p) that depends on the point."""

    def bb(point):
        probed.append(point)
        if kind == "zero":
            return spec.zero
        if kind == "int":
            return sum(spec.index_of(x) * (7 * i + 3) for i, x in enumerate(point)) - 40
        return f.evaluate(point)

    return bb


@given(st.data())
def test_grid_sum_equals_the_element_sum(data):
    # plans of 1-3 variables in any order, steps drawn from a small pool so
    # that steps repeat; the probes, in order, are `grid_points`' points
    spec = data.draw(st.sampled_from(GRID_SPECS), label="spec")
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.permutations(range(n)))
    variables = tuple(order[: data.draw(st.integers(1, n))])
    pool = data.draw(
        st.lists(st.integers(1, spec.order - 1), min_size=1, max_size=3, unique=True)
    )
    cap = min(3, spec.m * (spec.p - 1))
    mults = tuple(data.draw(st.integers(1, cap)) for _ in variables)
    steps = tuple(
        tuple(spec.from_index(data.draw(st.sampled_from(pool))) for _ in range(m))
        for m in mults
    )
    plan = DiffPlan(spec, variables, mults, steps)
    base = tuple(
        rng.choice((spec.random_element(rng), rng.randrange(-50, 50)))
        for _ in range(n)
    )
    kind = data.draw(st.sampled_from(["poly", "zero", "int"]))
    f = random_poly(spec, n, data.draw(st.integers(0, 8)), 6, rng=rng)
    probed, ref_probed = [], []
    value = blackbox_delta(answer_box(kind, spec, f, probed), plan, base)
    want = oracles.grid_sum(answer_box(kind, spec, f, ref_probed), plan, base)
    assert value == want and value.spec is spec
    if spec._tables is not None:
        assert value is want
    points = grid_points(plan, base)
    assert points == oracles.grid_points(plan, base)
    assert probed == ref_probed == [point for point, _ in points]
    if kind == "zero":
        assert value == spec.zero


@pytest.mark.parametrize("spec", GRID_SPECS, ids=repr)
def test_grid_sum_refuses_answers_of_another_field(spec):
    # an answer is taken as weight * answer takes it: an element of another
    # field raises FieldError at the probe that answers it
    other = GF9 if spec is not GF9 else GF8
    plan = DiffPlan.make(spec, {0: 1, 1: 1})
    base = (spec.one, spec.zero)
    answers = iter([spec.one, 3, other.one])
    probed = []

    def bb(point):
        probed.append(point)
        return next(answers)

    with pytest.raises(FieldError, match="different fields"):
        blackbox_delta(bb, plan, base)
    assert probed == [point for point, _ in grid_points(plan, base)][:3]
    with pytest.raises(FieldError, match="different fields"):
        oracles.grid_sum(lambda point: other.one, plan, base)


# -- plans: validation and parsing --------------------------------------------


def test_plan_validation():
    with pytest.raises(DiffError):
        DiffPlan.make(GF5, {0: 5})  # exceeds p-1 over GF(5)
    with pytest.raises(DiffError):
        DiffPlan.make(GF9, {0: 5})  # exceeds m(p-1) = 4
    with pytest.raises(DiffError):
        DiffPlan.make(GF5, {0: 1}, steps=[GF5.zero])
    with pytest.raises(DiffError):
        DiffPlan.make(GF5, {0: 2}, steps=[GF5.one])  # step count mismatch
    with pytest.raises(DiffError):
        DiffPlan(GF5, (0, 0), (1, 1), ((GF5.one,), (GF5.one,)))


def test_plan_parsing():
    plan = parse_plan("x1^2*x3", GF31)
    assert plan.variables == (0, 2)
    assert plan.multiplicities == (2, 1)
    mults = dict(zip(plan.variables, plan.multiplicities))
    assert tuple(mults.get(i, 0) for i in range(4)) == (2, 0, 1, 0)
    with pytest.raises(DiffError):
        parse_plan("x1^2*y3", GF31)
    with pytest.raises(DiffError, match="past x"):
        parse_plan("x1*x" + "9" * 30, GF31)


def test_plan_step_tables_are_bounded():
    # x^20 + x^3 + 1: k basis-block steps over GF(2^20) are k distinct steps,
    # a table of 2^k offsets
    gf2_20 = parse_field_spec("2^20/1," + "0," * 16 + "1,0,0,1")
    assert parse_plan("x1^16", gf2_20).multiplicities == (16,)
    for text, var in [("x1^17", "x1"), ("x1^16*x2^17", "x2"), ("x3^20", "x3")]:
        with pytest.raises(DiffError) as info:
            parse_plan(text, gf2_20)
        assert str(info.value) == (
            f"plan variable {var} may need more than 65536 grid offsets"
        )
    # k unit steps over GF(p) are one run, k + 1 offsets; a multiplicity past
    # the limit is refused before its steps are built
    big = prime_field(10**9 + 7)
    assert parse_plan("x1^242", big).multiplicities == (242,)
    assert parse_plan("x1^65535", big).multiplicities == (65535,)
    for text in ["x1^65536", "x1^100000"]:
        with pytest.raises(DiffError, match="x1 may need more than 65536"):
            parse_plan(text, big)
    # explicit steps: each run of r equal steps multiplies the bound by r + 1
    distinct = [big.element(h) for h in range(1, 18)]
    assert parse_plan("x1^16", big, distinct[:16]).steps == (tuple(distinct[:16]),)
    with pytest.raises(DiffError, match="may need more"):
        parse_plan("x1^17", big, distinct)
    assert parse_plan("x1^17", big, [big.one] * 16 + [distinct[1]])
    # a table no larger than the field stays under the limit, and an
    # over-cap multiplicity still names the field bound first
    assert parse_plan("x1^30", GF31).multiplicities == (30,)
    with pytest.raises(DiffError, match="exceeds the field bound"):
        parse_plan("x1^1000000007", big)


def test_difference_sizes_are_bounded():
    # over GF(2) digits, x^e has 2^popcount(e) nonzero binomials C(e, k) mod 2
    gf2_20 = parse_field_spec("2^20/1," + "0," * 16 + "1,0,0,1")
    assert DELTA_TERM_LIMIT == 1 << 18
    e18, e9 = (1 << 18) - 1, (1 << 9) - 1
    for poly, plan in [
        # exactly at the limit: one term, a product over two plan variables,
        # and a variable outside the plan that counts nothing
        (f"x1^{e18}", "x1"),
        (f"x1^{e9}*x2^{e9}", "x1*x2"),
        (f"x1^{e18}*x3^{(1 << 20) - 1}", "x1"),
        (f"x1^{e18 - 1} + x2", "x1"),
    ]:
        check_delta_size(parse_poly(poly, gf2_20).widen(3), parse_plan(plan, gf2_20))
    big = prime_field(10**9 + 7)
    for field, poly, plan in [
        (gf2_20, f"x1^{e18} + x2", "x1"),
        (gf2_20, f"x1^{e9}*x2^{e9} + 1", "x1*x2"),
        (gf2_20, f"x1^{1 << 18}*x2^{e18}", "x1*x2"),
        # one digit, 10^9 nonzero binomials
        (big, "x1^999999999", "x1"),
    ]:
        f = parse_poly(poly, field).widen(2)
        with pytest.raises(DiffError) as info:
            check_delta_size(f, parse_plan(plan, field))
        assert str(info.value) == "the difference may hold more than 262144 terms"


def test_difference_size_bound_covers_every_difference(monkeypatch):
    # with the limit one below a difference's actual size, the bound refuses
    # it: the count is never below the terms `delta_plan` returns
    rng = random.Random(30)
    checked = 0
    for _ in range(60):
        spec = rng.choice([GF3, GF5, GF7, GF31, GF4, GF9, GF27])
        n = rng.randint(1, 3)
        f = random_poly(spec, n, 3 * spec.order, rng.randint(1, 8), rng=rng)
        var = rng.randrange(n)
        mult = rng.randint(1, min(spec.m * (spec.p - 1), 3))
        plan = DiffPlan.make(spec, {var: mult})
        size = len(delta_plan(f, plan)._terms)
        if not size:
            continue
        checked += 1
        monkeypatch.setattr(diff_module, "DELTA_TERM_LIMIT", size - 1)
        with pytest.raises(DiffError, match=f"more than {size - 1} terms"):
            check_delta_size(f, plan)
    assert checked > 30


def test_basis_step_sequence_examples():
    a9 = GF9.generator
    assert basis_step_sequence(GF9, 3) == (GF9.one, GF9.one, a9)
    assert basis_step_sequence(GF9, 4) == (GF9.one, GF9.one, a9, a9)
    assert basis_step_sequence(GF4, 2) == (GF4.one, GF4.generator)
    assert basis_step_sequence(GF31, 7) == (GF31.one,) * 7
    # only the entries asked for are built, never p - 1 of them
    big = prime_field(2**61 - 1)
    assert basis_step_sequence(big, 2) == (big.one, big.one)
    with pytest.raises(DiffError):
        basis_step_sequence(GF9, 5)


# -- extension-field differencing ----------------------------------------------


def oracle_pm_diff(bb, var, times, base, spec):
    """Direct translation of the p^q(r+1)-point evaluation formula."""
    p = spec.p
    q, r = divmod(times, p - 1)
    if r == 0:
        q, r = q - 1, p - 1
    basis = basis_elements(spec)
    total = spec.zero
    ranges = [range(p)] * q + [range(r + 1)]
    count = 0
    for tup in itertools.product(*ranges):
        w = math.comb(r, tup[-1])
        for a in tup[:-1]:
            w *= math.comb(p - 1, a)
        w %= p
        assert w != 0  # every grid coefficient survives mod p
        if (times - sum(tup)) % 2:
            w = (-w) % p
        offset = spec.zero
        for a, b in zip(tup, basis):
            offset = offset + spec.element(a) * b
        point = list(base)
        point[var] = point[var] + offset
        total = total + spec.element(w) * bb(tuple(point))
        count += 1
    assert count == p**q * (r + 1)
    return total


def test_pm_blackbox_matches_worked_example():
    x5 = parse_poly("x1^5", GF9)
    a = GF9.generator
    got = blackbox_delta(wrap(x5), DiffPlan.make(GF9, {0: 3}), (GF9.zero,))
    paper_value = GF9.element(2) * a**3 + a
    assert got == paper_value
    assert paper_value == GF9.element(2) * a * (a + 1) * (a + 2)
    assert paper_value != GF9.zero
    assert paper_value.coeffs == (2, 2)


def test_pm_blackbox_first_difference_of_identity():
    x = parse_poly("x1", GF9)
    assert blackbox_delta(wrap(x), DiffPlan.make(GF9, {0: 1}), (GF9.zero,)) == GF9.one


def test_pm_blackbox_matches_direct_formula(rng):
    for spec in (GF4, GF9, GF8):
        for _ in range(8):
            f = random_poly(spec, 2, spec.order - 1, 4, rng=rng)
            times = rng.randint(1, spec.m * (spec.p - 1))
            base = tuple(spec.random_element(rng) for _ in range(2))
            var = rng.randrange(2)
            plan = DiffPlan.make(spec, {var: times})
            assert blackbox_delta(wrap(f), plan, base) == oracle_pm_diff(
                wrap(f), var, times, base, spec
            )


def test_pm_probe_count():
    calls = 0
    f = parse_poly("x1^5", GF9)

    def counting(pt):
        nonlocal calls
        calls += 1
        return f.evaluate(pt)

    blackbox_delta(counting, DiffPlan.make(GF9, {0: 3}), (GF9.zero,))
    assert calls == 6  # q=1, r=1 over GF(9): 3^1 * 2


def test_unit_steps_p_times_annihilate(rng):
    for spec in (GF4, GF9):
        p = spec.p
        for _ in range(20):
            table = {pt: spec.random_element(rng) for pt in all_points(spec, 1)}
            bb = lambda pt: table[pt]
            base = (spec.random_element(rng),)
            unit = (spec.one,)
            assert inclusion_exclusion(bb, [unit] * p, base) == spec.zero
            plan = DiffPlan.make(spec, {0: p}, steps=[spec.one] * p)
            assert grid_size(plan) == 0  # weights cancel before any probe
            assert blackbox_delta(bb, plan, base) == spec.zero


def test_collapse_beyond_digit_sum_degree(rng):
    for spec in (GF8, GF9):
        q = spec.order
        for d in range(1, q):
            s = digit_sum(d, spec.p)
            f = term(spec, 1, 1, (d,))
            cap = spec.m * (spec.p - 1)
            for k in range(s + 1, cap + 1):
                plan = DiffPlan.make(spec, {0: k})
                assert delta_plan(f, plan).is_zero()


def test_repeated_delta_eventually_annihilates_everything(rng):
    # more than m(p-1) differences kill any function, whatever the steps
    for spec in (GF4, GF9):
        cap = spec.m * (spec.p - 1)
        f = random_poly(spec, 1, spec.order - 1, 5, rng=rng)
        for _ in range(cap + 1):
            h = spec.random_element(rng, nonzero=True)
            f = delta(f, [h])
        assert f.is_zero()


def test_degree_bound_honoured_by_all_step_choices(rng):
    for spec in (GF8, GF9):
        q, p = spec.order, spec.p
        cap = spec.m * (p - 1)
        for d in range(1, q):
            for k in range(1, cap + 1):
                step_choices = [basis_step_sequence(spec, k)]
                step_choices.append(
                    tuple(
                        spec.random_element(rng, nonzero=True) for _ in range(k)
                    )
                )
                bound = degree_after_diff(d, k, p)
                for steps in step_choices:
                    plan = DiffPlan(spec, (0,), (k,), (steps,))
                    out = delta_plan(term(spec, 1, 1, (d,)), plan)
                    if bound is None:
                        assert out.is_zero()
                    else:
                        assert out.degrees().per_variable[0] <= bound


def test_non_collapsing_witness_survives_max_differences():
    # the product over all nonzero roots survives m(p-1) basis-block steps
    for spec in (GF4, GF9):
        cap = spec.m * (spec.p - 1)
        x = variable(spec, 1, 0)
        f = MultiPoly.constant(spec, 1, 1)
        for el in spec.elements():
            if el:
                f = f * (x - MultiPoly.constant(spec, 1, el))
        assert f.degrees().digit_sum[0] == cap
        plan = DiffPlan.make(spec, {0: cap})
        out = delta_plan(f, plan)
        assert not out.is_zero()
        assert out.degrees().total == 0  # a nonzero constant
        assert blackbox_delta(wrap(f), plan, (spec.zero,)) != spec.zero


# -- inclusion-exclusion --------------------------------------------------------


def test_inclusion_exclusion_order_one_is_delta(rng):
    f = random_poly(GF5, 2, 4, 4, rng=rng)
    a = [GF5.element(2), GF5.element(1)]
    for _ in range(5):
        base = tuple(GF5.random_element(rng) for _ in range(2))
        assert inclusion_exclusion(wrap(f), [a], base) == delta(f, a).evaluate(base)


@pytest.mark.parametrize(
    "diffs",
    [
        [(GF7.one,)],
        [(GF7.one, GF7.zero), (GF7.one,)],
        [()],
        [(GF7.one, GF7.zero, GF7.one)],
        [(1,)],
    ],
)
def test_inclusion_exclusion_refuses_vectors_of_another_width(diffs):
    # a vector narrower or wider than the base is neither cut nor padded
    # into points of mixed widths; nothing is probed
    seen = []
    with pytest.raises(DiffError, match="difference vector width mismatch"):
        inclusion_exclusion(seen.append, diffs, (GF7.zero, GF7.one))
    assert seen == []


def test_inclusion_exclusion_takes_int_vectors_over_the_base_field(rng):
    # the field comes from the first element anywhere, not from diffs[0][0]
    f = random_poly(GF7, 2, 6, 5, rng=rng)
    base = (GF7.zero, GF7.one)
    want = inclusion_exclusion(wrap(f), [(GF7.one, GF7.zero)], base)
    assert inclusion_exclusion(wrap(f), [(1, 0)], base) == want
    assert want == delta(f, (GF7.one, GF7.zero)).evaluate(base)


def test_inclusion_exclusion_refuses_an_empty_vector():
    # the vector is checked before any coordinate is read for the field
    seen = []
    with pytest.raises(DiffError, match="difference vectors must be nonzero"):
        inclusion_exclusion(seen.append, [()], ())
    assert seen == []


def test_inclusion_exclusion_refuses_inputs_without_a_field_element():
    seen = []
    with pytest.raises(DiffError, match="no field element"):
        inclusion_exclusion(seen.append, [(1, 0)], (0, 1))
    assert seen == []


def test_inclusion_exclusion_refuses_a_vector_zero_in_the_field():
    seen = []
    with pytest.raises(DiffError, match="difference vectors must be nonzero"):
        inclusion_exclusion(seen.append, [(7, 0)], (GF7.zero, GF7.one))
    assert seen == []


def test_inclusion_exclusion_repeated_vector_gf2_vanishes(rng):
    gf2 = prime_field(2)
    for _ in range(10):
        table = {pt: gf2.random_element(rng) for pt in all_points(gf2, 2)}
        bb = lambda pt: table[pt]
        e1 = (gf2.one, gf2.zero)
        for base in all_points(gf2, 2):
            assert inclusion_exclusion(bb, [e1, e1], base) == gf2.zero


def test_inclusion_exclusion_equals_cube_sum_over_gf2(rng):
    gf2 = prime_field(2)
    for _ in range(10):
        table = {pt: gf2.random_element(rng) for pt in all_points(gf2, 3)}
        bb = lambda pt: table[pt]
        e1 = (gf2.one, gf2.zero, gf2.zero)
        e2 = (gf2.zero, gf2.one, gf2.zero)
        for x3 in gf2.elements():
            cube = gf2.zero
            for b1, b2 in itertools.product(gf2.elements(), repeat=2):
                cube = cube + table[(b1, b2, x3)]
            base = (gf2.zero, gf2.zero, x3)
            assert inclusion_exclusion(bb, [e1, e2], base) == cube


def test_single_step_cube_identity_over_extensions(rng):
    # differencing once per cube variable: the result at zeroed cube
    # variables equals the quotient at cube variables set to one
    for spec in (GF4, GF9):
        for _ in range(12):
            n = rng.randint(2, 3)
            f = random_poly(spec, n, spec.order - 1, 5, rng=rng)
            k = rng.randint(1, n)
            cube = sorted(rng.sample(range(n), k))
            plan = DiffPlan.make(
                spec, {i: 1 for i in cube}, steps=[spec.one] * k
            )
            t = tuple(1 if i in cube else 0 for i in range(n))
            lhs = delta_plan(f, plan).substitute({i: spec.zero for i in cube})
            rhs = f.factor_term(t).quotient.substitute(
                {i: spec.one for i in cube}
            )
            assert lhs == rhs


# -- constants ------------------------------------------------------------------


def test_superpoly_constants_paper_values():
    t = (2, 0, 0, 0)
    consts = superpoly_constants(GF31, t, [(3, 0, 0, 0)])
    assert consts[(3, 0, 0, 0)] == GF31.element(30)
    t5 = (5, 0, 0, 0)
    assert superpoly_constants(GF31, t5, [(0, 0, 0, 0)])[(0, 0, 0, 0)] == GF31.element(
        27
    )
    gf2 = prime_field(2)
    assert superpoly_constants(gf2, (1,), [(0,)])[(0,)] == gf2.one


def test_superpoly_constants_reject_foreign_variables():
    with pytest.raises(DiffError):
        superpoly_constants(GF31, (2, 0), [(1, 1)])


def quotient_reconstruction(spec, f, t, rng):
    """Difference then zero the plan variables; compare with the constants
    formula applied to the quotient."""
    n = f.n
    cube = [i for i, m in enumerate(t) if m]
    plan = DiffPlan.make(spec, {i: t[i] for i in cube})
    lhs = delta_plan(f, plan).substitute({i: spec.zero for i in cube})
    quotient = f.factor_term(t).quotient
    buckets = {}
    for mono, coeff in quotient.terms():
        cube_part = tuple(e if i in cube else 0 for i, e in enumerate(mono))
        rest = tuple(0 if i in cube else e for i, e in enumerate(mono))
        buckets.setdefault(cube_part, {})
        buckets[cube_part][rest] = (
            buckets[cube_part].get(rest, spec.zero) + coeff
        )
    rhs = MultiPoly.zero(spec, n)
    for cube_part, terms in buckets.items():
        const = superpoly_constants(spec, t, [cube_part])[cube_part]
        rhs = rhs + MultiPoly(spec, n, terms).scale(const)
    return lhs, rhs


def test_quotient_constants_reconstruct_difference(rng):
    for _ in range(40):
        spec = [GF5, GF31][rng.randrange(2)]
        n = rng.randint(2, 4)
        f = random_poly(spec, n, 6, rng.randint(1, 6), rng=rng)
        k = rng.randint(1, min(2, n))
        cube = sorted(rng.sample(range(n), k))
        t = tuple(
            rng.randint(1, min(3, spec.p - 1)) if i in cube else 0
            for i in range(n)
        )
        lhs, rhs = quotient_reconstruction(spec, f, t, rng)
        assert lhs == rhs


def test_quotient_free_of_plan_vars_scales_by_factorials(rng):
    # when the quotient avoids the plan variables entirely, the difference
    # at zeroed plan variables is just m_1!...m_k! times the quotient
    spec = GF31
    g = random_poly(spec, 4, 3, 4, rng=rng).substitute(
        {0: spec.zero, 1: spec.zero}
    )
    t_poly = parse_poly("x1^3*x2^2", spec, n=4)
    f = t_poly * g
    plan = DiffPlan.make(spec, {0: 3, 1: 2})
    lhs = delta_plan(f, plan).substitute({0: spec.zero, 1: spec.zero})
    assert lhs == g.scale(spec.element(math.factorial(3) * math.factorial(2)))


def test_ext_diff_constant_examples():
    a = GF9.generator
    got = ext_diff_constant(GF9, 5, (GF9.one, GF9.one, a))
    assert got == GF9.element(2) * a**3 + a
    gf5 = prime_field(5)
    assert ext_diff_constant(gf5, 3, (gf5.one,) * 3) == gf5.element(
        math.factorial(3)
    )
    # digit sum below the step count leaves nothing to compose
    assert ext_diff_constant(GF9, 3, basis_step_sequence(GF9, 4)) == GF9.zero
    assert ext_diff_constant(GF9, 0, (GF9.one,)) == GF9.zero


def test_ext_diff_constant_is_the_free_term(rng):
    # the constant equals the value of the differenced monomial at zero,
    # for arbitrary nonzero steps
    for spec in (GF4, GF9, GF8):
        for _ in range(10):
            d = rng.randint(1, spec.order - 1)
            k = rng.randint(1, spec.m * (spec.p - 1))
            steps = tuple(
                spec.random_element(rng, nonzero=True) for _ in range(k)
            )
            plan = DiffPlan(spec, (0,), (k,), (steps,))
            out = delta_plan(term(spec, 1, 1, (d,)), plan)
            assert coefficient(out, (0,)) == ext_diff_constant(spec, d, steps)


def test_ext_constants_reconstruct_univariate_difference(rng):
    # sum of c_j * g_j over every exponent j equals the differenced
    # function evaluated at x1 = 0 (coefficients g_j in the other variable)
    for _ in range(12):
        spec = GF9
        f = random_poly(spec, 2, spec.order - 1, 5, rng=rng)
        m1 = rng.randint(1, spec.m * (spec.p - 1))
        steps = basis_step_sequence(spec, m1)
        plan = DiffPlan.make(spec, {0: m1})
        lhs = delta_plan(f, plan).substitute({0: spec.zero})
        rhs = MultiPoly.zero(spec, 2)
        for j in range(spec.order):
            c = ext_diff_constant(spec, j, steps)
            if not c:
                continue
            g_j = MultiPoly(
                spec,
                2,
                {
                    (0, mono[1]): coeff
                    for mono, coeff in f.terms()
                    if mono[0] == j
                },
            )
            rhs = rhs + g_j.scale(c)
        assert lhs == rhs


# -- extension differencing pinned as text --------------------------------------

# the extension-field benchmark's (p, m) and basis-block plan multiplicities
EXT_GOLDEN_SHAPES = (
    ((2, 3), (1, 2)),
    ((2, 3), (2, 2)),
    ((2, 3), (2, 1)),
    ((2, 3), (1, 3)),
    ((3, 3), (2, 3)),
    ((3, 3), (3, 3)),
    ((3, 3), (4, 1)),
    ((3, 3), (3, 2)),
)


def ext_golden_text() -> str:
    """Per seeded case: the plan, the symbolic difference as text, and the
    grid difference at a seeded base point."""
    lines = []
    for index, ((p, m), mults) in enumerate(EXT_GOLDEN_SHAPES):
        rng = random.Random(f"ext-golden:{index}")
        spec = ext_field(p, m)
        f = random_poly(spec, 4, 2 * (spec.order - 1), 40, rng=rng)
        plan = DiffPlan.make(spec, dict(zip(rng.sample(range(4), len(mults)), mults)))
        base = tuple(spec.random_element(rng) for _ in range(4))
        mults = dict(zip(plan.variables, plan.multiplicities))
        term = monomial_text(tuple(mults.get(i, 0) for i in range(4)))
        lines.append(f"case {index}: {spec.text} {term} at {', '.join(map(str, base))}")
        lines.append(format_poly(delta_plan(f, plan)))
        lines.append(str(blackbox_delta(f.evaluate, plan, base)))
    return "\n".join(lines) + "\n"


def test_ext_differences_match_golden():
    # written by the convolution arithmetic that preceded the log tables
    expected = Path(__file__).parent / "data" / "ext_delta_golden.txt"
    assert ext_golden_text() == expected.read_text()
