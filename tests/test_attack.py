import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gfdelta.attack import (
    AttackError,
    BlackBox,
    MaxtermRecord,
    Verdict,
    candidate_terms,
    gaussian_solve,
    load_records,
    online,
    preprocess,
    save_records,
    superpoly_oracle,
)
from gfdelta.diff import DiffPlan, delta_plan
from gfdelta.field import ext_field, prime_field, row_reduce
from gfdelta.poly import MultiPoly, _residues, parse_poly, random_poly
from gfdelta.reduce_pm import ProjectionContext, ReductionError
from gfdelta.targets import load_target, make_planted

import oracles
from conftest import GF5, GF9, GF31
from oracles import coefficient, extract_linear, linearity_test

GF7 = prime_field(7)


def poly_blackbox(f: MultiPoly, n_pub: int, n_sec: int) -> BlackBox:
    def fn(public, secret):
        return f.evaluate(list(public) + list(secret))

    return BlackBox(f.spec, n_pub, n_sec, fn)


def superpoly_symbolic(f: MultiPoly, term, n_pub: int) -> MultiPoly:
    """Oracle: difference symbolically, then zero out all public variables."""
    plan = DiffPlan.make(f.spec, {i: m for i, m in enumerate(term) if m})
    out = delta_plan(f, plan)
    return out.substitute({i: f.spec.zero for i in range(n_pub)})


# -- black box bookkeeping -------------------------------------------------------


def test_blackbox_counts_and_validates():
    f = parse_poly("x1*x2", GF31, n=2)
    bb = poly_blackbox(f, 1, 1)
    assert bb.evaluations == 0
    bb.evaluate([GF31.one], [GF31.element(3)])
    assert bb.evaluations == 1
    with pytest.raises(AttackError):
        bb.evaluate([GF31.one, GF31.one], [GF31.zero])


def test_blackbox_requires_prime_field():
    with pytest.raises(AttackError):
        BlackBox(GF9, 1, 1, lambda pub, sec: GF9.zero)


def test_grid_cost_matches_probe_count():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    bb = poly_blackbox(f, 1, 3)
    oracle = superpoly_oracle(bb, (5,))
    oracle([(GF31.zero,) * 3])
    assert bb.evaluations == oracle.grid_size == 6


@given(st.data())
def test_attack_grids_match_symbolic_route(data):
    # preprocessing's oracle and the online right-hand side both equal the
    # symbolic difference with the publics at zero
    spec = prime_field(data.draw(st.sampled_from([5, 7, 31])))
    n_pub = data.draw(st.integers(1, 3))
    n_sec = data.draw(st.integers(1, 3))
    f = random_poly(
        spec,
        n_pub + n_sec,
        6,
        data.draw(st.integers(1, 8)),
        rng=random.Random(data.draw(st.integers(0, 10**6))),
    )
    mult = st.integers(0, min(3, spec.p - 1))
    term = tuple(data.draw(mult) for _ in range(n_pub))
    key = tuple(
        spec.element(data.draw(st.integers(0, spec.p - 1))) for _ in range(n_sec)
    )
    expected = superpoly_symbolic(f, term, n_pub).evaluate((spec.zero,) * n_pub + key)
    bb = poly_blackbox(f, n_pub, n_sec)
    assert superpoly_oracle(bb, term)([key]) == [expected]
    # with c = (1,) and c0 = 0 the online solve returns the right-hand side
    record = MaxtermRecord(term, 0, (1,), 0)
    outcome = online(lambda pub: f.evaluate(pub + key), [record], spec, 1)
    assert outcome.key == (int(expected),)


@given(st.data())
def test_grid_fallback_loops_the_per_point_box(data):
    # a box built from a per-point function alone answers grids point by point
    spec = prime_field(data.draw(st.sampled_from([5, 7, 31])))
    n_pub = data.draw(st.integers(1, 3))
    n_sec = data.draw(st.integers(1, 3))
    f = random_poly(spec, n_pub + n_sec, 5, data.draw(st.integers(1, 8)),
                    rng=random.Random(data.draw(st.integers(0, 10**6))))
    bb = poly_blackbox(f, n_pub, n_sec)
    residue = st.integers(0, spec.p - 1)
    points = data.draw(
        st.lists(st.tuples(*[residue] * n_pub), min_size=1, max_size=6).map(tuple)
    )
    secret = tuple(data.draw(residue) for _ in range(n_sec))
    [got] = bb.stage(points)([secret])
    assert bb.evaluations == len(points)
    assert got == [int(bb.evaluate(pt, secret)) for pt in points]
    assert got == [int(f.evaluate(pt + secret)) for pt in points]
    with pytest.raises(AttackError):
        bb.stage(points + ((0,) * (n_pub + 1),))([secret])


@pytest.mark.parametrize("kernel", [False, True])
def test_grid_widths_are_checked_for_every_batch(kernel):
    # every batch of points is width-checked when it is staged, and every
    # batch of secrets at each call of its stage; every malformed batch
    # raises, whichever path answers the grid
    def grid(points):
        return lambda secrets: [[sum(pt) % 7 for pt in points] for _ in secrets]

    bb = BlackBox(GF7, 2, 1, lambda pub, sec: GF7.zero, grid if kernel else None)
    with pytest.raises(AttackError):
        bb.stage(((1, 2), (3,)))([(1,)])
    good = ((1, 2), (3, 4))
    bb.stage(good)([(1,)])
    bb.stage(good)([(1,)])
    with pytest.raises(AttackError):
        bb.stage(((1, 2), (3, 4, 5)))([(1,)])
    with pytest.raises(AttackError):
        bb.stage(good)([(1, 2)])
    rows = ([1, 2], [3, 4])
    bb.stage(rows)([(1,)])
    rows[1].append(5)
    with pytest.raises(AttackError):
        bb.stage(rows)([(1,)])
    batch = [(1, 2)]
    bb.stage(batch)([(1,)])
    batch.append((1,))
    with pytest.raises(AttackError):
        bb.stage(batch)([(1,)])
    assert bb.evaluations == 7


# -- linearity testing -------------------------------------------------------------


def test_likely_linear_on_the_worked_example():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    bb = poly_blackbox(f, 1, 3)
    # symbolic oracle first: the superpoly is 27*x2, linear and nonconstant
    sup = superpoly_symbolic(f, (5,), 1)
    assert sup == parse_poly("27*x2", GF31, n=4)
    assert linearity_test(bb, (5,), seed=1) is Verdict.LIKELY_LINEAR


def test_nonlinear_on_the_lower_order_term():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    # symbolic oracle first: differencing four times leaves a quadratic
    sup = superpoly_symbolic(f, (4,), 1)
    assert sup.degrees().total == 2
    assert coefficient(sup, (0, 0, 1, 1)) == GF31.element(24)
    bb = poly_blackbox(f, 1, 3)
    assert linearity_test(bb, (4,), trials=20, seed=2) is Verdict.NONLINEAR


def test_constant_verdict():
    f = parse_poly("x1^2 + x2", GF31, n=3)  # x2, x3 secret
    bb = poly_blackbox(f, 1, 2)
    assert linearity_test(bb, (2,), seed=3) is Verdict.CONSTANT


def test_linearity_never_rejects_affine_superpolys(rng):
    # soundness: exact identity holds for affine functions, so the verdict
    # can be likely-linear or constant but never nonlinear
    for _ in range(30):
        spec = [GF5, GF31][rng.randrange(2)]
        n_pub, n_sec = 2, 3
        mult = rng.randint(1, min(3, spec.p - 1))
        term = (mult, 0)
        anchor = MultiPoly(spec, n_pub + n_sec, {term + (0,) * n_sec: spec.one})
        linear = MultiPoly.zero(spec, n_pub + n_sec)
        for j in range(n_sec):
            coeff = spec.random_element(rng)
            mono = [0] * (n_pub + n_sec)
            mono[n_pub + j] = 1
            linear = linear + MultiPoly(spec, n_pub + n_sec, {tuple(mono): spec.one}).scale(coeff)
        linear = linear + MultiPoly.constant(spec, n_pub + n_sec, rng.randrange(spec.p))
        f = anchor * linear
        sup = superpoly_symbolic(f, term, n_pub)
        assert sup.degrees().total <= 1
        bb = poly_blackbox(f, n_pub, n_sec)
        verdict = linearity_test(bb, term, seed=rng.randrange(10**6))
        assert verdict is not Verdict.NONLINEAR
        if verdict is Verdict.LIKELY_LINEAR:
            record = extract_linear(bb, term)
            for j in range(n_sec):
                mono = [0] * (n_pub + n_sec)
                mono[n_pub + j] = 1
                assert record.c[j] == coefficient(sup, tuple(mono))
            assert record.c0 == coefficient(sup, (0,) * (n_pub + n_sec))


def reference_linearity_verdict(eval_superpoly, spec, n_sec, trials, rng):
    """The linearity test as it ran on field elements, straight-line."""
    zero_vec = (spec.zero,) * n_sec
    base = eval_superpoly(zero_vec)
    saw_variation = False
    for _ in range(trials):
        a = spec.random_element(rng)
        b = spec.random_element(rng)
        y = tuple(spec.random_element(rng) for _ in range(n_sec))
        z = tuple(spec.random_element(rng) for _ in range(n_sec))
        fy = eval_superpoly(y)
        fz = eval_superpoly(z)
        combo = tuple(a * yi + b * zi for yi, zi in zip(y, z))
        fc = eval_superpoly(combo)
        if fy != base or fz != base or fc != base:
            saw_variation = True
        if a * (fy - base) + b * (fz - base) != fc - base:
            return Verdict.NONLINEAR
    return Verdict.LIKELY_LINEAR if saw_variation else Verdict.CONSTANT


@given(st.data())
def test_integer_linearity_test_keeps_the_rng_stream(data):
    # the residue form draws the same stream and reaches the same verdict
    spec = prime_field(data.draw(st.sampled_from([3, 5, 7, 31])))
    n_pub = data.draw(st.integers(1, 2))
    n_sec = data.draw(st.integers(1, 3))
    f = random_poly(spec, n_pub + n_sec, data.draw(st.integers(1, 5)),
                    data.draw(st.integers(1, 8)),
                    rng=random.Random(data.draw(st.integers(0, 10**6))))
    term = tuple(data.draw(st.integers(0, min(2, spec.p - 1))) for _ in range(n_pub))
    trials = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 10**6))
    sup = superpoly_symbolic(f, term, n_pub)
    publics = (spec.zero,) * n_pub
    ours, theirs = random.Random(seed), random.Random(seed)
    verdict = linearity_test(poly_blackbox(f, n_pub, n_sec), term, trials, rng=ours)
    expected = reference_linearity_verdict(
        lambda s: sup.evaluate(publics + s), spec, n_sec, trials, theirs
    )
    assert verdict is expected
    assert ours.getstate() == theirs.getstate()


@given(
    p=st.sampled_from([2, 3, 5, 7, 31, 2**31 - 1, 10**9 + 7, 2**61 - 1]),
    count=st.integers(0, 60),
    seed=st.integers(0, 2**64),
)
def test_residues_are_the_randrange_stream(p, count, seed):
    # the batched draw yields randrange's values and leaves its state, also
    # where words >= p are dropped (p = 2, 3, 5, 10^9 + 7)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _residues(ours, p, count) == [theirs.randrange(p) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


def test_margin_terms_always_linear_or_constant(rng):
    # a public term one below the total degree forces the superpoly down
    # to degree at most one
    for _ in range(100):
        spec = [GF5, GF31][rng.randrange(2)]
        n_pub, n_sec = 2, 2
        n = n_pub + n_sec
        d = rng.randint(2, min(2 * (spec.p - 1), 6))
        f = random_poly(spec, n, d, rng.randint(2, 7), rng=rng)
        splits = [
            (a, d - 1 - a)
            for a in range(d)
            if a <= spec.p - 1 and d - 1 - a <= spec.p - 1
        ]
        term = splits[rng.randrange(len(splits))]
        cube = {i: m for i, m in enumerate(term) if m}
        if not cube:
            continue
        plan = DiffPlan.make(spec, cube)
        f_t = delta_plan(f, plan).substitute({i: spec.zero for i in cube})
        assert f_t.degrees().total <= 1


# -- extraction ---------------------------------------------------------------------


def test_extract_linear_on_the_worked_example():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    bb = poly_blackbox(f, 1, 3)
    record = extract_linear(bb, (5,))
    assert record.c0 == GF31.zero
    assert record.c == (GF31.element(27), GF31.zero, GF31.zero)
    assert any(record.c)
    assert record.evaluations_used == (3 + 1) * 6  # (n_sec+1) grids of 6


def test_extract_linear_flags_vanishing_superpoly():
    f = parse_poly("x1^2", GF31, n=2)  # three differences annihilate it
    bb = poly_blackbox(f, 1, 1)
    record = extract_linear(bb, (3,))
    assert record.c0 == GF31.zero
    assert record.c == (GF31.zero,)
    assert not any(record.c)


def test_extract_linear_planted_affine_form():
    # f = v1*(3x+5) + secret-only junk that differencing removes
    f = parse_poly("3*x1*x2 + 5*x1 + 2*x2^2", GF7, n=2)
    bb = poly_blackbox(f, 1, 1)
    sup = superpoly_symbolic(f, (1,), 1)
    assert sup == parse_poly("3*x2 + 5", GF7, n=2)
    record = extract_linear(bb, (1,))
    assert record.c0 == GF7.element(5)
    assert record.c == (GF7.element(3),)


# -- candidate schedule ---------------------------------------------------------------


def test_candidate_terms_schedule_shape():
    terms = list(candidate_terms(3, 5, 3))
    assert terms[0] == (0, 0, 0)
    assert terms[1:4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # total multiplicity 2: single-variable terms come before pairs
    block2 = terms[4:10]
    assert block2[:3] == [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert set(block2[3:]) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert all(sum(t) <= 3 for t in terms)
    assert len(set(terms)) == len(terms)


def test_candidate_terms_respect_field_cap():
    terms = list(candidate_terms(2, 3, 5))
    assert all(max(t) <= 2 for t in terms)  # multiplicities below p


def test_candidate_terms_prefer_cheap_grids():
    terms = list(candidate_terms(2, 31, 4))
    pairs = [t for t in terms if all(t)]
    # within two-variable terms of multiplicity 4: (1,3)/(3,1) cost 8
    # precede (2,2) cost 9
    assert pairs.index((1, 3)) < pairs.index((2, 2))
    assert pairs.index((3, 1)) < pairs.index((2, 2))


def test_candidate_terms_stop_at_the_largest_total():
    # 4 publics below p=7 carry at most 24 in total; a larger cap adds nothing
    assert list(candidate_terms(4, 7, 80)) == list(candidate_terms(4, 7, 24))
    started = time.perf_counter()
    assert sum(1 for _ in candidate_terms(4, 7, 10**6)) == 7**4
    assert time.perf_counter() - started < 1.0


# -- preprocessing ----------------------------------------------------------------------


def planted_bb(seed=5, p=5, n_pub=2, n_sec=2, degree=4, extras=4):
    target = make_planted(p, n_pub, n_sec, degree, extras, seed)
    return target, target.blackbox()


def test_preprocess_reaches_full_rank():
    target, bb = planted_bb()
    result = preprocess(bb, budget=10**6, max_total_mult=3, seed=9)
    assert result.status == "complete"
    assert result.rank == 2
    assert all(any(r.c) for r in result.records)
    assert result.evaluations <= 10**6
    assert result.terms_tried > 0


def test_preprocess_is_deterministic():
    target, bb1 = planted_bb()
    r1 = preprocess(bb1, budget=10**6, max_total_mult=3, seed=9)
    _, bb2 = planted_bb()
    r2 = preprocess(bb2, budget=10**6, max_total_mult=3, seed=9)
    assert [(r.term, r.c0, r.c, r.evaluations_used) for r in r1.records] == [
        (r.term, r.c0, r.c, r.evaluations_used) for r in r2.records
    ]
    assert r1.evaluations == r2.evaluations


def test_preprocess_pins_the_benchmark_planted_target():
    # the planted-p31 workload's target at its seed-0 preprocess seed
    target = make_planted(31, 5, 12, 6, 60, seed=2)
    result = preprocess(
        target.blackbox(),
        budget=10**6,
        max_total_mult=target.suggested_max_multiplicity,
        seed=2,
    )
    assert result.status == "complete"
    assert (result.evaluations, result.terms_tried) == (23328, 95)
    assert (len(result.records), len(result.dependent)) == (12, 16)


def test_preprocess_budget_exhaustion():
    target, bb = planted_bb()
    result = preprocess(bb, budget=2, max_total_mult=3, seed=9)
    assert result.status == "budget-exhausted"
    assert result.records == []
    assert result.evaluations <= 2


@pytest.mark.parametrize("budget", [2156, 2000, 10**6])
def test_preprocess_charges_each_call_on_a_reused_box(budget):
    # the budget and the reported evaluations count one call's probes, so a
    # box that has already been probed searches as a fresh box does
    def run(bb):
        mult = target.suggested_max_multiplicity
        result = preprocess(bb, budget=budget, max_total_mult=mult, seed=6)
        found = [(r.term, r.c0, r.c, r.evaluations_used) for r in result.records]
        return found, result.status, result.evaluations, result.terms_tried

    target = make_planted(31, 3, 4, 5, 12, seed=3)
    fresh = run(target.blackbox())
    bb = target.blackbox()
    bb.stage([(1, 2, 3)])([(0, 1, 2, 3)] * 5)
    assert run(bb) == run(bb) == fresh
    assert bb.evaluations == 5 + 2 * fresh[2]
    if budget >= 2156:
        assert fresh[1:3] == ("complete", 2156)


TOY_TARGET = (
    "kind: toy-cipher\nfield: 7\npublic: 4\nsecret: 4\nrounds: 3\nwidth: 4\nseed: 0\n"
)
# the records a full search finds on the toy target at preprocess seed 0
TOY_FIRST_RECORD = ((1, 6, 0, 0), 4, (6, 0, 5, 5), 588)
TOY_RECORDS = [
    TOY_FIRST_RECORD,
    ((6, 1, 0, 0), 6, (3, 4, 1, 1), 588),
    ((2, 5, 0, 0), 1, (6, 3, 1, 6), 756),
    ((5, 2, 0, 0), 4, (6, 1, 6, 5), 756),
]


@pytest.mark.parametrize(
    "budget, outcome, records",
    [
        # inside the empty term's first batch: its zero secret, not trial 1
        (1, ("budget-exhausted", 1, 1, 0), []),
        # before the first grid of term 2 (the empty term took 7 grids of 1)
        (7, ("budget-exhausted", 2, 7, 0), []),
        # term 10's zero secret and trial 1's y and z, not its ay + bz
        (100, ("budget-exhausted", 10, 99, 0), []),
        # term 41: its first batch, then two of trial 2's three grids
        (1000, ("budget-exhausted", 41, 997, 0), []),
        # term 109 (grids of 18): two grids of its first batch
        (4984, ("budget-exhausted", 109, 4983, 0), []),
        (5000, ("budget-exhausted", 109, 4983, 0), []),
        # term 211 (grids of 14): inside trial 7 of 12
        (14902, ("budget-exhausted", 211, 14899, 0), []),
        # term 211: all 12 trials, then two of its five extraction grids
        (15170, ("budget-exhausted", 211, 15165, 0), []),
        # just past term 211's record, before term 212's first grid
        (15212, ("budget-exhausted", 212, 15207, 1), [TOY_FIRST_RECORD]),
        (15300, ("budget-exhausted", 212, 15291, 1), [TOY_FIRST_RECORD]),
        (10**6, ("complete", 214, 17307, 4), TOY_RECORDS),
    ],
)
def test_budget_cuts_match_the_grid_by_grid_charge(
    tmp_path, budget, outcome, records
):
    # a budget stops the search where charging one grid at a time stops it,
    # wherever the cut falls in a batch of secrets
    path = tmp_path / "toy.target"
    path.write_text(TOY_TARGET)
    target = load_target(path)
    result = preprocess(
        target.blackbox(),
        budget=budget,
        max_total_mult=target.suggested_max_multiplicity,
        seed=0,
    )
    counts = (result.status, result.terms_tried, result.evaluations, result.rank)
    assert counts == outcome
    found = result.records + result.dependent
    assert [(r.term, r.c0, r.c, r.evaluations_used) for r in found] == records


def test_preprocess_no_secrets_gives_empty_result():
    f = parse_poly("x1^2 + 3*x1", GF5, n=1)
    bb = poly_blackbox(f, 1, 0)
    result = preprocess(bb, budget=100, max_total_mult=2, seed=1)
    assert result.status == "complete"
    assert result.records == []


# -- gaussian elimination -----------------------------------------------------------------


def adjugate_solve_3x3(matrix, rhs, p):
    """Cofactor-expansion oracle for 3x3 systems."""

    def minor(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        return (
            matrix[rows[0]][cols[0]] * matrix[rows[1]][cols[1]]
            - matrix[rows[0]][cols[1]] * matrix[rows[1]][cols[0]]
        ) % p

    det = sum((-1) ** c * matrix[0][c] * minor(0, c) for c in range(3)) % p
    adj = [[(-1) ** (r + c) * minor(c, r) % p for c in range(3)] for r in range(3)]
    inv_det = pow(det, -1, p)
    return tuple(
        sum(adj[r][c] * rhs[c] for c in range(3)) * inv_det % p for r in range(3)
    )


def test_gaussian_identity_system():
    values = [3, 1, 4]
    rows = [[int(j == i) for j in range(3)] + [values[i]] for i in range(3)]
    result = gaussian_solve(rows, 7)
    assert result.status == "unique"
    assert result.solution == tuple(values)
    assert result.pivots == (0, 1, 2) and result.free == ()


def test_gaussian_duplicate_row_is_parametrized():
    result = gaussian_solve([[2, 3, 1], [2, 3, 1]], 7)
    assert result.status == "parametrized"
    assert result.rank == 1 and len(result.free) == 1


def test_gaussian_inconsistent_detected():
    assert gaussian_solve([[2, 3, 1], [2, 3, 2]], 7).status == "inconsistent"


def test_gaussian_matches_adjugate_oracle():
    rng = random.Random(17)
    p = 31
    for _ in range(20):
        matrix = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        key = [rng.randrange(p) for _ in range(3)]
        rhs = [sum(matrix[r][c] * key[c] for c in range(3)) % p for r in range(3)]
        det_zero = False
        try:
            expected = adjugate_solve_3x3(matrix, rhs, p)
        except ValueError:
            det_zero = True
        result = gaussian_solve([matrix[r] + [rhs[r]] for r in range(3)], p)
        if det_zero:
            assert result.status != "unique"
            continue
        assert result.status == "unique"
        assert result.solution == expected
        assert expected == tuple(key)


@given(st.sampled_from([5, 7]), st.integers(1, 3), st.data())
def test_gaussian_pins_what_every_solution_agrees_on(p, width, data):
    # brute force over GF(p)^width: the status counts the solutions, and a
    # variable is pinned when every solution gives it the same value
    key = data.draw(st.tuples(*[st.integers(0, p - 1)] * width))
    coeffs = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    # a right-hand side read at a planted key, or any residue
    rhs = st.one_of(st.none(), st.integers(0, p - 1))
    rows = [
        c + [sum(map(operator.mul, c, key)) % p if b is None else b]
        for c, b in data.draw(st.lists(st.tuples(coeffs, rhs), min_size=1, max_size=4))
    ]
    solutions = [
        x
        for x in itertools.product(range(p), repeat=width)
        if all(sum(map(operator.mul, row, x)) % p == row[width] for row in rows)
    ]
    result = gaussian_solve(rows, p)
    if not solutions:
        assert result.status == "inconsistent" and result.pinned == {}
        return
    assert result.status == ("unique" if len(solutions) == 1 else "parametrized")
    assert result.solution in solutions
    assert result.pinned == {
        i: solutions[0][i] for i in range(width) if len({x[i] for x in solutions}) == 1
    }


# moduli of GF(p^m) for the kernel test; ext_field rejects a reducible one
EXT_MODULI = {
    (5, 2): (1, 0, 2),
    (5, 3): (1, 0, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 0, 2),
}


def leibniz_det(matrix, p):
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total % p


@given(st.sampled_from([5, 7]), st.integers(2, 3), st.data())
def test_elimination_kernel_rank_and_inverse(p, m, data):
    row = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    matrix = data.draw(st.lists(row, min_size=m, max_size=m))
    rank = gaussian_solve([values + [0] for values in matrix], p).rank
    # the rank make_planted checks its secret forms with
    assert rank == len(row_reduce(matrix, p)[1])
    assert (rank == m) == (leibniz_det(matrix, p) != 0)
    # the matrix columns as a basis of GF(p^m): the projection inverts it
    ext = ext_field(p, m, EXT_MODULI[p, m])
    basis = [ext.element([matrix[i][j] for i in range(m)]) for j in range(m)]
    if rank == m:
        ctx = ProjectionContext.for_spec(ext, basis)
        identity = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        assert [ctx.phi(b) for b in basis] == identity
    else:
        with pytest.raises(ReductionError):
            ProjectionContext.for_spec(ext, basis)


# the primes the elimination step is checked over against the whole-matrix
# Gauss-Jordan it replaced (`oracles.row_reduce`, `oracles.gaussian_solve`)
REFERENCE_PRIMES = [2, 3, 31, 2**61 - 1]


def _shifted(draw, p, rows):
    """The rows with each entry moved by a drawn multiple of p, often out
    of [0, p)."""
    shift = st.integers(-2, 2)
    return [[v + p * draw(shift) for v in row] for row in rows]


@st.composite
def _systems(draw, p):
    """Rows over GF(p): coefficients, then a right-hand side that a drawn
    key satisfies or any residue. A row may be zero, repeat an earlier row
    or add two earlier rows; entries may lie outside [0, p)."""
    width = draw(st.integers(0, 5))
    residue = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    key = draw(st.lists(residue, min_size=width, max_size=width))
    kinds = st.sampled_from(["drawn", "zero", "repeat", "sum"])
    coeffs: list[list[int]] = []
    rows = []
    for kind in draw(st.lists(kinds, max_size=10)):
        if kind == "zero":
            c = [0] * width
        elif kind == "drawn" or not coeffs:
            c = draw(st.lists(residue, min_size=width, max_size=width))
        elif kind == "repeat":
            c = draw(st.sampled_from(coeffs))
        else:
            a, b = draw(st.sampled_from(coeffs)), draw(st.sampled_from(coeffs))
            c = [x + y for x, y in zip(a, b)]
        coeffs.append(c)
        b = draw(st.one_of(st.none(), residue))
        rows.append(c + [sum(map(operator.mul, c, key)) if b is None else b])
    return _shifted(draw, p, rows)


@given(st.sampled_from(REFERENCE_PRIMES), st.data())
def test_gaussian_solve_matches_the_reference(p, data):
    rows = data.draw(_systems(p))
    assert gaussian_solve(rows, p) == oracles.gaussian_solve(rows, p)


@given(st.sampled_from(REFERENCE_PRIMES), st.data())
def test_row_reduce_matches_the_reference(p, data):
    rows = data.draw(_systems(p))
    width = data.draw(st.integers(0, len(rows[0]))) if rows else None
    reduced, pivots = row_reduce(rows, p, width)
    want, want_pivots = oracles.row_reduce(rows, p, width)
    assert pivots == want_pivots and len(reduced) == len(want)
    # the augmented entries are the unique reduced form only when every
    # residue (the rows past the rank) is zero there
    if not any(any(row[width:]) for row in want[len(pivots) :]):
        assert reduced == want


@given(
    st.sampled_from(REFERENCE_PRIMES),
    st.integers(2, 4),
    st.sampled_from([None, "before", "after"]),
    st.data(),
)
def test_gaussian_solve_late_full_rank_and_conflicts(p, width, conflict, data):
    # an invertible matrix (triangular with a nonzero diagonal, its columns
    # permuted) whose last row comes only after a multiple of its first, so
    # the first `width` rows are singular; then rows that repeat it. A
    # conflict spoils the multiple (before full rank) or a repeat (after)
    residue = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    key = data.draw(st.lists(residue, min_size=width, max_size=width))
    order = data.draw(st.permutations(range(width)))
    matrix = []
    for i in range(width):
        tail = st.lists(residue, min_size=width - i - 1, max_size=width - i - 1)
        row = [0] * i + [data.draw(unit)] + data.draw(tail)
        matrix.append([row[j] for j in order])
    scale = data.draw(residue)
    coeffs = matrix[:-1] + [[scale * v for v in matrix[0]], matrix[-1]]
    coeffs += data.draw(st.lists(st.sampled_from(matrix), max_size=4))
    rows = [c + [sum(map(operator.mul, c, key))] for c in coeffs]
    if conflict == "before":
        rows[width - 1][width] += data.draw(unit)
    elif conflict == "after":
        rows.append(matrix[0] + [rows[0][width] + data.draw(unit)])
    rows = _shifted(data.draw, p, rows)
    assert len(oracles.row_reduce(rows[:width], p, width)[1]) == width - 1
    result = gaussian_solve(rows, p)
    assert result == oracles.gaussian_solve(rows, p)
    if conflict:
        assert result.status == "inconsistent" and result.rank == width
    else:
        assert result.status == "unique" and result.solution == tuple(key)


@st.composite
def _spanned_systems(draw, p, deficient=False, spoiled=3):
    """Rows over GF(p) whose coefficients are 0/1 mixes of `rank` drawn
    vectors, below the width when `deficient`, so rows often repeat or add
    up to earlier ones, before the prefix that reaches the rank ends or
    after it; the right-hand sides fit a drawn key, except on up to
    `spoiled` drawn rows. Entries may lie outside [0, p)."""
    width = draw(st.integers(1, 5))
    rank = draw(st.integers(0, width - 1) if deficient else st.integers(0, width))
    residue = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    vector = st.lists(residue, min_size=width, max_size=width)
    key = draw(vector)
    span = draw(st.lists(vector, min_size=rank, max_size=rank))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        mix = draw(st.lists(st.sampled_from([0, 1]), min_size=rank, max_size=rank))
        c = [sum(a * v[j] for a, v in zip(mix, span)) for j in range(width)]
        rows.append(c + [sum(map(operator.mul, c, key))])
    index = st.integers(0, len(rows) - 1)
    for i in draw(st.lists(index, max_size=spoiled, unique=True)):
        rows[i][width] += draw(st.integers(1, p - 1))
    return _shifted(draw, p, rows)


@given(st.sampled_from(REFERENCE_PRIMES), st.data())
def test_gaussian_solve_matches_the_reference_below_full_rank(p, data):
    # the rows are eliminated once, and the back pass runs on that basis
    rows = data.draw(_spanned_systems(p, deficient=True))
    result = gaussian_solve(rows, p)
    assert result == oracles.gaussian_solve(rows, p)
    assert result.rank < len(rows[0]) - 1 and result.status != "unique"


def _replayed(rows, p):
    """`online` on one record x_i per row, whose c0 carries the row's
    right-hand side, replayed against a key-independent oracle, whose grids
    sum to 0; checked against the leave-one-out loop of fresh solves."""
    width = len(rows[0]) - 1
    spec = prime_field(p)
    records = [
        MaxtermRecord(
            tuple(int(i == j) for j in range(len(rows))),
            -row[width] % p,
            tuple(row[:width]),
            0,
        )
        for i, row in enumerate(rows)
    ]
    result = online(lambda point: spec.zero, records, spec, width)
    if oracles.gaussian_solve(rows, p).status != "inconsistent":
        assert result.status != "inconsistent" and result.suspects == []
        return result
    suspects = oracles.suspects(rows, p)
    names = ", ".join(f"x{i + 1}" for i in suspects)
    assert result.status == "inconsistent" and result.suspects == suspects
    assert result.message == (
        f"records conflict; false maxterm suspected in: {names or 'unknown'}"
    )
    return result


@settings(max_examples=300)
@given(st.sampled_from(REFERENCE_PRIMES), st.data())
def test_online_suspects_match_the_leave_one_out_loop(p, data):
    rows = data.draw(st.one_of(_systems(p), _spanned_systems(p, spoiled=1)))
    if rows:
        _replayed(rows, p)


@pytest.mark.parametrize(
    "rows, suspects",
    [
        # a conflict past the prefix, and the prefix's last row, which
        # reaches full rank: without it the later row takes its place
        ([[1, 0, 5], [0, 1, 3], [0, 1, 4]], [1, 2]),
        # the only conflict inside the prefix, before its last row; the
        # row it repeats is no suspect, since the last row agrees with it
        ([[1, 0, 5], [1, 0, 6], [0, 1, 3], [1, 1, 1]], [1]),
        # below full rank: a conflict past the prefix, and one inside it
        ([[1, 1, 2], [0, 0, 0], [2, 2, 5]], [0, 2]),
        ([[0, 0, 1], [1, 1, 2], [2, 2, 4]], [0]),
        # two conflicts past the prefix: no single row to blame
        ([[1, 0, 5], [0, 1, 3], [0, 1, 4], [1, 0, 6]], []),
    ],
)
def test_online_suspects_inside_and_past_the_prefix(rows, suspects):
    assert _replayed(rows, 7).suspects == suspects


# -- online phase ----------------------------------------------------------------------------


def test_online_recovers_planted_key():
    target, bb = planted_bb(seed=12, degree=4, extras=5)
    result = preprocess(bb, budget=10**6, max_total_mult=3, seed=4)
    assert result.status == "complete"
    outcome = online(
        target.online_oracle(), result.records, target.spec, target.n_sec
    )
    assert outcome.status == "recovered"
    assert outcome.key == target.key


def test_online_empty_records():
    target, _ = planted_bb()
    outcome = online(target.online_oracle(), [], target.spec, target.n_sec)
    assert outcome.status == "empty" and outcome.rank == 0
    assert outcome.assignment == {}


def test_online_partial_rank_reports_solved_subspace():
    target, bb = planted_bb(seed=12, degree=4, extras=5)
    result = preprocess(bb, budget=10**6, max_total_mult=3, seed=4)
    outcome = online(
        target.online_oracle(), result.records[:1], target.spec, target.n_sec
    )
    assert outcome.status == "partial"
    assert outcome.rank == 1
    assert "exhaustive search" in outcome.message


def test_online_flags_corrupted_record():
    target, bb = planted_bb(seed=12, degree=4, extras=5)
    result = preprocess(bb, budget=10**6, max_total_mult=3, seed=4)
    records = list(result.records) + list(result.dependent)
    if len(records) == len(result.records):
        records.append(result.records[0])  # force redundancy
    spoiled = records[0]
    bad_c = list(spoiled.c)
    bad_c[0] = (bad_c[0] + 1) % target.spec.p
    records[0] = MaxtermRecord(
        spoiled.term, spoiled.c0, tuple(bad_c), spoiled.evaluations_used
    )
    outcome = online(target.online_oracle(), records, target.spec, target.n_sec)
    assert outcome.status == "inconsistent"
    assert 0 in outcome.suspects


def test_online_rejects_an_oracle_that_drops_answers():
    class Short:
        def evaluate_grid(self, points):
            return [0] * (len(points) - 1)

    record = MaxtermRecord((1,), 0, (1,), 0)
    with pytest.raises(AttackError, match="answered 1 of 2 points"):
        online(Short(), [record], GF7, 1)


def _cut(record, width):
    c = (record.c + (0,) * width)[:width]
    return MaxtermRecord(record.term, record.c0, c, record.evaluations_used)


@pytest.mark.parametrize("shape", ["narrower", "wider", "mixed"])
def test_online_refuses_records_of_the_wrong_width_before_any_probe(shape):
    # `load_records` checks a record file's widths; records handed to
    # `online` directly are checked there, before the replay probes the key
    target = make_planted(31, 3, 4, 5, 12, 3)
    bb = target.blackbox()
    result = preprocess(bb, 10**6, target.suggested_max_multiplicity, seed=6)
    records = result.records + result.dependent
    n_sec = target.n_sec
    if shape == "narrower":
        records = [_cut(r, n_sec - 1) for r in records]
    elif shape == "wider":
        records = [_cut(r, n_sec + 1) for r in records]
    else:
        records = records[:1] + [_cut(r, n_sec - 1) for r in records[1:]]
    oracle = target.online_oracle()
    with pytest.raises(AttackError, match=f"coefficients for {n_sec} secret"):
        online(oracle, records, target.spec, n_sec)
    assert oracle.evaluations == 0


# -- record files ------------------------------------------------------------------------------


def test_record_file_round_trip(tmp_path):
    target, bb = planted_bb(seed=12, degree=4, extras=5)
    result = preprocess(bb, budget=10**6, max_total_mult=3, seed=4)
    path = tmp_path / "records.txt"
    save_records(path, result.records, spec=bb.spec, n_pub=bb.n_pub,
                 n_sec=bb.n_sec, seed=4)
    loaded, meta = load_records(path)
    assert meta["seed"] == 4
    assert meta["n_pub"] == bb.n_pub and meta["n_sec"] == bb.n_sec
    assert [(r.term, r.c0, r.c, r.evaluations_used) for r in loaded] == [
        (r.term, r.c0, r.c, r.evaluations_used) for r in result.records
    ]
    first = path.read_bytes()
    save_records(path, result.records, spec=bb.spec, n_pub=bb.n_pub,
                 n_sec=bb.n_sec, seed=4)
    assert path.read_bytes() == first


def test_record_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("record term=x1 c0=0 c=1 evals=3\n")
    with pytest.raises(AttackError):
        load_records(path)  # header missing
