import itertools
import random

import pytest

from gfdelta.combinat import digit_sum
from gfdelta.diff import DiffPlan, blackbox_delta, grid_points
from gfdelta.field import ExtFieldSpec, basis_elements, prime_field
from gfdelta.poly import MultiPoly, all_points, parse_poly, random_poly
from gfdelta.reduce_pm import (
    ProjectionContext,
    ReductionError,
    component_degree_bound,
    verify_reduction,
)

import oracles
from conftest import GF4, GF8, GF9, GF27
from oracles import interpolate, project_blackbox, term, variable


def wrap(f):
    return lambda point: f.evaluate(point)


# -- the coordinate isomorphism -------------------------------------------------


def test_phi_is_additive_bijection_exhaustive():
    for spec in (GF4, GF9, GF8):
        ctx = ProjectionContext.for_spec(spec)
        seen = set()
        for el in spec.elements():
            coords = ctx.phi(el)
            assert ctx.phi_inv(coords) == el
            seen.add(coords)
        assert len(seen) == spec.order
        for x, y in itertools.product(spec.elements(), repeat=2):
            lhs = ctx.phi(x + y)
            rhs = tuple(
                (a + b) % spec.p for a, b in zip(ctx.phi(x), ctx.phi(y))
            )
            assert lhs == rhs


def test_phi_supports_nonstandard_bases():
    a = GF4.generator
    ctx = ProjectionContext.for_spec(GF4, basis=[GF4.one, a + 1])
    for el in GF4.elements():
        assert ctx.phi_inv(ctx.phi(el)) == el
    with pytest.raises(ReductionError):
        ProjectionContext.for_spec(GF4, basis=[GF4.one, GF4.one])


def _drawn_basis(spec, rng):
    """A basis of spec over GF(p) other than the polynomial basis."""
    while True:
        basis = [spec.random_element(rng, nonzero=True) for _ in range(spec.m)]
        if basis == basis_elements(spec):
            continue
        try:
            return ProjectionContext.for_spec(spec, basis)
        except ReductionError:
            continue


@pytest.mark.parametrize("spec", [GF4, GF8, GF9, GF27], ids=repr)
@pytest.mark.parametrize("drawn", [False, True], ids=["polynomial", "drawn"])
def test_phi_and_phi_inv_are_inverse_and_additive_everywhere(spec, drawn):
    ctx = ProjectionContext.for_spec(spec)
    if drawn:
        ctx = _drawn_basis(spec, random.Random(spec.order))
    p, m = spec.p, spec.m
    units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    assert [ctx.phi(b) for b in ctx.basis] == units
    elements = list(spec.elements())
    vectors = [ctx.phi(el) for el in elements]
    assert sorted(vectors) == sorted(itertools.product(range(p), repeat=m))
    for el, vec in zip(elements, vectors):
        assert ctx.phi_inv(vec) is spec.element(el)
        # coordinates as GF(p) elements or out-of-range ints read mod p
        assert ctx.phi_inv([ctx.prime.element(c) for c in vec]) == el
        assert ctx.phi_inv([c + p for c in vec]) == el
    for (x, u), (y, v) in itertools.product(zip(elements, vectors), repeat=2):
        w = tuple((a + b) % p for a, b in zip(u, v))
        assert ctx.phi(x + y) == w
        assert ctx.phi_inv(w) == x + y


def test_point_flattening_round_trips():
    ctx = ProjectionContext.for_spec(GF9)
    rng = random.Random(4)
    for _ in range(20):
        point = tuple(GF9.random_element(rng) for _ in range(3))
        flat = tuple(ctx.prime.element(c) for v in point for c in ctx.phi(v))
        assert len(flat) == 6
        assert ctx.phi_inv_point(flat, 3) == point


# -- component functions ---------------------------------------------------------


def test_projection_of_identity_gives_coordinate_functions():
    ctx = ProjectionContext.for_spec(GF4)
    prime = prime_field(2)
    components = project_blackbox(lambda pt: pt[0], 1, ctx)
    for coords in all_points(prime, 2):
        for j in (0, 1):
            assert components[j](coords) == coords[j]


def test_projection_of_constant():
    ctx = ProjectionContext.for_spec(GF9)
    c = GF9.element((2, 1))
    components = project_blackbox(lambda pt: c, 1, ctx)
    prime = prime_field(3)
    for coords in all_points(prime, 2):
        assert components[0](coords) == prime.element(2)
        assert components[1](coords) == prime.element(1)


def test_projection_of_squaring_over_gf4():
    # oracle: square every element directly and project the table
    ctx = ProjectionContext.for_spec(GF4)
    prime = prime_field(2)
    f = parse_poly("x1^2", GF4)
    components = project_blackbox(wrap(f), 1, ctx)
    for el in GF4.elements():
        coords = tuple(prime.element(c) for c in ctx.phi(el))
        expected = ctx.phi(el * el)
        for j in (0, 1):
            assert int(components[j](coords)) == expected[j]


# -- the reduction theorem --------------------------------------------------------


def test_reduction_base_case_single_step(rng):
    for _ in range(10):
        f = random_poly(GF4, 1, 3, 3, rng=rng)
        ctx = ProjectionContext.for_spec(GF4)
        report = verify_reduction(wrap(f), 1, (1, 0), ctx)
        assert report.ok and report.exhaustive and report.points_checked == 4


def test_reduction_trivial_r_vector(rng):
    f = random_poly(GF9, 1, 8, 4, rng=rng)
    ctx = ProjectionContext.for_spec(GF9)
    report = verify_reduction(wrap(f), 1, (0, 0), ctx)
    assert report.ok


def test_reduction_all_r_vectors_exhaustive(rng):
    for spec in (GF4, GF9):
        ctx = ProjectionContext.for_spec(spec)
        p, m = spec.p, spec.m
        for _ in range(8):
            f = random_poly(spec, 1, spec.order - 1, 4, rng=rng)
            for r in itertools.product(range(p), repeat=m):
                assert verify_reduction(wrap(f), 1, r, ctx).ok


def test_reduction_two_variables_sampled(rng, monkeypatch):
    monkeypatch.setattr("gfdelta.reduce_pm.SAMPLES", 200)
    monkeypatch.setattr("gfdelta.reduce_pm.EXHAUSTIVE_LIMIT", 64)
    for spec in (GF4, GF9):
        ctx = ProjectionContext.for_spec(spec)
        f = random_poly(spec, 2, spec.order - 1, 5, rng=rng)
        r = tuple(
            rng.randint(0, spec.p - 1) for _ in range(spec.m)
        )
        report = verify_reduction(wrap(f), 2, r, ctx, seed=7)
        assert report.ok


def test_reduction_full_blocks_on_witness():
    # the non-collapsing product polynomial stays a nonzero constant on
    # both sides when every block is used p-1 times
    for spec in (GF4, GF9):
        x = variable(spec, 1, 0)
        f = MultiPoly.constant(spec, 1, 1)
        for el in spec.elements():
            if el:
                f = f * (x - MultiPoly.constant(spec, 1, el))
        ctx = ProjectionContext.for_spec(spec)
        r = (spec.p - 1,) * spec.m
        assert verify_reduction(wrap(f), 1, r, ctx).ok
        steps = []
        for b, ri in zip(ctx.basis, r):
            steps.extend([b] * ri)
        plan = DiffPlan.make(spec, {0: len(steps)}, steps)
        value = blackbox_delta(wrap(f), plan, (spec.zero,))
        assert value != spec.zero


class SwappedContext(ProjectionContext):
    """Coordinates with from_index(1) and from_index(4) swapped in phi_inv
    (GF(8) and GF(9) here): a bijection that is not additive."""

    def phi_inv(self, coords):
        el = super().phi_inv(coords)
        a, b = self.spec.from_index(1), self.spec.from_index(4)
        return b if el == a else a if el == b else el


def test_reduction_detects_wrong_pairings():
    ctx = ProjectionContext.for_spec(GF4)
    f = parse_poly("x1^2 + (a)*x1", GF4)
    good = verify_reduction(wrap(f), 1, (1, 0), ctx)
    assert good.ok

    # the reduction holds for every function, so only a non-additive
    # coordinate map can break it
    bad = verify_reduction(
        wrap(parse_poly("x1^2", GF9)), 1, (1, 0), SwappedContext.for_spec(GF9)
    )
    assert bad.ok is False
    assert bad.points_checked == 5
    assert len(bad.mismatches) == 5
    as_ints = [
        (tuple(int(c) for c in coords), j, lhs, rhs)
        for coords, j, lhs, rhs in bad.mismatches[:2]
    ]
    assert as_ints == [((0, 0), 0, 1, 2), ((0, 1), 0, 1, 0)]


def counting_box(f):
    probed = []

    def bb(point):
        probed.append(point)
        return f.evaluate(point)

    return bb, probed


def test_reduction_asks_each_point_once_exhaustive():
    # with r = (p-1, ..., p-1) every grid covers the whole field, so one
    # table answers the whole domain
    for spec in (GF4, GF8, GF9):
        ctx = ProjectionContext.for_spec(spec)
        bb, probed = counting_box(parse_poly("x1^3 + x1", spec))
        report = verify_reduction(bb, 1, (spec.p - 1,) * spec.m, ctx)
        assert report.ok and report.exhaustive
        assert report.points_checked == spec.order
        assert len(probed) == len(set(probed)) == spec.order
        assert report.probes == len(probed)


def test_reduction_asks_each_grid_point_once_per_sample(monkeypatch):
    monkeypatch.setattr("gfdelta.reduce_pm.SAMPLES", 50)
    monkeypatch.setattr("gfdelta.reduce_pm.EXHAUSTIVE_LIMIT", 64)
    f = parse_poly("x1^2*x2 + x2^3", GF9)
    ctx = ProjectionContext.for_spec(GF9)
    bb, probed = counting_box(f)
    report = verify_reduction(bb, 2, (2, 1), ctx, seed=3)
    assert report.ok and not report.exhaustive and report.points_checked == 50
    assert len(probed) == 300
    assert report.probes == len(probed)

    # the same sample stream and the same extension-side grids as before
    steps = [ctx.basis[0]] * 2 + [ctx.basis[1]]
    plan = DiffPlan.make(GF9, {0: 3}, steps)
    prime = prime_field(3)
    rng = random.Random(3)
    expected = set()
    for _ in range(50):
        coords = tuple(prime.random_element(rng) for _ in range(4))
        grid = [pt for pt, _ in grid_points(plan, ctx.phi_inv_point(coords, 2))]
        assert len(set(grid)) == 6
        expected.update(grid)
    assert set(probed) == expected


@pytest.mark.parametrize("spec", [GF4, GF8, GF9])
@pytest.mark.parametrize("n", [1, 2])
def test_check_sums_equal_projected_component_differences(spec, n, monkeypatch):
    # project_blackbox's components, differenced one at a time, are the
    # reference for the check's one-pass sums: a reported mismatch carries
    # the sum, and every unreported component equals the extension side
    monkeypatch.setattr("gfdelta.reduce_pm.SAMPLES", 20)
    monkeypatch.setattr("gfdelta.reduce_pm.EXHAUSTIVE_LIMIT", 0)
    monkeypatch.setattr("gfdelta.reduce_pm.MAX_MISMATCHES", 10**6)
    rng = random.Random(10 * spec.order + n)
    prime = prime_field(spec.p)
    contexts = [ProjectionContext.for_spec(spec)]
    if spec.order > 4:
        contexts.append(SwappedContext.for_spec(spec))
    for ctx in contexts:
        mismatched = 0
        for _ in range(4):
            bb = wrap(random_poly(spec, n, spec.order - 1, 5, rng=rng))
            r = tuple(rng.randint(0, spec.p - 1) for _ in range(spec.m))
            seed = rng.randrange(1 << 20)
            report = verify_reduction(bb, n, r, ctx, seed=seed)
            steps = [b for b, ri in zip(ctx.basis, r) for _ in range(ri)]
            ext_plan = DiffPlan.make(spec, {0: len(steps)} if steps else {}, steps)
            plan = DiffPlan.make(prime, {i: ri for i, ri in enumerate(r) if ri})
            components = project_blackbox(bb, n, ctx)
            sample = random.Random(seed)
            expected = []
            for _ in range(20):
                coords = tuple(prime.random_element(sample) for _ in range(spec.m * n))
                ext_point = ctx.phi_inv_point(coords, n)
                lhs = ctx.phi(blackbox_delta(bb, ext_plan, ext_point))
                for j, component in enumerate(components):
                    rhs = int(blackbox_delta(component, plan, coords))
                    if rhs != lhs[j]:
                        expected.append((coords, j, lhs[j], rhs))
            assert report.points_checked == 20 and not report.exhaustive
            assert report.mismatches == expected
            assert report.ok == (not expected)
            mismatched += len(expected)
        assert (mismatched > 0) == isinstance(ctx, SwappedContext)


def test_reduction_rejects_bad_r():
    ctx = ProjectionContext.for_spec(GF9)
    with pytest.raises(ReductionError):
        verify_reduction(lambda pt: GF9.zero, 1, (3, 0), ctx)
    with pytest.raises(ReductionError):
        verify_reduction(lambda pt: GF9.zero, 1, (1,), ctx)


# -- degree bounds ----------------------------------------------------------------


def test_component_degree_bound_examples():
    f = parse_poly("x1^5", GF9)
    assert component_degree_bound(f, 0) == 3  # 5 = 12 in base 3
    linear = parse_poly("x1 + (a)*x2", GF9)
    assert component_degree_bound(linear, 0) == 1
    top = term(GF9, 1, 1, (GF9.order - 1,))
    assert component_degree_bound(top, 0) == GF9.m * (GF9.p - 1)


def test_interpolated_components_respect_digit_sum_bound():
    for spec in (GF9, GF8):
        ctx = ProjectionContext.for_spec(spec)
        prime = prime_field(spec.p)
        for d in range(1, spec.order):
            f = term(spec, 1, 1, (d,))
            bound = component_degree_bound(f, 0)
            components = project_blackbox(wrap(f), 1, ctx)
            for comp in components:
                symbolic = interpolate(prime, spec.m, lambda pt: comp(pt))
                assert symbolic.degrees().total <= bound


# -- the packed check against the unpacked one ------------------------------------


@pytest.mark.parametrize("spec", [GF4, GF8, GF9], ids=repr)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_reports_equal_the_unpacked_check(spec, n, mode, monkeypatch):
    # every field of every report, mismatches and the MAX_MISMATCHES cut
    # included, and the same calls to the box in the same order
    if mode == "sampled":
        monkeypatch.setattr("gfdelta.reduce_pm.SAMPLES", 25)
        monkeypatch.setattr("gfdelta.reduce_pm.EXHAUSTIVE_LIMIT", 0)
    rng = random.Random(100 * spec.order + n)
    contexts = [ProjectionContext.for_spec(spec), _drawn_basis(spec, rng)]
    if spec.order > 4:
        contexts.append(SwappedContext.for_spec(spec))
    cut = False
    for ctx, limit in itertools.product(contexts, (5, 10**6)):
        monkeypatch.setattr("gfdelta.reduce_pm.MAX_MISMATCHES", limit)
        f = random_poly(spec, n, spec.order - 1, 5, rng=rng)
        bb, probed = counting_box(f)
        ref_bb, ref_probed = counting_box(f)
        rs = [tuple(rng.randrange(spec.p) for _ in range(spec.m)) for _ in range(3)]
        for r in rs + [(spec.p - 1,) * spec.m]:
            seed = rng.randrange(1 << 20)
            report = verify_reduction(bb, n, r, ctx, seed=seed)
            want = oracles.verify_reduction(ref_bb, n, r, ctx, seed=seed)
            assert vars(report) == vars(want)
            assert report.exhaustive == (mode == "exhaustive")
            cut |= limit == 5 and len(report.mismatches) == 5
        assert probed == ref_probed
    assert cut == (spec.order > 4)


def test_packed_sums_take_wide_slots_past_the_table_limit(monkeypatch):
    # GF((2^32 - 5)^2), modulus x^2 - 2, computes on coordinates; r = (1, 1)
    # sums two answers weighted p - 1 at each point, often past 2^64, so a
    # lane must be wider than 8 bytes
    monkeypatch.setattr("gfdelta.reduce_pm.SAMPLES", 40)
    p = 2**32 - 5
    spec = ExtFieldSpec(p, 2, (1, 0, p - 2))
    assert spec._tables is None
    f = parse_poly("x1^3 + (a)*x1^2 + 5*x1 + (a)", spec)
    contexts = (ProjectionContext.for_spec(spec), _drawn_basis(spec, random.Random(5)))
    for ctx in contexts:
        report = verify_reduction(f.evaluate, 1, (1, 1), ctx, seed=1)
        want = oracles.verify_reduction(f.evaluate, 1, (1, 1), ctx, seed=1)
        assert vars(report) == vars(want)
        assert report.ok and not report.exhaustive
        assert (report.points_checked, report.probes) == (40, 160)
