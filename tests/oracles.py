"""Code that only the tests call, kept out of the package: ground truth
(`interpolate`), closed forms to check the engine against
(`ext_diff_constant`, `multinomial_mod`, ...), one-term polynomials and
coefficient lookup (`term`, `variable`, `coefficient`), a plan's probe
count (`grid_size`) and one-term entries to the attack's steps. Each wraps
the package's private kernels, which it imports and does not copy, so a
test through it still exercises `src`. The exceptions are references kept
as they were, to check what replaced them against: the whole-matrix
Gauss-Jordan elimination that `field.row_reduce` and `attack.gaussian_solve`
ran before both went through the incremental `field.eliminate`
(`row_reduce`, `gaussian_solve`), `online`'s leave-one-out loop over
fresh solves (`suspects`), and the reduction check before it packed its
component sums (`verify_reduction`, which reads `reduce_pm`'s limits at
call time, so a test's patch of them reaches both; it differences by
`grid_sum` and converts coordinates by the basis-change matrices,
`phi_by_matrix` and `phi_inv_by_matrix`, as the check did before its
tables), the symbolic difference before its step tables kept their
moments and rows across calls (`_apply_tables`, `delta_plan`), which
builds every table and sums every moment afresh, and the grid before it
summed in the log domain and built its points by one product of columns
(`grid_points`, `grid_sum`)."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

from gfdelta.attack import (
    BlackBox,
    MaxtermRecord,
    SolveResult,
    Verdict,
    _linear_form,
    _linearity_verdict,
    _trials,
    superpoly_oracle,
)
from gfdelta import reduce_pm
from gfdelta.combinat import _digit_multinomial, _nonzero_composition_items, digits
from gfdelta.diff import (
    BlackBoxFn,
    DiffError,
    DiffPlan,
    _binomial_row,
    _plan_grid,
    _step_table,
    _term_grid,
)
from gfdelta.field import FieldElement, FieldSpec
from gfdelta.poly import Monomial, MultiPoly, PolyError, _merge, all_points
from gfdelta.reduce_pm import ProjectionContext, ReductionError, ReductionReport


@lru_cache(maxsize=32)
def _inverse_vandermonde(spec: FieldSpec) -> list[list[FieldElement]]:
    """Inverse of the Vandermonde matrix (a^j) over all q field elements a.

    The indicator of a is 1 - (x - a)^(q-1), and (x - a)^(q-1) is
    sum_j a^(q-1-j) x^j because C(q-1, j) = (-1)^j mod p and
    (-1)^(q-1) = 1 in the field. So row 0 reads f(0), and row j >= 1 is
    -a^(q-1-j), with 0^0 = 1.
    """
    pts = list(spec.elements())
    q = len(pts)
    first = [spec.zero if a else spec.one for a in pts]
    return [first] + [[-(a ** (q - 1 - j)) for a in pts] for j in range(1, q)]


def interpolate(spec: FieldSpec, n: int, values) -> MultiPoly:
    """Unique canonical polynomial matching a full function table.

    `values` is a mapping from point tuples to elements, or a callable on
    point tuples. Offered only while order**n stays desk-scale (<= 2^16)
    and so does the q x q inverse Vandermonde table (q^2 <= 2^20).
    """
    q = spec.order
    if q**n > 1 << 16 or q * q > 1 << 20:
        raise PolyError("interpolation domain exceeds the desk-scale cap")
    pts = list(spec.elements())
    lookup: Callable
    if callable(values):
        lookup = values
    else:
        table = dict(values)
        lookup = table.__getitem__
    # tensor of values indexed by point indices, flattened row-major
    data = [spec.element(lookup(pt)) for pt in itertools.product(pts, repeat=n)]
    vinv = _inverse_vandermonde(spec)
    for axis in range(n):
        block = q ** (n - 1 - axis)
        new = [spec.zero] * len(data)
        for base in range(0, len(data), block * q):
            for off in range(block):
                col = [data[base + k * block + off] for k in range(q)]
                for j in range(q):
                    acc = spec.zero
                    row = vinv[j]
                    for k in range(q):
                        if col[k]:
                            acc = acc + row[k] * col[k]
                    new[base + j * block + off] = acc
        data = new
    terms: dict[Monomial, FieldElement] = {}
    for flat, coeff in enumerate(data):
        if not coeff:
            continue
        mono = []
        rem = flat
        for axis in range(n):
            power = q ** (n - 1 - axis)
            mono.append(rem // power)
            rem %= power
        terms[tuple(mono)] = coeff
    return MultiPoly(spec, n, terms)


def term(spec, n, coeff, exponents: Sequence[int]) -> MultiPoly:
    return MultiPoly(spec, n, {tuple(exponents): spec.element(coeff)})


def variable(spec, n, index: int) -> MultiPoly:
    if not 0 <= index < n:
        raise PolyError(f"variable index {index} out of range")
    mono = [0] * n
    mono[index] = 1
    return MultiPoly._raw(spec, n, {tuple(mono): spec.one})


def coefficient(f: MultiPoly, mono: Monomial) -> FieldElement:
    return f._terms.get(tuple(mono), f.spec.zero)


def grid_size(plan: DiffPlan) -> int:
    """Black-box probes needed per evaluation of the planned difference.

    Over GF(p^m), q(p-1)+r basis-block steps on one variable cost
    p^q * (r+1) probes: each full block of p-1 steps b_i spans all of
    GF(p)*b_i, and the last, partial block r+1 offsets.
    """
    return len(_plan_grid(plan).weights)


def ext_diff_constant(
    spec: FieldSpec, exponent: int, steps: Sequence[FieldElement]
) -> FieldElement:
    """The constant multiplying the coefficient of x^exponent after
    differencing len(steps) times with the given steps over GF(p^m).

    Sums multinomial * h_1^{i_1} ... h_k^{i_k} over the carry-free
    compositions; empty (zero) whenever the digit sum of the exponent
    is below the number of steps.
    """
    steps = [spec.element(h) for h in steps]
    k = len(steps)
    if k < 1:
        raise DiffError("at least one step required")
    total = spec.zero
    if exponent < k:
        return total
    for parts, residue in _nonzero_composition_items(
        exponent, exponent, k, spec.p
    ):
        term = spec.element(residue)
        for h, e in zip(steps, parts):
            term = term * h**e
        total = total + term
    return total


def carry_count(parts: Sequence[int], p: int) -> int:
    """Total carry mass when adding all parts in base p.

    A position whose digit sum overflows k*p contributes k, so the result
    equals the p-adic valuation of the multinomial coefficient of the parts.
    """
    if not parts:
        raise ValueError("parts must be nonempty")
    cols = [digits(a, p) for a in parts]
    width = max(len(c) for c in cols)
    carry = 0
    total = 0
    for pos in range(width):
        s = carry + sum(c[pos] for c in cols if pos < len(c))
        carry = s // p
        total += carry
    while carry:
        total += carry // p
        carry //= p
    return total


def binomial_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    return multinomial_mod(n, (k, n - k), p)


def multinomial_mod(d: int, parts: Sequence[int], p: int) -> int:
    """Multinomial coefficient (d; parts) mod p, digit-wise in base p."""
    if any(k < 0 for k in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != d:
        raise ValueError(f"parts {tuple(parts)} do not sum to {d}")
    d_digits = digits(d, p)
    part_digits = [digits(k, p) for k in parts]
    result = 1
    for pos, dd in enumerate(d_digits):
        col = [c[pos] if pos < len(c) else 0 for c in part_digits]
        if sum(col) != dd:
            return 0  # a carry occurs, so p divides the coefficient
        result = result * _digit_multinomial(dd, col, p) % p
    return result


@dataclass(frozen=True)
class Composition:
    """Ordered parts (i_1, ..., i_k), all >= 1, summing to the target."""

    parts: tuple[int, ...]
    target: int

    def __post_init__(self):
        if any(i < 1 for i in self.parts):
            raise ValueError("composition parts must be >= 1")
        if sum(self.parts) != self.target:
            raise ValueError("composition parts must sum to the target")


def nonzero_compositions(d: int, j: int, k: int, p: int) -> Iterator[Composition]:
    """Ordered compositions of j into k positive parts whose multinomial
    coefficient (d; i_1, ..., i_k, d-j) is nonzero modulo p."""
    if not 1 <= k <= j <= d:
        raise ValueError("need 1 <= k <= j <= d")
    for parts, _ in _nonzero_composition_items(d, j, k, p):
        yield Composition(parts, j)


def project_blackbox(
    bb: BlackBoxFn, n: int, ctx: ProjectionContext
) -> list[BlackBoxFn]:
    """The m component functions over GF(p) in m*n coordinate variables."""

    def component(j: int) -> BlackBoxFn:
        prime = ctx.prime

        def fn(coords: tuple[FieldElement, ...]) -> FieldElement:
            value = bb(ctx.phi_inv_point(coords, n))
            return prime.element(ctx.phi(value)[j])

        return fn

    return [component(j) for j in range(ctx.spec.m)]


def linearity_test(
    bb: BlackBox,
    term: Monomial,
    trials: int | None = None,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Verdict:
    """Probabilistic check that the differenced function is affine in the
    secrets: a(f(y)-f(0)) + b(f(z)-f(0)) must equal f(ay+bz)-f(0)."""
    trials = _trials(bb.spec.p, trials)
    if rng is None:
        rng = random.Random(seed)
    oracle = superpoly_oracle(bb, term)
    return _linearity_verdict(oracle, bb.spec.p, bb.n_sec, trials, rng)


def extract_linear(bb: BlackBox, term: Monomial) -> MaxtermRecord:
    """Read off the affine form of the differenced function; costs
    (n_sec + 1) grids."""
    oracle = superpoly_oracle(bb, term)
    before = bb.evaluations
    c0, coeffs = _linear_form(oracle, bb.spec.p, bb.n_sec)
    return MaxtermRecord(tuple(term), c0, coeffs, bb.evaluations - before)



def row_reduce(
    rows: Sequence[Sequence[int]], p: int, width: int | None = None
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows modulo the prime p.

    Pivots are sought only in the first `width` columns (all by default), so
    augmented columns ride along. Returns the reduced rows, pivot rows first
    in pivot order, and the pivot columns; the rank is their count.
    """
    rows = [[v % p for v in row] for row in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(width):
        rank = len(pivots)
        found = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        pivot = rows[rank] = [v * inv % p for v in rows[rank]]
        for r, row in enumerate(rows):
            c = row[col]
            if c and r != rank:
                rows[r] = [(a - c * b) % p for a, b in zip(row, pivot)]
        pivots.append(col)
    return rows, pivots


def gaussian_solve(rows: Sequence[Sequence[int]], p: int) -> SolveResult:
    """Reduced row echelon form over GF(p) with full rank reporting.

    Each row holds residues mod p: its coefficients, then its right-hand
    side. The solution slot holds the unique solution when the system
    determines every variable, or the particular solution with free
    variables at zero when it does not. A pivot variable whose row touches
    no free column is pinned."""
    width = len(rows[0]) - 1 if rows else 0
    reduced, pivots = row_reduce(rows, p, width)
    rank = len(pivots)
    free = tuple(i for i in range(width) if i not in pivots)
    # past the rank a row has no coefficient left: a nonzero right-hand side
    # there reads 0 = b
    if any(row[width] for row in reduced[rank:]):
        return SolveResult("inconsistent", rank, tuple(pivots), free, None, {})
    values = [0] * width
    pinned = {}
    for row, col in zip(reduced, pivots):
        values[col] = row[width]
        if not any(row[i] for i in free):
            pinned[col] = row[width]
    status = "unique" if rank == width else "parametrized"
    return SolveResult(status, rank, tuple(pivots), free, tuple(values), pinned)


def suspects(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """The rows of an inconsistent system without which it is consistent,
    one fresh solve per dropped row."""
    return [
        i
        for i in range(len(rows))
        if gaussian_solve(rows[:i] + rows[i + 1 :], p).status != "inconsistent"
    ]


def grid_points(
    plan: DiffPlan, base: Sequence[FieldElement]
) -> list[tuple[tuple[FieldElement, ...], FieldElement]]:
    """`diff.grid_points` built pair by pair: the product, in plan order,
    of each plan variable's (offset, weight) pairs from `diff._step_table`,
    each point the base with one variable shifted at a time and each weight
    the product of its pairs' weights."""
    spec = plan.spec
    base = [spec.element(v) for v in base]
    tables = [_step_table(spec, steps) for steps in plan.steps]
    points = []
    for combo in itertools.product(*tables):
        point = list(base)
        weight = spec.one
        for var, (off, w) in zip(plan.variables, combo):
            point[var] = point[var] + off
            weight = weight * w
        points.append((tuple(point), weight))
    return points


def grid_sum(bb: BlackBoxFn, plan: DiffPlan, base: Sequence[FieldElement]) -> FieldElement:
    """`diff.blackbox_delta` in element arithmetic: weight * answer added
    one point at a time over `grid_points`, probed in its order."""
    total = plan.spec.zero
    for point, weight in grid_points(plan, base):
        total = total + weight * bb(point)
    return total


def phi_by_matrix(ctx: ProjectionContext, el: FieldElement) -> tuple[int, ...]:
    """`ctx.phi` as one product by the matrix to the context's basis."""
    p = ctx.spec.p
    return tuple(sum(map(mul, row, el.coeffs)) % p for row in ctx._to_coords)


def phi_inv_by_matrix(ctx: ProjectionContext, coords: Sequence[int]) -> FieldElement:
    """`ctx.phi_inv` as one product by the matrix whose columns are the
    basis vectors."""
    spec = ctx.spec
    coords = [int(c) for c in coords]
    return spec.element([sum(map(mul, row, coords)) for row in ctx._from_coords])


def verify_reduction(
    bb: BlackBoxFn,
    n: int,
    r: Sequence[int],
    ctx: ProjectionContext,
    seed: int = 0,
) -> ReductionReport:
    """`reduce_pm.verify_reduction` with its m component sums kept as a
    list per grid point, rebuilt at each point, its extension side summed
    by `grid_sum` and its answers projected by `phi_by_matrix`."""
    spec = ctx.spec
    m, p = spec.m, spec.p
    if len(r) != m or any(not 0 <= ri <= p - 1 for ri in r):
        raise ReductionError(f"need {m} repetition counts in 0..{p - 1}")
    prime = ctx.prime

    steps: list[FieldElement] = []
    for b, ri in zip(ctx.basis, r):
        steps.extend([b] * ri)
    total = len(steps)
    lhs_plan = DiffPlan.make(spec, {0: total} if total else {}, steps)

    answers: dict[tuple[FieldElement, ...], FieldElement] = {}
    probes = 0

    def ask(point: tuple[FieldElement, ...]) -> FieldElement:
        nonlocal probes
        value = answers.get(point)
        if value is None:
            value = answers[point] = bb(point)
            probes += 1
        return value

    # the component grid at the zero base, as residue offsets and weights
    grid = _term_grid(prime, tuple(r) + (0,) * (m * (n - 1)))
    projected: dict[tuple[int, ...], tuple[int, ...]] = {}

    domain = p ** (m * n)
    if domain <= reduce_pm.EXHAUSTIVE_LIMIT:
        points = all_points(prime, m * n)
        exhaustive = True
        count = domain
    else:
        rng = random.Random(seed)
        points = (
            tuple(prime.random_element(rng) for _ in range(m * n))
            for _ in range(reduce_pm.SAMPLES)
        )
        exhaustive = False
        count = reduce_pm.SAMPLES

    mismatches: list[tuple] = []
    checked = 0
    for coords in points:
        checked += 1
        if not exhaustive:
            answers.clear()
            projected.clear()
        ext_point = ctx.phi_inv_point(coords, n)
        lhs_coords = phi_by_matrix(ctx, grid_sum(ask, lhs_plan, ext_point))
        base = [int(c) for c in coords]
        sums = [0] * m
        for offsets, w in zip(grid.residues, grid.weights):
            key = tuple([(c + o) % p for c, o in zip(base, offsets)])
            vec = projected.get(key)
            if vec is None:
                answer = ask(ctx.phi_inv_point(key, n))
                vec = projected[key] = phi_by_matrix(ctx, answer)
            sums = [s + w * v for s, v in zip(sums, vec)]
        for j in range(m):
            rhs_value = sums[j] % p
            if rhs_value != lhs_coords[j]:
                mismatches.append((coords, j, lhs_coords[j], rhs_value))
                if len(mismatches) >= reduce_pm.MAX_MISMATCHES:
                    return ReductionReport(
                        False, checked, exhaustive, mismatches, probes
                    )
    assert checked == count
    return ReductionReport(not mismatches, checked, exhaustive, mismatches, probes)


def _apply_tables(
    f: MultiPoly,
    tables: Mapping[int, tuple[list[tuple[FieldElement, FieldElement]], int]],
) -> MultiPoly:
    """Sum w * f(x + o*e_i) over each table's pairs (o, w), every variable
    at once. A table from r steps has zero moment M(d) wherever the base-p
    digit sum of d is below r, since r differences annihilate x^d there
    (the bound `combinat.degree_after_diff` reads), so such a moment is
    skipped, not summed over the table. The digit sum of d = e - k comes
    from the binomial row of e, as S_p(e) - S_p(k).

    A row's moments not yet known are summed together, each offset raised
    to their exponents in increasing order: the first is one power, and
    each next o^d is o^d' for the exponent d' before it times o^(d - d'),
    one product for a gap of 1 and one power of the gap otherwise. Above
    the table limit a dense row, such as the 2^16 moments of x^65535 over
    GF(2^20), costs one product per offset and moment, where a power of
    each exponent costs one square-and-multiply, and a sparse one, such as
    x^(2^19 + 1), one power per gap."""
    spec = f.spec
    p = spec.p
    zero = spec.zero
    rows: dict[tuple[int, int], list[tuple[int, FieldElement]]] = {}
    # per table variable: its offsets, its weights, its step count and its
    # moments so far by exponent
    split = {
        i: ([o for o, _ in table], [w for _, w in table], low, {})
        for i, (table, low) in tables.items()
    }

    def row(i: int, e: int) -> list[tuple[int, FieldElement]]:
        offsets, weights, low, known = split[i]
        full = _binomial_row(e, p)
        top = full[-1][2] - low  # the last entry is k = e, with S_p(e)
        binomials = [(k, c) for k, c, s in full if s <= top]
        needed = sorted(e - k for k, _ in binomials if e - k not in known)
        if needed:
            prev = needed[0]
            powers = [o**prev for o in offsets]
            known[prev] = sum(map(mul, weights, powers), zero)
            for d in needed[1:]:
                gap = d - prev
                steps = offsets if gap == 1 else [o**gap for o in offsets]
                powers = list(map(mul, powers, steps))
                known[d] = sum(map(mul, weights, powers), zero)
                prev = d
        return [
            (k, spec.element(c) * known[e - k]) for k, c in binomials if known[e - k]
        ]

    out: dict[Monomial, FieldElement] = {}
    for mono, coeff in f._terms.items():
        # x_i^e -> sum over k of C(e, k) M_i(e - k) x_i^k; the monomials of
        # one term are distinct, so only sums across terms can cancel
        partial = [(mono, coeff)]
        for i in tables:
            e = mono[i]
            r = rows.get((i, e))
            if r is None:
                r = rows[(i, e)] = row(i, e)
            partial = [
                (m[:i] + (k,) + m[i + 1 :], c * w) for m, c in partial for k, w in r
            ]
        _merge(out, partial)
    return MultiPoly._raw(spec, f.n, out)


def delta_plan(f: MultiPoly, plan: DiffPlan) -> MultiPoly:
    """Repeated differences per the plan, in one pass over f.

    Each plan variable's `_step_table` is the list of pairs (o, w) that
    `blackbox_delta` sums, so x_i^e maps to sum over k of
    C(e, k) M(e - k) x_i^k with moments M(d) = sum of w * o^d (0^0 = 1),
    and M(d) = 0 where the base-p digit sum of d is below the variable's
    step count.
    """
    if plan.spec != f.spec:
        raise DiffError("plan and polynomial fields differ")
    for var in plan.variables:
        if var >= f.n:
            raise DiffError(f"plan variable x{var + 1} outside the polynomial")
    tables = {
        var: (_step_table(f.spec, steps), len(steps))
        for var, steps in zip(plan.variables, plan.steps)
    }
    return _apply_tables(f, tables)
