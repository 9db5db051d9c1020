"""Finite-difference operators over GF(p) and GF(p^m).

Two routes to the same object: `delta` / `delta_plan` rewrite a symbolic
polynomial, while `blackbox_delta` evaluates the difference of an opaque
function as a weighted sum over a small grid of shifted points. One table
engine serves both: `_step_table` builds each variable's offsets and weights
into a `StepTable`, the grid sums them, and `delta_plan` rewrites every term
in one pass through the same table's moments and binomial rows. Over a field
with log tables a `StepTable` is kept per (field, steps) with the moments
and rows filled so far, so equal plans, and the grid, read one table; above
the table limit its moments live for one call. Shift operators commute, so
the steps on one variable group into runs of equal steps, in any order. A
run of r steps h needs at most r+1 probes, at offsets 0, h, ..., r*h with
signed binomial weights (-1)^(r-j) C(r, j) mod p; runs of distinct steps,
such as the basis-block sequence over extension fields, convolve. This
module is also home to the one residue grid of a unit-step term over GF(p),
`_term_grid`, cached once per term: the cube attack sums it for each term,
and the GF(p^m) reduction check for its component differences."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .combinat import diff_coefficient, digits
from .field import FieldElement, FieldSpec, basis_elements
from .poly import Monomial, MultiPoly, PolyError, _merge, parse_monomial

BlackBoxFn = Callable[[tuple[FieldElement, ...]], FieldElement]


class DiffError(ValueError):
    pass


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class DiffPlan:
    """Which variables to difference, how many times, and with what steps.

    Steps hold one nonzero element per application. Over GF(p) each variable
    supports at most p-1 applications; over GF(p^m) at most m(p-1), with the
    basis-block sequence as the default. The hash is computed once, at
    construction, so a cache keyed by plans (`_grid_entries`) rehashes no
    step.
    """

    spec: FieldSpec
    variables: tuple[int, ...]
    multiplicities: tuple[int, ...]
    steps: tuple[tuple[FieldElement, ...], ...]

    def __post_init__(self):
        if len(self.variables) != len(set(self.variables)):
            raise DiffError("plan variables must be distinct")
        if len(self.multiplicities) != len(self.variables) or len(self.steps) != len(
            self.variables
        ):
            raise DiffError("plan fields must align")
        for mult, steps in zip(self.multiplicities, self.steps):
            _check_multiplicity(self.spec, mult)
            if len(steps) != mult:
                raise DiffError("each application needs one step")
            for h in steps:
                if not h:
                    raise DiffError("steps must be nonzero")
        object.__setattr__(
            self,
            "_hash",
            hash((self.spec, self.variables, self.multiplicities, self.steps)),
        )

    def __hash__(self):
        return self._hash

    @classmethod
    def make(
        cls,
        spec: FieldSpec,
        term: Mapping[int, int],
        steps: Sequence[FieldElement] | None = None,
    ) -> "DiffPlan":
        """Build a plan from {variable: multiplicity}; default steps are all
        ones over GF(p) and the basis-block sequence over GF(p^m). Explicit
        steps are given flat, in plan order."""
        pairs = sorted(term.items())
        variables = tuple(v for v, _ in pairs)
        mults = tuple(m for _, m in pairs)
        for m in mults:
            _check_multiplicity(spec, m)
        per_var: list[tuple[FieldElement, ...]] = []
        if steps is None:
            for m in mults:
                per_var.append(basis_step_sequence(spec, m))
        else:
            flat = [spec.element(h) for h in steps]
            if len(flat) != sum(mults):
                raise DiffError(
                    f"expected {sum(mults)} steps, got {len(flat)}"
                )
            pos = 0
            for m in mults:
                per_var.append(tuple(flat[pos : pos + m]))
                pos += m
        return cls(spec, variables, mults, tuple(per_var))


def _check_multiplicity(spec: FieldSpec, mult: int) -> None:
    cap = spec.m * (spec.p - 1)
    if mult < 1:
        raise DiffError("multiplicities must be >= 1")
    if mult > cap:
        raise DiffError(f"multiplicity {mult} exceeds the field bound {cap}")


# the most offsets a plan variable's step table may hold when the plan is
# text: the table is built in full (x1^18 over GF(2^20) took 5 s and 207 MB)
PLAN_TABLE_LIMIT = 1 << 16


def parse_plan(
    text: str, spec: FieldSpec, steps: Sequence[FieldElement] | None = None
) -> DiffPlan:
    """Parse plan text in term syntax, e.g. 'x1^2*x3'. DiffError if a
    variable's step table may hold more than `PLAN_TABLE_LIMIT` offsets,
    min(prod(r + 1), q) over its runs of r equal steps; k steps make at
    least min(k + 1, q), so a long plan is refused before its steps exist."""
    try:
        mono = parse_monomial(text)
    except PolyError as exc:
        raise DiffError(f"bad plan: {exc}") from None
    if not any(mono):
        raise DiffError("a plan differences at least one variable")
    term = {i: m for i, m in enumerate(mono) if m}

    def check(runs_per_var: Iterable[Iterable[int]]) -> None:
        for var, runs in zip(term, runs_per_var):
            if min(prod(r + 1 for r in runs), spec.order) > PLAN_TABLE_LIMIT:
                raise DiffError(
                    f"plan variable x{var + 1} may need more than "
                    f"{PLAN_TABLE_LIMIT} grid offsets"
                )

    for mult in term.values():
        _check_multiplicity(spec, mult)
    check([m] for m in term.values())
    plan = DiffPlan.make(spec, term, steps)
    check(Counter(s).values() for s in plan.steps)
    return plan


# the most terms a difference of polynomial text may hold: `delta_plan`
# builds one term per nonzero binomial C(e, k) mod p of each exponent e
# before any merge (x1^200000 over GF(10^9 + 7) took 4.0 s and 204 MB)
DELTA_TERM_LIMIT = 1 << 18


def check_delta_size(f: MultiPoly, plan: DiffPlan) -> None:
    """DiffError if `delta_plan(f, plan)` may hold more than
    `DELTA_TERM_LIMIT` terms, before any binomial row is built. A term of
    f makes at most the product, over the plan variables, of the nonzero
    binomials C(e, k) mod p of its exponent e, which is prod(d + 1) over
    the base-p digits d of e (Lucas); the bound sums these over f's terms.
    The plan variables must lie inside f."""
    p = f.spec.p
    rows: dict[int, int] = {}
    total = 0
    for mono in f._terms:
        size = 1
        for var in plan.variables:
            e = mono[var]
            if e not in rows:
                rows[e] = prod(d + 1 for d in digits(e, p))
            size *= rows[e]
        total += size
        if total > DELTA_TERM_LIMIT:
            raise DiffError(
                f"the difference may hold more than {DELTA_TERM_LIMIT} terms"
            )


def basis_step_sequence(spec: FieldSpec, count: int) -> tuple[FieldElement, ...]:
    """First `count` entries of b_0 x(p-1), b_1 x(p-1), ...; all ones over GF(p)."""
    cap = spec.m * (spec.p - 1)
    if not 1 <= count <= cap:
        raise DiffError(f"step count must lie in 1..{cap}")
    basis = basis_elements(spec)
    seq = []
    for b in basis:
        seq.extend([b] * min(spec.p - 1, count - len(seq)))
    return tuple(seq)


# ---------------------------------------------------------------------------
# symbolic differencing


def delta(f: MultiPoly, a: Sequence[FieldElement]) -> MultiPoly:
    """The finite difference f(x + a) - f(x)."""
    spec = f.spec
    a = [spec.element(v) for v in a]
    if len(a) != f.n:
        raise DiffError("difference vector width mismatch")
    if not any(a):
        raise DiffError("difference vector must be nonzero")
    shift = {i: StepTable(spec, [(ai, spec.one)], 0) for i, ai in enumerate(a) if ai}
    return _apply_tables(f, shift) - f


def _binomial_row(e: int, p: int) -> tuple[tuple[int, int, int], ...]:
    """The triples (j, C(e, j) mod p, S_p(j)) with a nonzero binomial, in
    increasing j, by Lucas: the product of one row per base-p digit d of e,
    each built as C(d, j+1) = C(d, j) * (d - j) / (j + 1) mod p, in O(d)
    steps. Each digit of such a j is at most e's, so e - j subtracts digit
    by digit and S_p(e - j) = S_p(e) - S_p(j)."""
    row, place = [(0, 1, 0)], 1
    for d in digits(e, p):
        digit = [1]
        for j in range(d):
            digit.append(digit[-1] * (d - j) * pow(j + 1, -1, p) % p)
        row = [
            (k + j * place, c * w % p, s + j)
            for j, w in enumerate(digit)
            for k, c, s in row
        ]
        place *= p
    return tuple(row)


class StepTable:
    """One variable's table of pairs (o, w), as offsets and weights, with
    the count of steps it differences by: the grid sums w * f(x + o*e_i)
    over it, and the symbolic route maps x_i^e to its row, the pairs
    (k, C(e, k) M(e - k)) with a nonzero product, through the moments
    M(d) = sum of w * o^d (0^0 = 1). Moments and rows are filled as rows
    are asked for and kept on the table.

    r steps annihilate x^d wherever the base-p digit sum of d is below r
    (the bound `combinat.degree_after_diff` reads), so such a moment is
    zero and is skipped, not summed over the table. The digit sum of
    d = e - k comes from the binomial row of e, as S_p(e) - S_p(k).

    A row's moments not yet known are summed together, each offset raised
    to their exponents in increasing order: the first is one power, and
    each next o^d is o^d' for the exponent d' before it times o^(d - d'),
    one product for a gap of 1 and one power of the gap otherwise. Above
    the table limit a dense row, such as the 2^16 moments of x^65535 over
    GF(2^20), costs one product per offset and moment, where a power of
    each exponent costs one square-and-multiply, and a sparse one, such as
    x^(2^19 + 1), one power per gap."""

    __slots__ = ("spec", "offsets", "weights", "low", "moments", "rows")

    def __init__(
        self,
        spec: FieldSpec,
        pairs: Sequence[tuple[FieldElement, FieldElement]],
        low: int,
    ):
        self.spec = spec
        self.offsets = tuple(o for o, _ in pairs)
        self.weights = tuple(w for _, w in pairs)
        self.low = low
        self.moments: dict[int, FieldElement] = {}
        self.rows: dict[int, tuple[tuple[int, FieldElement], ...]] = {}

    def row(self, e: int) -> tuple[tuple[int, FieldElement], ...]:
        """The pairs (k, C(e, k) M(e - k)) with a nonzero product, in
        increasing k, built once per exponent."""
        r = self.rows.get(e)
        if r is None:
            r = self.rows[e] = self._build_row(e)
        return r

    def _build_row(self, e: int) -> tuple[tuple[int, FieldElement], ...]:
        spec = self.spec
        known = self.moments
        full = _binomial_row(e, spec.p)
        top = full[-1][2] - self.low  # the last entry is k = e, with S_p(e)
        binomials = [(k, c) for k, c, s in full if s <= top]
        needed = sorted(e - k for k, _ in binomials if e - k not in known)
        if needed:
            offsets, weights, zero = self.offsets, self.weights, spec.zero
            prev = needed[0]
            powers = [o**prev for o in offsets]
            known[prev] = sum(map(mul, weights, powers), zero)
            for d in needed[1:]:
                gap = d - prev
                steps = offsets if gap == 1 else [o**gap for o in offsets]
                powers = list(map(mul, powers, steps))
                known[d] = sum(map(mul, weights, powers), zero)
                prev = d
        return tuple(
            (k, spec.element(c) * known[e - k]) for k, c in binomials if known[e - k]
        )


def _apply_tables(f: MultiPoly, tables: Mapping[int, StepTable]) -> MultiPoly:
    """Sum w * f(x + o*e_i) over each table's pairs (o, w), every variable
    at once: x_i^e becomes the row of e in variable i's table. A table
    kept across calls (`_plan_table`) hands later calls its rows as they
    stand."""
    out: dict[Monomial, FieldElement] = {}
    for mono, coeff in f._terms.items():
        # x_i^e -> sum over k of C(e, k) M_i(e - k) x_i^k; the monomials of
        # one term are distinct, so only sums across terms can cancel
        partial = [(mono, coeff)]
        for i, table in tables.items():
            r = table.row(mono[i])
            partial = [
                (m[:i] + (k,) + m[i + 1 :], c * w) for m, c in partial for k, w in r
            ]
        _merge(out, partial)
    return MultiPoly._raw(f.spec, f.n, out)


def delta_plan(f: MultiPoly, plan: DiffPlan) -> MultiPoly:
    """Repeated differences per the plan, in one pass over f.

    Each plan variable's `StepTable` holds the pairs (o, w) that
    `blackbox_delta` sums, so x_i^e maps to sum over k of
    C(e, k) M(e - k) x_i^k with moments M(d) = sum of w * o^d (0^0 = 1),
    and M(d) = 0 where the base-p digit sum of d is below the variable's
    step count. Over a field with log tables the step table, its moments
    and its rows are kept per (field, steps) and serve every later plan
    with those steps, the grid's included; above the table limit they
    live for one call.
    """
    if plan.spec is not f.spec:
        raise DiffError("plan and polynomial fields differ")
    for var in plan.variables:
        if var >= f.n:
            raise DiffError(f"plan variable x{var + 1} outside the polynomial")
    tables = {
        var: _plan_table(f.spec, steps)
        for var, steps in zip(plan.variables, plan.steps)
    }
    return _apply_tables(f, tables)


# ---------------------------------------------------------------------------
# grid (black-box) differencing


def _step_table(
    spec: FieldSpec, steps: tuple[FieldElement, ...]
) -> list[tuple[FieldElement, FieldElement]]:
    """Offsets and folded signed weights for differencing one variable.

    Differences commute, so equal steps group into runs. A run of r steps h
    is the signed binomial grid: offsets j*h with weights (-1)^(r-j) C(r, j)
    mod p. Runs of distinct steps are convolved; offsets that collide in the
    field merge, and weights that vanish mod p drop out, so differencing p
    times with equal steps yields an empty table (the zero functional).
    """
    p = spec.p
    table: dict[FieldElement, int] = {spec.zero: 1}
    for h in dict.fromkeys(steps):
        r = steps.count(h)
        run = [(h * j, -w if (r - j) & 1 else w) for j, w, _ in _binomial_row(r, p)]
        new: dict[FieldElement, int] = {}
        for off, v in table.items():
            for shift, w in run:
                key = off + shift
                new[key] = (new.get(key, 0) + v * w) % p
        table = {off: w for off, w in new.items() if w}
    out = [(off, spec.element(w)) for off, w in table.items()]
    out.sort(key=lambda item: spec.index_of(item[0]))
    return out


@lru_cache(maxsize=1024)
def _kept_table(spec: FieldSpec, steps: tuple[FieldElement, ...]) -> StepTable:
    return StepTable(spec, _step_table(spec, steps), len(steps))


def _plan_table(spec: FieldSpec, steps: tuple[FieldElement, ...]) -> StepTable:
    """The `StepTable` of one plan variable's steps. Over a field with log
    tables it is built once per (spec, steps) and kept with its moments
    and rows: elements are interned there and exponents lie below
    q <= LOG_TABLE_LIMIT, so a table holds at most q moments and q rows,
    but not small rows: x^e's has up to prod(d + 1) entries over the
    base-p digits d of e, all q rows up to q((p + 1)/2)^m, so q(q + 1)/2
    over GF(p) (8.4 million at GF(4093)). Above the limit nothing bounds
    the exponents a call may ask for, so each call builds its own table
    and drops it."""
    if spec._tables is None:
        return StepTable(spec, _step_table(spec, steps), len(steps))
    return _kept_table(spec, steps)


@lru_cache(maxsize=1024)
def _grid_entries(
    plan: DiffPlan,
) -> tuple[tuple[tuple[FieldElement, ...], FieldElement], ...]:
    """The folded grid of a plan, built once: per probe, the offsets of the
    plan variables and the product of their table weights."""
    spec = plan.spec
    tables = [_plan_table(spec, steps) for steps in plan.steps]
    entries = []
    for combo in itertools.product(*(zip(t.offsets, t.weights) for t in tables)):
        weight = spec.one
        for _, w in combo:
            weight = weight * w
        entries.append((tuple(off for off, _ in combo), weight))
    return tuple(entries)


def _base_point(plan: DiffPlan, base: Sequence[FieldElement]) -> list[FieldElement]:
    """The base as elements of the plan's field; DiffError if a plan
    variable lies outside it."""
    spec = plan.spec
    base = [spec.element(v) for v in base]
    for var in plan.variables:
        if var >= len(base):
            raise DiffError(f"plan variable x{var + 1} outside the base point")
    return base


def grid_points(
    plan: DiffPlan, base: Sequence[FieldElement]
) -> list[tuple[tuple[FieldElement, ...], FieldElement]]:
    """Probe points of the planned difference at `base`, in a fixed order,
    each with its folded weight."""
    base = _base_point(plan, base)
    points = []
    for offsets, weight in _grid_entries(plan):
        point = base.copy()
        for var, off in zip(plan.variables, offsets):
            point[var] = point[var] + off
        points.append((tuple(point), weight))
    return points


class TermGrid(NamedTuple):
    """The probe points of a unit-step term and their folded weights, all
    as residues."""

    residues: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]


@lru_cache(maxsize=1024)
def _term_grid(spec: FieldSpec, term: Monomial) -> TermGrid:
    """The grid of a unit-step term over GF(p), with every variable outside
    the term at zero, in residues; built once per term."""
    if any(m > spec.p - 1 for m in term):
        raise DiffError("term multiplicities must stay below p")
    plan = DiffPlan.make(spec, {i: m for i, m in enumerate(term) if m})
    entries = grid_points(plan, (spec.zero,) * len(term))
    return TermGrid(
        tuple(tuple(int(v) for v in point) for point, _ in entries),
        tuple(int(weight) for _, weight in entries),
    )


def blackbox_delta(
    bb: BlackBoxFn, plan: DiffPlan, base: Sequence[FieldElement]
) -> FieldElement:
    """Evaluate the planned difference of a black-box function at one point:
    the points of `grid_points`, in its order, each built as it is probed."""
    base = _base_point(plan, base)
    variables = plan.variables
    total = plan.spec.zero
    for offsets, weight in _grid_entries(plan):
        point = base.copy()
        for var, off in zip(variables, offsets):
            point[var] = point[var] + off
        total = total + weight * bb(tuple(point))
    return total


def inclusion_exclusion(
    bb: BlackBoxFn,
    diffs: Sequence[Sequence[FieldElement]],
    base: Sequence[FieldElement],
) -> FieldElement:
    """Signed 2^k-term sum over subsets of the difference vectors, each as
    wide as `base`. Coordinates are elements or ints; the first element
    among the vectors and the base gives the field."""
    if not diffs:
        return bb(tuple(base))
    if any(len(a) != len(base) for a in diffs):
        raise DiffError("difference vector width mismatch")
    if not all(map(any, diffs)):
        raise DiffError("difference vectors must be nonzero")
    spec = next(
        (v.spec for v in itertools.chain(base, *diffs) if isinstance(v, FieldElement)),
        None,
    )
    if spec is None:
        raise DiffError("no field element among the difference vectors or the base")
    base = [spec.element(v) for v in base]
    diffs = [[spec.element(v) for v in a] for a in diffs]
    if not all(map(any, diffs)):
        raise DiffError("difference vectors must be nonzero")
    k = len(diffs)
    total = spec.zero
    minus_one = -spec.one
    for mask in range(1 << k):
        point = list(base)
        bits = 0
        for i in range(k):
            if mask >> i & 1:
                bits += 1
                point = [x + v for x, v in zip(point, diffs[i])]
        value = bb(tuple(point))
        if (k - bits) & 1:
            value = minus_one * value
        total = total + value
    return total


# ---------------------------------------------------------------------------
# constants relating differences to the term factorization


def superpoly_constants(
    spec: FieldSpec, t: Monomial, quotient_terms: Iterable[Monomial]
) -> dict[Monomial, FieldElement]:
    """For unit steps over GF(p): the constant attached to each term of the
    quotient when the difference is evaluated at zeroed plan variables.

    A quotient term with exponent l on a plan variable of multiplicity m
    contributes the factor D(m+l, m+l, m); a term free of the plan
    variables gets the factorial product m_1! ... m_k!.
    """
    p = spec.p
    cube = [i for i, m in enumerate(t) if m]
    out: dict[Monomial, FieldElement] = {}
    for term in quotient_terms:
        term = tuple(term)
        if len(term) != len(t):
            raise DiffError("quotient term width mismatch")
        if any(e and i not in cube for i, e in enumerate(term)):
            raise DiffError("quotient terms must involve only plan variables")
        c = 1
        for i in cube:
            m, l = t[i], term[i]
            c = c * diff_coefficient(m + l, m + l, m, p) % p
        out[term] = spec.element(c)
    return out
