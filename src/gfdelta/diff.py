"""Finite-difference operators over GF(p) and GF(p^m).

Two routes to the same object: `delta` / `delta_plan` rewrite a symbolic
polynomial, while `blackbox_delta` evaluates the difference of an opaque
function as a weighted sum over a small grid of shifted points. Differencing
w.r.t. one variable with equal steps h needs only m+1 probes at offsets
0, h, ..., m*h with signed binomial weights; the basis-block step sequence
plays the same role over extension fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .combinat import (
    binomial_mod,
    diff_coefficient,
    _nonzero_composition_items,
)
from .field import FieldElement, FieldSpec, basis_elements
from .poly import Monomial, MultiPoly, PolyError, parse_monomial

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
    basis-block sequence as the default.
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
        cap = self.spec.m * (self.spec.p - 1)
        for mult, steps in zip(self.multiplicities, self.steps):
            if mult < 1:
                raise DiffError("multiplicities must be >= 1")
            if mult > cap:
                raise DiffError(
                    f"multiplicity {mult} exceeds the field bound {cap}"
                )
            if len(steps) != mult:
                raise DiffError("each application needs one step")
            for h in steps:
                if not h:
                    raise DiffError("steps must be nonzero")

    @classmethod
    def make(
        cls,
        spec: FieldSpec,
        term: Mapping[int, int] | Sequence[tuple[int, int]],
        steps: Sequence[FieldElement] | None = None,
    ) -> "DiffPlan":
        """Build a plan from {variable: multiplicity}; default steps are all
        ones over GF(p) and the basis-block sequence over GF(p^m). Explicit
        steps are given flat, in plan order."""
        pairs = sorted(term.items()) if isinstance(term, Mapping) else sorted(term)
        variables = tuple(v for v, _ in pairs)
        mults = tuple(m for _, m in pairs)
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

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


def parse_plan(
    text: str, spec: FieldSpec, steps: Sequence[FieldElement] | None = None
) -> DiffPlan:
    """Parse plan text in term syntax, e.g. 'x1^2*x3'."""
    try:
        mono = parse_monomial(text.replace(" ", ""))
    except PolyError as exc:
        raise DiffError(f"bad plan: {exc}") from None
    if not any(mono):
        raise DiffError("a plan differences at least one variable")
    return DiffPlan.make(spec, {i: m for i, m in enumerate(mono) if m}, steps)


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
    return _shift(f, a) - f


@lru_cache(maxsize=1024)
def _binomial_row(e: int, p: int) -> tuple[tuple[int, int], ...]:
    """The pairs (j, C(e, j) mod p) with a nonzero binomial, by Lucas."""
    return tuple((j, w) for j in range(e + 1) if (w := binomial_mod(e, j, p)))


def _shift(f: MultiPoly, a: list[FieldElement]) -> MultiPoly:
    spec = f.spec
    p = spec.p
    moving = [i for i, ai in enumerate(a) if ai]
    out: dict[Monomial, FieldElement] = {}
    # (x_i + a_i)^e = sum over j of C(e, j) a_i^(e-j) x_i^j, one row per (i, e)
    rows: dict[tuple[int, int], list[tuple[int, FieldElement]]] = {}
    for mono, coeff in f._terms.items():
        partial: dict[tuple[int, ...], FieldElement] = {(): coeff}
        active = [i for i in moving if mono[i]]
        for i in active:
            e = mono[i]
            row = rows.get((i, e))
            if row is None:
                ai = a[i]
                row = rows[(i, e)] = [
                    (j, spec.element(w) * ai ** (e - j)) for j, w in _binomial_row(e, p)
                ]
            expanded: dict[tuple[int, ...], FieldElement] = {}
            for key, c in partial.items():
                for j, w in row:
                    c2 = c * w
                    k2 = key + (j,)
                    prev = expanded.get(k2)
                    prev = c2 if prev is None else prev + c2
                    if prev:
                        expanded[k2] = prev
                    else:
                        expanded.pop(k2, None)
            partial = expanded
        for key, c in partial.items():
            new_mono = list(mono)
            for i, j in zip(active, key):
                new_mono[i] = j
            t = tuple(new_mono)
            prev = out.get(t)
            prev = c if prev is None else prev + c
            if prev:
                out[t] = prev
            else:
                out.pop(t, None)
    return MultiPoly._raw(spec, f.n, out)


def delta_plan(f: MultiPoly, plan: DiffPlan) -> MultiPoly:
    """Repeated differences per the plan; the outcome is order-independent."""
    if plan.spec != f.spec:
        raise DiffError("plan and polynomial fields differ")
    for var, steps in zip(plan.variables, plan.steps):
        if var >= f.n:
            raise DiffError(f"plan variable x{var + 1} outside the polynomial")
        for h in steps:
            direction = [f.spec.zero] * f.n
            direction[var] = h
            f = delta(f, direction)
    return f


# ---------------------------------------------------------------------------
# grid (black-box) differencing


@dataclass(frozen=True)
class GridPoint:
    """One probe of the unit-step grid: offsets, sign, and binomial weight."""

    offsets: tuple[int, ...]
    sign: int
    weight: int


def grid_weights(plan: DiffPlan) -> list[GridPoint]:
    """The signed binomial grid for a unit-step plan over GF(p)."""
    spec = plan.spec
    p = spec.p
    one = spec.one
    for mult, steps in zip(plan.multiplicities, plan.steps):
        if mult >= p:
            raise DiffError("unit-step grids need every multiplicity below p")
        if any(h != one for h in steps):
            raise DiffError("grid weights are defined for unit steps")
    points = []
    ranges = [range(m + 1) for m in plan.multiplicities]
    for offsets in itertools.product(*ranges):
        weight = 1
        for m, j in zip(plan.multiplicities, offsets):
            weight = weight * binomial_mod(m, j, p) % p
        sign = -1 if (sum(plan.multiplicities) - sum(offsets)) & 1 else 1
        points.append(GridPoint(tuple(offsets), sign, weight))
    return points


def _step_table(
    spec: FieldSpec, steps: tuple[FieldElement, ...]
) -> list[tuple[FieldElement, FieldElement]]:
    """Offsets and folded signed weights for differencing one variable.

    Convolves {h: +1, 0: -1} across the steps; offsets that collide in the
    field merge, and weights that vanish mod p drop out, so differencing p
    times with equal steps yields an empty table (the zero functional).
    """
    table: dict[FieldElement, int] = {spec.zero: 1}
    for h in steps:
        new: dict[FieldElement, int] = {}
        for off, w in table.items():
            for delta_off, sgn in ((off + h, w), (off, -w)):
                acc = new.get(delta_off, 0) + sgn
                if acc:
                    new[delta_off] = acc
                else:
                    new.pop(delta_off, None)
        table = new
    out = []
    for off, w in table.items():
        w %= spec.p
        if w:
            out.append((off, spec.element(w)))
    out.sort(key=lambda item: spec.index_of(item[0]))
    return out


@lru_cache(maxsize=1024)
def _grid_entries(
    plan: DiffPlan,
) -> tuple[tuple[tuple[FieldElement, ...], FieldElement], ...]:
    """The folded grid of a plan, built once: per probe, the offsets of the
    plan variables and the product of their table weights."""
    spec = plan.spec
    tables = [_step_table(spec, steps) for steps in plan.steps]
    entries = []
    for combo in itertools.product(*tables):
        weight = spec.one
        for _, w in combo:
            weight = weight * w
        entries.append((tuple(off for off, _ in combo), weight))
    return tuple(entries)


def grid_points(
    plan: DiffPlan, base: Sequence[FieldElement]
) -> list[tuple[tuple[FieldElement, ...], FieldElement]]:
    """Probe points of the planned difference at `base`, in a fixed order,
    each with its folded weight."""
    spec = plan.spec
    base = [spec.element(v) for v in base]
    for var in plan.variables:
        if var >= len(base):
            raise DiffError(f"plan variable x{var + 1} outside the base point")
    points = []
    for offsets, weight in _grid_entries(plan):
        point = list(base)
        for var, off in zip(plan.variables, offsets):
            point[var] = point[var] + off
        points.append((tuple(point), weight))
    return points


def blackbox_delta(
    bb: BlackBoxFn, plan: DiffPlan, base: Sequence[FieldElement]
) -> FieldElement:
    """Evaluate the planned difference of a black-box function at one point."""
    total = plan.spec.zero
    for point, weight in grid_points(plan, base):
        total = total + weight * bb(point)
    return total


def grid_size(plan: DiffPlan) -> int:
    """Black-box probes needed per evaluation of the planned difference."""
    return len(_grid_entries(plan))


def blackbox_delta_pm(
    bb: BlackBoxFn, var: int, times: int, base: Sequence[FieldElement]
) -> FieldElement:
    """Difference `times` times w.r.t. one variable over GF(p^m) with the
    basis-block step sequence; costs p^q * (r+1) probes for times = q(p-1)+r."""
    spec = base[var].spec
    plan = DiffPlan.make(spec, {var: times})
    return blackbox_delta(bb, plan, base)


def inclusion_exclusion(
    bb: BlackBoxFn,
    diffs: Sequence[Sequence[FieldElement]],
    base: Sequence[FieldElement],
) -> FieldElement:
    """Signed 2^k-term sum over subsets of the difference vectors."""
    if not diffs:
        return bb(tuple(base))
    spec = diffs[0][0].spec
    base = [spec.element(v) for v in base]
    for a in diffs:
        if not any(spec.element(v) for v in a):
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
                point = [x + spec.element(v) for x, v in zip(point, diffs[i])]
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


def monomial_of_plan(plan: DiffPlan, n: int) -> Monomial:
    """The plan as an exponent tuple over n variables."""
    mono = [0] * n
    for var, mult in zip(plan.variables, plan.multiplicities):
        if var >= n:
            raise DiffError("plan variable outside the requested width")
        mono[var] = mult
    return tuple(mono)
