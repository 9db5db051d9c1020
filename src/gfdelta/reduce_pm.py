"""Reduction of GF(p^m) differencing to per-coordinate GF(p) differencing.

Writing each extension variable in a basis b_0..b_{m-1} turns a function
f over GF(p^m) in n variables into m component functions over GF(p) in
m*n variables. Differencing f with step b_i matches differencing every
component once w.r.t. the i-th coordinate variable, which this module
verifies pointwise against opaque functions.

One GF(p^m) answer carries all m component answers, so in query terms the
reduction is the paper's equivalence: differencing the components costs no
black-box probes beyond those of the extension-field difference.

The check runs at table speed: the basis changes are matrices built once
per `ProjectionContext`, each projected answer is kept as one packed int of
m lanes, so the m component sums at a point are one multiply-add per grid
point, and its table of answers is keyed by points whose elements hash by
their coordinates alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .diff import BlackBoxFn, DiffPlan, _term_grid, blackbox_delta
from .field import (
    ExtFieldSpec,
    FieldElement,
    SlotCodec,
    basis_elements,
    prime_field,
    row_reduce,
)
from .poly import MultiPoly, all_points


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ProjectionContext:
    """Coordinate isomorphism between GF(p^m) and GF(p)^m for a fixed basis.

    Variable x_i of the source maps to the coordinate block
    (x_{i,0}, ..., x_{i,m-1}), stored contiguously. Both basis changes are
    matrices built once, at construction: `_to_coords` takes polynomial-basis
    coordinates to this basis, and `_from_coords`, whose columns are the
    basis vectors, takes them back."""

    spec: ExtFieldSpec
    basis: tuple[FieldElement, ...]
    _to_coords: tuple[tuple[int, ...], ...]
    _from_coords: tuple[tuple[int, ...], ...]

    @classmethod
    def for_spec(
        cls, spec: ExtFieldSpec, basis: Sequence[FieldElement] | None = None
    ) -> "ProjectionContext":
        if basis is None:
            basis = basis_elements(spec)
        basis = tuple(spec.element(b) for b in basis)
        if len(basis) != spec.m:
            raise ReductionError(f"basis must have {spec.m} elements")
        # columns are the basis vectors in the polynomial-basis coordinates,
        # augmented by the identity, which row reduction turns into the inverse
        m = spec.m
        columns = tuple(zip(*(b.coeffs for b in basis)))
        augmented = [
            list(columns[i]) + [int(i == j) for j in range(m)] for i in range(m)
        ]
        rows, pivots = row_reduce(augmented, spec.p, m)
        if len(pivots) < m:
            raise ReductionError("basis is not linearly independent over GF(p)")
        return cls(spec, basis, tuple(tuple(row[m:]) for row in rows), columns)

    @property
    def prime(self):
        return prime_field(self.spec.p)

    def phi(self, el: FieldElement) -> tuple[int, ...]:
        """Coordinates of an element in this basis."""
        p = self.spec.p
        coeffs = el.coeffs
        return tuple([sum(map(mul, row, coeffs)) % p for row in self._to_coords])

    def phi_inv(self, coords: Sequence[int]) -> FieldElement:
        """The element with these coordinates in this basis."""
        spec = self.spec
        if len(coords) != spec.m:
            raise ReductionError("coordinate width mismatch")
        p = spec.p
        coords = list(map(int, coords))
        return spec._box(
            tuple([sum(map(mul, row, coords)) % p for row in self._from_coords])
        )

    def phi_inv_point(
        self, coords: Sequence[FieldElement], n: int
    ) -> tuple[FieldElement, ...]:
        m = self.spec.m
        if len(coords) != m * n:
            raise ReductionError("coordinate width mismatch")
        return tuple([self.phi_inv(coords[i * m : (i + 1) * m]) for i in range(n)])


# the largest domain `verify_reduction` checks at every point; past it, it
# checks SAMPLES seeded points, and it stops at MAX_MISMATCHES mismatches
EXHAUSTIVE_LIMIT = 1 << 16
SAMPLES = 1000
MAX_MISMATCHES = 5


@dataclass
class ReductionReport:
    ok: bool
    points_checked: int
    exhaustive: bool
    mismatches: list[tuple]
    probes: int

    def __bool__(self):
        return self.ok


def verify_reduction(
    bb: BlackBoxFn,
    n: int,
    r: Sequence[int],
    ctx: ProjectionContext,
    seed: int = 0,
) -> ReductionReport:
    """Check, pointwise, that differencing r_i times with step b_i on the
    first variable projects to differencing each component r_i times w.r.t.
    the i-th coordinate of that variable.

    `bb` must be a function: identical points give identical answers. The
    extension-side difference and all m component differences read one
    table of answers, so each distinct point is asked once per call, or
    once per sample point when sampling. The table holds at most the
    domain (at most `EXHAUSTIVE_LIMIT` points) in exhaustive mode, and at
    most one grid in sampled mode, where it is cleared at each sample
    point. `probes` in the report counts the calls made to `bb`. The m
    component differences share one coordinate grid, walked once per
    checked point: `diff._term_grid` of the unit-step term r on the first
    variable's coordinates, the grid the cube attack sums for a term, of G
    points. Each grid point's answer is projected by `phi` once and kept,
    as long as the answer, as one packed int of m lanes (`SlotCodec`),
    each wide enough for G(p-1)^2. A checked point's m component sums are
    then one multiply-add per grid point, weight times packed answer, read
    back and reduced mod p once."""
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
    entries = list(zip(grid.residues, grid.weights))
    codec = SlotCodec(m, len(entries) * (p - 1) ** 2)
    projected: dict[tuple[int, ...], int] = {}

    domain = p ** (m * n)
    if domain <= EXHAUSTIVE_LIMIT:
        points = all_points(prime, m * n)
        exhaustive = True
        count = domain
    else:
        rng = random.Random(seed)
        points = (
            tuple(prime.random_element(rng) for _ in range(m * n))
            for _ in range(SAMPLES)
        )
        exhaustive = False
        count = SAMPLES

    mismatches: list[tuple] = []
    checked = 0
    for coords in points:
        checked += 1
        if not exhaustive:
            answers.clear()
            projected.clear()
        ext_point = ctx.phi_inv_point(coords, n)
        lhs_coords = ctx.phi(blackbox_delta(ask, lhs_plan, ext_point))
        base = [int(c) for c in coords]
        sums = 0
        for offsets, w in entries:
            key = tuple([(c + o) % p for c, o in zip(base, offsets)])
            packed = projected.get(key)
            if packed is None:
                [packed] = codec.pack([ctx.phi(ask(ctx.phi_inv_point(key, n)))])
                projected[key] = packed
            sums += w * packed
        for j, lane in enumerate(codec.unpack(sums)):
            rhs_value = lane % p
            if rhs_value != lhs_coords[j]:
                mismatches.append((coords, j, lhs_coords[j], rhs_value))
                if len(mismatches) >= MAX_MISMATCHES:
                    return ReductionReport(
                        False, checked, exhaustive, mismatches, probes
                    )
    assert checked == count
    return ReductionReport(not mismatches, checked, exhaustive, mismatches, probes)


def component_degree_bound(f: MultiPoly, i: int) -> int:
    """Digit-sum degree of f in x_i: an upper bound on the total degree of
    every component function in that variable's coordinate block."""
    if not 0 <= i < f.n:
        raise ReductionError("variable index out of range")
    return f.degrees().digit_sum[i]
