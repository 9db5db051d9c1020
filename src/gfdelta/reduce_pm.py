"""Reduction of GF(p^m) differencing to per-coordinate GF(p) differencing.

Writing each extension variable in a basis b_0..b_{m-1} turns a function
f over GF(p^m) in n variables into m component functions over GF(p) in
m*n variables. Differencing f with step b_i matches differencing every
component once w.r.t. the i-th coordinate variable, which this module
verifies pointwise against opaque functions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .diff import BlackBoxFn, DiffPlan, blackbox_delta
from .field import ExtFieldSpec, FieldElement, basis_elements, prime_field, row_reduce
from .poly import MultiPoly


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ProjectionContext:
    """Coordinate isomorphism between GF(p^m) and GF(p)^m for a fixed basis.

    Variable x_i of the source maps to the coordinate block
    (x_{i,0}, ..., x_{i,m-1}), stored contiguously."""

    spec: ExtFieldSpec
    basis: tuple[FieldElement, ...]
    _to_coords: tuple[tuple[int, ...], ...]

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
        augmented = [
            [b.coeffs[i] for b in basis] + [int(i == j) for j in range(m)]
            for i in range(m)
        ]
        rows, pivots = row_reduce(augmented, spec.p, m)
        if len(pivots) < m:
            raise ReductionError("basis is not linearly independent over GF(p)")
        return cls(spec, basis, tuple(tuple(row[m:]) for row in rows))

    @property
    def prime(self):
        return prime_field(self.spec.p)

    def phi(self, el: FieldElement) -> tuple[int, ...]:
        """Coordinates of an element in this basis."""
        p = self.spec.p
        return tuple(
            sum(r * c for r, c in zip(row, el.coeffs)) % p for row in self._to_coords
        )

    def phi_inv(self, coords: Sequence[int]) -> FieldElement:
        if len(coords) != self.spec.m:
            raise ReductionError("coordinate width mismatch")
        acc = self.spec.zero
        for c, b in zip(coords, self.basis):
            acc = acc + self.spec.element(int(c)) * b
        return acc

    def phi_point(self, point: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Flatten an extension point into m*n prime-field coordinates."""
        prime = self.prime
        out = []
        for v in point:
            out.extend(prime.element(c) for c in self.phi(v))
        return tuple(out)

    def phi_inv_point(
        self, coords: Sequence[FieldElement], n: int
    ) -> tuple[FieldElement, ...]:
        m = self.spec.m
        if len(coords) != m * n:
            raise ReductionError("coordinate width mismatch")
        return tuple(
            self.phi_inv([int(c) for c in coords[i * m : (i + 1) * m]])
            for i in range(n)
        )


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


@dataclass
class ReductionReport:
    ok: bool
    points_checked: int
    exhaustive: bool
    mismatches: list[tuple]

    def __bool__(self):
        return self.ok


def verify_reduction(
    bb: BlackBoxFn,
    n: int,
    r: Sequence[int],
    ctx: ProjectionContext,
    seed: int = 0,
    samples: int = 1000,
    exhaustive_limit: int = 1 << 16,
    max_mismatches: int = 5,
) -> ReductionReport:
    """Check, pointwise, that differencing r_i times with step b_i on the
    first variable projects to differencing each component r_i times w.r.t.
    the i-th coordinate of that variable."""
    spec = ctx.spec
    m, p = spec.m, spec.p
    if len(r) != m or any(not 0 <= ri <= p - 1 for ri in r):
        raise ReductionError(f"need {m} repetition counts in 0..{p - 1}")
    prime = ctx.prime

    steps: list[FieldElement] = []
    for b, ri in zip(ctx.basis, r):
        steps.extend([b] * ri)
    total = len(steps)
    lhs_plan = DiffPlan.make(spec, {0: total}, steps) if total else None

    components = project_blackbox(bb, n, ctx)
    rhs_term = {i: ri for i, ri in enumerate(r) if ri}
    rhs_plan = DiffPlan.make(prime, rhs_term) if rhs_term else None

    domain = p ** (m * n)
    if domain <= exhaustive_limit:
        points = itertools.product(list(prime.elements()), repeat=m * n)
        exhaustive = True
        count = domain
    else:
        rng = random.Random(seed)
        points = (
            tuple(prime.random_element(rng) for _ in range(m * n))
            for _ in range(samples)
        )
        exhaustive = False
        count = samples

    mismatches: list[tuple] = []
    checked = 0
    for coords in points:
        checked += 1
        ext_point = ctx.phi_inv_point(coords, n)
        lhs_value = (
            blackbox_delta(bb, lhs_plan, ext_point) if lhs_plan else bb(ext_point)
        )
        lhs_coords = ctx.phi(lhs_value)
        for j in range(m):
            rhs_value = (
                blackbox_delta(components[j], rhs_plan, coords)
                if rhs_plan
                else components[j](coords)
            )
            if int(rhs_value) != lhs_coords[j]:
                mismatches.append((coords, j, lhs_coords[j], int(rhs_value)))
                if len(mismatches) >= max_mismatches:
                    return ReductionReport(False, checked, exhaustive, mismatches)
    assert checked == count
    return ReductionReport(not mismatches, checked, exhaustive, mismatches)


def component_degree_bound(f: MultiPoly, i: int) -> int:
    """Digit-sum degree of f in x_i: an upper bound on the total degree of
    every component function in that variable's coordinate block."""
    if not 0 <= i < f.n:
        raise ReductionError("variable index out of range")
    return f.degrees().digit_sum[i]
