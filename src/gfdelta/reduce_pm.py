"""Reduction of GF(p^m) differencing to per-coordinate GF(p) differencing.

Writing each extension variable in a basis b_0..b_{m-1} turns a function
f over GF(p^m) in n variables into m component functions over GF(p) in
m*n variables. Differencing f with step b_i matches differencing every
component once w.r.t. the i-th coordinate variable, which this module
verifies pointwise against opaque functions.

One GF(p^m) answer carries all m component answers, so in query terms the
reduction is the paper's equivalence: differencing the components costs no
black-box probes beyond those of the extension-field difference.

The check runs at table speed. Over a field with log tables each
`ProjectionContext` turns its basis-change matrices into tables on first
use, so a basis change is one lookup; `verify_reduction` keeps its set-up
per (field, basis, r, n) across calls; its extension side is the
log-domain sum of `diff.blackbox_delta`; and each projected answer is kept
as one packed int of m lanes, so the m component sums at a point are one
multiply-add per grid point, each grid point found by a packed residue key
that one big-integer sum shifts and reduces mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import NamedTuple, Sequence

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
    basis vectors, takes them back. Over a field with log tables both are
    also tables, built from the matrices on the first `phi` or `phi_inv`
    and kept on the context (`_lookup`): `phi` reads an element's
    coordinates by its log, and `phi_inv` the element of reduced
    coordinates by their tuple. Above the table limit each call multiplies
    by the matrix."""

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

    @cached_property
    def _lookup(
        self,
    ) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], FieldElement]] | None:
        """(coordinates by element log, element by coordinates) over a field
        with log tables, else None. The first list has the layout of
        `FieldSpec._elems`: the units by log, twice, then zero's at 2(q-1)."""
        spec = self.spec
        if spec._tables is None:
            return None
        units = spec._elems[: spec.order - 1]
        coords = [self._phi_matrix(el) for el in units]
        zero = (0,) * spec.m
        by_coords = dict(zip(coords, units))
        by_coords[zero] = spec.zero
        return coords * 2 + [zero], by_coords

    def _phi_matrix(self, el: FieldElement) -> tuple[int, ...]:
        p = self.spec.p
        coeffs = el.coeffs
        return tuple([sum(map(mul, row, coeffs)) % p for row in self._to_coords])

    def phi(self, el: FieldElement) -> tuple[int, ...]:
        """Coordinates of an element in this basis."""
        lookup = self._lookup
        if lookup is None:
            return self._phi_matrix(el)
        return lookup[0][el.log]

    def phi_inv(self, coords: Sequence[int]) -> FieldElement:
        """The element with these coordinates in this basis; coordinates are
        ints, read mod p, or elements of GF(p)."""
        spec = self.spec
        if len(coords) != spec.m:
            raise ReductionError("coordinate width mismatch")
        p = spec.p
        lookup = self._lookup
        if lookup is not None:
            return lookup[1][tuple([int(c) % p for c in coords])]
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


class _Answers(dict):
    """A box's answers by point: a point not yet asked is asked once, on
    first lookup, and counted in `probes`."""

    def __init__(self, bb: BlackBoxFn):
        super().__init__()
        self.bb = bb
        self.probes = 0

    def __missing__(self, point: tuple[FieldElement, ...]) -> FieldElement:
        value = self[point] = self.bb(point)
        self.probes += 1
        return value


class _CheckSetup(NamedTuple):
    """What a check reads that depends on (field, basis, r, n) alone."""

    lhs_plan: DiffPlan  # r_i steps b_i on the first variable
    keys: SlotCodec  # m*n residues, each slot with a top bit to spare
    bias: int  # 2^top - p in every slot
    tops: int  # 2^top in every slot
    entries: tuple[tuple[int, int], ...]  # component grid: packed offsets, weight
    codec: SlotCodec  # m lanes, each wide enough for a grid's sum


@lru_cache(maxsize=256)
def _check_setup(
    spec: ExtFieldSpec, basis: tuple[FieldElement, ...], r: tuple[int, ...], n: int
) -> _CheckSetup:
    """The set-up of `verify_reduction` for one (field, basis, r, n), built
    once: the extension-side plan, the component grid's residue offsets and
    weights, and the packing of the m component sums."""
    steps: list[FieldElement] = []
    for b, ri in zip(basis, r):
        steps.extend([b] * ri)
    total = len(steps)
    lhs_plan = DiffPlan.make(spec, {0: total} if total else {}, steps)
    p, m = spec.p, spec.m
    grid = _term_grid(prime_field(p), r + (0,) * (m * (n - 1)))
    keys = SlotCodec(m * n, 2 * p - 1)
    top = 1 << 8 * keys.width - 1
    bias, tops = keys.pack([[top - p] * (m * n), [top] * (m * n)])
    entries = tuple(zip(keys.pack(grid.residues), grid.weights))
    codec = SlotCodec(m, len(entries) * (p - 1) ** 2)
    return _CheckSetup(lhs_plan, keys, bias, tops, entries, codec)


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
    back and reduced mod p once. The kept answers are keyed by the grid
    point's m*n residues packed into one int, slots with a top bit to
    spare: a grid point's key is the checked point's key plus the grid
    offset's, with p taken off each slot that reaches p.

    What depends on (field, basis, r, n) alone, the extension-side plan,
    the component grid and the two codecs, is built once and kept
    (`_check_setup`, bounded), so a repeated check builds none of it."""
    spec = ctx.spec
    m, p = spec.m, spec.p
    if len(r) != m or any(not 0 <= ri <= p - 1 for ri in r):
        raise ReductionError(f"need {m} repetition counts in 0..{p - 1}")
    prime = ctx.prime
    lhs_plan, keys, bias, tops, entries, codec = _check_setup(
        spec, ctx.basis, tuple(r), n
    )
    shift = 8 * keys.width - 1

    answers = _Answers(bb)
    ask = answers.__getitem__
    projected: dict[int, int] = {}

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
        base = [int(c) for c in coords]
        ext_point = ctx.phi_inv_point(base, n)
        lhs_coords = ctx.phi(blackbox_delta(ask, lhs_plan, ext_point))
        [base_key] = keys.pack([base])
        sums = 0
        for offset, w in entries:
            # each slot of the sum holds c + o < 2p; adding 2^top - p sets
            # its top bit exactly where c + o >= p, and p is taken off there
            key = base_key + offset
            key -= (((key + bias) & tops) >> shift) * p
            packed = projected.get(key)
            if packed is None:
                point = ctx.phi_inv_point(keys.unpack(key), n)
                [packed] = codec.pack([ctx.phi(ask(point))])
                projected[key] = packed
            sums += w * packed
        for j, lane in enumerate(codec.unpack(sums)):
            rhs_value = lane % p
            if rhs_value != lhs_coords[j]:
                mismatches.append((coords, j, lhs_coords[j], rhs_value))
                if len(mismatches) >= MAX_MISMATCHES:
                    return ReductionReport(
                        False, checked, exhaustive, mismatches, answers.probes
                    )
    assert checked == count
    return ReductionReport(
        not mismatches, checked, exhaustive, mismatches, answers.probes
    )


def component_degree_bound(f: MultiPoly, i: int) -> int:
    """Digit-sum degree of f in x_i: an upper bound on the total degree of
    every component function in that variable's coordinate block."""
    if not 0 <= i < f.n:
        raise ReductionError("variable index out of range")
    return f.degrees().digit_sum[i]
