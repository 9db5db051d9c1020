"""Attack targets with known ground truth.

Planted targets embed, for each secret variable slot, a public monomial of
multiplicity deg-1 times an independent secret linear form, so preprocessing
is guaranteed a full-rank record set. The toy cipher is a deliberately weak
keyed map (affine layer, key injection, one quadratic mixing step per round)
used for integration testing, not for cryptographic claims.

Both kinds expose `spec`, `config` (their sizes, which `n_pub` and
`n_sec` read), `key` and `suggested_max_multiplicity`, and share
`blackbox()` and `online_oracle(key=None)` through one base class. Their
kernel takes a grid, then a batch of secrets, through two entries, one
behind each of the `BlackBox`'s batch entries: the per-point
`_on_grid(points)` answers one residue per point and secret, and the
weighted `_on_grid_sum(points, weights)` one residue per secret, the
grid's sum of w_pt * f(pt, secret) mod p. The planted kernel has its own
weighted stage; the toy cipher has none (its `_on_grid_sum` is None), and
its box sums the per-point stage's answers through the shared fallback
(`attack._weighted`), as a box over a plain function does.

1. grid (`_on_grid(points)` or `_on_grid_sum(points, weights)`): a batch of
   public points as residue tuples, tabulated by code compiled once per
   target, one comprehension over the points. The planted kernel
   tabulates every public monomial per point (`PlantedTarget._tabulate`,
   short-circuit products mod p). Per point, it keeps only the monomials
   that are nonzero at some point of the batch and packs each one's
   column of residues into one int, a fixed-width slot per point;
   weighted, it reduces each monomial's column to one scalar, c_g = sum
   of w_pt * column_g[pt] mod p, and keeps only the monomials with
   c_g != 0. The toy cipher tabulates its first round's mix of the
   publics, one row per point (`ToyCipher._load`), which whitening leaves
   free of the secret.
   The `BlackBox` that `blackbox()` returns runs this stage once per
   `stage(points)` or `stage_sum(points, weights)` call, and a superpoly
   oracle keeps its term's weighted stage for all of the term's batches
   of secrets.
2. secrets (the function the grid stage returns, called on a batch of
   secret residue vectors): the planted kernel splits each monomial's
   coefficient once per target (`PlantedTarget._split`, on first kernel
   use) into an affine residue row (c_1, ..., c_n_sec, c_0) mod p, from
   its terms of secret degree at most 1, and a remainder, its terms of
   secret degree 2 or more, the only part compiled (`PlantedTarget._fold`,
   when a grid first keeps a monomial that has one); a monomial whose
   coefficient is affine in the secret, as every planted anchor's is, is
   never compiled. Weighted, the grid stage merges the kept monomials'
   rows into one, the sum of c_g * row_g mod p, and the secret stage
   answers each secret with one dot product plus the kept remainders,
   (row . s + c_0 + sum of c_g * remainder_g(s)) mod p. Per point, it
   reads each kept monomial's coefficient, (row_g . s + c_0 +
   remainder_g(s)) mod p, the rows of all monomials at once from their
   packed lanes, and sums coefficient times packed column, one
   big-integer multiply-add per kept monomial; each slot then holds its
   point's unreduced sum, at most len(live) * (p - 1)^2, and is read back
   and reduced mod p. The slots are `field.SlotCodec`'s: the narrowest
   native unsigned item of 2, 4 or 8 bytes that holds that bound, or past
   8 bytes ceil(bits / 8) bytes, the codec `MultiPoly.evaluate` uses too.
   The toy cipher hands the grid rows and each secret through its rounds
   compiled into a few functions (`ToyCipher._chunks`). Each first
   derives, in straight-line code, the secret-only constants its rounds
   inject (the first round's, with the whitening folded in, and each later
   round's key injection), then loops over the points and runs its rounds
   in local variables: each quadratic step, reduced mod p, and each affine
   layer, one sum over the nonzero mix entries. It returns one residue
   list per secret, one residue per point.

Generated code goes through one helper, `_compile`: its source holds only
the target's own ints, and it runs with no builtins but the ones it calls.

A single probe is the one-point, one-secret batch. The online oracle is a
fresh box viewed at a fixed key, a one-secret batch of the per-point
stage: it answers a whole replay as one grid, so its key is folded or
mapped once per replay, and every point's width is checked as in
preprocessing. The records' grids nest (x1^2's grid lies inside
x1^2*x2's), so a replay repeats points; the box counts every point sent,
repeats included, but the kernel computes each distinct point once (on
the benchmark's planted case, 57 of the 216 points).

A target description file gives its kind, field, sizes and seed. One table,
`KINDS`, holds each kind's size keys in file order, with the config field
each sets and its inclusive range; `save_target` and `load_target` read it,
and `load_target` rejects a size out of range, a repeated key or a key the
kind does not define with `TargetError` before building anything. The field
must be a prime below 2^63 (see `field.prime_field`); the seed is any
integer.

Both kinds build from one `random.Random` seeded by the file's seed, so a
file rebuilds its target bit for bit. A matrix or vector of residues is
one `poly._residues` call (`_residue_rows`), with the values and the
generator's end state of one `randrange(p)` per entry, row by row.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import repeat
from operator import ge, mod, mul

from .attack import BlackBox
from .field import (
    FieldElement,
    SlotCodec,
    _file_integer,
    eliminate,
    parse_field_spec,
    prime_field,
)
from .poly import Monomial, MultiPoly, _random_monomial, _residues


class TargetError(ValueError):
    pass


class CountingOracle:
    """The online phase's oracle: a view of a `BlackBox` at a fixed key.

    `evaluate_grid(points)` is `box.stage(points)([key])`, one staged grid
    at a one-key batch: it answers a batch of public points, as residue
    tuples, with one residue per point, under the box's width checks and
    counter, so the key is folded or mapped once per batch and each
    distinct point of the batch is computed once.
    Calling the oracle on one public point of field elements is the
    one-point case. `evaluations` is the box's counter: the probes sent,
    one per point of every batch, repeats included."""

    def __init__(self, box: BlackBox, key: tuple[int, ...]):
        self._box = box
        self._key = key

    @property
    def evaluations(self) -> int:
        return self._box.evaluations

    def evaluate_grid(self, points: Sequence[Sequence[int]]) -> list[int]:
        [values] = self._box.stage(points)([self._key])
        return values

    def __call__(self, public: Sequence[FieldElement]) -> FieldElement:
        value = self.evaluate_grid([tuple(map(int, public))])[0]
        return self._box.spec.element(value)


def _compile(source: str, names: dict[str, Callable]) -> Callable:
    """The function `f` that generated `source` defines. The source runs
    with no builtins: its globals are `names`, the builtins it calls, and
    nothing else, so any other name it reads raises `NameError`. `f` is
    taken out of its own globals, so that it and they form no reference
    cycle and are freed with the target, not at the next garbage
    collection."""
    scope = {"__builtins__": {}, **names}
    exec(source, scope)
    return scope.pop("f")


def _residue_rows(
    rng: random.Random, p: int, rows: int, cols: int
) -> list[list[int]]:
    """A rows x cols matrix of seeded residues mod p, drawn row by row in
    one `_residues` call: the values and the generator's end state of
    `[[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]`."""
    flat = _residues(rng, p, rows * cols)
    return [flat[i : i + cols] for i in range(0, rows * cols, cols)]


def _tabulator(n_pub: int, values: list[str]) -> Callable:
    """A grid stage's table: `f(points)` gives, per point of n_pub
    coordinates x0, x1, ..., the tuple of `values`, expressions in them,
    compiled with no builtins. A trailing comma makes a tuple target or
    display of any width."""
    publics = "".join(f"x{i}, " for i in range(n_pub))
    cells = "".join(f"{v}, " for v in values)
    return _compile(
        f"def f(points):\n    return [({cells}) for {publics}in points]\n", {}
    )


class _Target:
    """What both target kinds share: a black box over the kind's staged
    kernel `_on_grid` and its weighted stage `_on_grid_sum`, and an online
    oracle that is a fresh box at a key (the target's own by default)."""

    # a kind's weighted stage, `_on_grid_sum(points, weights)`, if it has
    # one; None leaves the box's shared fallback over `_on_grid`
    _on_grid_sum = None

    @property
    def n_pub(self) -> int:
        return self.config.n_pub

    @property
    def n_sec(self) -> int:
        return self.config.n_sec

    def blackbox(self) -> BlackBox:
        return BlackBox(
            self.spec, self.n_pub, self.n_sec, None, self._on_grid, self._on_grid_sum
        )

    def online_oracle(
        self, key: Sequence[FieldElement] | None = None
    ) -> CountingOracle:
        key = tuple(map(int, self.key if key is None else key))
        if len(key) != self.n_sec:
            raise TargetError(
                f"the key has {len(key)} coordinates; the target takes {self.n_sec}"
            )
        return CountingOracle(self.blackbox(), key)


# ---------------------------------------------------------------------------
# planted polynomials


@dataclass(frozen=True)
class PlantedConfig:
    p: int
    n_pub: int
    n_sec: int
    total_degree: int
    extra_terms: int
    seed: int


# a planted target's coefficients split by secret degree (`PlantedTarget._split`)
Split = namedtuple("Split", "rows rests lanes unpack")

# the most terms one compiled slice of a planted remainder holds: compiling
# builds a syntax tree that grows with the source, and the largest loadable
# target's 3,964-term group compiled whole raised peak RSS by about 9 MB;
# every remainder of the benchmark's target fits in one slice
FOLD_TERMS = 256


class PlantedTarget(_Target):
    """A known polynomial f(public, secret) plus the key the online phase
    must recover. Black-box answers equal symbolic evaluation everywhere."""

    def __init__(
        self,
        config: PlantedConfig,
        poly: MultiPoly,
        key: tuple[FieldElement, ...],
        planted_terms: tuple[Monomial, ...],
    ):
        self.config = config
        self.spec = poly.spec
        self.poly = poly
        self.key = key
        self.planted_terms = planted_terms
        # terms grouped by their public monomial: (public factors, [(coeff,
        # secret factors), ...]), factors as (variable, exponent) pairs; the
        # factors of a secret monomial are listed once and shared by its
        # terms, which only read them
        n_pub = config.n_pub
        groups: dict[Monomial, tuple[list, list]] = {}
        secrets: dict[Monomial, list] = {}
        for mono, c in poly._terms.items():
            pub, sec = mono[:n_pub], mono[n_pub:]
            factors = secrets.get(sec)
            if factors is None:
                factors = secrets[sec] = [(j, e) for j, e in enumerate(sec) if e]
            group = groups.get(pub)
            if group is None:
                group = groups[pub] = ([(i, e) for i, e in enumerate(pub) if e], [])
            group[1].append((c.coeffs[0], factors))
        self._groups = list(groups.values())
        # each group's compiled remainder, once a grid has made it live
        self._folds: list[Callable | None] = [None] * len(self._groups)

    @property
    def suggested_max_multiplicity(self) -> int:
        return self.config.total_degree - 1

    @cached_property
    def _split(self) -> Split:
        """Each group's coefficient split by secret degree, in `_groups`
        order, built once per target on first kernel use (not on loading):

        - `rows`: its affine residue row [c_1, ..., c_n_sec, c_0] mod p,
          from its terms of secret degree at most 1 (c_j of s_j, c_0 the
          constant);
        - `rests`: its remainder, its terms of secret degree 2 or more,
          which alone `_fold` compiles, so a group whose remainder is empty
          is never compiled;
        - `lanes`: the rows packed one slot per group by `unpack`'s codec,
          one int per row entry, so that sum of s_j * lanes[j] + lanes[-1]
          holds row . s + c_0 of every group at once, each slot at most
          n_sec * (p - 1)^2 + p - 1.

        A group's coefficient at a secret s is (row . s + c_0 +
        remainder(s)) mod p. A group holds each secret monomial at most
        once, so each row entry is one term's coefficient, a residue."""
        p, n_sec = self.spec.p, self.n_sec
        rows, rests = [], []
        for _, parts in self._groups:
            row, rest = [0] * (n_sec + 1), []
            for c, factors in parts:
                if not factors:
                    row[-1] = c
                elif len(factors) == 1 and factors[0][1] == 1:
                    row[factors[0][0]] = c
                else:
                    rest.append((c, factors))
            rows.append(row)
            rests.append(rest)
        codec = SlotCodec(len(rows), n_sec * (p - 1) ** 2 + p - 1)
        return Split(rows, rests, codec.pack(zip(*rows)), codec.unpack)

    def _fold(self, group: int) -> Callable:
        """Group `group`'s remainder mod p at a secret residue vector `s`
        (see `_split`), compiled the first time a grid makes the group live
        and kept in `_folds`; the stages never ask for an empty remainder,
        so a group whose terms are all affine in the secret is never
        compiled.

        Each slice of at most `FOLD_TERMS` remainder terms is one compiled
        function, `f(s)` returning `sum((c*s[j]*pow(s[k], e, p), ...)) % p`,
        whose source holds only the target's own ints (its coefficients,
        secret indices, exponents and p) and which sees no builtins but
        `pow` and `sum`, so nothing outside the target reaches the compiler.
        The terms are a tuple display, not a chain of `+`: the compiler
        recurses once per `+`, and a chain of about 3,000 terms raises
        `RecursionError`. A remainder of one slice is that function; a
        larger one, such as the 3,899 terms of secret degree 2 or more in
        the 3,964-term group of the largest loadable target, is a compiled
        sum of its slices' functions mod p. Loading a target compiles
        nothing, and a group no grid makes live is never compiled."""
        p = self.spec.p

        def term(c: int, factors) -> str:
            return "*".join(
                [str(c)]
                + [
                    f"s[{j}]" if e == 1 else f"pow(s[{j}], {e}, {p})"
                    for j, e in factors
                ]
            )

        parts = self._split.rests[group]
        slices = []
        for start in range(0, len(parts), FOLD_TERMS):
            terms = ", ".join(term(c, f) for c, f in parts[start : start + FOLD_TERMS])
            slices.append(
                _compile(
                    f"def f(s):\n    return sum(({terms},)) % {p}\n",
                    {"pow": pow, "sum": sum},
                )
            )
        if len(slices) == 1:
            [fold] = slices
        else:
            calls = " + ".join(f"f{k}(s)" for k in range(len(slices)))
            fold = _compile(
                f"def f(s):\n    return ({calls}) % {p}\n",
                {f"f{k}": f for k, f in enumerate(slices)},
            )
        self._folds[group] = fold
        return fold

    @cached_property
    def _tabulate(self) -> Callable:
        """The grid stage's table, compiled once per target: `f(points)`
        gives, per point, a tuple of every group's public monomial mod p, in
        `_groups` order. Each value is a short-circuit product, such as
        `x0 and x2 and x0*x2*x2 % 31`, so a monomial with a zero coordinate
        costs no multiplication; a group with no public factor is `1`. The
        source holds only the target's ints (variable indices, repeated by
        exponent, and p) and sees no builtins. Built on first use so that
        loading a target does not pay the compile."""
        p = self.spec.p
        values = []
        for factors, _ in self._groups:
            product = "*".join(f"x{i}" for i, e in factors for _ in range(e))
            guard = "".join(f"x{i} and " for i, _ in factors)
            values.append(f"{guard}{product} % {p}" if factors else "1")
        return _tabulator(self.n_pub, values)

    def _on_grid(self, points: Sequence[Sequence[int]]):
        """Fixes a batch of public points: tabulates every public monomial
        per point with compiled code (`_tabulate`), keeps the monomials that
        are nonzero at some point, and packs each one's column of residues
        into one int, a fixed-width slot per point (Kronecker substitution).
        The secret stage reads each live monomial's coefficient at each
        secret of its batch from the group's split (`_split`), (row . s +
        c_0 + remainder(s)) mod p: row . s + c_0 of every group at once
        from the packed lanes, one multiply-add per secret coordinate (the
        coordinates reduced mod p first, so that no lane slot overflows),
        plus the compiled remainder (`_fold`) of each live group that has
        one. It then sums coefficient times packed column, one big-integer
        multiply-add per live monomial. A coefficient is a residue, so a
        slot then holds its point's value before the reduction mod p, at
        most len(live) * (p - 1)^2, and no slot carries into the next; each
        is read back and reduced mod p, one residue list per secret, one
        residue per point.

        The slots are `field.SlotCodec`'s, the codec `MultiPoly.evaluate`
        packs its terms with: the narrowest native item of 2, 4 or 8 bytes
        that holds the bound, or past 8 bytes (from p of about 2^29 with 64
        live monomials) slots of ceil(bits / 8) bytes."""
        p = self.spec.p
        _, rests, lanes, unpack_rows = self._split
        live, folds, columns = [], [], []
        for group, column in enumerate(zip(*self._tabulate(points))):
            if any(column):
                if rests[group]:
                    fold = self._folds[group] or self._fold(group)
                    folds.append((len(live), fold))
                live.append(group)
                columns.append(column)
        slots = SlotCodec(len(points), len(live) * (p - 1) ** 2)
        packed = slots.pack(columns)
        unpack = slots.unpack

        def at_secrets(secrets: Sequence[Sequence[int]]) -> list[list[int]]:
            answers = []
            for secret in secrets:
                reduced = [v % p for v in secret]
                affine = unpack_rows(sum(map(mul, lanes, reduced)) + lanes[-1])
                coefficients = list(map(affine.__getitem__, live))
                for index, fold in folds:
                    coefficients[index] += fold(secret)
                acc = sum(map(mul, map(mod, coefficients, repeat(p)), packed))
                answers.append([v % p for v in unpack(acc)])
            return answers

        return at_secrets

    def _on_grid_sum(self, points: Sequence[Sequence[int]], weights: Sequence[int]):
        """The weighted stage: fixes a batch of public points and their
        weights, tabulates every public monomial per point once
        (`_tabulate`) and reduces each group's column to one scalar, c_g =
        sum of w_pt * column_g[pt] mod p. A group with c_g = 0 drops out;
        over a unit-step grid at zero that is every group whose public
        monomial x^e the term's difference annihilates, by the paper's
        degree result every group with some e_i below the term's
        multiplicity m_i (a public outside the term, zero at every point,
        included). The remaining groups' affine rows (`_split`) merge into
        one, the sum of c_g * row_g mod p, and their remainders' compiled
        functions (`_fold`) are kept with c_g, so the secret stage answers
        each secret of its batch with one dot product plus the remainders,
        (row . s + c_0 + sum of c_g * remainder_g(s)) mod p, one residue
        per secret, with no slots to pack or read back. A grid whose
        remaining groups are all affine calls no compiled code, and one
        with no remaining group answers 0 for every secret."""
        p = self.spec.p
        rows, rests, _, _ = self._split
        scales, picked, folds = [], [], []
        for group, column in enumerate(zip(*self._tabulate(points))):
            c = sum(map(mul, weights, column)) % p
            if c:
                scales.append(c)
                picked.append(rows[group])
                if rests[group]:
                    folds.append((self._folds[group] or self._fold(group), c))
        if not picked:
            return lambda secrets: [0] * len(secrets)
        row = [sum(map(mul, scales, column)) % p for column in zip(*picked)]
        c0 = row[-1]
        if not folds:
            return lambda secrets: [(sum(map(mul, row, s)) + c0) % p for s in secrets]

        def at_secrets(secrets: Sequence[Sequence[int]]) -> list[int]:
            return [
                (sum(map(mul, row, s)) + c0 + sum([fold(s) * c for fold, c in folds]))
                % p
                for s in secrets
            ]

        return at_secrets


class _PublicMonomials(Sequence):
    """The monomials in n variables that are zero past the first n_pub and
    have total degree `degree` and every exponent at most `cap`, in
    `combinat._nonneg_splits` order, as a view: each item is unranked when
    asked for, so a draw of a few reads no list of them all.

    `_counts[k][t]` is the number of ways to write t as k exponents of at
    most `cap`. Item i takes the smallest first exponent e whose block of
    items, `_counts[k - 1][t - e]` of them, holds i, and goes on from the
    index within that block."""

    def __init__(self, n_pub: int, n: int, degree: int, cap: int):
        counts = [[1] + [0] * degree]
        for _ in range(n_pub):
            last = counts[-1]
            counts.append(
                [sum(last[max(t - cap, 0) : t + 1]) for t in range(degree + 1)]
            )
        self._counts = counts
        self._pad = (0,) * (n - n_pub)

    def __len__(self) -> int:
        return self._counts[-1][-1]

    def __getitem__(self, index: int) -> Monomial:
        if not 0 <= index < len(self):
            raise IndexError(index)
        total = len(self._counts[0]) - 1
        exponents = []
        for row in reversed(self._counts[1:-1]):
            e = 0
            while index >= row[total - e]:
                index -= row[total - e]
                e += 1
            exponents.append(e)
            total -= e
        return (*exponents, total, *self._pad)


def make_planted(
    p: int,
    n_pub: int,
    n_sec: int,
    total_degree: int,
    extra_terms: int,
    seed: int,
) -> PlantedTarget:
    """Seed-deterministic planted target; raises on infeasible profiles.

    The seed draws, in order: n_sec anchors among the public monomials of
    degree deg-1; the n_sec x n_sec matrix of the secret linear forms,
    redrawn until invertible; each extra term, a monomial then a nonzero
    coefficient, redrawn when the monomial holds an anchor; and the key."""
    spec = prime_field(p)
    if n_pub < 1:
        raise TargetError("need at least one public variable for a cube")
    if n_sec < 1:
        raise TargetError("need at least one secret variable")
    if total_degree < 2:
        raise TargetError("total degree must be at least 2")
    cap = p - 1
    if total_degree - 1 > n_pub * cap:
        raise TargetError("public block cannot carry multiplicity deg-1")
    n = n_pub + n_sec
    anchors = _PublicMonomials(n_pub, n, total_degree - 1, cap)
    if len(anchors) < n_sec:
        raise TargetError(
            f"only {len(anchors)} public terms of degree {total_degree - 1}; "
            f"need {n_sec}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(anchors, n_sec)
    # secret linear forms with an invertible coefficient matrix
    while True:
        matrix = _residue_rows(rng, p, n_sec, n_sec)
        basis: list[list[int]] = []
        pivots: list[int] = []
        if all(eliminate(basis, pivots, row, p, n_sec) is None for row in matrix):
            break
    terms: dict[Monomial, FieldElement] = {}
    for anchor, row in zip(chosen, matrix):
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            mono = list(anchor)
            mono[n_pub + j] = 1
            terms[tuple(mono)] = spec.element(coeff)
    # an anchor is zero on the secret block and of public degree deg-1, so
    # only a public block of that degree or more can hold one
    planted = tuple(m[:n_pub] for m in chosen)
    placed = 0
    while placed < extra_terms:
        mono = _random_monomial(rng, n, total_degree, cap)
        head = mono[:n_pub]
        if sum(head) >= total_degree - 1 and any(
            all(map(ge, head, anchor)) for anchor in planted
        ):
            continue  # anchors must keep their exact quotient forms
        terms[mono] = spec.random_element(rng, nonzero=True)
        placed += 1
    key = tuple(map(spec.element, _residues(rng, p, n_sec)))
    config = PlantedConfig(p, n_pub, n_sec, total_degree, extra_terms, seed)
    # the map is canonical as drawn: n exponents each, none above p - 1, and
    # nonzero field elements as coefficients
    return PlantedTarget(config, MultiPoly._raw(spec, n, terms), key, planted)


# ---------------------------------------------------------------------------
# toy cipher

# the most nonzero mix entries one compiled chunk of toy-cipher rounds holds:
# compiling builds a syntax tree that grows with the chunk, and a whole
# 16-round, width-64 cipher as one function peaked near 72 MB under
# `attack-pre`; a round has at most 64 x 64 = 4,096 entries, so none
# exceeds it
CHUNK_TERMS = 4096


def _products(row: Sequence[int], name: str) -> list[str]:
    """Generated code for each nonzero entry m of `row` times the variable
    of its column j, such as `5 * s2`, or `s2` alone when m is 1."""
    return [
        f"{name}{j}" if m == 1 else f"{m} * {name}{j}" for j, m in enumerate(row) if m
    ]


@dataclass(frozen=True)
class ToyCipherParams:
    p: int
    rounds: int
    width: int
    n_pub: int
    n_sec: int
    seed: int


class ToyCipher(_Target):
    """Keyed toy map over GF(p): load publics, add a whitening key layer,
    then per round an affine mix with key injection followed by one
    quadratic step. Output degree stays below 2^rounds + 1. The seed draws
    the whitening key matrix (redrawn while its row 0 is zero) and
    constants, then each round's mix, key matrix and constants, then the
    key.

    The secret enters only through affine layers, so every constant it
    gives is one row of one matrix, `_key_map`, composed once per cipher.
    The kernel loads a grid's publics (`_load`) and runs the rounds after
    the first (`_chunks`) as code compiled once per cipher: each chunk
    derives its rows' constants from the secret in straight-line code,
    then loops over the grid's points."""

    def __init__(self, config: ToyCipherParams):
        if config.width < 1 or config.rounds < 0:
            raise TargetError("bad toy cipher geometry")
        if config.n_pub < 1 or config.n_sec < 1:
            raise TargetError("need public and secret inputs")
        self.config = config
        self.spec = prime_field(config.p)
        rng = random.Random(config.seed)
        p, w = config.p, config.width
        self.whiten = self._key_matrix(rng, w, config.n_sec, ensure_row0=True)
        self.whiten_const = _residues(rng, p, w)
        self.round_mix = []
        self.round_key = []
        self.round_const = []
        for _ in range(config.rounds):
            self.round_mix.append(_residue_rows(rng, p, w, w))
            self.round_key.append(self._key_matrix(rng, w, config.n_sec))
            self.round_const.append(_residues(rng, p, w))
        self.key = tuple(map(self.spec.element, _residues(rng, p, config.n_sec)))

    # kernel tables, built on first use so that loading a target does not
    # pay for them

    @cached_property
    def _quad(self) -> list[tuple[int, int, int]]:
        """Output i of the quadratic step reads affine taps i, i+1 and i+2."""
        w = self.config.width
        return [(i, (i + 1) % w, (i + 2) % w) for i in range(w)]

    @cached_property
    def _layers(self) -> list:
        """The rounds as the kernel runs them, (mix, key, const) rows; the
        last keeps only the taps of output 0, the one output returned. Zero
        rounds are one uncut identity layer on coordinate 0."""
        layers = list(zip(self.round_mix, self.round_key, self.round_const))
        if not layers:
            return [([[1]], [[0] * self.n_sec], [0])]
        taps = self._quad[0]
        layers[-1] = [[rows[t] for t in taps] for rows in layers[-1]]
        return layers

    @cached_property
    def _key_map(self) -> list[list[int]]:
        """Every secret-only constant of an encryption as one affine map of
        (secret, 1) mod p, one row per constant: first the first round's
        mix_1 * (whiten * secret + whiten_const) + inject_1 (output 0's
        whitening row at zero rounds), then each later round's key
        injection plus constant."""
        p = self.config.p
        whiten = [row + [c] for row, c in zip(self.whiten, self.whiten_const)]
        (mix, keys, consts), *later = self._layers
        columns = list(zip(*whiten))
        first = [
            [(sum(map(mul, row, col)) + k) % p for col, k in zip(columns, krow + [c])]
            for row, krow, c in zip(mix, keys, consts)
        ]
        return first + [
            krow + [c] for _, keys, consts in later for krow, c in zip(keys, consts)
        ]

    def _key_matrix(self, rng, w, n_sec, ensure_row0=False):
        while True:
            matrix = _residue_rows(rng, self.config.p, w, n_sec)
            if not ensure_row0 or any(matrix[0]):
                return matrix

    @property
    def suggested_max_multiplicity(self) -> int:
        return 2**self.config.rounds

    @cached_property
    def _chunks(self) -> list[tuple[Callable, int, int]]:
        """The secret stage as compiled functions, each with the slice of
        `_key_map` rows whose constants it derives, `(chunk, start, stop)`.

        The rounds after the first are grouped in order into chunks of at
        most `CHUNK_TERMS` nonzero mix entries (at least one round each).
        Chunk `f(rows, s0, s1, ...)` takes the secret's n_sec residues and
        first derives its key constants in local variables, one line per
        key row it owns, such as `k4 = (5 * s0 + s2 + 2) % 7` (zero entries
        dropped; a row with no secret entry is its constant alone). It then
        loops over per-point states and runs its rounds in local variables:
        the quadratic step, reduced mod p, then the affine layer, the key
        constant plus, for each distinct nonzero mix entry m of the row, m
        times the sum of the states it multiplies. The first chunk takes
        the grid rows and first adds the first round's constants; each chunk
        but the last returns the states it reached, as tuples, and the last
        returns output 0 mod p (at zero rounds, the whitened coordinate 0).
        The source holds only the cipher's ints (key-map and mix entries,
        tap indices, p) and sees no builtins. Built on first use so that
        loading a target does not pay the compile."""
        p, quad, key_map = self.config.p, self._quad, self._key_map
        first, *later = [mix for mix, _, _ in self._layers]
        groups, terms = [[]], 0
        for mix in later:
            n = sum(len(row) - row.count(0) for row in mix)
            if groups[-1] and terms + n > CHUNK_TERMS:
                groups.append([])
                terms = 0
            groups[-1].append(mix)
            terms += n

        def state(n: int) -> str:
            # a trailing comma makes a tuple target or display of any width
            return "".join(f"a{i}, " for i in range(n))

        def constant(r: int) -> str:
            # key row r applied to (secret, 1), its zero entries dropped
            *row, c = key_map[r]
            parts = _products(row, "s")
            if not parts:
                return str(c)
            if c:
                parts.append(str(c))
            return f"({' + '.join(parts)}) % {p}"

        output = f"(a0 + a1 * a2) % {p}" if self.config.rounds else f"a0 % {p}"
        params = "".join(f", s{j}" for j in range(self.n_sec))
        chunks, width, key = [], len(first), 0
        for index, mixes in enumerate(groups):
            start = key
            head = f"for {state(width)}in rows:"
            loop = []
            if not index:
                loop += [f"a{i} += k{i}" for i in range(width)]
                key = width
            for mix in mixes:
                loop += [f"q{i} = (a{i} + a{j} * a{k}) % {p}" for i, j, k in quad]
                for r, row in enumerate(mix):
                    # one product per distinct entry, over the sum of the
                    # states it multiplies
                    reads: dict[int, list[str]] = {}
                    for i, m in enumerate(row):
                        if m:
                            reads.setdefault(m, []).append(f"q{i}")
                    sums = [f"k{key + r}"] + [
                        " + ".join(v) if m == 1 else f"{m} * ({' + '.join(v)})"
                        for m, v in reads.items()
                    ]
                    loop.append(f"a{r} = {' + '.join(sums)}")
                key += len(mix)
                width = len(mix)
            last = index == len(groups) - 1
            loop.append(f"append({output})" if last else f"append(({state(width)}))")
            source = "\n".join(
                [f"def f(rows{params}):"]
                + [f"    k{r} = {constant(r)}" for r in range(start, key)]
                + ["    out = []", "    append = out.append", f"    {head}"]
                + [f"        {line}" for line in loop]
                + ["    return out", ""]
            )
            chunks.append((_compile(source, {}), start, key))
        return chunks

    @cached_property
    def _load(self) -> Callable:
        """The grid stage, compiled once per cipher: `f(points)` gives, per
        point, the first round's mix of the loaded publics as an unreduced
        tuple, such as `(6 * x0 + 4 * x2 + 6 * x3, ...)`, one entry per mix
        row (the loaded coordinate 0 at zero rounds). The publics load
        zero-padded or cut at the width, so a row reads only columns j <
        min(n_pub, width) with a nonzero entry, and a row with none is `0`.
        The source holds only the cipher's ints (mix entries and public
        indices) and sees no builtins. Built on first use so that loading a
        target does not pay the compile."""
        first = self._layers[0][0]

        return _tabulator(
            self.n_pub,
            [" + ".join(_products(row[: self.n_pub], "x")) or "0" for row in first],
        )

    def _on_grid(self, points: Sequence[Sequence[int]]):
        """A batch of public points. The grid stage tabulates the first
        round's mix of the loaded publics (the loaded coordinate 0 at zero
        rounds) with compiled code (`_load`), one row per point; whitening
        only adds a constant before mix_1, so the secret never enters. The
        secret stage hands the rows and each secret of its batch through
        the compiled chunks (`_chunks`), which derive their key constants
        from the secret, run every later round per point in local
        variables and give one residue list per secret, one residue per
        point. The last round holds output 0's three taps only."""
        chunks = self._chunks
        rows = self._load(points)

        def at_secrets(secrets: Sequence[Sequence[int]]) -> list[list[int]]:
            answers = []
            for secret in secrets:
                states = rows
                for chunk, _, _ in chunks:
                    states = chunk(states, *secret)
                answers.append(states)
            return answers

        return at_secrets


# ---------------------------------------------------------------------------
# target description files


# one kind's description-file schema: its target class, its config
# dataclass, the call that builds a target from a config, and its size keys
# in file order, each with the config field it sets and its inclusive range;
# every file also gives `field` (the config's p) before them and `seed` after
TargetKind = namedtuple("TargetKind", "target config build sizes")

# the kinds a target file may name; the planted bounds keep the anchor search
# to at most C(18, 11) = 31,824 public monomials
KINDS = {
    "planted": TargetKind(
        PlantedTarget, PlantedConfig, lambda config: make_planted(*astuple(config)),
        {
            "public": ("n_pub", 1, 8),
            "secret": ("n_sec", 1, 64),
            "total-degree": ("total_degree", 2, 12),
            "extra-terms": ("extra_terms", 0, 10_000),
        },
    ),
    "toy-cipher": TargetKind(
        ToyCipher, ToyCipherParams, ToyCipher,
        {
            "public": ("n_pub", 1, 64),
            "secret": ("n_sec", 1, 64),
            "rounds": ("rounds", 0, 16),
            "width": ("width", 1, 64),
        },
    ),
}


def save_target(path, target) -> None:
    """Write the description file of `target`, keyed by its kind's schema."""
    for name, kind in KINDS.items():
        if isinstance(target, kind.target):
            break
    else:
        raise TargetError(f"cannot serialise {type(target).__name__}")
    config = target.config
    lines = ["# gfdelta target v1", f"kind: {name}", f"field: {config.p}"]
    lines += [f"{key}: {getattr(config, a)}" for key, (a, _, _) in kind.sizes.items()]
    lines.append(f"seed: {config.seed}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_target(path):
    """Rebuild a target bit-identically from its description file. The
    checks run in one order: `kind` is read, `field` parsed and refused
    unless prime, the kind looked up in `KINDS`, each of its sizes read and
    bounded in file order, `seed` read, the first repeated key refused, and
    then the first key the kind does not define; only then is the target
    built."""
    fields: dict[str, str] = {}
    repeated = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise TargetError(f"bad target line {line!r}")
            key, value = line.split(":", 1)
            key = key.strip()
            if key in fields:
                repeated.append(key)
            fields[key] = value.strip()
    try:
        name = fields["kind"]
        spec = parse_field_spec(fields["field"])
        if spec.m != 1:
            raise TargetError("targets are defined over prime fields")
        kind = KINDS.get(name)
        if kind is None:
            raise TargetError(f"unknown target kind {name!r}")
        sizes = {}
        for key, (attr, lo, hi) in kind.sizes.items():
            value = _file_integer(fields[key], f"target {key}", TargetError)
            if not lo <= value <= hi:
                raise TargetError(f"target {key} {value} is outside {lo}..{hi}")
            sizes[attr] = value
        seed = _file_integer(fields["seed"], "target seed", TargetError)
    except KeyError as exc:
        raise TargetError(f"target file missing {exc}") from None
    if repeated:
        raise TargetError(f"target key {repeated[0]!r} is repeated")
    known = {"kind", "field", "seed", *kind.sizes}
    for key in fields:
        if key not in known:
            raise TargetError(f"unknown target key {key!r}")
    return kind.build(kind.config(p=spec.p, seed=seed, **sizes))
