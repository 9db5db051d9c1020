"""Grid-based cube attack over GF(p).

Preprocessing differences the target w.r.t. public-variable terms, keeps the
terms whose differenced function looks linear in the secret variables, and
extracts each linear form by probing unit vectors. The online phase replays
the same grids against the fixed unknown key and solves the collected linear
system by Gaussian elimination over GF(p). Every value from a record's linear
form to the recovered key is a residue mod p.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .combinat import _positive_compositions
from .diff import _term_grid
from .field import (
    FieldElement,
    FieldSpec,
    _file_integer,
    back_pass,
    eliminate,
    parse_field_spec,
)
from .poly import Monomial, PolyError, _residues, monomial_text, parse_monomial


class AttackError(ValueError):
    pass


class BudgetExhausted(Exception):
    """Raised internally when the evaluation budget cannot fund the next grid."""


# grid(points) -> at_secrets(secrets) -> per secret, one residue per point;
# grid_sum(points, weights) -> at_secrets(secrets) -> one residue per secret,
# the weighted sum of its answers over the points (see BlackBox)
SecretStage = Callable[[Sequence[Sequence[int]]], list[list[int]]]
StagedGrid = Callable[[Sequence[Sequence[int]]], SecretStage]
SummedStage = Callable[[Sequence[Sequence[int]]], list[int]]
StagedSum = Callable[[Sequence[Sequence[int]], Sequence[int]], SummedStage]


class BlackBox:
    """Evaluation-only keyed function f(public, secret) over a prime field.

    The wrapped function must be pure: identical inputs must give identical
    outputs. The counter `evaluations` counts the probes sent, one per
    point and secret of a batch, repeats included; what the kernel computes
    may be less, since `stage` consults it once per distinct point.

    Two batch entries answer a batch of public points (residue tuples, or
    lists). Each checks the width of every point, stages the batch once in
    the kernel and returns a secret stage, which checks the width of every
    secret vector of its batch (residue tuples) and counts one probe per
    point and secret:
    - `stage(points)` stages each distinct point of the batch once, in
      first-seen order; its secret stage returns one residue list per secret, one
      residue per point of the caller's batch, repeats fanned back out.
      Nothing is kept from one batch to the next;
    - `stage_sum(points, weights)`, one weight per point, is the weighted
      entry: its secret stage returns one residue per secret, the sum of
      w_pt * f(pt, secret) mod p.
    `evaluate` is the one-point, one-secret case of `stage` over field
    elements. The superpoly oracle stages its term's grid and weights
    through `stage_sum` on its first call and sends every batch of secrets
    to that stage, and the attack charges its budget grid by grid, before
    any of a grid's probes; the online replay and `confirm_key` read
    single points through `stage`.

    Probes run in `grid`, a staged kernel: `grid(points)` fixes a batch and
    returns the secret stage `at_secrets(secrets)`. A target passes its
    `_on_grid` and no `fn`. Without `grid`, `_pointwise` stages
    `fn(public, secret)`, a per-point function over field elements. The
    weighted entry runs `grid_sum(points, weights)` where the kernel has
    one (the planted target's `_on_grid_sum`), else the shared fallback
    `_weighted`, which sums the per-point stage's answers. The online
    oracle (`targets.CountingOracle`) is this box at a fixed key, a
    one-secret batch, so online probes get the same checks and counter.
    """

    def __init__(
        self,
        spec: FieldSpec,
        n_pub: int,
        n_sec: int,
        fn: Callable[[Sequence[FieldElement], Sequence[FieldElement]], FieldElement]
        | None,
        grid: StagedGrid | None = None,
        grid_sum: StagedSum | None = None,
    ):
        if spec.m != 1:
            raise AttackError("the attack operates over prime fields")
        self.spec = spec
        self.n_pub = n_pub
        self.n_sec = n_sec
        self._grid = grid or _pointwise(spec, fn)
        self._grid_sum = grid_sum or _weighted(self._grid, spec.p)
        self.evaluations = 0

    def evaluate(
        self, public: Sequence[FieldElement], secret: Sequence[FieldElement]
    ) -> FieldElement:
        at_secrets = self.stage((tuple(map(int, public)),))
        [[value]] = at_secrets((tuple(map(int, secret)),))
        return self.spec.element(value)

    def stage(self, points: Sequence[Sequence[int]]) -> SecretStage:
        _check_widths(points, self.n_pub)
        # a replay's nested grids repeat points: compute each one once
        slots = {}
        order = [slots.setdefault(pt, len(slots)) for pt in map(tuple, points)]
        at_distinct = self._grid(list(slots))

        def at_secrets(secrets):
            return [[values[i] for i in order] for values in at_distinct(secrets)]

        return self._charged(len(points), at_secrets)

    def stage_sum(
        self, points: Sequence[Sequence[int]], weights: Sequence[int]
    ) -> SummedStage:
        _check_widths(points, self.n_pub)
        if len(weights) != len(points):
            raise AttackError("a weighted grid needs one weight per point")
        return self._charged(len(points), self._grid_sum(points, weights))

    def _charged(self, size: int, at_secrets: Callable) -> Callable:
        """`at_secrets` behind the secret widths check and the counter,
        `size` probes per secret."""

        def probe(secrets: Sequence[Sequence[int]]):
            _check_widths(secrets, self.n_sec)
            self.evaluations += size * len(secrets)
            return at_secrets(secrets)

        return probe


def _check_widths(vectors: Sequence[Sequence[int]], width: int) -> None:
    if not set(map(len, vectors)) <= {width}:
        raise AttackError("input width mismatch")


def _pointwise(spec: FieldSpec, fn: Callable) -> StagedGrid:
    """A staged kernel over a per-point function on field elements:
    `grid(points)` boxes each residue point and returns the secret stage,
    which boxes each secret of its batch, calls `fn(point, secret)` once per
    point and secret and returns the answers as residues, one list per
    secret."""
    element = spec.element

    def grid(points):
        boxed = [tuple(map(element, pt)) for pt in points]

        def at_secrets(secrets):
            keys = [tuple(map(element, secret)) for secret in secrets]
            return [[int(fn(pt, key)) for pt in boxed] for key in keys]

        return at_secrets

    return grid


def _weighted(grid: StagedGrid, p: int) -> StagedSum:
    """The shared weighted stage of a kernel that has no weighted stage of
    its own: `grid_sum(points, weights)` stages the points once through
    `grid`, and its secret stage sums each secret's per-point answers times
    the weights mod p."""

    def grid_sum(points, weights):
        at_secrets = grid(points)

        def summed(secrets):
            return [
                sum(map(operator.mul, weights, values)) % p
                for values in at_secrets(secrets)
            ]

        return summed

    return grid_sum


class Verdict(enum.Enum):
    LIKELY_LINEAR = "likely-linear"
    NONLINEAR = "nonlinear"
    CONSTANT = "constant"


@dataclass(frozen=True)
class MaxtermRecord:
    """One discovered relation: differencing by `term` leaves the affine
    secret form c_0 + sum(c_i * x_i), with c_0 and c residues mod p."""

    term: Monomial
    c0: int
    c: tuple[int, ...]
    evaluations_used: int


# ---------------------------------------------------------------------------
# superpoly grids


def superpoly_oracle(bb: BlackBox, term: Monomial):
    """Callable evaluating the differenced function at public zeros for a
    batch of secret residue vectors, one residue per secret. The first call
    stages the term's grid, its prod(m_i + 1) points, and their weights
    through the box's weighted entry `bb.stage_sum`, so a term that the
    budget cannot fund is never staged; every call sends its batch of
    secrets to that one stage, which sums the grid for each secret (in the
    planted kernel from its nonvanishing monomial sums, in any other
    through the shared fallback over the per-point stage). The grid is
    `diff._term_grid`, which refuses a multiplicity of p or more with
    DiffError."""
    grid = _term_grid(bb.spec, tuple(term))
    probe = None

    def evaluate(secrets: Sequence[Sequence[int]]) -> list[int]:
        nonlocal probe
        probe = probe or bb.stage_sum(grid.residues, grid.weights)
        return probe(secrets)

    evaluate.grid_size = len(grid.weights)  # type: ignore[attr-defined]
    return evaluate


# ---------------------------------------------------------------------------
# linearity testing and linear-form extraction

def _trials(p: int, trials: int | None) -> int:
    """`trials`, checked, or the default count over GF(p). The defaults follow
    the usual linearity-testing soundness story: each trial rejects a
    non-affine function with constant probability, so twenty trials over
    GF(3), or a dozen over any other field, push the false-accept chance
    below about 2^-20. The source material leaves the count open; these are
    engineering defaults."""
    if trials is None:
        trials = 20 if p == 3 else 12
    if trials < 1:
        raise AttackError("need at least one trial")
    return trials


def _linearity_verdict(eval_superpoly, p, n_sec, trials, rng) -> Verdict:
    """BLR-style test on residues; draws exactly the `rng.randrange(p)`
    stream that `FieldSpec.random_element` would, one `_residues` call per
    trial: a, b, then y and z.

    `eval_superpoly` probes a grid, then a batch of secrets: the zero
    secret with the first trial's y, z and ay + bz, then each later trial's
    three as one batch, in the order the test reads them."""
    saw_variation = False
    for trial in range(trials):
        a, b, *yz = _residues(rng, p, 2 + 2 * n_sec)
        y, z = tuple(yz[:n_sec]), tuple(yz[n_sec:])
        c = tuple((a * yi + b * zi) % p for yi, zi in zip(y, z))
        if trial == 0:
            base, fy, fz, fc = eval_superpoly([(0,) * n_sec, y, z, c])
        else:
            fy, fz, fc = eval_superpoly([y, z, c])
        if fy != base or fz != base or fc != base:
            saw_variation = True
        if (a * (fy - base) + b * (fz - base) - (fc - base)) % p:
            return Verdict.NONLINEAR
    return Verdict.LIKELY_LINEAR if saw_variation else Verdict.CONSTANT


def _linear_form(oracle, p: int, n_sec: int) -> tuple[int, tuple[int, ...]]:
    """c_0 at zero, then c_i from unit vectors, as residues: one oracle call
    probes a grid, then a batch of (n_sec + 1) secrets, zero first."""
    zero = (0,) * n_sec
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n_sec)]
    c0, *values = oracle([zero, *units])
    return c0, tuple((v - c0) % p for v in values)


# ---------------------------------------------------------------------------
# candidate terms

def candidate_terms(n_pub: int, p: int, max_total_mult: int) -> Iterator[Monomial]:
    """Deterministic, cost-aware schedule: increasing total multiplicity,
    then increasing variable count, then lexicographic variable choice,
    then cheapest grids first. Starts with the empty term, which leaves the
    function undifferenced and catches targets already affine in the key.
    Totals stop at n_pub * (p - 1): beyond it every composition has a part
    of p or more."""
    yield (0,) * n_pub
    for total in range(1, min(max_total_mult, n_pub * (p - 1)) + 1):
        for k in range(1, min(n_pub, total) + 1):
            splits = sorted(
                (s for s in _positive_compositions(total, k) if max(s) < p),
                key=lambda s: (math.prod(m + 1 for m in s), s),
            )
            for variables in itertools.combinations(range(n_pub), k):
                for split in splits:
                    mono = [0] * n_pub
                    for var, mult in zip(variables, split):
                        mono[var] = mult
                    yield tuple(mono)


# ---------------------------------------------------------------------------
# preprocessing

# probes that `attack-pre` spends by default; `online` replays no more points
DEFAULT_BUDGET = 10**6


@dataclass
class PreprocessResult:
    records: list[MaxtermRecord]
    dependent: list[MaxtermRecord]
    status: str  # 'complete', 'budget-exhausted', or 'terms-exhausted'
    evaluations: int
    terms_tried: int

    @property
    def rank(self) -> int:
        return len(self.records)


def _charged_oracle(bb: BlackBox, term: Monomial, limit: int):
    """The term's superpoly oracle charged grid by grid, in batch order, until
    the box's counter reaches `limit`: a batch that the budget funds only in
    part has its funded secrets evaluated, then `BudgetExhausted` is
    raised."""
    oracle = superpoly_oracle(bb, term)
    cost = oracle.grid_size

    def evaluate(secrets):
        funded = (limit - bb.evaluations) // cost
        if funded < len(secrets):
            if funded > 0:
                oracle(secrets[:funded])
            raise BudgetExhausted
        return oracle(secrets)

    return evaluate


def preprocess(
    bb: BlackBox,
    budget: int,
    max_total_mult: int,
    seed: int,
    trials: int | None = None,
) -> PreprocessResult:
    """Search candidate terms until n_sec independent linear forms are found,
    the term schedule ends, or the budget runs out. Deterministic for a
    fixed seed. The budget and the reported evaluations count this call's
    probes, whatever the box spent before it."""
    if budget <= 0:
        raise AttackError("budget must be positive")
    trials = _trials(bb.spec.p, trials)
    if max_total_mult < 0:
        raise AttackError("the largest total multiplicity cannot be negative")
    spec = bb.spec
    rng = random.Random(seed)
    # the kept records' coefficient rows, in echelon form for `eliminate`
    basis: list[list[int]] = []
    pivots: list[int] = []
    records: list[MaxtermRecord] = []
    dependent: list[MaxtermRecord] = []
    terms_tried = 0
    start = bb.evaluations
    if bb.n_sec == 0:
        return PreprocessResult(records, dependent, "complete", 0, 0)
    status = "terms-exhausted"
    try:
        for term in candidate_terms(bb.n_pub, spec.p, max_total_mult):
            terms_tried += 1
            before = bb.evaluations
            oracle = _charged_oracle(bb, term, start + budget)
            verdict = _linearity_verdict(oracle, spec.p, bb.n_sec, trials, rng)
            if verdict is not Verdict.LIKELY_LINEAR:
                continue
            c0, coeffs = _linear_form(oracle, spec.p, bb.n_sec)
            if not any(coeffs):
                continue
            record = MaxtermRecord(term, c0, coeffs, bb.evaluations - before)
            if eliminate(basis, pivots, coeffs, spec.p, bb.n_sec) is None:
                records.append(record)
            else:
                dependent.append(record)
            if len(records) >= bb.n_sec:
                status = "complete"
                break
    except BudgetExhausted:
        status = "budget-exhausted"
    evaluations = bb.evaluations - start
    return PreprocessResult(records, dependent, status, evaluations, terms_tried)


# ---------------------------------------------------------------------------
# linear algebra and the online phase


@dataclass
class SolveResult:
    status: str  # 'unique', 'parametrized', or 'inconsistent'
    rank: int
    pivots: tuple[int, ...]
    free: tuple[int, ...]
    solution: tuple[int, ...] | None
    pinned: dict[int, int]  # variable -> the one value every solution gives it


def _feed(
    rows: Sequence[Sequence[int]], p: int, width: int
) -> tuple[list[list[int]], list[int], int, list[int]]:
    """Feeds the rows to `field.eliminate` in order until the coefficients
    reach full rank. Returns the basis, its pivots, the index of the last
    row that added a pivot (-1 if none), and the indices of the rows fed
    whose residue reads 0 = b. A system that never reaches full rank is fed
    whole, so the rows after that last one were reduced against the final
    basis."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    last = -1
    conflicts = []
    for i, row in enumerate(rows):
        if len(pivots) == width:
            break
        residue = eliminate(basis, pivots, row, p, width)
        if residue is None:
            last = i
        elif residue[width]:
            conflicts.append(i)
    return basis, pivots, last, conflicts


def _misses(
    rows: Sequence[Sequence[int]], start: int, values: Sequence[int], p: int
) -> list[int]:
    """The indices from `start` on of the rows that `values` does not
    satisfy, one dot product each."""
    width = len(values)
    return [
        i
        for i in range(start, len(rows))
        if (sum(map(operator.mul, rows[i], values)) - rows[i][width]) % p
    ]


def _back_substitute(basis: list[list[int]], pivots: list[int], p: int) -> list[int]:
    """The one solution of a full-rank `eliminate` basis: each pivot row is
    0 at the pivots of the rows before it, so from the last row back every
    other column it touches is solved."""
    width = len(pivots)
    values = [0] * width
    for row, col in zip(reversed(basis), reversed(pivots)):
        values[col] = (row[width] - sum(map(operator.mul, row, values))) % p
    return values


def gaussian_solve(rows: Sequence[Sequence[int]], p: int) -> SolveResult:
    """Solves a linear system over GF(p), with full rank reporting.

    Each row holds integers read mod p: its coefficients, then its
    right-hand side. The rows go through `field.eliminate` in order only
    until the coefficients reach full rank. Back substitution then gives
    the unique solution, and each later row is checked against it by one
    dot product. A system that never reaches full rank has been eliminated
    whole by then, and `field.back_pass` reduces its basis: the solution
    slot holds the particular solution with free variables at zero, and a
    pivot variable whose row touches no free column is pinned. A row whose
    coefficients reduce to zero but whose right-hand side does not reads
    0 = b, and the system is inconsistent; its rank and pivots are still
    those of all the rows' coefficients."""
    width = len(rows[0]) - 1 if rows else 0
    basis, pivots, last, conflicts = _feed(rows, p, width)
    if len(pivots) == width:
        values = _back_substitute(basis, pivots, p)
        every = tuple(range(width))
        if not conflicts and not _misses(rows, last + 1, values, p):
            pinned = dict(enumerate(values))
            return SolveResult("unique", width, every, (), tuple(values), pinned)
        return SolveResult("inconsistent", width, every, (), None, {})
    reduced, pivots = back_pass(basis, pivots, p)
    rank = len(pivots)
    free = tuple(i for i in range(width) if i not in pivots)
    if conflicts:
        return SolveResult("inconsistent", rank, tuple(pivots), free, None, {})
    values = [0] * width
    pinned = {}
    for row, col in zip(reduced, pivots):
        values[col] = row[width]
        if not any(row[i] for i in free):
            pinned[col] = row[width]
    return SolveResult("parametrized", rank, tuple(pivots), free, tuple(values), pinned)


def _suspects(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """The indices, in order, of the rows of an inconsistent system without
    which `gaussian_solve` finds it consistent.

    The prefix up to the last row that adds a pivot has the system's rank,
    and dropping a row past it keeps that prefix and its basis. Whether a
    later row conflicts is then known without a solve: at full rank by one
    dot product against the prefix's solution, and below it by the
    residue the elimination already left. Dropping a later row leaves a
    consistent system exactly when that row is the system's only
    conflict, so only dropping a prefix row needs a fresh solve."""
    width = len(rows[0]) - 1
    basis, pivots, last, conflicts = _feed(rows, p, width)
    if len(pivots) == width:
        conflicts += _misses(rows, last + 1, _back_substitute(basis, pivots, p), p)
    suspects = [
        i
        for i in range(last + 1)
        if gaussian_solve(rows[:i] + rows[i + 1 :], p).status != "inconsistent"
    ]
    if len(conflicts) == 1 and conflicts[0] > last:
        suspects += conflicts
    return suspects


@dataclass
class OnlineResult:
    status: str  # 'recovered', 'partial', 'inconsistent', or 'empty'
    key: tuple[int, ...] | None
    assignment: dict[int, int]
    rank: int
    message: str
    suspects: list[int] = field(default_factory=list)


PublicOracle = Callable[[tuple[FieldElement, ...]], FieldElement]


def _oracle_grid(spec: FieldSpec, oracle: PublicOracle) -> Callable:
    """The oracle's `evaluate_grid(points)` where it has one (a target's
    `CountingOracle`), else the oracle probed point by point through
    `_pointwise`, at a one-secret batch holding the empty secret."""
    if hasattr(oracle, "evaluate_grid"):
        return oracle.evaluate_grid
    stage = _pointwise(spec, lambda public, _: oracle(public))
    return lambda points: stage(points)([()])[0]


def online(
    oracle: PublicOracle,
    records: Sequence[MaxtermRecord],
    spec: FieldSpec,
    n_sec: int,
) -> OnlineResult:
    """Replay each record's grid against the fixed unknown key and solve
    c . x = rhs - c_0 over GF(p), all in residues mod p.

    The records' grids go to the oracle as one batch of residue points, one
    grid after another, so a target's oracle folds or schedules its key once
    per replay; each right-hand side is summed from its grid's slice of the
    answers. Nested terms share grid points, so the batch repeats points:
    a target's oracle counts every point sent but computes each distinct
    point once (`BlackBox.stage`). A plain callable is probed once per
    point with field elements, repeats included. Records whose grids hold
    more than DEFAULT_BUDGET points in all are refused before any grid is
    built, and so is a record whose linear form is not n_sec wide."""
    if not records:
        return OnlineResult("empty", None, {}, 0, "no records supplied")
    for record in records:
        if len(record.c) != n_sec:
            raise AttackError(
                f"record {monomial_text(record.term)} has {len(record.c)} "
                f"coefficients for {n_sec} secret variables"
            )
    size = sum(math.prod(m + 1 for m in record.term) for record in records)
    if size > DEFAULT_BUDGET:
        raise AttackError(
            f"the records' grids hold {size} points, over the replay cap of "
            f"{DEFAULT_BUDGET}"
        )
    grids = [_term_grid(spec, record.term) for record in records]
    batch = tuple(itertools.chain.from_iterable(grid.residues for grid in grids))
    values = _oracle_grid(spec, oracle)(batch)
    if len(values) != len(batch):
        raise AttackError(f"the oracle answered {len(values)} of {len(batch)} points")
    p = spec.p
    rows = []
    start = 0
    for record, grid in zip(records, grids):
        end = start + len(grid.weights)
        rhs = sum(map(operator.mul, grid.weights, values[start:end]))
        rows.append([*record.c, (rhs - record.c0) % p])
        start = end
    result = gaussian_solve(rows, p)
    if result.status == "inconsistent":
        suspects = _suspects(rows, p)
        names = ", ".join(monomial_text(records[i].term) for i in suspects)
        return OnlineResult(
            "inconsistent",
            None,
            {},
            result.rank,
            f"records conflict; false maxterm suspected in: {names or 'unknown'}",
            suspects,
        )
    if result.status == "unique":
        key, status, message = result.solution, "recovered", "full key recovered"
    else:
        key, status = None, "partial"
        message = (
            f"rank {result.rank} of {n_sec}; exhaustive search needed for "
            f"{n_sec - result.rank} more variable(s)"
        )
    return OnlineResult(status, key, result.pinned, result.rank, message)


# public points at which a recovered key is checked; a wrong key survives
# one point with probability about 1/p, if the target depends on the key there
CONFIRM_POINTS = 8


def confirm_key(bb: BlackBox, oracle: PublicOracle, key: Sequence[int]) -> bool:
    """Checks a candidate key against the online oracle: keyed with the
    candidate, the black box must answer as the oracle does at
    CONFIRM_POINTS fixed pseudo-random public points. Each side gets the
    points as one batch, so a check costs exactly CONFIRM_POINTS probes of
    each, also when it refutes. A solve trusts every record; this does
    not."""
    rng = random.Random(0)
    p, n_pub = bb.spec.p, bb.n_pub
    points = tuple(
        tuple(rng.randrange(p) for _ in range(n_pub)) for _ in range(CONFIRM_POINTS)
    )
    [keyed] = bb.stage(points)([tuple(map(int, key))])
    return keyed == _oracle_grid(bb.spec, oracle)(points)


# ---------------------------------------------------------------------------
# record files: line-oriented, human-diffable, stable under a fixed seed

_RECORD_RE = re.compile(
    r"^record term=(\S+) c0=(\S+) c=(\S*) evals=(\d+)$"
)


def save_records(
    path,
    records: Sequence[MaxtermRecord],
    spec: FieldSpec,
    n_pub: int,
    n_sec: int,
    seed: int,
):
    lines = [
        "# gfdelta maxterm records v1",
        f"# seed: {seed}",
        f"field: {spec.text}",
        f"public: {n_pub}",
        f"secret: {n_sec}",
    ]
    for record in records:
        term = monomial_text(record.term)
        cvec = ",".join(map(str, record.c))
        lines.append(
            f"record term={term} c0={record.c0} c={cvec} "
            f"evals={record.evaluations_used}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# header line key -> meta key
_HEADER = {"field": "spec", "public": "n_pub", "secret": "n_sec"}


def _check_header(meta, expected) -> None:
    found = (meta.get("spec"), meta.get("n_pub"), meta.get("n_sec"))
    if found != tuple(expected):
        spec, n_pub, n_sec = found
        want_spec, want_pub, want_sec = expected
        raise AttackError(
            f"record header (field, public, secret) = "
            f"({spec.text if spec else None}, {n_pub}, {n_sec}) does not match "
            f"the target's ({want_spec.text}, {want_pub}, {want_sec})"
        )


def load_records(path, expected=None):
    """Returns (records, meta) with meta holding field/public/secret/seed.

    With `expected` = (spec, n_pub, n_sec) of a target, a header that
    differs raises AttackError as soon as the header is complete, before
    any record line is parsed, and so does a file whose header never
    completes."""

    def integer(text: str, name: str) -> int:
        return _file_integer(text, f"record file {name}", AttackError)

    meta: dict[str, object] = {}
    records: list[MaxtermRecord] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# seed:"):
                    meta["seed"] = integer(line.split(":", 1)[1], "seed")
                continue
            key, sep, value = line.partition(":")
            if sep and key in _HEADER:
                name = _HEADER[key]
                meta[name] = (
                    parse_field_spec(value) if key == "field" else integer(value, key)
                )
                if expected is not None and all(n in meta for n in _HEADER.values()):
                    _check_header(meta, expected)
                continue
            match = _RECORD_RE.match(line)
            if not match:
                raise AttackError(f"cannot parse record line {line!r}")
            spec = meta.get("spec")
            if spec is None or "n_pub" not in meta or "n_sec" not in meta:
                raise AttackError("record file header incomplete")
            try:
                term = parse_monomial(match.group(1), meta["n_pub"])
            except PolyError as exc:
                raise AttackError(f"bad record term: {exc}") from None
            c0 = integer(match.group(2), "c0") % spec.p
            cvec = tuple(
                integer(v, "c") % spec.p
                for v in (match.group(3).split(",") if match.group(3) else [])
            )
            if len(cvec) != meta["n_sec"]:
                raise AttackError("record width disagrees with header")
            evals = integer(match.group(4), "evals")
            records.append(MaxtermRecord(term, c0, cvec, evals))
    if "spec" not in meta:
        raise AttackError("record file missing field header")
    if expected is not None:
        _check_header(meta, expected)
    return records, meta
