"""Grid-based cube attack over GF(p).

Preprocessing differences the target w.r.t. public-variable terms, keeps the
terms whose differenced function looks linear in the secret variables, and
extracts each linear form by probing unit vectors. The online phase replays
the same grids against the fixed unknown key and solves the collected linear
system by Gaussian elimination over GF(p).
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .combinat import _positive_compositions
from .diff import DiffPlan, grid_points
from .field import FieldElement, FieldSpec, parse_field_spec, row_reduce
from .poly import Monomial, PolyError, monomial_text, parse_monomial


class AttackError(ValueError):
    pass


class BudgetExhausted(Exception):
    """Raised internally when the evaluation budget cannot fund the next grid."""


# grid(points) -> at_secret(secret) -> one residue per point (see BlackBox)
StagedGrid = Callable[[Sequence[tuple[int, ...]]], Callable[[Sequence[int]], list[int]]]


class BlackBox:
    """Evaluation-only keyed function f(public, secret) over a prime field.

    The wrapped function must be pure: identical inputs must give identical
    outputs. The counter tracks how many times the function has been
    consulted.

    `evaluate_grid` takes a batch of public points and one secret, all as
    residue tuples, and returns one residue per point; it counts one probe
    per point. `evaluate` is its one-point case over field elements. The
    superpoly oracle sends each term's whole grid through `evaluate_grid`
    in one call, always as the same tuple object, and the attack charges
    its budget once per grid, before any of the grid's probes.

    Probes run in `grid`, a staged kernel: `grid(points)` fixes a batch and
    returns the secret stage `at_secret(secret)`. A target passes its
    `_on_grid` and no `fn`. Without `grid`, `_pointwise` stages
    `fn(public, secret)`, a per-point function over field elements.

    `evaluate_grid` keeps one cache, the last batch with its secret stage.
    A tuple of tuples seen last time is recognised by identity and goes
    straight to its secret stage; any other batch has every point's width
    checked and is staged afresh. The secret's width is checked on every
    call. The online oracle (`targets.CountingOracle`) is this box at a
    fixed key, so online probes get the same checks and counter.
    """

    def __init__(
        self,
        spec: FieldSpec,
        n_pub: int,
        n_sec: int,
        fn: Callable[[Sequence[FieldElement], Sequence[FieldElement]], FieldElement]
        | None,
        grid: StagedGrid | None = None,
    ):
        if spec.m != 1:
            raise AttackError("the attack operates over prime fields")
        self.spec = spec
        self.n_pub = n_pub
        self.n_sec = n_sec
        self._grid = grid or _pointwise(spec, fn)
        self._points = self._at_secret = None
        self.evaluations = 0

    def evaluate(
        self, public: Sequence[FieldElement], secret: Sequence[FieldElement]
    ) -> FieldElement:
        point = (tuple(map(int, public)),)
        return self.spec.element(self.evaluate_grid(point, tuple(map(int, secret)))[0])

    def evaluate_grid(
        self, points: Sequence[tuple[int, ...]], secret: Sequence[int]
    ) -> list[int]:
        if len(secret) != self.n_sec:
            raise AttackError("input width mismatch")
        if points is not self._points:
            if not set(map(len, points)) <= {self.n_pub}:
                raise AttackError("input width mismatch")
            self._at_secret = self._grid(points)
            # a tuple of tuples cannot change under the identity check
            frozen = type(points) is tuple and set(map(type, points)) <= {tuple}
            self._points = points if frozen else None
        self.evaluations += len(points)
        return self._at_secret(secret)

    def reset_counter(self):
        self.evaluations = 0


def _pointwise(spec: FieldSpec, fn: Callable) -> StagedGrid:
    """A staged kernel over a per-point function on field elements:
    `grid(points)` boxes each residue point and returns a stage that boxes
    each fixed input (a black box's secret; an online oracle has none),
    calls `fn(point, *fixed)` once per point and returns the answers as
    residues."""
    element = spec.element

    def grid(points):
        boxed = [tuple(map(element, pt)) for pt in points]

        def at_fixed(*fixed):
            inputs = [tuple(map(element, vector)) for vector in fixed]
            return [int(fn(pt, *inputs)) for pt in boxed]

        return at_fixed

    return grid


class Verdict(enum.Enum):
    LIKELY_LINEAR = "likely-linear"
    NONLINEAR = "nonlinear"
    CONSTANT = "constant"


@dataclass(frozen=True)
class MaxtermRecord:
    """One discovered relation: differencing by `term` leaves the affine
    secret form c_0 + sum(c_i * x_i)."""

    term: Monomial
    c0: FieldElement
    c: tuple[FieldElement, ...]
    evaluations_used: int

    @property
    def usable(self) -> bool:
        return any(self.c)


# ---------------------------------------------------------------------------
# superpoly grids


class TermGrid(NamedTuple):
    """The probe points of a unit-step term and their folded weights, all
    as residues."""

    residues: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]


@lru_cache(maxsize=1024)
def _term_grid(spec: FieldSpec, term: Monomial) -> TermGrid:
    """The grid of a unit-step term, with every public variable outside the
    term at zero."""
    if any(m > spec.p - 1 for m in term):
        raise AttackError("term multiplicities must stay below p")
    plan = DiffPlan.make(spec, {i: m for i, m in enumerate(term) if m})
    entries = grid_points(plan, (spec.zero,) * len(term))
    return TermGrid(
        tuple(tuple(int(v) for v in point) for point, _ in entries),
        tuple(int(weight) for _, weight in entries),
    )


def superpoly_oracle(bb: BlackBox, term: Monomial):
    """Callable evaluating the differenced function at public zeros for a
    given secret residue vector, as a residue; each call sends the term's
    grid of prod(m_i + 1) points through one `bb.evaluate_grid` call."""
    grid = _term_grid(bb.spec, tuple(term))
    points, weights = grid.residues, grid.weights
    p = bb.spec.p
    probe = bb.evaluate_grid

    def evaluate(secret: Sequence[int]) -> int:
        return sum(map(operator.mul, weights, probe(points, secret))) % p

    evaluate.grid_size = len(weights)  # type: ignore[attr-defined]
    return evaluate


# ---------------------------------------------------------------------------
# linearity testing and linear-form extraction

# Trial counts follow the usual linearity-testing soundness story: each trial
# rejects a non-affine function with constant probability, so a dozen trials
# over GF(p>=5), or twenty over GF(3), push the false-accept chance below
# about 2^-20. The source material leaves the count open; these are
# engineering defaults.
DEFAULT_TRIALS = {3: 20}
DEFAULT_TRIALS_LARGE = 12


def default_trials(p: int) -> int:
    return DEFAULT_TRIALS.get(p, DEFAULT_TRIALS_LARGE)


def _linearity_verdict(eval_superpoly, p, n_sec, trials, rng) -> Verdict:
    """BLR-style test on residues; draws exactly the `rng.randrange(p)`
    stream that `FieldSpec.random_element` would."""
    draw = rng.randrange
    base = eval_superpoly((0,) * n_sec)
    saw_variation = False
    for _ in range(trials):
        a = draw(p)
        b = draw(p)
        y = tuple(draw(p) for _ in range(n_sec))
        z = tuple(draw(p) for _ in range(n_sec))
        fy = eval_superpoly(y)
        fz = eval_superpoly(z)
        fc = eval_superpoly(tuple((a * yi + b * zi) % p for yi, zi in zip(y, z)))
        if fy != base or fz != base or fc != base:
            saw_variation = True
        if (a * (fy - base) + b * (fz - base) - (fc - base)) % p:
            return Verdict.NONLINEAR
    return Verdict.LIKELY_LINEAR if saw_variation else Verdict.CONSTANT


def linearity_test(
    bb: BlackBox,
    term: Monomial,
    trials: int | None = None,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Verdict:
    """Probabilistic check that the differenced function is affine in the
    secrets: a(f(y)-f(0)) + b(f(z)-f(0)) must equal f(ay+bz)-f(0)."""
    if trials is None:
        trials = default_trials(bb.spec.p)
    if trials < 1:
        raise AttackError("need at least one trial")
    if rng is None:
        rng = random.Random(seed)
    oracle = superpoly_oracle(bb, term)
    return _linearity_verdict(oracle, bb.spec.p, bb.n_sec, trials, rng)


def _linear_form(oracle, p: int, n_sec: int) -> tuple[int, tuple[int, ...]]:
    """c_0 at zero, then c_i from unit vectors, as residues: (n_sec + 1)
    oracle calls."""
    zero_vec = (0,) * n_sec
    c0 = oracle(zero_vec)
    coeffs = []
    for i in range(n_sec):
        unit = list(zero_vec)
        unit[i] = 1
        coeffs.append((oracle(tuple(unit)) - c0) % p)
    return c0, tuple(coeffs)


def _record(spec: FieldSpec, term, c0: int, coeffs, used: int) -> MaxtermRecord:
    element = spec.element
    return MaxtermRecord(tuple(term), element(c0), tuple(map(element, coeffs)), used)


def extract_linear(bb: BlackBox, term: Monomial) -> MaxtermRecord:
    """Read off the affine form of the differenced function; costs
    (n_sec + 1) grids."""
    oracle = superpoly_oracle(bb, term)
    before = bb.evaluations
    c0, coeffs = _linear_form(oracle, bb.spec.p, bb.n_sec)
    return _record(bb.spec, term, c0, coeffs, bb.evaluations - before)


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


def _charged_oracle(bb: BlackBox, term: Monomial, budget: int):
    oracle = superpoly_oracle(bb, term)
    cost = oracle.grid_size

    def evaluate(secret):
        if bb.evaluations + cost > budget:
            raise BudgetExhausted
        return oracle(secret)

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
    fixed seed."""
    if budget <= 0:
        raise AttackError("budget must be positive")
    if trials is None:
        trials = default_trials(bb.spec.p)
    if trials < 1:
        raise AttackError("need at least one trial")
    if max_total_mult < 0:
        raise AttackError("the largest total multiplicity cannot be negative")
    spec = bb.spec
    rng = random.Random(seed)
    basis: list[list[int]] = []  # reduced rows of the kept records
    records: list[MaxtermRecord] = []
    dependent: list[MaxtermRecord] = []
    terms_tried = 0
    if bb.n_sec == 0:
        return PreprocessResult(records, dependent, "complete", bb.evaluations, 0)
    status = "terms-exhausted"
    try:
        for term in candidate_terms(bb.n_pub, spec.p, max_total_mult):
            terms_tried += 1
            before = bb.evaluations
            oracle = _charged_oracle(bb, term, budget)
            verdict = _linearity_verdict(oracle, spec.p, bb.n_sec, trials, rng)
            if verdict is not Verdict.LIKELY_LINEAR:
                continue
            c0, coeffs = _linear_form(oracle, spec.p, bb.n_sec)
            if not any(coeffs):
                continue
            record = _record(spec, term, c0, coeffs, bb.evaluations - before)
            rows, pivots = row_reduce(basis + [list(coeffs)], spec.p)
            if len(pivots) > len(basis):
                basis = rows[: len(pivots)]
                records.append(record)
            else:
                dependent.append(record)
            if len(records) >= bb.n_sec:
                status = "complete"
                break
    except BudgetExhausted:
        status = "budget-exhausted"
    return PreprocessResult(records, dependent, status, bb.evaluations, terms_tried)


# ---------------------------------------------------------------------------
# linear algebra and the online phase


@dataclass
class LinearSystem:
    spec: FieldSpec
    rows: list[tuple[tuple[FieldElement, ...], FieldElement]] = field(
        default_factory=list
    )

    def add_row(self, coeffs: Sequence[FieldElement], rhs: FieldElement):
        self.rows.append((tuple(coeffs), rhs))

    @property
    def width(self) -> int:
        return len(self.rows[0][0]) if self.rows else 0


@dataclass
class SolveResult:
    status: str  # 'unique', 'parametrized', or 'inconsistent'
    rank: int
    pivots: tuple[int, ...]
    free: tuple[int, ...]
    solution: tuple[FieldElement, ...] | None
    rref: list[tuple[tuple[int, ...], int]]


def gaussian_solve(system: LinearSystem) -> SolveResult:
    """Reduced row echelon form over GF(p) with full rank reporting.

    The solution slot holds the unique solution when the system determines
    every variable, or the particular solution with free variables at zero
    when it does not."""
    spec = system.spec
    width = system.width
    rows, pivots = row_reduce(
        [[int(v) for v in coeffs] + [int(rhs)] for coeffs, rhs in system.rows],
        spec.p,
        width,
    )
    rank = len(pivots)
    inconsistent = any(
        not any(row[:width]) and row[width] for row in rows[rank:]
    )
    free = tuple(i for i in range(width) if i not in pivots)
    rref = [(tuple(row[:width]), row[width]) for row in rows if any(row)]
    if inconsistent:
        return SolveResult("inconsistent", rank, tuple(pivots), free, None, rref)
    values = [spec.zero] * width
    for row_idx, col in enumerate(pivots):
        values[col] = spec.element(rows[row_idx][width])
    status = "unique" if rank == width else "parametrized"
    return SolveResult(status, rank, tuple(pivots), free, tuple(values), rref)


@dataclass
class OnlineResult:
    status: str  # 'recovered', 'partial', 'inconsistent', or 'empty'
    key: tuple[FieldElement, ...] | None
    assignment: dict[int, FieldElement]
    rank: int
    message: str
    suspects: list[int] = field(default_factory=list)


PublicOracle = Callable[[tuple[FieldElement, ...]], FieldElement]


def _oracle_grid(spec: FieldSpec, oracle: PublicOracle) -> Callable:
    """The oracle's `evaluate_grid(points)` where it has one (a target's
    `CountingOracle`), else the oracle probed point by point through
    `_pointwise`."""
    if hasattr(oracle, "evaluate_grid"):
        return oracle.evaluate_grid
    stage = _pointwise(spec, oracle)
    return lambda points: stage(points)()


def online(
    oracle: PublicOracle,
    records: Sequence[MaxtermRecord],
    spec: FieldSpec,
    n_sec: int,
) -> OnlineResult:
    """Replay each record's grid against the fixed unknown key and solve
    c . x = rhs - c_0 over GF(p).

    The records' grids go to the oracle as one batch of residue points, one
    grid after another, so a target's oracle folds or schedules its key once
    per replay; each right-hand side is summed from its grid's slice of the
    answers. A plain callable is probed once per point with field
    elements."""
    if not records:
        return OnlineResult("empty", None, {}, 0, "no records supplied")
    grids = [_term_grid(spec, record.term) for record in records]
    batch = tuple(itertools.chain.from_iterable(grid.residues for grid in grids))
    values = _oracle_grid(spec, oracle)(batch)
    if len(values) != len(batch):
        raise AttackError(f"the oracle answered {len(values)} of {len(batch)} points")
    system = LinearSystem(spec)
    start = 0
    for record, grid in zip(records, grids):
        end = start + len(grid.weights)
        rhs = sum(map(operator.mul, grid.weights, values[start:end]))
        system.add_row(record.c, spec.element(rhs) - record.c0)
        start = end
    result = gaussian_solve(system)
    if result.status == "inconsistent":
        suspects = _find_suspects(system, spec)
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
        return OnlineResult(
            "recovered",
            result.solution,
            {i: v for i, v in enumerate(result.solution)},
            result.rank,
            "full key recovered",
        )
    assignment = _determined_variables(result, spec)
    missing = n_sec - result.rank
    return OnlineResult(
        "partial",
        None,
        assignment,
        result.rank,
        f"rank {result.rank} of {n_sec}; exhaustive search needed for "
        f"{missing} more variable(s)",
    )


# public points at which a recovered key is checked; a wrong key survives
# one point with probability about 1/p, if the target depends on the key there
CONFIRM_POINTS = 8


def confirm_key(
    bb: BlackBox, oracle: PublicOracle, key: Sequence[FieldElement]
) -> bool:
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
    keyed = bb.evaluate_grid(points, tuple(map(int, key)))
    return keyed == _oracle_grid(bb.spec, oracle)(points)


def _determined_variables(result: SolveResult, spec) -> dict[int, FieldElement]:
    """Pivot variables whose row touches no free column are pinned."""
    out: dict[int, FieldElement] = {}
    free = set(result.free)
    for coeffs, rhs in result.rref:
        nz = [i for i, v in enumerate(coeffs) if v]
        if len(nz) == 1 and nz[0] not in free:
            out[nz[0]] = spec.element(rhs)
    return out


def _find_suspects(system: LinearSystem, spec) -> list[int]:
    suspects = []
    for skip in range(len(system.rows)):
        trimmed = LinearSystem(
            spec, [row for i, row in enumerate(system.rows) if i != skip]
        )
        if gaussian_solve(trimmed).status != "inconsistent":
            suspects.append(skip)
    return suspects


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
        cvec = ",".join(str(int(v)) for v in record.c)
        lines.append(
            f"record term={term} c0={int(record.c0)} c={cvec} "
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
    meta: dict[str, object] = {}
    records: list[MaxtermRecord] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# seed:"):
                    meta["seed"] = int(line.split(":", 1)[1])
                continue
            key, sep, value = line.partition(":")
            if sep and key in _HEADER:
                name = _HEADER[key]
                meta[name] = parse_field_spec(value) if key == "field" else int(value)
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
            c0 = spec.element(int(match.group(2)))
            cvec = tuple(
                spec.element(int(v))
                for v in (match.group(3).split(",") if match.group(3) else [])
            )
            if len(cvec) != meta["n_sec"]:
                raise AttackError("record width disagrees with header")
            records.append(MaxtermRecord(term, c0, cvec, int(match.group(4))))
    if "spec" not in meta:
        raise AttackError("record file missing field header")
    if expected is not None:
        _check_header(meta, expected)
    return records, meta
