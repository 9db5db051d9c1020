"""Attack targets with known ground truth.

Planted targets embed, for each secret variable slot, a public monomial of
multiplicity deg-1 times an independent secret linear form, so preprocessing
is guaranteed a full-rank record set. The toy cipher is a deliberately weak
keyed map (affine layer, key injection, one quadratic mixing step per round)
used for integration testing, not for cryptographic claims.

Both kinds expose `spec`, `n_pub`, `n_sec`, `key`, `blackbox()`,
`online_oracle()` and `suggested_max_multiplicity`. Their one kernel,
`_on_grid`, runs in two stages, each fixing one more input:

1. grid (`_on_grid(points)`): a batch of public points as residue tuples.
   The planted kernel keeps only the public monomials that are nonzero at
   some point of the batch and tabulates their values per point; the toy
   cipher tabulates its first round's mix of each point's publics, which
   whitening leaves free of the secret. `blackbox()` redoes this stage
   only when the batch changes, which a superpoly grid never does across a
   term's calls.
2. secret (the function `_on_grid` returns): the planted kernel folds each
   live public monomial's terms into one coefficient mod p and sums
   coefficient times tabulated value per point; the toy cipher runs its
   key schedule, folds the whitening into the first round's constant and
   runs its round function from each tabulated first round. It returns one
   residue per point.

A single probe is the one-point batch. The online oracle fixes the key
once and answers a whole replay as one batch, so its key is folded or
scheduled once per replay.

`load_target` accepts these sizes from a description file and rejects any
other value with `TargetError` before building anything:

- planted: public 1..8, secret 1..64, total-degree 2..12, extra-terms
  0..10000 (the anchor search then walks at most C(18, 11) = 31,824 public
  monomials);
- toy-cipher: public 1..64, secret 1..64, rounds 0..16, width 1..64.

The field must be a prime below 2^63 (see `field.prime_field`); the seed is
any integer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul
from typing import Sequence

from .attack import BlackBox
from .combinat import _nonneg_splits
from .field import FieldElement, parse_field_spec, prime_field, row_reduce
from .poly import Monomial, MultiPoly


class TargetError(ValueError):
    pass


class CountingOracle:
    """The online phase's oracle: a target keyed with its fixed key.

    `evaluate_grid(points)` answers a batch of public points, as residue
    tuples, with one residue per point; it runs `target._on_grid(points)`
    at the key, so the key is folded or scheduled once per batch. Calling
    the oracle on one public point of field elements is the one-point case.
    Both count one probe per point in `evaluations`."""

    def __init__(self, target, key: tuple[int, ...]):
        self._on_grid = target._on_grid
        self._element = target.spec.element
        self._key = key
        self.evaluations = 0

    def evaluate_grid(self, points: Sequence[Sequence[int]]) -> list[int]:
        self.evaluations += len(points)
        return self._on_grid(points)(self._key)

    def __call__(self, public: Sequence[FieldElement]) -> FieldElement:
        return self._element(self.evaluate_grid([tuple(map(int, public))])[0])


def _secret_ints(target, secret) -> tuple[int, ...]:
    """The secret as residues; `TargetError` unless it has n_sec
    coordinates."""
    secret = tuple(map(int, secret))
    if len(secret) != target.n_sec:
        raise TargetError(
            f"the key has {len(secret)} coordinates; the target takes {target.n_sec}"
        )
    return secret


def _keyed_blackbox(target) -> BlackBox:
    """Black box over the target's grid kernel: `target._on_grid(points) ->
    secret stage -> residue per point`, specialised again only when the
    points change; a tuple of tuples seen last time is recognised by
    identity, any other batch is specialised afresh."""
    last_points = at_secret = None

    def grid(points, secret):
        nonlocal last_points, at_secret
        if points is not last_points:
            at_secret = target._on_grid(points)
            frozen = type(points) is tuple and all(type(pt) is tuple for pt in points)
            last_points = points if frozen else None
        return at_secret(secret)

    return BlackBox(target.spec, target.n_pub, target.n_sec, None, grid)


def _keyed_oracle(target, key) -> CountingOracle:
    return CountingOracle(target, _secret_ints(target, key))


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


class PlantedTarget:
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
        # secret factors), ...]), factors as (variable, exponent) pairs
        n_pub = config.n_pub
        groups: dict[Monomial, tuple[list, list]] = {}
        for mono, c in poly._terms.items():
            pub = mono[:n_pub]
            group = groups.get(pub)
            if group is None:
                group = groups[pub] = ([(i, e) for i, e in enumerate(pub) if e], [])
            group[1].append(
                (int(c), [(j, e) for j, e in enumerate(mono[n_pub:]) if e])
            )
        self._groups = list(groups.values())

    @property
    def n_pub(self) -> int:
        return self.config.n_pub

    @property
    def n_sec(self) -> int:
        return self.config.n_sec

    @property
    def suggested_max_multiplicity(self) -> int:
        return self.config.total_degree - 1

    def _on_grid(self, points: Sequence[Sequence[int]]):
        """Fixes a batch of public points: keeps the public monomials that
        are nonzero at some point, tabulates their values per point, and
        returns the secret stage, which folds only those monomials' terms
        and returns one residue per point."""
        p = self.spec.p
        live, columns = [], []
        for pub_factors, parts in self._groups:
            column = []
            for point in points:
                value = 1
                for i, e in pub_factors:
                    v = point[i]
                    if not v:
                        value = 0
                        break
                    value = value * v if e == 1 else value * pow(v, e, p)
                column.append(value % p)
            if any(column):
                live.append(parts)
                columns.append(column)
        # per point, the live monomials' values
        rows = list(zip(*columns)) if columns else [()] * len(points)

        def at_secret(secret: Sequence[int]) -> list[int]:
            coeffs = [_fold(parts, secret, p) for parts in live]
            return [sum(map(mul, coeffs, row)) % p for row in rows]

        return at_secret

    def blackbox(self) -> BlackBox:
        return _keyed_blackbox(self)

    def online_oracle(self) -> CountingOracle:
        return _keyed_oracle(self, self.key)


def _fold(parts, secret: Sequence[int], p: int) -> int:
    """One public monomial's coefficient at a secret: its terms
    (coeff, secret factors) summed mod p."""
    coeff = 0
    for c, factors in parts:
        for j, e in factors:
            x = secret[j]
            if x == 0:
                c = 0
                break
            c = c * x if e == 1 else c * pow(x, e, p)
        coeff += c
    return coeff % p


def _public_monomials(n_pub: int, n: int, degree: int, cap: int):
    """All monomials over the public block with the exact total degree."""
    pad = (0,) * (n - n_pub)
    return [s + pad for s in _nonneg_splits(degree, n_pub) if max(s) <= cap]


def make_planted(
    p: int,
    n_pub: int,
    n_sec: int,
    total_degree: int,
    extra_terms: int,
    seed: int,
) -> PlantedTarget:
    """Seed-deterministic planted target; raises on infeasible profiles."""
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
    anchors = _public_monomials(n_pub, n, total_degree - 1, cap)
    if len(anchors) < n_sec:
        raise TargetError(
            f"only {len(anchors)} public terms of degree {total_degree - 1}; "
            f"need {n_sec}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(anchors, n_sec)
    # secret linear forms with an invertible coefficient matrix
    while True:
        matrix = [[rng.randrange(p) for _ in range(n_sec)] for _ in range(n_sec)]
        if len(row_reduce(matrix, p)[1]) == n_sec:
            break
    terms: dict[Monomial, FieldElement] = {}
    for anchor, row in zip(chosen, matrix):
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            mono = list(anchor)
            mono[n_pub + j] = 1
            key = tuple(mono)
            terms[key] = terms.get(key, spec.zero) + spec.element(coeff)
    placed = 0
    while placed < extra_terms:
        mono = [0] * n
        budget = rng.randint(0, total_degree)
        for _ in range(budget):
            slots = [i for i in range(n) if mono[i] < cap]
            if not slots:
                break
            mono[rng.choice(slots)] += 1
        key = tuple(mono)
        if any(
            all(e >= a for e, a in zip(key, anchor)) for anchor in chosen
        ):
            continue  # anchors must keep their exact quotient forms
        terms[key] = spec.random_element(rng, nonzero=True)
        placed += 1
    key = tuple(spec.random_element(rng) for _ in range(n_sec))
    config = PlantedConfig(p, n_pub, n_sec, total_degree, extra_terms, seed)
    poly = MultiPoly(spec, n, terms)
    planted = tuple(m[:n_pub] for m in chosen)
    return PlantedTarget(config, poly, key, planted)


# ---------------------------------------------------------------------------
# toy cipher


@dataclass(frozen=True)
class ToyCipherParams:
    p: int
    rounds: int
    width: int
    n_pub: int
    n_sec: int
    seed: int


class ToyCipher:
    """Keyed toy map over GF(p): load publics, add a whitening key layer,
    then per round an affine mix with key injection followed by one
    quadratic step. Output degree stays below 2^rounds + 1."""

    def __init__(self, params: ToyCipherParams):
        if params.width < 1 or params.rounds < 0:
            raise TargetError("bad toy cipher geometry")
        if params.n_pub < 1 or params.n_sec < 1:
            raise TargetError("need public and secret inputs")
        self.params = params
        self.spec = prime_field(params.p)
        rng = random.Random(params.seed)
        p, w = params.p, params.width
        self.whiten = self._key_matrix(rng, w, params.n_sec, ensure_row0=True)
        self.whiten_const = [rng.randrange(p) for _ in range(w)]
        self.round_mix = []
        self.round_key = []
        self.round_const = []
        for _ in range(params.rounds):
            self.round_mix.append(
                [[rng.randrange(p) for _ in range(w)] for _ in range(w)]
            )
            self.round_key.append(self._key_matrix(rng, w, params.n_sec))
            self.round_const.append([rng.randrange(p) for _ in range(w)])
        self.key = tuple(
            self.spec.element(rng.randrange(p)) for _ in range(params.n_sec)
        )

    # kernel tables, built on first use so that loading a target does not
    # pay for them

    @cached_property
    def _quad(self) -> list[tuple[int, int, int]]:
        """Output i of the quadratic step reads affine taps i, i+1 and i+2."""
        w = self.params.width
        return [(i, (i + 1) % w, (i + 2) % w) for i in range(w)]

    @cached_property
    def _layers(self) -> list:
        """The rounds as the kernel runs them, (mix, key, const) rows; the
        last keeps only the taps of output 0, the one output returned."""
        layers = list(zip(self.round_mix, self.round_key, self.round_const))
        if layers:
            taps = self._quad[0]
            layers[-1] = [[rows[t] for t in taps] for rows in layers[-1]]
        return layers

    def _key_matrix(self, rng, w, n_sec, ensure_row0=False):
        p = self.params.p
        while True:
            matrix = [[rng.randrange(p) for _ in range(n_sec)] for _ in range(w)]
            if not ensure_row0 or any(matrix[0]):
                return matrix

    @property
    def n_pub(self) -> int:
        return self.params.n_pub

    @property
    def n_sec(self) -> int:
        return self.params.n_sec

    @property
    def suggested_max_multiplicity(self) -> int:
        return max(2**self.params.rounds, 1)

    def _key_schedule(self, secret: Sequence[int]):
        """The secret-only part of an encryption: the first round's constant
        mix_1 * whiten + inject_1 (the whitening layer itself at zero
        rounds), and each later round's mix matrix with its key injection
        plus constant."""
        p = self.params.p

        def inject(key_rows, consts):
            return [
                (sum(map(mul, row, secret)) + c) % p
                for row, c in zip(key_rows, consts)
            ]

        first = inject(self.whiten, self.whiten_const)
        later = [(mix, inject(keys, consts)) for mix, keys, consts in self._layers]
        if later:
            mix, key = later.pop(0)
            first = [
                (sum(map(mul, row, first)) + k) % p for row, k in zip(mix, key)
            ]
        return first, later

    def _tabulate(self, public: Sequence[int]) -> list[int]:
        """The secret-free part of the first round at one public point:
        mix_1 times the publics loaded into the state (zero-padded, cut at
        the width), or the loaded state itself at zero rounds. Whitening
        only adds a constant before mix_1, so the secret never enters."""
        w = self.params.width
        state = list(public[:w])
        state += [0] * (w - len(state))
        if not self._layers:
            return state
        return [sum(map(mul, row, state)) for row in self._layers[0][0]]

    def _rounds(self, rows: Sequence[Sequence[int]], schedule) -> list[int]:
        """The round function, from tabulated first rounds to one output
        per row: add the first round's constant, then alternate the
        quadratic step with each later round's affine layer, reducing mod p
        once per round; the last layer holds output 0's three taps only."""
        first, later = schedule
        p = self.params.p
        if not self._layers:
            c = first[0]
            return [(row[0] + c) % p for row in rows]
        quad = self._quad
        out = []
        for row in rows:
            a = list(map(add, row, first))
            for mix, inject in later:
                state = [(a[i] + a[j] * a[k]) % p for i, j, k in quad]
                a = [sum(map(mul, r, state)) + c for r, c in zip(mix, inject)]
            out.append((a[0] + a[1] * a[2]) % p)
        return out

    def _on_grid(self, points: Sequence[Sequence[int]]):
        """A batch of public points: tabulates each point's first round
        once; the secret stage runs the key schedule, then the round
        function over the tabulated rows."""
        rows = [self._tabulate(point) for point in points]
        rounds, schedule = self._rounds, self._key_schedule
        return lambda secret: rounds(rows, schedule(secret))

    def evaluate_ints(self, public: Sequence[int], secret: Sequence[int]) -> int:
        return self._on_grid([public])(_secret_ints(self, secret))[0]

    def blackbox(self) -> BlackBox:
        return _keyed_blackbox(self)

    def online_oracle(
        self, key: Sequence[FieldElement] | None = None
    ) -> CountingOracle:
        return _keyed_oracle(self, self.key if key is None else key)


# ---------------------------------------------------------------------------
# target description files


def save_target(path, target) -> None:
    if isinstance(target, PlantedTarget):
        cfg = target.config
        lines = [
            "# gfdelta target v1",
            "kind: planted",
            f"field: {cfg.p}",
            f"public: {cfg.n_pub}",
            f"secret: {cfg.n_sec}",
            f"total-degree: {cfg.total_degree}",
            f"extra-terms: {cfg.extra_terms}",
            f"seed: {cfg.seed}",
        ]
    elif isinstance(target, ToyCipher):
        prm = target.params
        lines = [
            "# gfdelta target v1",
            "kind: toy-cipher",
            f"field: {prm.p}",
            f"public: {prm.n_pub}",
            f"secret: {prm.n_sec}",
            f"rounds: {prm.rounds}",
            f"width: {prm.width}",
            f"seed: {prm.seed}",
        ]
    else:
        raise TargetError(f"cannot serialise {type(target).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# the sizes a target file may give, as inclusive ranges (see the module
# docstring)
PLANTED_SIZES = {
    "public": (1, 8),
    "secret": (1, 64),
    "total-degree": (2, 12),
    "extra-terms": (0, 10_000),
}
TOY_SIZES = {"public": (1, 64), "secret": (1, 64), "rounds": (0, 16), "width": (1, 64)}


def _sizes(fields: dict[str, str], ranges: dict[str, tuple[int, int]]) -> dict:
    sizes = {}
    for name, (lo, hi) in ranges.items():
        value = int(fields[name])
        if not lo <= value <= hi:
            raise TargetError(f"target {name} {value} is outside {lo}..{hi}")
        sizes[name] = value
    return sizes


def load_target(path):
    """Rebuild a target bit-identically from its description file."""
    fields: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise TargetError(f"bad target line {line!r}")
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    try:
        kind = fields["kind"]
        spec = parse_field_spec(fields["field"])
        if spec.m != 1:
            raise TargetError("targets are defined over prime fields")
        if kind == "planted":
            n = _sizes(fields, PLANTED_SIZES)
            return make_planted(
                spec.p,
                n["public"],
                n["secret"],
                n["total-degree"],
                n["extra-terms"],
                int(fields["seed"]),
            )
        if kind == "toy-cipher":
            n = _sizes(fields, TOY_SIZES)
            return ToyCipher(
                ToyCipherParams(
                    spec.p,
                    n["rounds"],
                    n["width"],
                    n["public"],
                    n["secret"],
                    int(fields["seed"]),
                )
            )
    except KeyError as exc:
        raise TargetError(f"target file missing {exc}") from None
    raise TargetError(f"unknown target kind {fields.get('kind')!r}")
