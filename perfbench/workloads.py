"""The benchmark's three seeded workloads.

Each workload drives gfdelta through the public calls its CLI makes:
`targets.load_target` on a target description file, `target.blackbox()`,
`attack.preprocess`, `attack.save_records` / `attack.load_records` and
`attack.online` for the attack; `poly.parse_poly`, `diff.delta_plan`,
`poly.format_poly`, `diff.blackbox_delta` and `reduce_pm.verify_reduction`
for differencing. A workload is a fixed, seed-derived set of inputs; one
*pass* runs every input once. The runner repeats passes, so every count and
digest a pass reports must come out the same each time.

Every call into a layer goes through a `Tracer` (see tracer.py). The
untraced runs use `NullTracer`, whose hooks return the callable unchanged.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from gfdelta import attack, diff, poly, reduce_pm, targets
from gfdelta.field import ext_field


def _reference_inputs():
    rng = random.Random(20141015)
    terms = [
        (rng.randrange(1, 31), [(i, rng.randint(1, 4)) for i in rng.sample(range(9), 3)])
        for _ in range(60)
    ]
    points = [[rng.randrange(31) for _ in range(9)] for _ in range(100)]
    return terms, points


_REF_TERMS, _REF_POINTS = _reference_inputs()


# About what one reference_s() takes on an idle 2-core Xeon with Python
# 3.11; setup_s is reported in seconds at this machine speed.
NOMINAL_REFERENCE_S = 4e-3


def reference_s() -> float:
    """Wall time of a fixed loop that shares no code with gfdelta, so it
    measures only how fast the machine runs Python at the moment: integer
    polynomial evaluation, then products of sparse polynomials kept in a
    dict of exponent tuples, so that both arithmetic and allocation weigh
    in. On a shared machine that speed switches between modes more than
    1.5x apart; dividing the gated timings by it, taken next to the work
    they time, cancels most of the switching."""
    started = perf_counter()
    for vals in _REF_POINTS:
        total = 0
        for c, factors in _REF_TERMS:
            term = c
            for i, e in factors:
                term = term * pow(vals[i], e, 31)
            total += term
    for _ in range(2):
        product = {}
        for c1, f1 in _REF_TERMS[:24]:
            for c2, f2 in _REF_TERMS[:24]:
                key = tuple(sorted(f1 + f2))
                product[key] = (product.get(key, 0) + c1 * c2) % 31
        sorted(product.items())
    return perf_counter() - started


class PassResult:
    """What one pass over a workload's inputs measured and checked.

    `samples` holds the seconds of each operation, `counts` exact figures
    that must repeat in every pass, and `units` the number of inputs the pass
    ran (targets or cases). `inputs` has one record per input: its time in
    the `offline` and `query` roles, each divided by a reference time taken
    next to that role's work. `refs` holds every reference time taken.
    """

    def __init__(self):
        self.units = 0
        self.wall_s = 0.0
        self.samples: dict[str, list[float]] = {}
        self.inputs: list[dict] = []
        self.refs: list[float] = []
        self.counts: dict[str, int] = {}
        self.outputs = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.recovered = 0
        self.failures: list[str] = []

    @property
    def digest(self) -> str:
        return self.outputs.hexdigest()

    def time(self, name: str, seconds: float):
        self.samples.setdefault(name, []).append(seconds)

    def begin_input(self) -> float:
        """Starts the next input; returns a reference time taken for it."""
        self.units += 1
        self.inputs.append({})
        return self.reference()

    def reference(self, loops: int = 3) -> float:
        """The fastest of `loops` reference loops run now."""
        ref = min(reference_s() for _ in range(loops))
        self.refs.append(ref)
        return ref

    def charge(self, role: str, seconds: float, ref: float):
        self.inputs[-1][role] = seconds / ref

    def count(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _write_target(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(["# gfdelta target v1", *lines]) + "\n")
    return path


# ---------------------------------------------------------------------------
# attack workloads


# `attack-pre`'s default probe budget
PLANTED_BUDGET = 10**6
# About 1 in 10 toy instances cannot be fully ranked by the max-mult-8
# schedule. The pinned instances all reach full rank within 21k probes; the
# budget stops one that no longer does after a few seconds, instead of the
# 387k probes the whole schedule costs, and its keys come out `partial`.
TOY_BUDGET = 60_000


@dataclass(frozen=True)
class PlantedConfig:
    """Planted target of the ROADMAP baseline; the structure is pinned (see
    README.md: planted cost varies twofold between target seeds)."""

    p: int = 31
    n_pub: int = 5
    n_sec: int = 12
    total_degree: int = 6
    extra_terms: int = 60
    target_seed: int = 2


@dataclass(frozen=True)
class ToyConfig:
    p: int = 7
    rounds: int = 3
    width: int = 4
    n_pub: int = 4
    n_sec: int = 4
    # Pinned instance seeds, the same at every benchmark seed: instances
    # 0-7 all reach full rank (seeds 15, 20, 25 and 36 of 0-39 do not).
    instance_seeds: tuple = (0, 1, 2, 3, 4, 5, 6, 7)
    keys: int = 40


class AttackWorkload:
    """preprocess -> save/load records -> online, as attack-pre and
    attack-online do, over targets whose ground-truth key is known."""

    # cold constructions timed together as one set-up sample
    build_repeats = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def _attack(self, acc: PassResult, tracer, target, pre_seed: int, budget: int, keys):
        """Runs one target; `keys` is a list of (oracle_key, truth) pairs where
        oracle_key None selects the target's own key."""
        ref = acc.begin_input()
        inner = target.blackbox()
        bb = inner
        if tracer.active:
            bb = attack.BlackBox(
                inner.spec,
                inner.n_pub,
                inner.n_sec,
                tracer.wrap("kernel.preprocess", inner.evaluate),
            )
        started = perf_counter()
        with tracer.span("attack.preprocess"):
            result = attack.preprocess(
                bb,
                budget=budget,
                max_total_mult=target.suggested_max_multiplicity,
                seed=pre_seed,
            )
        pre_s = perf_counter() - started
        acc.time("preprocess", pre_s)

        path = self.tmp / "records.txt"
        started = perf_counter()
        with tracer.span("attack.records_io"):
            attack.save_records(
                path,
                result.records + result.dependent,
                spec=bb.spec,
                n_pub=bb.n_pub,
                n_sec=bb.n_sec,
                seed=pre_seed,
            )
            blob = path.read_bytes()
            records, _meta = attack.load_records(path)
        io_s = perf_counter() - started
        acc.time("records_io", io_s)
        # preprocessing runs for a second or more: its reference is the mean
        # of those taken before and after it
        after = acc.reference()
        acc.charge("offline", pre_s + io_s, (ref + after) / 2)
        acc.outputs.update(blob)
        acc.attempted += 1  # the record round trip
        if len(records) != len(result.records) + len(result.dependent):
            acc.fail("record file lost records in the round trip")

        acc.count("preprocess_probes", result.evaluations)
        acc.count("terms_tried", result.terms_tried)
        acc.count("records", len(result.records))
        acc.count("dependent", len(result.dependent))
        acc.count(
            "useful_probes", sum(r.evaluations_used for r in result.records)
        )
        acc.count("key_vars", bb.n_sec)

        online_times, window = [], [after]
        for index, (oracle_key, truth) in enumerate(keys):
            if index and index % 10 == 0:
                window.append(acc.reference(loops=1))
            oracle = (
                target.online_oracle()
                if oracle_key is None
                else target.online_oracle(oracle_key)
            )
            box = tracer.wrap("kernel.online", oracle)
            started = perf_counter()
            with tracer.span("attack.online"):
                outcome = attack.online(box, records, bb.spec, bb.n_sec)
            elapsed = perf_counter() - started
            acc.time("online", elapsed)
            online_times.append(elapsed)
            acc.count("online_probes", oracle.evaluations)
            acc.count("keys", 1)
            acc.attempted += 1
            if outcome.status == "recovered":
                if _ints(outcome.key) == _ints(truth):
                    acc.recovered += 1
                else:
                    acc.fail(f"wrong key {_ints(outcome.key)} for {_ints(truth)}")
            elif outcome.status == "inconsistent":
                acc.fail(f"inconsistent records: {outcome.message}")
        window.append(acc.reference(loops=1))
        # every key replays the same grids: the fastest key, over the fastest
        # reference loop run among the keys, is the least disturbed measure
        # of one key's cost
        acc.charge("query", min(online_times), min(window))
        return result

    def install(self, tracer):
        """Rebinds the attack module's grid and solver entry points for a
        traced pass; returns the undo callable."""
        original_oracle = attack.superpoly_oracle
        original_solve = attack.gaussian_solve

        def superpoly_oracle(bb, term):
            oracle = original_oracle(bb, term)
            traced = tracer.wrap("attack.grid", oracle)
            traced.grid_size = oracle.grid_size
            return traced

        attack.superpoly_oracle = superpoly_oracle
        attack.gaussian_solve = tracer.wrap("attack.gauss", original_solve)

        def undo():
            attack.superpoly_oracle = original_oracle
            attack.gaussian_solve = original_solve

        return undo


class PlantedWorkload(AttackWorkload):
    name = "planted-p31"

    def __init__(self, seed: int, tmp: Path, config: PlantedConfig = PlantedConfig()):
        super().__init__(seed, tmp)
        self.config = config
        # the seed drives the preprocessing trial stream; seed 0 is the
        # ROADMAP baseline (target seed 2, preprocess seed 2)
        self.pre_seed = config.target_seed + seed
        c = config
        self.path = _write_target(
            tmp / "planted.target",
            [
                "kind: planted",
                f"field: {c.p}",
                f"public: {c.n_pub}",
                f"secret: {c.n_sec}",
                f"total-degree: {c.total_degree}",
                f"extra-terms: {c.extra_terms}",
                f"seed: {c.target_seed}",
            ],
        )
        self.target = None

    def build(self):
        """Cold `load_target` (which runs make_planted), as every CLI call
        pays it."""
        self.target = targets.load_target(self.path)

    def run_pass(self, tracer) -> PassResult:
        acc = PassResult()
        self._attack(
            acc, tracer, self.target, self.pre_seed, PLANTED_BUDGET,
            [(None, self.target.key)],
        )
        return acc


class ToyWorkload(AttackWorkload):
    name = "toy-p7-r3"

    # a toy set-up takes about a millisecond; a sample of 16 lasts about as
    # long as the three reference loops timed on either side of it
    build_repeats = 16

    def __init__(self, seed: int, tmp: Path, config: ToyConfig = ToyConfig()):
        super().__init__(seed, tmp)
        self.config = config
        self.paths = [self._path(s) for s in config.instance_seeds]
        self.ciphers: list = []

    def _path(self, instance_seed: int) -> Path:
        c = self.config
        return _write_target(
            self.tmp / f"toy-{instance_seed}.target",
            [
                "kind: toy-cipher",
                f"field: {c.p}",
                f"public: {c.n_pub}",
                f"secret: {c.n_sec}",
                f"rounds: {c.rounds}",
                f"width: {c.width}",
                f"seed: {instance_seed}",
            ],
        )

    def build(self):
        self.ciphers = [targets.load_target(path) for path in self.paths]

    def run_pass(self, tracer) -> PassResult:
        acc = PassResult()
        c = self.config
        for instance_seed, cipher in zip(c.instance_seeds, self.ciphers):
            # the benchmark seed drives the preprocessing trials and the keys
            rng = random.Random(f"toy-keys:{self.seed}:{instance_seed}")
            keys = [
                tuple(cipher.spec.element(rng.randrange(c.p)) for _ in range(c.n_sec))
                for _ in range(c.keys)
            ]
            pre_seed = 1000 * self.seed + instance_seed
            self._attack(
                acc, tracer, cipher, pre_seed, TOY_BUDGET, [(k, k) for k in keys]
            )
        return acc


# ---------------------------------------------------------------------------
# extension-field differencing


EXT_VARS = 4
# case i checks the reduction of a REDUCTION_TERMS-term polynomial over
# REDUCTION_FIELDS[i % 3]
REDUCTION_FIELDS = ((2, 2), (2, 3), (3, 2))
REDUCTION_TERMS = 6


@dataclass(frozen=True)
class ExtConfig:
    # (p, m) of the differenced polynomial and the two multiplicities of its
    # basis-block plan; a pass runs the list `rounds` times with different
    # polynomials.
    shapes: tuple = (
        ((2, 3), (1, 2)),
        ((2, 3), (2, 2)),
        ((2, 3), (2, 1)),
        ((2, 3), (1, 3)),
        ((3, 3), (2, 3)),
        ((3, 3), (3, 3)),
        ((3, 3), (4, 1)),
        ((3, 3), (3, 2)),
    )
    rounds: int = 6
    terms: int = 60


@dataclass
class _ExtCase:
    spec: object
    text: str
    term: dict
    base: tuple
    reduction: tuple  # (ProjectionContext, MultiPoly, r)


class ExtWorkload:
    name = "ext-duality"
    build_repeats = 1

    def __init__(self, seed: int, tmp: Path, config: ExtConfig = ExtConfig()):
        self.seed = seed
        self.config = config
        self.cases: list[_ExtCase] = []

    def build(self):
        """Builds the polynomials, their text and the projection contexts.
        The differenced polynomials and their plans are pinned: how far
        `delta_plan` expands a polynomial varies from one to the next, and
        the benchmark seed would spread the diff timings with it. The seed
        picks the base points and the reduced polynomials."""
        c = self.config
        cases = []
        shapes = c.shapes * c.rounds
        for index, ((p, m), mults) in enumerate(shapes):
            pinned = random.Random(f"ext:{index}")
            rng = random.Random(f"ext:{self.seed}:{index}")
            spec = ext_field(p, m)
            f = poly.random_poly(
                spec, EXT_VARS, 2 * (spec.order - 1), c.terms, rng=pinned
            )
            variables = pinned.sample(range(EXT_VARS), len(mults))
            base = tuple(spec.random_element(rng) for _ in range(EXT_VARS))
            rp, rm = REDUCTION_FIELDS[index % len(REDUCTION_FIELDS)]
            rspec = ext_field(rp, rm)
            g = poly.random_poly(rspec, 1, rspec.order - 1, REDUCTION_TERMS, rng=rng)
            reduction = (reduce_pm.ProjectionContext.for_spec(rspec), g, [rp - 1] * rm)
            cases.append(
                _ExtCase(
                    spec, poly.format_poly(f), dict(zip(variables, mults)), base,
                    reduction,
                )
            )
        self.cases = cases

    def install(self, tracer):
        return lambda: None

    def run_pass(self, tracer) -> PassResult:
        acc = PassResult()
        parse = tracer.wrap("poly.parse", poly.parse_poly)
        delta_plan = tracer.wrap("diff.delta_plan", diff.delta_plan)
        format_poly = tracer.wrap("poly.format", poly.format_poly)
        blackbox_delta = tracer.wrap("diff.grid", diff.blackbox_delta)
        verify = tracer.wrap("reduce_pm.verify", reduce_pm.verify_reduction)
        for index, case in enumerate(self.cases):
            ref = acc.begin_input()
            acc.attempted += 1
            # the `gfdelta diff` path: text in, text out
            started = perf_counter()
            f = parse(case.text, case.spec, n=EXT_VARS)
            plan = diff.DiffPlan.make(case.spec, case.term)
            g = delta_plan(f, plan)
            out = format_poly(g)
            diff_s = perf_counter() - started
            acc.time("diff", diff_s)
            acc.charge("offline", diff_s, ref)
            acc.outputs.update(out.encode())
            acc.count("terms_out", len(g))

            calls = [0]
            evaluate = tracer.wrap("poly.evaluate", f.evaluate)

            def box(point):
                calls[0] += 1
                return evaluate(point)

            started = perf_counter()
            value = blackbox_delta(box, plan, case.base)
            grid_s = perf_counter() - started
            acc.time("grid_delta", grid_s)
            acc.count("grid_probes", calls[0])
            ok = value == g.evaluate(case.base)
            if not ok:
                acc.fail(f"case {index}: grid {value} != symbolic {g.evaluate(case.base)}")

            ctx, h, r = case.reduction
            rcalls = [0]

            def rbox(point):
                rcalls[0] += 1
                return h.evaluate(point)

            started = perf_counter()
            report = verify(rbox, 1, r, ctx, seed=1000 * self.seed + index)
            reduction_s = perf_counter() - started
            acc.count("reduction_probes", rcalls[0])
            acc.count("points_checked", report.points_checked)
            if not report.ok:
                ok = False
                acc.fail(f"case {index}: reduction over {ctx.spec} failed")
            acc.time("reduction", reduction_s)
            acc.charge("query", grid_s + reduction_s, ref)
            if ok:
                acc.recovered += 1
        return acc


WORKLOADS = {
    w.name: w for w in (PlantedWorkload, ToyWorkload, ExtWorkload)
}
