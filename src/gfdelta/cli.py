"""Command-line surface for batch use.

Subcommands: diff, degree-bound, attack-pre, attack-online, verify.
Exit status: 0 success, 2 input error (including a record file whose
field, public or secret header does not match the target it is replayed
against, records whose grids hold more points in all than the
`attack-pre --budget` default, a record term with a multiplicity of p or
more, and a `diff` whose plan or result may be too large: a step table
of more than `diff.PLAN_TABLE_LIMIT` offsets, or a difference of more than
`diff.DELTA_TERM_LIMIT` terms), 3 budget or schedule exhausted without full
rank, 4 internal invariant violation (including records that conflict, and
a recovered key that the target's black box refutes against the online
oracle).
"""

from __future__ import annotations

import argparse
import random
import sys

from . import attack, diff, poly, reduce_pm, targets
from .combinat import degree_after_diff
from .field import parse_element, parse_field_spec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3
EXIT_INVARIANT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfdelta",
        description="Finite differences over GF(p)/GF(p^m) and a grid cube attack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diff", help="difference a polynomial per a plan")
    d.add_argument("--field", required=True, help="field spec, e.g. 31 or 3^2/1,2,2")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="inline polynomial text")
    src.add_argument("--poly-file", help="file containing the polynomial")
    d.add_argument("--plan", required=True, help="term syntax, e.g. x1^2*x3")
    d.add_argument(
        "--steps",
        help="comma-separated steps in plan order, e.g. 1,1,a (default: unit "
        "steps over GF(p), basis blocks over GF(p^m))",
    )
    d.add_argument("--out", help="also write the result to this file")

    g = sub.add_parser("degree-bound", help="degree bound after k differences")
    g.add_argument("--field", required=True)
    g.add_argument("--d", required=True, type=int, help="exponent of the monomial")
    g.add_argument("--k", required=True, type=int, help="number of differences")

    pre = sub.add_parser("attack-pre", help="preprocessing: hunt for maxterms")
    pre.add_argument("--target", required=True, help="target description file")
    pre.add_argument("--budget", type=int, default=attack.DEFAULT_BUDGET)
    pre.add_argument("--trials", type=int, default=None)
    pre.add_argument("--max-mult", type=int, default=None)
    pre.add_argument("--seed", required=True, type=int)
    pre.add_argument("--out", required=True, help="record file to write")

    onl = sub.add_parser("attack-online", help="online phase: solve for the key")
    onl.add_argument("--target", required=True, help="target file (key regenerated)")
    onl.add_argument("--records", required=True, help="record file from attack-pre")

    ver = sub.add_parser("verify", help="run the randomized property suite")
    ver.add_argument("--seed", required=True, type=int)
    ver.add_argument("--sizes", choices=("quick", "full"), default="quick")
    return parser


# ---------------------------------------------------------------------------
# commands


def cmd_diff(args) -> int:
    spec = parse_field_spec(args.field)
    steps = None
    if args.steps is not None:
        steps = [parse_element(chunk, spec) for chunk in args.steps.split(",")]
    plan = diff.parse_plan(args.plan, spec, steps)
    text = args.poly
    if text is None:
        with open(args.poly_file) as fh:
            text = fh.read()
    f = poly.parse_poly(text, spec).widen(max(plan.variables) + 1)
    diff.check_delta_size(f, plan)
    result = poly.format_poly(diff.delta_plan(f, plan))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result + "\n")
    print(result)
    return EXIT_OK


def cmd_degree_bound(args) -> int:
    spec = parse_field_spec(args.field)
    bound = degree_after_diff(args.d, args.k, spec.p)
    print("zero" if bound is None else bound)
    return EXIT_OK


def cmd_attack_pre(args) -> int:
    target = targets.load_target(args.target)
    bb = target.blackbox()
    max_mult = args.max_mult
    if max_mult is None:
        max_mult = target.suggested_max_multiplicity
    result = attack.preprocess(
        bb,
        budget=args.budget,
        max_total_mult=max_mult,
        seed=args.seed,
        trials=args.trials,
    )
    # dependent rows ride along: they give the online phase redundancy for
    # catching a false maxterm
    attack.save_records(
        args.out,
        result.records + result.dependent,
        spec=bb.spec,
        n_pub=bb.n_pub,
        n_sec=bb.n_sec,
        seed=args.seed,
    )
    print(
        f"status={result.status} terms-tried={result.terms_tried} "
        f"evaluations={result.evaluations} rank={result.rank}/{bb.n_sec}"
    )
    print(f"records written to {args.out}")
    if result.rank < bb.n_sec:
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_attack_online(args) -> int:
    target = targets.load_target(args.target)
    records, _meta = attack.load_records(
        args.records, expected=(target.spec, target.n_pub, target.n_sec)
    )
    oracle = target.online_oracle()
    outcome = attack.online(oracle, records, target.spec, target.n_sec)
    print(
        f"status={outcome.status} rank={outcome.rank} "
        f"online-probes={oracle.evaluations}"
    )
    if outcome.status == "recovered":
        print("key: " + ",".join(map(str, outcome.key)))
        points = f"{attack.CONFIRM_POINTS} public points"
        if attack.confirm_key(target.blackbox(), oracle, outcome.key):
            print(f"confirmed: the key reproduces the oracle at {points}")
            return EXIT_OK
        print(f"refuted: the key disagrees with the oracle within {points}")
        return EXIT_INVARIANT
    if outcome.status == "inconsistent":
        print(outcome.message)
        return EXIT_INVARIANT
    if outcome.assignment:
        solved = " ".join(
            f"x{i + 1}={v}" for i, v in sorted(outcome.assignment.items())
        )
        print(f"solved: {solved}")
    print(outcome.message)
    return EXIT_INCOMPLETE


def _check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))
    return ok


def cmd_verify(args) -> int:
    from .field import ext_field, prime_field

    rng = random.Random(args.seed)
    cases = 40 if args.sizes == "quick" else 200
    all_ok = True

    # duality: grid evaluation equals symbolic differencing, for any steps
    specs = [prime_field(p) for p in (3, 5, 31)]
    specs += [ext_field(p, m) for p, m in ((2, 2), (2, 3), (3, 2), (3, 3))]
    failures = 0
    for _ in range(cases):
        spec = rng.choice(specs)
        n = rng.randint(1, 4)
        f = poly.random_poly(spec, n, 6, rng.randint(1, 6), rng=rng)
        var = rng.randrange(n)
        mult = rng.randint(1, min(spec.m * (spec.p - 1), 4))
        steps = [spec.random_element(rng, nonzero=True) for _ in range(mult)]
        plan = diff.DiffPlan.make(spec, {var: mult}, rng.choice([None, steps]))
        base = tuple(spec.random_element(rng) for _ in range(n))
        lhs = diff.blackbox_delta(lambda pt: f.evaluate(pt), plan, base)
        rhs = diff.delta_plan(f, plan).evaluate(base)
        failures += lhs != rhs
    all_ok &= _check("duality", failures == 0, f"{cases} cases")

    # quotient constants reconstruct the differenced function at zero
    failures = 0
    for _ in range(cases):
        p = rng.choice([5, 31])
        spec = prime_field(p)
        n = rng.randint(2, 4)
        f = poly.random_poly(spec, n, 5, rng.randint(1, 5), rng=rng)
        var = rng.randrange(n)
        mult = rng.randint(1, min(3, p - 1))
        t = tuple(mult if i == var else 0 for i in range(n))
        fact = f.factor_term(t)
        plan = diff.DiffPlan.make(spec, {var: mult})
        sub = {var: spec.zero}
        lhs = diff.delta_plan(f, plan).substitute(sub)
        pairs = []
        for mono, coeff in fact.quotient.terms():
            cube_part = tuple(e if i == var else 0 for i, e in enumerate(mono))
            rest = tuple(0 if i == var else e for i, e in enumerate(mono))
            const = diff.superpoly_constants(spec, t, [cube_part])[cube_part]
            pairs.append((rest, const * coeff))
        rhs = poly.MultiPoly(spec, n, pairs)
        failures += lhs != rhs
    all_ok &= _check("quotient-constants", failures == 0, f"{cases} cases")

    # reduction: extension differencing projects to per-component differencing
    failures = 0
    for _ in range(max(cases // 4, 8)):
        spec = ext_field(*rng.choice([(2, 2), (3, 2)]))
        ctx = reduce_pm.ProjectionContext.for_spec(spec)
        f = poly.random_poly(spec, 1, spec.order - 1, rng.randint(1, 4), rng=rng)
        r = [rng.randint(0, spec.p - 1) for _ in range(spec.m)]
        report = reduce_pm.verify_reduction(
            lambda pt: f.evaluate(pt), 1, r, ctx, seed=rng.randrange(1 << 30)
        )
        failures += not report.ok
    all_ok &= _check("reduction", failures == 0, "exhaustive points")

    # collapse: p equal unit steps annihilate every function
    failures = 0
    for _ in range(max(cases // 4, 8)):
        spec = ext_field(*rng.choice([(2, 2), (3, 2)]))
        table = {
            pt: spec.random_element(rng) for pt in poly.all_points(spec, 1)
        }
        bb = lambda pt: table[pt]
        base = (spec.random_element(rng),)
        unit = (spec.one,)
        value = diff.inclusion_exclusion(bb, [unit] * spec.p, base)
        failures += bool(value)
    all_ok &= _check("collapse", failures == 0, "p unit steps")

    print("verify:", "all checks passed" if all_ok else "FAILURES detected")
    return EXIT_OK if all_ok else EXIT_INVARIANT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "diff": cmd_diff,
        "degree-bound": cmd_degree_bound,
        "attack-pre": cmd_attack_pre,
        "attack-online": cmd_attack_online,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        # every package error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
