"""Benchmark entry point.

    python3 perfbench/run.py --workload planted-p31 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. The last line of standard output is the result object; the line
before it is a report with the environment, every metric under the names
of README.md, timing percentiles and sample counts. The exit code is 0
whenever a result is printed, also when a check failed (then `correct` is
false); it is 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("planted-p31", "toy-p7-r3", "ext-duality")

# Exact planted counts at seed 0 (target seed 2, preprocess seed 2), replaying
# records plus dependent records as `attack-online` does.
PINNED_PLANTED = {
    "preprocess_probes": 23328,
    "terms_tried": 95,
    "records": 12,
    "dependent": 16,
    "online_probes": 216,
}


# A run times SETUP_REPS set-ups first; set-ups faster than SLOW_SETUP_S are
# timed SETUP_REPS times again before every pass.
SETUP_REPS = 5
SLOW_SETUP_S = 0.5

# Per-layer metrics of the traced run and their units; see README.md for
# the end-to-end metric and workload each one should move.
LAYER_UNITS = {
    "targets.kernel_us_per_probe": "us",
    "targets.kernel_s": "s",
    "targets.probes": "count",
    "targets.make_planted_s": "s",
    "targets.toy_cipher_s": "s",
    "attack.preprocess_s": "s",
    "attack.preprocess_self_s": "s",
    "attack.grid_self_s": "s",
    "attack.superpoly_calls": "count",
    "attack.probes_per_superpoly_call": "count",
    "attack.terms_tried": "count",
    "attack.useful_term_ratio": "ratio",
    "attack.wasted_probe_share": "ratio",
    "attack.dependent": "count",
    "attack.online_self_s": "s",
    "attack.gauss_s": "s",
    "attack.online_probes": "count",
    "attack.records_io_s": "s",
    "diff.delta_plan_s": "s",
    "diff.terms_out": "count",
    "poly.parse_s": "s",
    "poly.format_s": "s",
    "diff.grid_self_s": "s",
    "diff.grid_probes": "count",
    "poly.evaluate_s": "s",
    "poly.evaluate_calls": "count",
    "reduce_pm.verify_s": "s",
    "reduce_pm.points_checked": "count",
    "field.mul_ns.gf31": "ns",
    "field.mul_ns.gf27": "ns",
    "trace.overhead_s": "s",
}


def environment(seed: int) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "hypothesis": version("hypothesis"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def summarize(samples: list[float], scale: float = 1.0) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it, and the sample count."""
    ordered = sorted(s * scale for s in samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for q in (99.9, 99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            rank = min(n - 1, int(q / 100 * n))
            out[f"p{q:g}"] = ordered[rank]
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def field_mul_ns(spec, seed: int, count: int = 20000, reps: int = 5) -> float:
    """Median ns per FieldElement product over a seeded operand stream."""
    rng = random.Random(f"field:{seed}:{spec.text}")
    left = [spec.random_element(rng) for _ in range(count)]
    right = [spec.random_element(rng) for _ in range(count)]
    times = []
    for _ in range(reps):
        started = perf_counter_ns()
        for a, b in zip(left, right):
            a * b
        times.append((perf_counter_ns() - started) / count)
    return statistics.median(times)


def pooled(passes, name: str, scale: float = 1.0) -> dict:
    """Summary of one operation's samples over all passes."""
    return summarize([s for p in passes for s in p.samples[name]], scale)


def relative(passes, role: str) -> float:
    """Median over passes of the mean over inputs of the time one input
    spent in `role`, divided by a reference time taken next to it."""
    return statistics.median(
        statistics.fmean(i[role] for i in p.inputs) for p in passes
    )


def setup_sample(workload) -> tuple[float, float]:
    """Times one cold set-up (`build_repeats` constructions, so that a
    sample lasts at least as long as the reference loops around it) and
    returns its seconds per construction with the reference time around
    it."""
    import workloads

    before = min(workloads.reference_s() for _ in range(3))
    started = perf_counter()
    for _ in range(workload.build_repeats):
        workload.build()
    elapsed = (perf_counter() - started) / workload.build_repeats
    after = min(workloads.reference_s() for _ in range(3))
    return elapsed, (before + after) / 2


def setup_seconds(samples) -> float:
    """Set-up time in seconds at the nominal machine speed: the median over
    samples of the seconds a set-up took, scaled by the nominal reference
    time over the reference time measured around it."""
    import workloads

    return workloads.NOMINAL_REFERENCE_S * statistics.median(
        t / ref for t, ref in samples
    )


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    """The gated metrics (every workload reports every one) and the report
    metrics under the names of README.md."""
    first = passes[0]
    c = first.counts
    units = first.units
    report = {
        "setup_wall_s": summarize([t for t, _ in setup_samples]),
        "reference_ms": summarize([r for p in passes for r in p.refs], 1e3),
        "peak_rss_mb": peak_rss_mb(),
    }
    if "keys" in c:
        keys = c["keys"]
        recovered = sum(p.recovered for p in passes)
        all_keys = keys * len(passes)
        online_per_key = c["online_probes"] / keys
        recovered_vars = c["key_vars"] * recovered / all_keys
        probes = c["preprocess_probes"] + online_per_key * units
        probes_per_unit = probes / recovered_vars if recovered_vars else probes
        verified_rate = recovered / all_keys
        report.update(
            preprocess_s=pooled(passes, "preprocess"),
            records_io_ms=pooled(passes, "records_io", 1e3),
            online_ms_per_key=pooled(passes, "online", 1e3),
            online_probes_per_key=online_per_key,
            probes_per_key_var=probes_per_unit,
            key_recovery_rate=verified_rate,
        )
    else:
        cases = units * len(passes)
        probes_per_unit = (c["grid_probes"] + c["reduction_probes"]) / units
        verified_rate = sum(p.recovered for p in passes) / cases
        report.update(
            diff_ms=pooled(passes, "diff", 1e3),
            grid_delta_ms=pooled(passes, "grid_delta", 1e3),
            reduction_ms=pooled(passes, "reduction", 1e3),
            probes_per_case=probes_per_unit,
        )
    gated = {
        "setup_s": (setup_seconds(setup_samples), "s"),
        "offline_rel": (relative(passes, "offline"), "ref"),
        "query_rel": (relative(passes, "query"), "ref"),
        "probes_per_unit": (probes_per_unit, "count"),
        "verified_rate": (verified_rate, "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return gated, report


def per_layer(workload, traced, untraced, setup_samples, seed) -> dict:
    """Per-layer figures per input (target or case), all from the traced
    pass with the least wall time, so that self times still add up to
    their parent spans."""
    from gfdelta.field import ext_field, prime_field

    def ratio(num, den):
        return num / den if den else 0.0

    def one(t, r):
        c = r.counts
        kernel_calls = t.calls("kernel.preprocess") + t.calls("kernel.online")
        kernel_s = t.total_s("kernel.preprocess") + t.total_s("kernel.online")
        per_input = {
            "targets.kernel_s": kernel_s,
            "targets.probes": kernel_calls,
            "attack.preprocess_s": t.total_s("attack.preprocess"),
            "attack.preprocess_self_s": t.self_s("attack.preprocess"),
            "attack.grid_self_s": t.self_s("attack.grid"),
            "attack.superpoly_calls": t.calls("attack.grid"),
            "attack.terms_tried": c.get("terms_tried", 0),
            "attack.dependent": c.get("dependent", 0),
            "attack.online_self_s": t.self_s("attack.online"),
            "attack.gauss_s": t.total_s("attack.gauss"),
            "attack.online_probes": t.calls("kernel.online"),
            "attack.records_io_s": t.total_s("attack.records_io"),
            "diff.delta_plan_s": t.total_s("diff.delta_plan"),
            "diff.terms_out": c.get("terms_out", 0),
            "poly.parse_s": t.total_s("poly.parse"),
            "poly.format_s": t.total_s("poly.format"),
            "diff.grid_self_s": t.self_s("diff.grid"),
            "diff.grid_probes": c.get("grid_probes", 0),
            "poly.evaluate_s": t.total_s("poly.evaluate"),
            "poly.evaluate_calls": t.calls("poly.evaluate"),
            "reduce_pm.verify_s": t.total_s("reduce_pm.verify"),
            "reduce_pm.points_checked": c.get("points_checked", 0),
        }
        values = {k: v / r.units for k, v in per_input.items()}
        values.update({
            "targets.kernel_us_per_probe": ratio(kernel_s, kernel_calls) * 1e6,
            "attack.probes_per_superpoly_call": ratio(
                t.calls("kernel.preprocess"), t.calls("attack.grid")),
            "attack.useful_term_ratio": ratio(
                c.get("records", 0), c.get("terms_tried", 0)),
            "attack.wasted_probe_share": ratio(
                c.get("preprocess_probes", 0) - c.get("useful_probes", 0),
                c.get("preprocess_probes", 0)),
        })
        return values

    wall = lambda result: result.wall_s / result.units
    tracer, best = min(traced, key=lambda pair: wall(pair[1]))
    metrics = one(tracer, best)
    setup = setup_seconds(setup_samples)
    units = untraced[0].units
    metrics["targets.make_planted_s"] = setup if workload.name == "planted-p31" else 0.0
    metrics["targets.toy_cipher_s"] = setup / units if workload.name == "toy-p7-r3" else 0.0
    metrics["field.mul_ns.gf31"] = field_mul_ns(prime_field(31), seed)
    metrics["field.mul_ns.gf27"] = field_mul_ns(ext_field(3, 3), seed)
    metrics["trace.overhead_s"] = wall(best) - min(map(wall, untraced))
    return {k: (metrics[k], unit) for k, unit in LAYER_UNITS.items()}


def accounting_error_s(tracer) -> float:
    """How far the traced self times miss their parent spans: no span's
    children may outlast it, and on the attack kernel, grid-self and
    preprocess-self time must add up to the preprocess span."""
    worst = max((-tracer.self_s(name) for name in tracer.stats), default=0.0)
    parts = (
        tracer.total_s("kernel.preprocess")
        + tracer.self_s("attack.grid")
        + tracer.self_s("attack.preprocess")
    )
    return max(worst, abs(parts - tracer.total_s("attack.preprocess")))


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, config=None
) -> tuple[dict, dict]:
    """Runs one workload; returns (result, report). `config` replaces the
    workload's default sizes (the smoke test runs minimal ones)."""
    import workloads
    from tracer import NullTracer, Tracer

    env = environment(seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        factory = workloads.WORKLOADS[workload_name]
        workload = factory(seed, Path(tmp)) if config is None else factory(
            seed, Path(tmp), config
        )
        setup_samples = [setup_sample(workload) for _ in range(SETUP_REPS)]
        # short set-ups are sampled again before every pass, so that their
        # median spans the whole run
        retime = setup_samples[0][0] < SLOW_SETUP_S
        null = NullTracer()

        def one_pass(tracer):
            if retime:
                setup_samples.extend(setup_sample(workload) for _ in range(SETUP_REPS))
            undo = workload.install(tracer) if tracer.active else None
            started = perf_counter()
            try:
                result = workload.run_pass(tracer)
            finally:
                if undo:
                    undo()
            result.wall_s = perf_counter() - started
            return result

        # the warm-up pass fills lazy caches and fixes the expected counts
        reference = one_pass(null)
        untraced, traced = [], []
        started = perf_counter()
        while not untraced or perf_counter() - started < seconds:
            untraced.append(one_pass(null))
            if trace:
                tracer = Tracer()
                traced.append((tracer, one_pass(tracer)))

        checks = []
        every = [reference, *untraced, *(r for _, r in traced)]
        for index, result in enumerate(every):
            if (result.counts, result.digest) != (reference.counts, reference.digest):
                checks.append(f"pass {index}: counts or output digest differ from pass 0")
        if workload_name == "planted-p31" and seed == 0 and config is None:
            pinned = {k: reference.counts[k] for k in PINNED_PLANTED}
            if pinned != PINNED_PLANTED:
                checks.append(f"pinned planted counts {pinned} != {PINNED_PLANTED}")
        accounting = max((accounting_error_s(t) for t, _ in traced), default=0.0)
        if accounting > 1e-6:
            checks.append(f"traced self times miss their parent spans by {accounting} s")

        # each pass also counts as one operation: its repeat-consistency check
        attempted = sum(r.attempted for r in every) + len(every)
        failed = sum(r.failed for r in every) + len(checks)
        failures = checks + [f for r in every for f in r.failures][:20]
        gated, report = end_to_end(untraced, setup_samples)
        if trace:
            metrics = per_layer(workload, traced, untraced, setup_samples, seed)
        else:
            metrics = gated
        report.update(
            failure_rate=failed / attempted,
            workload=workload_name,
            trace=int(trace),
            environment=env,
            passes=len(untraced),
            traced_passes=len(traced),
            units_per_pass=reference.units,
            counts_per_pass=reference.counts,
            trace_accounting_error_s=accounting,
            failures=failures,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "gfdelta" / "__init__.py").is_file():
        print(f"error: no gfdelta package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
