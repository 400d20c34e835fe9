"""Closed-loop benchmark of the huacheck verification campaigns.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client: each workload pass calls ``huacheck.cli.main``
in-process and starts only after the previous pass has finished; the seed
is passed through to every campaign as ``--seed``. Every pass is gated:
exit codes, record verdicts, and report bytes identical to the run's first
report, which was made with the same seed.

``--trace 0`` prints the end-to-end metrics: set-up is timed in fresh
subprocesses (``probe.py``); after a warm-up, a first untimed pass gives the
peak memory of this process, and the passes after it give the pass times,
each rescaled by the host speed sampled around and during it (see
``harness.SpeedSampler``). ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of the traced ones. The last line of
standard output is the JSON result; the line before it holds the environment
stamp and the raw timings. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
# ticks timed after each set-up probe, to rescale the probes around them
SETUP_TICKS = 10
PROBE_TIMEOUT_S = 60
MEMORY_METHOD = "ru_maxrss of the benchmark process, read after its first pass, which runs without ticks"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(name):
    """Time probe.py in a fresh interpreter; returns (seconds, problem)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=harness.ROOT,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, f"set-up probe timed out after {PROBE_TIMEOUT_S} s"
    problem = None
    if proc.returncode != 0:
        problem = f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}"
    return time.perf_counter() - start, problem


class Run:
    """Outcomes of one benchmark run, gated as they arrive."""

    def __init__(self):
        self.passes = 0
        self.failed = 0
        self.records = 0
        self.bad = 0
        self.drift = 0
        self.compared = 0
        self.problems = []
        self.misses = []
        self.worst_ratio = 0.0
        self.reference = None

    def gate(self, outcome, label):
        """Check one pass; returns its Verdict."""
        verdict = harness.check(outcome)
        self.passes += 1
        self.records += verdict.records
        self.bad += verdict.failed_records + verdict.bad_campaigns
        self.worst_ratio = max(self.worst_ratio, verdict.worst_ratio)
        failed = not verdict.ok
        self.problems += [f"{label}: {p}" for p in verdict.problems]
        self.problems += [f"{label}: {e.strip().splitlines()[-1]}" for e in outcome.errors]
        self.misses += [f"{label}: {m}" for m in verdict.misses]
        if self.reference is None:
            self.reference = outcome.text
        else:
            self.compared += 1
            if outcome.text != self.reference:
                self.drift += 1
                failed = True
                self.problems.append(f"{label}: report bytes differ from the first report")
        self.failed += failed
        return verdict

    @property
    def correct(self):
        return not self.failed and not self.problems

    @property
    def pass_ratio(self):
        return 1.0 - self.bad / max(1, self.records)


def warm_up(cli, workload):
    outcome = harness.run_workload(cli.main, [list(workload.warmup)])
    return [] if outcome.codes == [0] else [f"warm-up exited {outcome.codes[0]}"]


def timed_pass(cli, argvs):
    gc.collect()
    start = time.perf_counter()
    outcome = harness.run_workload(cli.main, argvs)
    return time.perf_counter() - start, outcome


def end_to_end(cli, name, seed, seconds):
    workload = harness.WORKLOADS[name]
    run = Run()

    sampler = harness.SpeedSampler()
    setups, setup_norms = [], []
    before = sampler.mean_tick(SETUP_TICKS)
    for _ in range(SETUP_REPS):
        elapsed, problem = probe_setup(name)
        after = sampler.mean_tick(SETUP_TICKS)
        setups.append(elapsed)
        setup_norms.append(harness.rescale(elapsed, (before + after) / 2))
        before = after
        if problem:
            run.problems.append(problem)

    run.problems += warm_up(cli, workload)
    argvs = workload.argvs(seed)
    start = time.perf_counter()
    # The first pass runs without ticks, because ticks run inside a pass
    # raise its peak RSS (by about 30 MB on dirichlet-mc); it gives the
    # memory figure and the report that later passes must reproduce.
    first_s, outcome = timed_pass(cli, argvs)
    run.gate(outcome, "untimed pass")
    # the kernel keeps this peak at no cost
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls, norms, rates, tick_means = [], [], [], []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        gc.collect()
        wall, ticks, outcome = sampler.timed(lambda: harness.run_workload(cli.main, argvs))
        verdict = run.gate(outcome, f"pass {len(walls)}")
        tick_means.append(statistics.fmean(ticks))
        norm = harness.rescale(wall, tick_means[-1])
        walls.append(wall)
        norms.append(norm)
        rates.append(verdict.samples / norm)

    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    values = {
        "setup_s": statistics.median(setup_norms),
        "wall_norm_s": statistics.median(norms),
        "samples_per_norm_s": statistics.median(rates),
        "peak_alloc_mb": peak_mb,
        "report_identical_ratio": 1.0 - run.drift / max(1, run.compared),
    }
    metrics = {key: (values[key], unit) for key, unit in harness.END_TO_END}
    detail = {
        "setup_runs_s": setups,
        "setup_norm_runs_s": setup_norms,
        "wall_runs_s": walls,
        "untimed_pass_s": first_s,
        "wall_quartiles_s": quartiles,
        "tick_means_s": tick_means,
        "wall_norm_runs_s": norms,
        "memory_method": MEMORY_METHOD,
        "fail_ratio": run.bad / max(1, run.records),
        "pass_ratio": run.pass_ratio,
        "report_drift": run.drift,
        "residual_to_tol_max": run.worst_ratio,
    }
    return run, metrics, detail


def per_layer(cli, name, seed, seconds):
    workload = harness.WORKLOADS[name]
    run = Run()
    run.problems += warm_up(cli, workload)
    argvs = workload.argvs(seed)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or (
        time.perf_counter() - start + statistics.median(plain) + statistics.median(traced)
        <= seconds
    ):
        wall, outcome = timed_pass(cli, argvs)
        run.gate(outcome, f"untraced pass {len(plain)}")
        plain.append(wall)

        gc.collect()
        tracer = Tracer()
        outcome, missed, wall = harness.trace_campaign(cli, tracer, argvs)
        run.gate(outcome, f"traced pass {len(traced)}")
        traced.append(wall)
        values = harness.layer_values(tracer, wall)
        layers.append(values)
        if missed:
            run.problems.append("bindings missed by the tracer: " + ", ".join(missed))
        for key, expected in workload.expected.items():
            if values[key] != expected:
                run.problems.append(f"self-check: {key} = {values[key]}, closed form {expected}")

    values = {key: statistics.median(v[key] for v in layers) for key in layers[0]}
    values["pass_ratio"] = run.pass_ratio
    values["residual_to_tol_max"] = run.worst_ratio
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["trace.report_drift"] = run.drift
    metrics = {key: (values[key], unit) for key, unit in harness.PER_LAYER}
    detail = {"untraced_runs_s": plain, "traced_runs_s": traced}
    return run, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    harness.pin_threads()
    try:
        cli = harness.load_cli()
    except harness.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    run, metrics, detail = measure(cli, args.workload, args.seed, args.seconds)
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    for miss in run.misses:
        print(f"bench: gate missed, counted in fail_ratio: {miss}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:14.6g} {unit}")
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=harness.environment(),
        problems=run.problems,
        gate_misses=run.misses,
    )
    print(json.dumps(detail))
    result = {
        "correct": run.correct,
        "attempted": run.passes,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
