"""Workloads, campaign runner, correctness gate and layer metrics.

Shared by ``run.py`` (the benchmark), ``probe.py`` (its fresh-process
passes) and the harness tests. Nothing here imports numpy or huacheck at
import time, so the entry points can pin the BLAS/OpenMP pools first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the benchmark is a single-process, single-client
# closed loop, and the campaigns' matrices are at most 16 x 16.
THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout does not hold the huacheck sources to benchmark."""


def pin_threads():
    """Pin the BLAS/OpenMP pools; call before numpy is imported."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(THREADS)


def load_cli(src=SRC):
    """Import huacheck.cli from ``src`` of this checkout, never elsewhere."""
    package = src / "huacheck"
    if not (package / "cli.py").is_file():
        raise SourceMissing(f"no huacheck sources under {src}")
    sys.path.insert(0, str(src))
    import huacheck.cli

    if Path(huacheck.cli.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"huacheck was imported from {huacheck.cli.__file__}")
    return huacheck.cli


# -- workloads -------------------------------------------------------------


def _domains(specs):
    return tuple(arg for spec in specs for arg in ("--domain", spec))


@dataclass(frozen=True)
class Workload:
    """Campaign argument lists (without --seed/--format) and a warm-up."""

    campaigns: tuple
    warmup: tuple
    # span or counter name -> value every traced campaign must reproduce
    expected: dict = field(default_factory=dict)

    def argvs(self, seed):
        return [
            list(c) + ["--seed", str(seed), "--format", "json"] for c in self.campaigns
        ]


KERNEL_DOMAINS = ("I:2,2", "I:2,3", "II:2", "II:3", "III:4")
KERNEL_POINTS = 10
DIRICHLET_DOMAINS = ("I:2,2", "II:2", "III:4")
# run_dirichlet_campaign draws this many boundary samples per domain
DIRICHLET_DRAWS = 100_000
SMALL_KERNEL = ("verify", "kernel", "--domain", "II:2", "--points", "1")


def kernel_stencil_calls(domain_sizes, points):
    """poisson_szego calls of ``verify kernel`` for (family, size) domains.

    The Richardson FD Hessian in d = 2 * size real coordinates evaluates
    the kernel at 2 (1 + 2 d^2) = 2 + 4 d^2 stencil points; the closed
    route of a type-I pair evaluates it once more.
    """
    total = 0
    for family, size in domain_sizes:
        d = 2 * size
        total += points * (2 + 4 * d * d + (family == "I"))
    return total


def _spec_sizes(specs):
    sizes = []
    for spec in specs:
        family, _, dims = spec.partition(":")
        numbers = [int(x) for x in dims.split(",")]
        size = numbers[0] * numbers[1] if family == "I" else numbers[0] ** 2
        sizes.append((family, size))
    return sizes


WORKLOADS = {
    "kernel-fd": Workload(
        campaigns=(
            ("verify", "kernel", *_domains(KERNEL_DOMAINS), "--points", str(KERNEL_POINTS)),
        ),
        warmup=SMALL_KERNEL,
        expected={
            "kernels.poisson_szego.calls": kernel_stencil_calls(
                _spec_sizes(KERNEL_DOMAINS), KERNEL_POINTS
            )
        },
    ),
    # every dirichlet campaign draws 100k boundary samples per domain, so the
    # warm-up is the small kernel call, which loads the same numpy routines
    "dirichlet-mc": Workload(
        campaigns=(("verify", "dirichlet", *_domains(DIRICHLET_DOMAINS), "--points", "50"),),
        warmup=SMALL_KERNEL,
        expected={"domains.sample_silov.draws": DIRICHLET_DRAWS * len(DIRICHLET_DOMAINS)},
    ),
    "exact-algebra": Workload(
        campaigns=(
            ("verify", "hypergeom", "--points", "50"),
            ("verify", "embeddings", "--points", "100"),
            ("demo", "counterexample", "--points", "2000"),
        ),
        warmup=("demo", "counterexample", "--points", "1"),
    ),
}


# -- running and checking campaigns ------------------------------------------


@dataclass
class Outcome:
    """What one pass over a workload's campaigns produced."""

    text: str = ""  # the report bytes of every campaign, concatenated
    codes: list = field(default_factory=list)  # exit codes, None if raised
    chunks: list = field(default_factory=list)  # report text per campaign
    errors: list = field(default_factory=list)  # tracebacks


def run_workload(main, argvs):
    """Call ``main`` on each argv in turn, capturing its report.

    A campaign that raises is recorded, not propagated: the benchmark counts
    it as a failed operation and carries on.
    """
    outcome = Outcome()
    for argv in argvs:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            outcome.errors.append(traceback.format_exc())
        outcome.codes.append(code)
        outcome.chunks.append(out.getvalue())
    outcome.text = "".join(outcome.chunks)
    return outcome


# A record may miss its own gate. Such a miss is the verifier's verdict,
# counted in fail_ratio; a residual beyond GROSS_FACTOR tolerances is a wrong
# result and makes the pass incorrect. The Poisson records bound the largest
# of 10 standard-normal z-scores by 3: over 180 domain-seeds the largest |z|
# was 3.6, while a Haar sampler without its phase correction gives |z| of 37
# to 47 on III(4).
GROSS_FACTOR = 10.0
# The FD route of the kernel identity has an absolute 1e-6 tolerance, but the
# kernel it differentiates grows as the boundary draw nears z, so its
# residual has a power-law tail across seeds: over seeds 0-199 of kernel-fd,
# 28 exceeded 0.5 tolerances, 12 exceeded 1, 2 exceeded 4 and the worst was
# 8.8. A 0.1% error in the kernel exponent moves it 1e4 to 2e5 tolerances.
GROSS_FACTORS = {"boundary-identity-fd-": 1000.0}


def gross_factor(name):
    """Tolerances a record's residual may reach before it is a wrong result."""
    for prefix, factor in GROSS_FACTORS.items():
        if name.startswith(prefix):
            return factor
    return GROSS_FACTOR


@dataclass
class Verdict:
    """Correctness of one workload pass."""

    records: int = 0  # records attempted; a campaign that raised counts one
    failed_records: int = 0  # records that missed their own gate
    bad_campaigns: int = 0  # raised or exited non-zero
    samples: int = 0
    worst_ratio: float = 0.0  # residual / tolerance, tolerance / residual
    problems: list = field(default_factory=list)  # wrong or missing output
    misses: list = field(default_factory=list)  # names of records that failed

    @property
    def ok(self):
        return not self.problems


def _record_passes(record):
    if record["direction"] == "min_above":
        return record["residual_max"] > record["tolerance"]
    return record["residual_max"] < record["tolerance"]


def _record_ratio(record):
    residual, tolerance = record["residual_max"], record["tolerance"]
    if record["direction"] == "min_above":
        return tolerance / residual if residual else float("inf")
    return residual / tolerance


def check(outcome):
    """Gate a pass: exit codes, record verdicts and report well-formedness.

    A record that misses its gate by less than its gross factor is counted,
    not a problem; the exit code must still say that the campaign failed.
    """
    verdict = Verdict()
    for argv_index, (code, chunk) in enumerate(zip(outcome.codes, outcome.chunks)):
        if code is None:
            verdict.records += 1
            verdict.bad_campaigns += 1
            verdict.problems.append(f"campaign {argv_index} raised")
            continue
        if code != 0:
            verdict.bad_campaigns += 1
        try:
            report = json.loads(chunk)
            records = report["records"]
        except (ValueError, KeyError, TypeError):
            verdict.records += 1
            verdict.problems.append(f"campaign {argv_index} wrote no JSON report")
            continue
        if not records:
            verdict.problems.append(f"campaign {argv_index} has no records")
        passed = True
        for record in records:
            verdict.records += 1
            verdict.samples += int(record["samples"])
            ratio = _record_ratio(record)
            verdict.worst_ratio = max(verdict.worst_ratio, ratio)
            factor = gross_factor(record["name"])
            if not ratio <= factor:
                verdict.problems.append(
                    f"{record['name']}: residual {record['residual_max']!r} is over "
                    f"{factor:g} x its tolerance {record['tolerance']!r}"
                )
            if record["pass"] != _record_passes(record):
                verdict.problems.append(f"verdict of {record['name']} disagrees with its residual")
            if not record["pass"]:
                verdict.failed_records += 1
                verdict.misses.append(f"{record['name']} ({ratio:.3g} x tolerance)")
                passed = False
        if report.get("pass") != passed:
            verdict.problems.append(f"campaign {argv_index} overall verdict is inconsistent")
        if (code == 0) != passed:
            verdict.problems.append(f"campaign {argv_index} exit code {code} disagrees with its records")
    return verdict


# -- metrics and tracing -----------------------------------------------------

# End-to-end metrics printed with --trace 0, in the order of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("samples_per_norm_s", "1/s"),
    ("peak_alloc_mb", "MB"),
    ("report_identical_ratio", "ratio"),
)

# Per-layer metrics printed with --trace 1, in the order of BENCHMARK.json.
PER_LAYER = (
    ("domains.sample_silov.calls", "count"),
    ("domains.sample_silov.draws", "count"),
    ("domains.sample_silov.busy_s", "s"),
    ("domains.sample_silov.self_s", "s"),
    ("domains.sample_silov.share", "ratio"),
    ("domains.sample_interior.draws", "count"),
    ("domains.sample_interior.self_s", "s"),
    ("dirichlet.boundary_batch.self_s", "s"),
    ("dirichlet.poisson_solve.calls", "count"),
    ("dirichlet.poisson_solve.weights", "count"),
    ("dirichlet.poisson_solve.self_s", "s"),
    ("fields.hessian_fd.calls", "count"),
    ("fields.hessian_fd.busy_s", "s"),
    ("fields.hessian_fd.self_s", "s"),
    ("fields.hessian_fd.share", "ratio"),
    ("fields.hessian_exact.calls", "count"),
    ("fields.hessian_exact.self_s", "s"),
    ("fields.fd_evals", "count"),
    ("fields.fd_evals_per_hessian", "ratio"),
    ("fields.wirtinger_gradient.self_s", "s"),
    ("fields.wirtinger_gradient_bar.self_s", "s"),
    ("kernels.poisson_szego.calls", "count"),
    ("kernels.poisson_szego.self_s", "s"),
    ("kernels.check_theorem22.self_s", "s"),
    ("kernels.identity_tensors.calls", "count"),
    ("kernels.identity_tensors.self_s", "s"),
    ("kernels.log_gradients_fd.self_s", "s"),
    ("kernels.log_gradients_closed.self_s", "s"),
    ("operators.coefficients.calls", "count"),
    ("operators.coefficients.self_s", "s"),
    ("operators.apply.self_s", "s"),
    ("hypergeom.gauss_2f1.calls", "count"),
    ("hypergeom.gauss_2f1.near1_calls", "count"),
    ("hypergeom.gauss_2f1.self_s", "s"),
    ("embeddings.pullback_residual.self_s", "s"),
    ("embeddings.chain_rule_residual.self_s", "s"),
    ("embeddings.hessian_transport_check.self_s", "s"),
    ("embeddings.polarization_recover.self_s", "s"),
    ("report.record_from_values.self_s", "s"),
    *((f"{layer}.self_s", "s") for layer in tracing.LAYERS),
    ("pass_ratio", "ratio"),
    ("residual_to_tol_max", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.report_drift", "count"),
)


def trace_campaign(cli, tracer, argvs):
    """Run argvs with every layer function wrapped; restore afterwards.

    Returns (outcome, missed, seconds): missed lists module-level bindings
    that still referred to an unwrapped function while the campaign ran, and
    seconds is the wall time of the traced campaigns alone.
    """
    fields = sys.modules["huacheck.fields"]
    poly = fields.PolyField

    def hessian_name(arguments):
        return "fields.hessian_exact" if isinstance(arguments["u"], poly) else "fields.hessian_fd"

    spans, stack, counts = tracer.spans, tracer.stack, tracer.counts

    def count_fd_evals(original):
        def __call__(self, z):
            counts["fields.fd_evals"] += 1
            if stack and spans[stack[-1]][0] == "fields.hessian_fd":
                counts["fields.fd_evals_in_hessian"] += 1
            return original(self, z)

        return __call__

    def draws(arguments):
        return {"draws": arguments["count"]}

    def weights(arguments):
        batch = arguments["batch"]
        return {"weights": arguments["samples"] if batch is None else len(batch)}

    special = {
        "fields.wirtinger_hessian": {"name": hessian_name},
        "domains.sample_silov": {"counter": draws},
        "domains.sample_interior": {"counter": draws},
        "dirichlet.poisson_solve": {"counter": weights},
        "hypergeom.gauss_2f1": {
            "counter": lambda arguments: {"near1_calls": int(arguments["t"] > 0.9)}
        },
    }
    installation = tracing.install(
        tracer,
        sys.modules["huacheck"],
        special,
        extra=[(fields.OpaqueField, "__call__", count_fd_evals)],
    )
    try:
        missed = tracing.unpatched_bindings(installation)
        start = time.perf_counter()
        outcome = run_workload(cli.main, argvs)
        seconds = time.perf_counter() - start
    finally:
        installation.restore()
    return outcome, missed, seconds


def layer_values(tracer, campaign_s):
    """Per-layer metrics of one traced campaign that took campaign_s."""
    stats = tracing.aggregate(tracer.spans)
    counts = tracer.counts

    def stat(span, key):
        return stats.get(span, {}).get(key, 0)

    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith(layer + ".")
        )
    fd_calls = stat("fields.hessian_fd", "calls")
    values["fields.fd_evals"] = counts["fields.fd_evals"]
    values["fields.fd_evals_per_hessian"] = (
        counts["fields.fd_evals_in_hessian"] / fd_calls if fd_calls else 0.0
    )
    for span in ("fields.hessian_fd", "domains.sample_silov"):
        values[f"{span}.share"] = stat(span, "busy_s") / campaign_s
    for name, _unit in PER_LAYER:
        if name in values or name.startswith(("trace.", "residual_", "pass_")):
            continue
        span, _, key = name.rpartition(".")
        values[name] = stat(span, key) if key in ("calls", "busy_s", "self_s") else counts[name]
    return values


# -- the speed reference -----------------------------------------------------

# The host's CPUs are shared: as other tenants load them, a pass slows by up
# to about 2x in phases that last from under a second to minutes, too short
# for a loop timed between passes to track. So the host's speed is sampled
# while each pass runs: a wall-clock timer interrupts the pass every
# TICK_INTERVAL_S and runs a small fixed loop, the tick, between two
# bytecodes of the campaign. A pass's own time (its wall time less the ticks)
# is rescaled by the mean tick over the pass and its two bracketing ticks, to
# the time on a host where a tick takes TICK_S. The tick calls no huacheck
# code, so a change to huacheck moves the rescaled times in full. It mixes
# the three kinds of work in the campaigns: small-matrix numpy calls,
# pure-Python series arithmetic with dict updates, and stacked numpy linear
# algebra.
TICK_S = 0.01
TICK_INTERVAL_S = 0.4
TICK_SMALL = 400
TICK_SERIES = 13_000
TICK_STACKED = 10
# stacked 4 x 4 blocks; their arrays stay under glibc's 128 KiB mmap threshold,
# so the ticks leave the allocator's behaviour, and the peak RSS, alone
TICK_STACK = 400


def make_tick():
    """A callable that runs the tick loop once and returns its seconds."""
    import numpy as np

    rng = np.random.default_rng(20170811)

    def draw(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.2

    small, stack, eye = draw(64, 4, 4), draw(TICK_STACK, 4, 4), np.eye(4)

    def tick():
        start = time.perf_counter()
        total = 0.0
        for i in range(TICK_SMALL):
            a = small[i % 64]
            total += math.log(abs(np.linalg.det(eye - a @ a.conj().T)))
        sums = {}
        for i in range(TICK_SERIES):
            x = (i % 97) * 0.01
            total += x * x / (1.0 + x)
            sums[i % 50] = sums.get(i % 50, 0.0) + x
        for _ in range(TICK_STACKED):
            gram = eye - stack @ stack.conj().transpose(0, 2, 1)
            total += float(np.abs(np.linalg.det(gram)).sum())
        elapsed = time.perf_counter() - start
        if not math.isfinite(total):
            raise ArithmeticError("tick loop lost its values")
        return elapsed

    return tick


def rescale(seconds, mean_tick):
    """A time rescaled to the host speed at which a tick takes TICK_S."""
    return seconds * TICK_S / mean_tick


class SpeedSampler:
    """Runs work while sampling the host's speed with ticks."""

    def __init__(self):
        self.tick = make_tick()
        self.tick()  # loads numpy's routines
        self.last = self.tick()

    def mean_tick(self, count):
        """Mean of count ticks run now."""
        return sum(self.tick() for _ in range(count)) / count

    def timed(self, work):
        """Run work(); return (its own seconds, the ticks, its result).

        Own seconds is the wall time of work() less the ticks run inside it.
        The ticks are the one before work(), those inside it and one after.
        """
        ticks, spent = [self.last], []

        def on_timer(signum, frame):
            start = time.perf_counter()
            ticks.append(self.tick())
            spent.append(time.perf_counter() - start)

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S / 2, TICK_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            own = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self.last = self.tick()
        ticks.append(self.last)
        return own - sum(spent), ticks, result


# -- the environment stamp ---------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Machine and build stamp printed with every result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }
