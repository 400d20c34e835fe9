"""Tests of the benchmark harness itself: span arithmetic, binding patches,
the correctness gate and the metric lists of BENCHMARK.json.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import types

import pytest

import harness
import tracer as tracing

harness.pin_threads()
cli = harness.load_cli()


def test_self_time_subtracts_direct_children_and_busy_skips_recursion():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["b", 6.0, 7.0, 2],
        ["b", 6.2, 6.5, 3],  # recursion: b inside b
    ]
    stats = tracing.aggregate(spans)
    assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert stats["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}
    assert stats["b"]["calls"] == 3
    assert stats["b"]["busy_s"] == pytest.approx(4.0)
    assert stats["b"]["self_s"] == pytest.approx(4.0)
    # self times partition the root span
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(10.0)


def test_wrap_records_parent_links_and_closes_spans_on_error():
    tracer = tracing.Tracer(clock=itertools.count().__next__)

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracing.wrap(tracer, inner, "m.inner")
    outer = tracing.wrap(tracer, lambda x: traced_inner(x) + 1, "m.outer")
    counted = tracing.wrap(
        tracer, inner, lambda a: "m.named", counter=lambda a: {"items": a["x"]}
    )
    assert outer(2) == 3
    with pytest.raises(ValueError):
        outer(-1)
    counted(5)
    assert [s[0] for s in tracer.spans] == ["m.outer", "m.inner"] * 2 + ["m.named"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2, -1]
    assert all(end is not None and end > start for _, start, end, _ in tracer.spans)
    assert tracer.stack == []
    assert tracer.counts["m.named.items"] == 5


def test_install_patches_every_binding_and_restore_undoes_it():
    import huacheck

    fields = sys.modules["huacheck.fields"]
    original = fields.wirtinger_hessian
    installation = tracing.install(tracing.Tracer(), huacheck)
    try:
        wrapped = fields.wirtinger_hessian
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in ("cli", "kernels", "operators", "dirichlet", "embeddings"):
            assert sys.modules[f"huacheck.{module}"].wirtinger_hessian is wrapped
        assert huacheck.wirtinger_hessian is wrapped
        assert sys.modules["huacheck.dirichlet"].sample_silov is (
            sys.modules["huacheck.domains"].sample_silov
        )
        assert tracing.unpatched_bindings(installation) == []
        stale = types.ModuleType("stale")
        stale.hessian = original
        assert tracing.unpatched_bindings(installation, [stale]) == ["stale.hessian"]
    finally:
        installation.restore()
    assert sys.modules["huacheck.cli"].wirtinger_hessian is original


def test_traced_kernel_count_matches_the_stencil_and_reports_match(monkeypatch):
    # a module outside the package holding an unwrapped kernel is reported
    stale = types.ModuleType("stale_alias")
    stale.poisson_szego = sys.modules["huacheck.kernels"].poisson_szego
    monkeypatch.setitem(sys.modules, "stale_alias", stale)
    argvs = [
        ["verify", "kernel", "--domain", "I:2,2", "--domain", "II:2"]
        + ["--points", "1", "--seed", "0", "--format", "json"]
    ]
    tracer = tracing.Tracer()
    traced, missed, seconds = harness.trace_campaign(cli, tracer, argvs)
    values = harness.layer_values(tracer, seconds)
    # d = 8 real coordinates: 2 + 4 * 64 stencil points per Hessian, plus
    # one closed-route evaluation for the type-I pair
    assert values["kernels.poisson_szego.calls"] == 2 * 258 + 1
    assert values["fields.hessian_fd.calls"] == 2
    assert values["fields.fd_evals_per_hessian"] == 258
    assert missed == ["stale_alias.poisson_szego"]
    assert traced.text == harness.run_workload(cli.main, argvs).text


def test_kernel_workload_closed_form_is_the_documented_count():
    assert harness.WORKLOADS["kernel-fd"].expected == {"kernels.poisson_szego.calls": 64_920}


def _report(passed, residual=0.5, name="r"):
    record = {
        "name": name,
        "residual_max": residual,
        "tolerance": 1.0,
        "direction": "max_below",
        "samples": 3,
        "pass": passed,
    }
    return json.dumps({"records": [record], "pass": passed})


def test_gate_counts_failures_and_flags_inconsistent_reports():
    good = harness.check(harness.Outcome(codes=[0], chunks=[_report(True)]))
    assert good.ok and good.samples == 3 and good.worst_ratio == 0.5

    # a record that misses its own gate is counted; the report is still correct
    failing = harness.check(harness.Outcome(codes=[1], chunks=[_report(False, 2.0)]))
    assert failing.ok and failing.problems == []
    assert failing.failed_records == 1 and failing.bad_campaigns == 1
    assert failing.misses == ["r (2 x tolerance)"]

    # beyond GROSS_FACTOR tolerances, or not a number, it is a wrong result
    for residual in (harness.GROSS_FACTOR * 1.01, float("nan"), float("inf")):
        gross = harness.check(harness.Outcome(codes=[1], chunks=[_report(False, residual)]))
        assert any("tolerance" in p for p in gross.problems), residual

    # the kernel FD residual has a power-law tail across seeds
    fd = "boundary-identity-fd-II(3)"
    tail = harness.check(harness.Outcome(codes=[1], chunks=[_report(False, 50.0, fd)]))
    assert tail.ok and tail.failed_records == 1
    wrong = harness.check(harness.Outcome(codes=[1], chunks=[_report(False, 2e3, fd)]))
    assert not wrong.ok

    lying = harness.check(harness.Outcome(codes=[0], chunks=[_report(True, 2.0)]))
    assert any("disagrees with its residual" in p for p in lying.problems)

    wrong_code = harness.check(harness.Outcome(codes=[1], chunks=[_report(True)]))
    assert any("exit code" in p for p in wrong_code.problems)

    passing_code_on_failure = harness.check(
        harness.Outcome(codes=[0], chunks=[_report(False, 2.0)])
    )
    assert any("exit code" in p for p in passing_code_on_failure.problems)

    raised = harness.check(harness.Outcome(codes=[None], chunks=[""]))
    assert raised.bad_campaigns == 1 and raised.records == 1 and not raised.ok


def test_run_workload_survives_a_raising_campaign():
    def main(argv):
        raise RuntimeError("boom")

    outcome = harness.run_workload(main, [["x"]])
    assert outcome.codes == [None] and "boom" in outcome.errors[0]


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_speed_sampler_ticks_during_work_and_subtracts_them():
    sampler = harness.SpeedSampler()

    def work():
        end = time.perf_counter() + 3.2 * harness.TICK_INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
        return "done"

    own, ticks, result = sampler.timed(work)
    assert result == "done"
    # one tick before, three or four inside, one after
    assert 5 <= len(ticks) <= 6
    # work() ends on the clock, so the ticks inside it are taken out of it
    inside = sum(ticks[1:-1])
    assert own == pytest.approx(3.2 * harness.TICK_INTERVAL_S - inside, abs=0.01)
    # the timer is off again: no tick runs after the work
    assert sampler.timed(lambda: None)[1] == [ticks[-1], sampler.last]
    # a host at half speed doubles both the work and the ticks
    tick = harness.TICK_S
    assert harness.rescale(4.0, 2 * tick) == pytest.approx(2.0)
