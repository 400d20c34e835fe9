import json

import pytest

from huacheck import campaigns, cli, domains, kernels
from huacheck.cli import CAMPAIGNS, build_parser, main
from huacheck.report import VerificationReport


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out), "--format", "json"])
    return code, out.read_text()


def test_kernel_campaign_small_run(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "kernel.json",
        ["verify", "kernel", "--domain", "II:2", "--points", "3"],
    )
    assert code == 0
    data = json.loads(text)
    assert data["pass"] is True
    names = [r["name"] for r in data["records"]]
    assert "boundary-identity-fd-II(2)" in names
    assert "gram-complement-control-III(3)" in names


@pytest.mark.parametrize(
    "domain, points", [("II:2", "2"), ("III:4", "1")], ids=["II:2", "III:4"]
)
def test_kernel_campaign_is_deterministic(tmp_path, domain, points):
    # the second run starts from the first run's cached one-point evaluator,
    # and on III(4) from its stored values
    argv = ["verify", "kernel", "--domain", domain, "--points", points, "--seed", "4"]
    _, text1 = run_to_file(tmp_path, "a.json", argv)
    _, text2 = run_to_file(tmp_path, "b.json", argv)
    assert text1 == text2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "embeddings", "--points", "10"],
        ["demo", "counterexample", "--points", "50"],
        ["verify", "hypergeom", "--points", "50"],
    ],
    ids=["embeddings", "counterexample", "hypergeom"],
)
def test_exact_campaign_is_deterministic(tmp_path, argv):
    # each PolyField caches its decoded monomials and its evaluation plans;
    # none of them may carry over into the second run

    def run(name):
        if argv[1] != "hypergeom":
            return run_to_file(tmp_path, name, argv)
        # the radial-ode record's series converges slowly, as in the small run
        with pytest.warns(UserWarning, match="converges slowly"):
            return run_to_file(tmp_path, name, argv)

    _, text1 = run("a.json")
    _, text2 = run("b.json")
    assert text1 == text2


def test_hypergeom_campaign_small_run(tmp_path):
    # the radial-ode record sums a series with c - a - b = 0 up to t = 0.9
    with pytest.warns(UserWarning, match="converges slowly"):
        code, text = run_to_file(
            tmp_path, "hyp.json", ["verify", "hypergeom", "--points", "1"]
        )
    assert code == 0
    data = json.loads(text)
    assert data["pass"] is True
    ladder = data["records"][0]
    assert ladder["name"] == "derivative-ladder"
    # the ladder draws at least 50 parameter sets whatever --points says
    assert ladder["samples"] == 50


def test_embeddings_campaign_small_run(tmp_path):
    code, text = run_to_file(
        tmp_path, "emb.json", ["verify", "embeddings", "--points", "2"]
    )
    assert code == 0
    assert json.loads(text)["pass"] is True


def test_counterexample_demo(tmp_path):
    code, text = run_to_file(tmp_path, "cx.json", ["demo", "counterexample"])
    assert code == 0
    data = json.loads(text)
    names = [r["name"] for r in data["records"]]
    assert "quartic-operator-annihilates" in names
    assert "not-pluriharmonic" in names


def test_report_merge_round_trip(tmp_path):
    run_to_file(tmp_path, "one.json", ["verify", "embeddings", "--points", "1"])
    run_to_file(tmp_path, "two.json", ["verify", "kernel", "--domain", "II:2", "--points", "1"])
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    code = main(["report", "merge", *map(str, paths), "--out", str(tmp_path / "merged.json")])
    assert code == 0
    merged, *singles = (
        VerificationReport.from_dict(json.loads(path.read_text()))
        for path in [tmp_path / "merged.json", *paths]
    )
    assert merged.records == [r for single in singles for r in single.records]


def test_dirichlet_campaign_with_reduced_sampling():
    specs = [domains.type_ii(2)]
    report = campaigns.run_dirichlet_campaign(specs, points=5, seed=0)
    assert report.passed


def test_dirichlet_campaign_is_deterministic():
    specs = [domains.type_ii(2), domains.type_i(2, 3)]
    first, second = (
        campaigns.run_dirichlet_campaign(specs, points=3, seed=0)
        for _ in range(2)
    )
    assert first.to_json() == second.to_json()


def test_dirichlet_campaign_on_one_entry_domains(tmp_path):
    # the pluriharmonic datum falls back to entry 0 when it is the only one
    code, text = run_to_file(
        tmp_path,
        "one-entry.json",
        ["verify", "dirichlet", "--domain", "I:1,1", "--domain", "II:1", "--points", "2"],
    )
    assert code in (0, 1)
    names = [r["name"] for r in json.loads(text)["records"]]
    for label in ("I(1,1)", "II(1)"):
        assert f"poisson-mass-{label}" in names
        assert f"poisson-pluriharmonic-{label}" in names


def test_failing_tolerance_gives_nonzero_exit(tmp_path, monkeypatch):
    # a residual of 1 misses the polarization record's gate of 1e-12
    monkeypatch.setattr(campaigns, "polarization_errors", lambda rng, count: [1.0])
    out = tmp_path / "fail.json"
    code = main(
        ["verify", "embeddings", "--points", "1", "--out", str(out), "--format", "json"]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    failed = [r["name"] for r in report["records"] if not r["pass"]]
    assert failed == ["polarization-roundtrip"]


@pytest.mark.parametrize("suite", ["kernel", "dirichlet", "embeddings"])
def test_points_below_one_exits_2_without_traceback(suite, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--points", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--points: must be at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", list(CAMPAIGNS), ids=[suite for _, suite in CAMPAIGNS])
def test_points_above_the_bound_exit_2_without_traceback(command, capsys):
    # through the parser only: a campaign run at such a --points would
    # allocate arrays of that length
    parser = build_parser()
    for points in (cli.MAX_POINTS + 1, 10**20):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*command, "--points", str(points)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--points: must be at most {cli.MAX_POINTS:,}, got {points}" in err
        assert "Traceback" not in err
    # the largest value README, CI and the benchmark use, and the bound itself
    for points in (2000, cli.MAX_POINTS):
        assert parser.parse_args([*command, "--points", str(points)]).points == points


@pytest.mark.parametrize(
    "suite, domain",
    [(suite, domain) for suite in ("kernel", "dirichlet") for domain in ("III:3", "IV:2")],
    ids=["III:3", "IV:2", "dirichlet-III:3", "dirichlet-IV:2"],
)
def test_unsupported_kernel_domain_exits_2_without_traceback(suite, domain, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--domain", domain, "--points", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no distinguished-boundary sampler" in err
    assert "Traceback" not in err


# each domain campaign with the record functions it calls
EVERY_RECORD = pytest.mark.parametrize(
    "suite, records",
    [
        (
            "kernel",
            (
                "interior_boundary_pairs",
                "theorem22_residuals",
                "log_gradient_residuals",
                "gram_complement_norms",
                "rank_deficient_pairs",
            ),
        ),
        (
            "dirichlet",
            (
                "radial_extension_residuals",
                "boundary_trace_residuals",
                "poisson_z_scores",
            ),
        ),
    ],
    ids=["kernel", "dirichlet"],
)


def _patch_records(records, monkeypatch):
    def record(*args):
        raise AssertionError("a record ran before the domains were checked")

    for name in records:
        monkeypatch.setattr(campaigns, name, record)


@EVERY_RECORD
def test_unsupported_domain_is_rejected_before_any_record(suite, records, monkeypatch, capsys):
    _patch_records(records, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--domain", "II:2", "--domain", "III:3", "--points", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no distinguished-boundary sampler for III(3)" in err
    assert "Traceback" not in err


@EVERY_RECORD
@pytest.mark.parametrize("repeat", ["I:2,2", "I:2, 2"])
def test_repeated_domain_is_rejected_before_any_record(suite, records, repeat, monkeypatch, capsys):
    # records are named by domain: a repeat wrote 9 records under 5 names
    _patch_records(records, monkeypatch)
    argv = ["verify", suite, "--domain", "I:2,2", "--domain", "II:2", "--domain", repeat]
    _assert_exits_2(argv + ["--points", "1"], "--domain: I(2,2) is given more than once", capsys)


def _assert_domain_rejected(domain, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kernel", "--domain", domain, "--points", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--domain: invalid domain {domain!r}" in err
    assert "Traceback" not in err


def test_unknown_domain_string_raises(capsys):
    _assert_domain_rejected("V:2", capsys)


@pytest.mark.parametrize("domain", ["I:2", "II:x", "I:3,2"])
def test_malformed_domain_string_exits_2_without_traceback(domain, capsys):
    _assert_domain_rejected(domain, capsys)


def _assert_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_negative_seed_exits_2_without_traceback(capsys):
    argv = ["verify", "kernel", "--domain", "II:2", "--points", "1", "--seed", "-1"]
    _assert_exits_2(argv, "--seed: must be at least 0, got -1", capsys)


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "kernel"],
        ["verify", "hypergeom"],
        ["verify", "dirichlet"],
        ["verify", "embeddings"],
        ["demo", "counterexample"],
    ],
    ids=["kernel", "hypergeom", "dirichlet", "embeddings", "counterexample"],
)
def test_tol_is_not_an_option(command, capsys):
    # every record's tolerance is fixed by its campaign
    argv = [*command, "--points", "1", "--tol", "nan"]
    _assert_exits_2(argv, "unrecognized arguments: --tol nan", capsys)


@pytest.mark.parametrize(
    "command",
    [["verify", "hypergeom"], ["verify", "embeddings"], ["demo", "counterexample"]],
    ids=["hypergeom", "embeddings", "counterexample"],
)
def test_domain_on_a_campaign_without_domains_exits_2(command, capsys):
    argv = [*command, "--domain", "II:2", "--points", "1"]
    _assert_exits_2(argv, "unrecognized arguments: --domain II:2", capsys)


# each campaign's interface written out by hand, as a reference independent of
# cli.CAMPAIGNS: default --points and, for the campaigns that take --domain,
# the labels of the default domains
_DEFAULTS = {
    ("verify", "kernel"): (10, ["I(2,2)", "I(2,3)", "II(2)", "II(3)", "III(4)"]),
    ("verify", "hypergeom"): (50, None),
    ("verify", "dirichlet"): (50, ["I(2,2)", "II(2)", "III(4)"]),
    ("verify", "embeddings"): (20, None),
    ("demo", "counterexample"): (200, None),
}


def test_campaign_table_lists_the_campaigns():
    assert list(CAMPAIGNS) == list(_DEFAULTS)


@pytest.mark.parametrize(
    "command", list(_DEFAULTS), ids=[suite for _, suite in _DEFAULTS]
)
def test_campaign_defaults_match_the_interface(command):
    args = build_parser().parse_args(list(command))
    points, labels = _DEFAULTS[command]
    assert (args.points, args.seed, args.out, args.format) == (points, 0, None, "text")
    # --domain is an option of the campaigns with default domains only
    assert hasattr(args, "domain") == (labels is not None)
    if labels is not None:
        assert args.domain is None


@pytest.mark.parametrize("suite", ["kernel", "dirichlet"])
def test_default_domains_match_the_interface(suite, tmp_path):
    _, text = run_to_file(tmp_path, f"{suite}.json", ["verify", suite, "--points", "1"])
    prefix = "boundary-gram-" if suite == "kernel" else "poisson-mass-"
    names = [r["name"] for r in json.loads(text)["records"]]
    labels = [name[len(prefix):] for name in names if name.startswith(prefix)]
    assert labels == _DEFAULTS["verify", suite][1]


def test_merge_of_a_missing_file_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "missing.json"
    _assert_exits_2(["report", "merge", str(path)], f"cannot read {path}", capsys)


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "r.json"
    reason = "Is a directory" if target == "directory" else "No such file or directory"
    argv = ["verify", "embeddings", "--points", "1", "--out", str(out)]
    _assert_exits_2(argv, f"cannot write {out}: {reason}", capsys)
    one = tmp_path / "one.json"
    run_to_file(tmp_path, one.name, ["verify", "embeddings", "--points", "1"])
    argv = ["report", "merge", str(one), "--out", str(out)]
    _assert_exits_2(argv, f"cannot write {out}: {reason}", capsys)


_BAD_RECORD = json.dumps(
    {
        "name": "a",
        "anchor": "b",
        "residual_max": "big",
        "residual_mean": 0.0,
        "samples": 1,
        "tolerance": 1.0,
    }
)


_NO_RECORD = "ValueError: a report must hold at least one record"


@pytest.mark.parametrize(
    "content, reason",
    [
        ("not json", "JSONDecodeError: Expecting value"),
        ('{"schema": 1}', "KeyError: 'campaign'"),
        ('{"schema": 2}', "ValueError: unsupported report schema"),
        ("[1]", "ValueError: a report must be a JSON object"),
        ('{"schema": 1, "campaign": "x", "records": 5}', "TypeError"),
        ('{"schema": 1, "campaign": "x", "records": [%s]}' % _BAD_RECORD, "ValueError"),
        # a report with no record would merge to a pass
        ('{"schema": 1, "campaign": "x", "records": {}}', _NO_RECORD),
        ('{"schema": 1, "campaign": "x", "records": ""}', _NO_RECORD),
        ('{"schema": 1, "campaign": "x", "records": []}', _NO_RECORD),
    ],
    ids=[
        "not-json", "no-campaign", "schema-2", "json-list", "records-int", "text-residual",
        "records-empty-object", "records-empty-string", "records-empty-list",
    ],
)
def test_merge_of_a_non_report_exits_2_without_traceback(tmp_path, capsys, content, reason):
    path = tmp_path / "bad.json"
    path.write_text(content)
    _assert_exits_2(["report", "merge", str(path)], f"{path} is not a report: {reason}", capsys)


def test_merge_of_a_misspelled_direction_exits_2_without_traceback(tmp_path, capsys):
    run_to_file(tmp_path, "one.json", ["verify", "embeddings", "--points", "1"])
    merged = tmp_path / "merged.json"
    assert main(["report", "merge", str(tmp_path / "one.json"), "--out", str(merged)]) == 0
    report = json.loads(merged.read_text())
    report["records"][0]["direction"] = "min_abov"
    bad = tmp_path / "misspelled.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    _assert_exits_2(
        ["report", "merge", str(bad)],
        f"{bad} is not a report: ValueError: unknown direction 'min_abov'",
        capsys,
    )


def test_merge_of_a_repeated_record_name_exits_2_without_traceback(tmp_path, capsys):
    # records are told apart by name, so a report merged with itself would
    # hold each record twice under one name
    one = tmp_path / "one.json"
    run_to_file(tmp_path, one.name, ["verify", "embeddings", "--points", "1"])
    capsys.readouterr()
    message = "2 records are named 'rank-one-gram-identity'"
    _assert_exits_2(["report", "merge", str(one), str(one)], message, capsys)


@pytest.mark.parametrize("suite", ["kernel", "dirichlet"])
def test_oversized_domain_exits_2_before_any_allocation(suite, capsys):
    # the FD stencil of I(2, 99999) (and its Silov block) is far too large
    # to allocate, so the parser must refuse the domain before a record runs
    argv = ["verify", suite, "--domain", "I:2,99999", "--points", "1"]
    _assert_exits_2(argv, "--domain: 'I:2,99999' is too large: its 199998 entries", capsys)
    _assert_exits_2(["verify", suite, "--domain", "I:1,101"], "101 entries", capsys)
    # III(8), the largest domain CI runs, I(5, 7), the slowest accepted,
    # and I(1, 100), where s^2 F is the bound itself, are within it
    parser = build_parser()
    for domain in ("III:8", "I:5,7", "I:1,100"):
        spec = domains.parse_spec(domain)
        assert parser.parse_args(["verify", suite, "--domain", domain]).domain == [spec]


@EVERY_RECORD
@pytest.mark.parametrize("domain", ["I:8,8", "I:6,6", "II:6", "III:10"])
def test_slow_domain_is_refused_before_any_record(suite, records, domain, monkeypatch, capsys):
    # within 100 entries, but minutes per point on I(8, 8): s^2 F is over
    # the bound, so no record may start
    _patch_records(records, monkeypatch)
    argv = ["verify", suite, "--domain", domain, "--points", "1"]
    _assert_exits_2(argv, f"--domain: {domain!r} is too large", capsys)


@pytest.mark.parametrize(
    "domain, features",
    [
        ("I:1,1", 1),
        ("I:2,3", 9),
        ("I:3,4", 34),
        ("II:3", 19),
        ("III:2", 1),
        ("III:3", 3),
        ("III:6", 31),
    ],
)
def test_feature_count_is_the_generic_norm_table_length(domain, features):
    spec = domains.parse_spec(domain)
    assert cli._feature_count(spec) == features
    assert len(kernels._generic_norm_table(spec)[2]) == features


def _embeddings_report(tmp_path):
    run_to_file(tmp_path, "one.json", ["verify", "embeddings", "--points", "1"])
    return json.loads((tmp_path / "one.json").read_text())


@pytest.mark.parametrize("where", ["record", "report"])
def test_merge_of_a_flipped_verdict_exits_2_without_traceback(tmp_path, capsys, where):
    report = _embeddings_report(tmp_path)
    stored = report["records"][0] if where == "record" else report
    assert stored["pass"] is True
    stored["pass"] = False
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    what = "record 'rank-one-gram-identity'" if where == "record" else "the report"
    message = f"ValueError: {what} is stored as pass False, but its values give True"
    _assert_exits_2(["report", "merge", str(bad)], message, capsys)


@pytest.mark.parametrize("samples", [-3, 1.7, "2", True])
def test_merge_of_bad_samples_exits_2_without_traceback(tmp_path, capsys, samples):
    report = _embeddings_report(tmp_path)
    report["records"][0]["samples"] = samples
    bad = tmp_path / "samples.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    message = f"ValueError: samples must be a non-negative integer, got {samples!r}"
    _assert_exits_2(["report", "merge", str(bad)], message, capsys)
