import json

import pytest

from huacheck import campaigns, domains
from huacheck.cli import main
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


def test_kernel_campaign_is_deterministic(tmp_path):
    argv = ["verify", "kernel", "--domain", "II:2", "--points", "2", "--seed", "4"]
    _, text1 = run_to_file(tmp_path, "a.json", argv)
    _, text2 = run_to_file(tmp_path, "b.json", argv)
    assert text1 == text2


def test_hypergeom_campaign_small_run(tmp_path):
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
    _, _ = run_to_file(
        tmp_path, "one.json", ["verify", "embeddings", "--points", "1"]
    )
    code = main(
        [
            "report",
            "merge",
            str(tmp_path / "one.json"),
            str(tmp_path / "one.json"),
            "--out",
            str(tmp_path / "merged.json"),
        ]
    )
    assert code == 0
    merged = VerificationReport.from_dict(
        json.loads((tmp_path / "merged.json").read_text())
    )
    single = VerificationReport.from_dict(
        json.loads((tmp_path / "one.json").read_text())
    )
    assert len(merged.records) == 2 * len(single.records)


def test_dirichlet_campaign_with_reduced_sampling():
    specs = [domains.type_ii(2)]
    report = campaigns.run_dirichlet_campaign(specs, points=5, seed=0, tol=None, samples=3000)
    assert report.passed


def test_dirichlet_campaign_is_deterministic():
    specs = [domains.type_ii(2), domains.type_i(2, 3)]
    first, second = (
        campaigns.run_dirichlet_campaign(specs, points=3, seed=0, tol=None, samples=3000)
        for _ in range(2)
    )
    assert first.to_json() == second.to_json()


def test_failing_tolerance_gives_nonzero_exit(tmp_path, capsys):
    out = tmp_path / "fail.json"
    code = main(
        [
            "verify",
            "embeddings",
            "--points",
            "1",
            "--tol",
            "1e-30",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


@pytest.mark.parametrize("suite", ["kernel", "dirichlet", "embeddings"])
def test_points_below_one_exits_2_without_traceback(suite, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--points", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--points: must be at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("domain", ["III:3", "IV:2"])
def test_unsupported_kernel_domain_exits_2_without_traceback(domain, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kernel", "--domain", domain, "--points", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no distinguished-boundary sampler" in err
    assert "Traceback" not in err


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
