import json

import pytest

from huacheck.report import (
    CheckRecord,
    VerificationReport,
    merge_reports,
    record_from_values,
)


def make_record(name="check", residual=1e-12, tol=1e-9, direction="max_below"):
    return CheckRecord(
        name=name,
        anchor="test anchor",
        residual_max=residual,
        residual_mean=residual / 2.0,
        samples=10,
        tolerance=tol,
        direction=direction,
    )


def test_record_pass_semantics_both_directions():
    assert make_record().passed
    assert not make_record(residual=1e-6).passed
    assert make_record(residual=0.5, tol=0.1, direction="min_above").passed
    assert not make_record(residual=0.05, tol=0.1, direction="min_above").passed


@pytest.mark.parametrize("direction", ["min_abov", "MAX_BELOW", "", None])
def test_from_dict_rejects_an_unknown_direction(direction):
    d = make_record(residual=5.0, tol=1.0, direction="min_above").to_dict()
    d["direction"] = direction
    with pytest.raises(ValueError, match="unknown direction"):
        CheckRecord.from_dict(d)
    with pytest.raises(ValueError, match="unknown direction"):
        make_record(direction=direction)


def test_from_dict_defaults_a_missing_direction_to_max_below():
    d = make_record().to_dict()
    del d["direction"]
    assert CheckRecord.from_dict(d) == make_record()


def test_record_from_values_statistics():
    rec = record_from_values("r", "a", [1.0, -3.0, 2.0], 10.0)
    assert rec.residual_max == 3.0
    assert rec.residual_mean == 2.0
    assert rec.samples == 3
    low = record_from_values("r", "a", [1.0, 3.0], 0.5, direction="min_above")
    assert low.residual_max == 1.0  # minimum governs negative controls
    assert low.passed


def test_report_round_trip_and_determinism():
    rep = VerificationReport("demo", [make_record("a"), make_record("b", residual=1e-3)])
    text1 = rep.to_json()
    text2 = rep.to_json()
    assert text1 == text2
    back = VerificationReport.from_dict(json.loads(text1))
    assert back.campaign == "demo"
    assert [r.name for r in back.records] == ["a", "b"]
    assert back.to_json() == text1
    assert not rep.passed


def test_report_text_rendering():
    rep = VerificationReport("demo", [make_record("good"), make_record("bad", residual=1.0)])
    text = rep.to_text()
    assert "PASS good" in text
    assert "FAIL bad" in text
    assert text.strip().endswith("overall: FAIL")


def test_schema_version_is_enforced():
    with pytest.raises(ValueError):
        VerificationReport.from_dict({"schema": 999, "campaign": "x", "records": []})


def test_merge_reports_concatenates_records():
    r1 = VerificationReport("one", [make_record("a")])
    r2 = VerificationReport("two", [make_record("b")])
    merged = merge_reports([r1, r2])
    assert merged.campaign == "merged"
    assert [r.name for r in merged.records] == ["a", "b"]
    assert merged.passed


def test_merge_reports_rejects_a_repeated_record_name():
    r1 = VerificationReport("one", [make_record("a"), make_record("b")])
    r2 = VerificationReport("two", [make_record("b")])
    with pytest.raises(ValueError, match="2 records are named 'b'"):
        merge_reports([r1, r2])


@pytest.mark.parametrize("samples", [-1, 2.0, True, "3"])
def test_record_rejects_samples_that_are_not_a_count(samples):
    with pytest.raises(ValueError, match="samples must be a non-negative integer"):
        CheckRecord("r", "a", 0.0, 0.0, samples, 1.0)


def test_from_dict_accepts_a_missing_verdict_and_rejects_a_wrong_one():
    d = make_record(residual=1.0, tol=2.0).to_dict()
    del d["pass"]
    assert CheckRecord.from_dict(d) == make_record(residual=1.0, tol=2.0)
    with pytest.raises(ValueError, match="stored as pass False, but its values give True"):
        CheckRecord.from_dict({**d, "pass": False})
