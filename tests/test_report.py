import pytest

from ncdeform.report import VerificationReport, clip_note


def test_empty_report_fails():
    report = VerificationReport()
    assert not report.passed
    assert report.to_text() == "FAILED: no check ran"
    assert report.to_json() == {"checks": [], "pass": False}


def test_report_of_diagnostics_alone_fails():
    report = VerificationReport()
    report.add("probe", "a diagnostic", True, diagnostic=True)
    assert not report.passed
    assert report.to_text().splitlines()[-1] == "FAILED: no check ran"


def test_report_passes_and_fails_on_its_gated_checks():
    report = VerificationReport()
    report.add("probe", "a diagnostic", False, "differs", diagnostic=True)
    report.add("check", "one", True)
    assert report.passed
    assert report.to_text().splitlines()[-1] == "ALL PASS (1 checks)"
    report.add("check", "two", False, "counterexample")
    assert not report.passed
    assert report.to_text().splitlines()[-1] == "FAILURES: 1/2 checks"


@pytest.mark.parametrize("n", [0, 1, 117, 119, 120])
def test_clip_note_keeps_a_short_note(n):
    assert clip_note("x" * n) == "x" * n


@pytest.mark.parametrize("n", [121, 122, 500])
def test_clip_note_cuts_a_long_note(n):
    text = "".join(str(i % 10) for i in range(n))
    assert clip_note(text) == text[:117] + "..."
    assert len(clip_note(text)) == 120
