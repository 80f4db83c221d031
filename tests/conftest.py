"""Shared test plumbing: acceptance-criterion reporting and Hypothesis profiles.

Tests named test_criterion_* (in test_acceptance.py) each cover one numbered
acceptance criterion; after the run a summary section prints one PASS/FAIL
line per criterion so the gate can be read off directly.

The "ci" Hypothesis profile (pytest --hypothesis-profile=ci) draws the same
examples on every run and prints the blob that reproduces a failure; the
default profile draws new examples each run.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        _criterion_outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _criterion_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_criterion_outcomes):
        label = name.removeprefix("test_criterion_")
        status = "PASS" if _criterion_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {label}")
