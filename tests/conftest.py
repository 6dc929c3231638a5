"""Shared test plumbing: the acceptance suite records one line per criterion
here, and the terminal summary prints them whether the run passed or failed.
The default trend experiment is one session fixture, which criteria 4-6 and
the byte-identity chain test share.
"""
import time

import pytest

from hoicompose.experiments import TrendSettings, reproduce_trends

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(criterion: int, name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {criterion} {name}: {'pass' if passed else 'FAIL'} ({detail})"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def trend():
    """The default reproduce_trends report, and the seconds it took."""
    start = time.perf_counter()
    report = reproduce_trends(TrendSettings())
    return report, time.perf_counter() - start
