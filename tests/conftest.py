"""Shared test infrastructure.

The acceptance tests record one named pass/fail line per checked clause;
the terminal summary prints them all so a run gives a one-line verdict per
criterion without digging through tracebacks.

The whole session runs BLAS on one thread, as the CLI does, so tests that
call engine and pulses directly sum in the same order as a CLI run.
"""

import pytest

from darksteady import linalg

ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    with linalg._one_blas_thread():
        yield


@pytest.fixture
def check():
    """Record a named acceptance clause and assert it."""

    def record(name, passed, detail=""):
        ACCEPTANCE_RESULTS.append((name, bool(passed), detail))
        assert passed, f"{name}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line = f"{line}  [{detail}]"
        terminalreporter.write_line(line)
