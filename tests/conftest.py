"""Shared test infrastructure.

The acceptance tests record one named pass/fail line per checked clause;
the terminal summary prints them all so a run gives a one-line verdict per
criterion without digging through tracebacks.

The whole session runs BLAS on one thread, as the CLI does, so tests that
call engine and pulses directly sum in the same order as a CLI run.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with no example database and no deadline, so
a slow machine does not fail them.  What hypothesis still caches (the
constants it reads from the code under test) goes to a temporary
directory, so a run writes no ``.hypothesis/`` into the checkout.
"""

import shutil
import tempfile

import pytest

from darksteady import linalg

try:
    from hypothesis import configuration, settings
except ImportError:  # the property tests skip themselves
    configuration = None
else:
    settings.register_profile("darksteady", derandomize=True, database=None, deadline=None)
    settings.load_profile("darksteady")

ACCEPTANCE_RESULTS = []
_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis reads the constants at collection time, so its storage
    # moves before that.
    if configuration is not None:
        config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
        configuration.set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    if path := config.stash.get(_HYPOTHESIS_HOME, None):
        shutil.rmtree(path, ignore_errors=True)


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
