"""Shared fixtures.

Verification sweeps are the expensive part of the suite, so one session-wide
cache hands the same VerificationRun to every test that asks for a tag.
Every test starts and ends with an empty oracle memo, as a verify run does.
"""

import pytest

from corbel import betti
from corbel.cli import run_verification

_CACHE: dict = {}

# acceptance tests append one line each; printed after the run summary
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def fresh_oracle():
    betti.reset()
    yield
    betti.reset()


@pytest.fixture(scope="session")
def sweep():
    def run(tag: str, **opts):
        key = (tag, tuple(sorted(opts.items())))
        if key not in _CACHE:
            _CACHE[key] = run_verification(tag, **opts)
        return _CACHE[key]

    return run


@pytest.fixture(scope="session")
def report():
    def line(num: int, label: str, ok: bool):
        mark = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {num:2d} [{mark}] {label}")
        assert ok, f"criterion {num} failed: {label}"

    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
