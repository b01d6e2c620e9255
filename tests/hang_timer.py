"""Hang timer of the test runs: a hang fails the run and prints every thread's stack.

pyproject.toml loads this module as a plugin (``-p hang_timer``), so pytest
imports it before it starts capturing output and before any conftest imports
the package. It copies the terminal's stderr descriptor then, and arms
faulthandler on that copy: past HANG_TIMEOUT_S in one test, in collection or
in an import, faulthandler writes every thread's stack to the terminal and
exits with status 1. The slowest test takes about 2 s, the suite about 17 s.
"""

import faulthandler
import os
import sys

import pytest

HANG_TIMEOUT_S = 120

# Output capture later points descriptor 2 at a file, which a process that
# faulthandler exits never prints.
_TERMINAL_STDERR = os.dup(sys.stderr.fileno())


def _arm():
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=_TERMINAL_STDERR)


_arm()


@pytest.fixture(autouse=True)
def _hang_timer():
    """Re-arm the hang timer for each test: pytest cancels it after a failure."""
    _arm()
    yield


def pytest_sessionfinish(session):
    faulthandler.cancel_dump_traceback_later()
