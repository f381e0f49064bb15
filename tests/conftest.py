"""A per-test watchdog for the whole suite.

Before each test, ``faulthandler.dump_traceback_later`` arms a timer of
``WATCHDOG_S`` seconds, and the test's teardown cancels it.  A test that
runs past it, such as a kernel caught in a loop, makes faulthandler
print the traceback of every thread and end the process with exit code
1: the suite fails and shows where the test stood, instead of hanging.
The limit is far above the slowest test, which takes about 3 s.
"""

import faulthandler
import os

import pytest

WATCHDOG_S = 60

# the watchdog's output: a copy of standard error taken while pytest
# configures and captures nothing, since what a test writes is captured
# and would be lost when faulthandler ends the process
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def watchdog(request):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
