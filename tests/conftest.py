"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds): a context manager that fails the test when its
    body runs longer than seconds, so that a hang fails in seconds instead
    of stalling the suite.  It arms SIGALRM (POSIX, main thread), whose
    handler runs between bytecodes: one long call into C ends first."""
    @contextlib.contextmanager
    def limit(seconds):
        def overran(signum, frame):
            pytest.fail("ran longer than %g s" % seconds)

        previous = signal.signal(signal.SIGALRM, overran)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return limit
