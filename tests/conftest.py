"""Shared fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds, what):`` fails the test if the block runs
    longer, so that a guard that no longer fires shows as a failure, not as
    a hang or a growing allocation."""

    @contextmanager
    def within(seconds: float, what: str):
        def hang(*args):
            raise AssertionError(f"{what} did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
