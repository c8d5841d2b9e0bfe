"""Test-suite settings: hypothesis draws the same cases on every run, and no
test may leave a child process behind.

The profile is derandomized (examples come from a fixed seed derived from
each test) with a fixed example count and no example database, so the suite
is reproducible and its run time bounded.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, as the
    suite's warning filters fail one that lets a thread's exception escape:
    the Monte-Carlo workers must all end before ensemble_average returns."""
    yield
    left = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left at all
            break
        if pid == 0:
            left.append("one still running")
            break
        left.append(f"{pid} unreaped (wait status {status})")
    if left:
        pytest.fail("the test left child processes: " + ", ".join(left))
