"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fail a test that leaves a child process unreaped, such as a shard
    process of the imitation evaluator. Children a test starts through
    subprocess are reaped by it, so any child still waitable here leaked."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child {pid} unreaped (status {status})")
