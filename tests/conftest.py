"""What every test under ``tests/`` shares: the usable CPUs set to a count
whatever this host has, the children this process forks, and a check after
each test that no child is left."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After the test, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def use_cpus(monkeypatch):
    """``use_cpus(n)`` makes ``n`` CPUs usable for the rest of the test."""
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture()
def forks(monkeypatch) -> list:
    """The pids of the children this process forks during the test, in order."""
    real_fork, pids = os.fork, []

    def tracked_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", tracked_fork)
    return pids
