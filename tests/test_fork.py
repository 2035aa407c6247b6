"""``fork.deal`` on its own: task j goes to process j mod W, this process
runs task 0 before any fork, and the table, the stop and the first error
are those of one process. Each test runs on one usable CPU and on two,
whatever this host has."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from refscan.numerics import fork

from test_numerics import assert_no_child_left, use_cpus

CPUS = pytest.mark.parametrize("cpus", [1, 2])


def dealt(monkeypatch, cpus: int, tasks, count: int, stop_at=None):
    """``fork.deal`` over ``tasks()`` on ``cpus`` CPUs, each task j filling
    its row with (j, the pid that ran it) and asking to stop at ``stop_at``.
    Returns the table, the tasks this process kept and the tasks it ran,
    in order."""
    use_cpus(monkeypatch, cpus)
    parent, kept, ran = os.getpid(), [], []

    def run(j, row) -> bool:
        if os.getpid() == parent:
            ran.append(j)
        row[:] = j, os.getpid()
        return j == stop_at

    table = fork.deal(tasks, run, count, 2, kept.append)
    assert_no_child_left()
    return table, kept, ran


@CPUS
def test_fewer_tasks_than_rows_leave_the_rest_of_the_table_zero(monkeypatch, cpus):
    table, kept, ran = dealt(monkeypatch, cpus, lambda: range(3), count=8)
    assert table.shape == (8, 2)
    np.testing.assert_array_equal(table[:3, 0], [0, 1, 2])
    assert not table[3:].any()
    assert kept == [0, 1, 2]
    assert ran == ([0, 1, 2] if cpus == 1 else [0, 2])
    here = table[:3, 1] == os.getpid()
    assert here.tolist() == ([True] * 3 if cpus == 1 else [True, False, True])


@CPUS
@pytest.mark.parametrize("count", [0, 4])
def test_no_task_runs_nothing_and_forks_nothing(monkeypatch, cpus, count):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    table, kept, ran = dealt(monkeypatch, cpus, lambda: iter(()), count=count)
    assert table.shape == (count, 2) and not table.any()
    assert kept == ran == []


@CPUS
@pytest.mark.parametrize("stop_at", [2, 3], ids=["this share", "the worker's share"])
def test_a_task_that_asks_to_stop_ends_the_deal_as_in_one_process(monkeypatch, cpus, stop_at):
    table, kept, ran = dealt(monkeypatch, cpus, lambda: range(6), count=6, stop_at=stop_at)
    np.testing.assert_array_equal(table[: stop_at + 1, 0], range(stop_at + 1))
    assert kept[: stop_at + 1] == list(range(stop_at + 1))
    if cpus == 1:
        assert ran == kept == list(range(stop_at + 1)) and not table[stop_at + 1:].any()
    else:  # this process's share, up to the stop if the stop is its own; nothing is left to run after
        assert ran == {2: [0, 2], 3: [0, 2, 4]}[stop_at]


@CPUS
@pytest.mark.parametrize("fail_at", [1, 2], ids=["the worker's share", "this share"])
def test_a_task_that_raises_raises_here_as_in_one_process(monkeypatch, cpus, fail_at):
    use_cpus(monkeypatch, cpus)
    parent, ran = os.getpid(), []

    def run(j, row):
        if os.getpid() == parent:
            ran.append(j)
        if j == fail_at:
            raise ValueError(f"task {j} failed")

    with pytest.raises(ValueError, match=f"^task {fail_at} failed$"):
        fork.deal(lambda: range(5), run, 5, 1)
    assert_no_child_left()
    if cpus == 1:  # the failing task runs once
        assert ran == list(range(fail_at + 1))
    else:  # this process's share, then, again here, the first task no process finished
        assert ran == {1: [0, 2, 4, 1], 2: [0, 2, 2]}[fail_at]


@CPUS
def test_this_process_runs_its_first_task_before_it_forks(monkeypatch, cpus):
    real_fork, parent, ran, at_fork = os.fork, os.getpid(), [], []

    def tracked_fork():
        if os.getpid() == parent:
            at_fork.append(list(ran))
        return real_fork()

    def run(j, row):
        if os.getpid() == parent:
            ran.append(j)

    monkeypatch.setattr(os, "fork", tracked_fork)
    use_cpus(monkeypatch, cpus)
    fork.deal(lambda: range(4), run, 4, 1)
    assert_no_child_left()
    assert at_fork == ([] if cpus == 1 else [[0]])
    assert ran == ([0, 1, 2, 3] if cpus == 1 else [0, 2])


def test_an_interrupt_here_kills_and_reaps_the_worker(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def run(j, row):
        if os.getpid() != parent:
            time.sleep(60)  # a worker still running its share
        elif j == 2:  # after the fork
            raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork.deal(lambda: range(4), run, 4, 1)
    assert time.monotonic() - start < 30
    assert_no_child_left()
