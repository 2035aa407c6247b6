"""``fork.deal`` on its own, the one place its mechanics are tested: task j
goes to process j mod W, this process runs task 0 before any fork, and the
table, the stop and the first error are those of one process, whatever
befalls a worker. Each test sets the usable CPUs, whatever this host has."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from refscan.numerics import fork

CPUS = pytest.mark.parametrize("cpus", [1, 2])


class Dealt:
    """``fork.deal`` over ``tasks`` on ``cpus`` CPUs. Task j calls ``act(j)``,
    if given, in the process that runs it, then fills its row with (j, that
    process's pid) and asks to stop if it is ``stop_at``. ``kept`` and ``ran``
    are the tasks this process kept and ran, in order."""

    def __init__(self, use_cpus):
        self.use_cpus, self.kept, self.ran = use_cpus, [], []

    def __call__(self, cpus: int, tasks, count: int, stop_at=None, act=None) -> np.ndarray:
        self.use_cpus(cpus)
        parent = os.getpid()

        def run(j, row) -> bool:
            if os.getpid() == parent:
                self.ran.append(j)
            if act:
                act(j)
            row[:] = j, os.getpid()
            return j == stop_at

        return fork.deal(lambda: iter(tasks), run, count, 2, self.kept.append)


@pytest.fixture()
def dealt(use_cpus):
    return Dealt(use_cpus)


def ran_by(table, pids) -> list[int]:
    """For each row, the index in ``pids`` of the process that filled it."""
    return [pids.index(pid) for pid in table[:, 1].astype(int).tolist()]


@CPUS
def test_fewer_tasks_than_rows_leave_the_rest_of_the_table_zero(dealt, forks, cpus):
    table = dealt(cpus, range(3), count=8)
    assert table.shape == (8, 2)
    np.testing.assert_array_equal(table[:3, 0], [0, 1, 2])
    assert not table[3:].any()
    assert dealt.kept == [0, 1, 2]
    assert dealt.ran == ([0, 1, 2] if cpus == 1 else [0, 2])
    assert ran_by(table[:3], [os.getpid(), *forks]) == ([0, 0, 0] if cpus == 1 else [0, 1, 0])


@CPUS
@pytest.mark.parametrize("count", [0, 4])
def test_no_task_runs_nothing_and_forks_nothing(dealt, forks, cpus, count):
    table = dealt(cpus, (), count=count)
    assert table.shape == (count, 2) and not table.any()
    assert dealt.kept == dealt.ran == forks == []


@CPUS
@pytest.mark.parametrize("count", [1, 4], ids=["one row", "rows to spare"])
def test_a_single_task_forks_nothing(dealt, forks, cpus, count):
    table = dealt(cpus, range(1), count=count)
    assert table[0].tolist() == [0, os.getpid()] and not table[1:].any()
    assert dealt.kept == dealt.ran == [0] and forks == []


@CPUS
@pytest.mark.parametrize("stop_at", [2, 3], ids=["this share", "the worker's share"])
def test_a_task_that_asks_to_stop_ends_the_deal_as_in_one_process(dealt, forks, cpus, stop_at):
    table = dealt(cpus, range(6), count=6, stop_at=stop_at)
    assert len(forks) == cpus - 1
    np.testing.assert_array_equal(table[: stop_at + 1, 0], range(stop_at + 1))
    assert dealt.kept[: stop_at + 1] == list(range(stop_at + 1))
    if cpus == 1:
        assert dealt.ran == dealt.kept == list(range(stop_at + 1)) and not table[stop_at + 1:].any()
    else:  # this process's share, up to the stop if the stop is its own; nothing is left to run after
        assert dealt.ran == {2: [0, 2], 3: [0, 2, 4]}[stop_at]


@CPUS
@pytest.mark.parametrize("fail_at", [1, 2], ids=["the worker's share", "this share"])
def test_a_task_that_raises_raises_here_as_in_one_process(dealt, forks, cpus, fail_at):
    def fail(j):
        if j == fail_at:
            raise ValueError(f"task {j} failed")

    with pytest.raises(ValueError, match=f"^task {fail_at} failed$"):
        dealt(cpus, range(5), count=5, act=fail)
    assert len(forks) == cpus - 1
    if cpus == 1:  # the failing task runs once
        assert dealt.ran == list(range(fail_at + 1))
    else:  # this process's share, then, again here, the first task no process finished
        assert dealt.ran == {1: [0, 2, 4, 1], 2: [0, 2, 2]}[fail_at]


@CPUS
def test_this_process_runs_its_first_task_before_it_forks(dealt, forks, cpus):
    parent, forked_before = os.getpid(), []
    dealt(cpus, range(4), count=4, act=lambda j: os.getpid() == parent and forked_before.append(len(forks)))
    runs = list(zip(dealt.ran, forked_before))
    assert runs == ([(0, 0), (1, 0), (2, 0), (3, 0)] if cpus == 1 else [(0, 0), (2, 1)])


def test_a_worker_that_dies_mid_share_leaves_its_unfinished_tasks_here(dealt, forks):
    parent = os.getpid()

    def die_at_5(j):
        if j == 5 and os.getpid() != parent:  # tasks 1 and 3 done, task 5 begun
            os._exit(3)

    table = dealt(2, range(8), count=8, act=die_at_5)
    assert len(forks) == 1
    np.testing.assert_array_equal(table[:, 0], range(8))
    assert ran_by(table, [parent, *forks]) == [0, 1, 0, 1, 0, 0, 0, 0]
    # its own share, then in order the worker's unfinished tasks; each kept once
    assert dealt.ran == [0, 2, 4, 6, 5, 7]
    assert dealt.kept == list(range(8))


def test_a_fork_that_fails_leaves_its_share_here(dealt, monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to be had")

    monkeypatch.setattr(os, "fork", no_fork)
    table = dealt(2, range(6), count=6)
    np.testing.assert_array_equal(table, [[j, os.getpid()] for j in range(6)])
    assert dealt.ran == [0, 2, 4, 1, 3, 5]
    assert dealt.kept == list(range(6))


def test_another_running_thread_forks_nothing(dealt, forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        table = dealt(2, range(4), count=4)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert dealt.ran == dealt.kept == list(range(4))
    np.testing.assert_array_equal(table, [[j, os.getpid()] for j in range(4)])


def test_eight_processes_each_fill_their_share(dealt, forks):
    # more processes than this host may have CPUs: a row a worker's write
    # did not reach would be run here again
    began = time.monotonic()
    table = dealt(8, range(40), count=40)
    assert time.monotonic() - began < 30
    assert len(forks) == 7
    np.testing.assert_array_equal(table[:, 0], range(40))
    assert ran_by(table, [os.getpid(), *forks]) == [j % 8 for j in range(40)]
    assert dealt.ran == list(range(0, 40, 8))
    assert dealt.kept == list(range(40))


def test_an_interrupt_here_kills_and_reaps_the_worker(dealt, forks):
    parent = os.getpid()

    def interrupt(j):
        if os.getpid() != parent:
            time.sleep(60)  # a worker still running its share
        elif j == 2:  # after the fork
            raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        dealt(2, range(4), count=4, act=interrupt)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
