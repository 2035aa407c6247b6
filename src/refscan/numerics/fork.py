"""Independent tasks dealt out over one process per usable CPU: forked
workers that each run their share into one table they share with this
process, which then runs, in task order, whatever no process finished."""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterable

import numpy as np

# A task's flag byte, written after its row: 0 while no process has finished
# it, then done, or done and asking that no later task run.
_DONE, _STOP = 1, 2


def worker_count(tasks: int) -> int:
    """One process per usable CPU, at most one per task. One process where
    the platform cannot say which CPUs are usable, or where another thread
    runs: a forked child keeps only the calling thread, and a lock another
    thread held would stay held in it."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


def deal(
    tasks: Callable[[], Iterable], run: Callable, count: int, width: int, keep: Callable | None = None
) -> np.ndarray:
    """Run ``run(task, row)`` on each task of a pass ``tasks()`` over at
    most ``count`` tasks, as one process would in task order: up to the
    first whose ``run`` returns true, asking that no later task run.
    Returns the (count, width) float64 table whose row j task j filled.
    ``keep(task)``, if given, sees each task of this process's pass in order.

    Task j goes to process j mod W, of W = ``worker_count(count)``. This
    process runs task 0, then, on reaching a second task, forks W - 1
    workers, each of which makes a pass of its own, runs its share and
    leaves by ``os._exit(0)``; dealing is static, so each process's work
    is the same from run to run. The table is an anonymous shared mapping
    made before any fork: a row of ``width`` floats per task, then a flag
    byte per task, written after its row. A share that raises stops there,
    and a worker that dies or whose fork fails leaves its share part done.
    Once every worker is reaped, this process runs in order each task no
    process finished, on a second pass made only if there is one. So the
    table, and the first exception in task order, are those of one
    process, which is all that runs on one CPU, where each task runs once.
    When this process raises, an interrupt included, each worker still
    running is killed and reaped first."""
    import mmap  # here, not at the top: a train run would load it for nothing

    table = mmap.mmap(-1, max(1, count * (8 * width + 1)))
    rows = np.frombuffer(table, np.float64, count * width).reshape(count, width)
    flags = np.frombuffer(table, np.uint8, count, offset=rows.nbytes)
    workers, running, seen, whole = worker_count(count), [], 0, True

    def step(j: int, task) -> bool:
        """Run task ``j`` into its row, then flag it; whether it asks to stop."""
        flags[j] = _STOP if run(task, rows[j]) else _DONE
        return flags[j] == _STOP

    def fork() -> None:
        """Fork a worker for each share but this process's."""
        for k in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this process does the share's work
                return
            if pid == 0:
                try:
                    for j, task in enumerate(tasks()):
                        if j % workers == k and step(j, task):
                            break
                finally:
                    os._exit(0)  # none of this process's exit handlers
            running.append(pid)

    try:
        try:
            for j, task in enumerate(tasks()):
                seen = j + 1
                if keep:
                    keep(task)
                if j == 1:  # a second task: worth a worker
                    fork()
                if j % workers == 0 and step(j, task):
                    break
        except Exception:  # its task stays unflagged: the fold below runs it again and raises there
            if workers == 1:
                raise
            whole = False
        while running:
            os.waitpid(running[0], 0)
            running.pop(0)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    undone = flags[:seen] != _DONE
    if whole and (not undone.any() or flags[undone.argmax()] == _STOP):
        return rows
    for j, task in enumerate(tasks()):
        if keep and j >= seen:
            keep(task)
        if flags[j] == _STOP or not flags[j] and step(j, task):
            break
    return rows
