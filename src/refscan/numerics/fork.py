"""Independent work shared out over one process per usable CPU: forked
workers that each fill their share of one table they share with the caller."""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable


def worker_count(tasks: int) -> int:
    """One process per usable CPU, at most one per task. One process where
    the platform cannot say which CPUs are usable, or where another thread
    runs: a forked child keeps only the calling thread, and a lock another
    thread held would stay held in it."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


def run_shares(share: Callable, workers: int, nbytes: int):
    """Run ``share(table, k, workers)`` for every k below ``workers``: k = 0
    in this process, each other k in a worker forked for it, which leaves
    by ``os._exit(0)`` whether its share returns or raises. ``table`` is an
    anonymous mapping of ``nbytes`` zero bytes, made before the fork, so
    every process writes into the same memory; it is returned once every
    worker is reaped. A share whose fork fails never runs, and a worker that
    dies leaves its share part done: the caller finds in the table what no
    process finished. When this process raises, an interrupt included, each
    worker still running is killed and reaped before the raise goes on."""
    import mmap  # here, not at the top: a train run would load it for nothing

    table = mmap.mmap(-1, max(1, nbytes))
    running = []  # pids of the workers not yet reaped
    try:
        for k in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the caller does this share's work
                break
            if pid == 0:
                try:
                    share(table, k, workers)
                finally:
                    os._exit(0)  # none of this process's exit handlers
            running.append(pid)
        share(table, 0, workers)
        while running:
            os.waitpid(running[0], 0)
            running.pop(0)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return table
