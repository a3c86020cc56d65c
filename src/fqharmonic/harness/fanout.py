"""Run independent tasks on the CPUs this process may use.

``fan_out`` forks workers that share one list of zero-argument callables.
The tasks reach the workers through ``fork``, so they may be closures; only
their results are pickled, back to the parent.  The results come back in
task order and the first exception in task order is raised, as a loop over
the tasks would do, so what a caller makes of them does not depend on how
many workers ran.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import threading
from typing import Callable, Iterable, Iterator, NoReturn

_TOKEN = struct.Struct("<I")  # one task index, as claimed from the shared pipe
# the claims are written before any fork, and a pipe is sure to hold only
# PIPE_BUF bytes; a longer task list runs in this process
MAX_FORKED_TASKS = select.PIPE_BUF // _TOKEN.size


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fan_out(tasks: Iterable[Callable[[], object]], jobs: int | None = None) -> list:
    """The results of the tasks, in task order.

    ``jobs`` workers run them, by default one per usable CPU, never more
    than there are tasks.  The parent forks ``jobs - 1`` children and works
    as well; each worker claims the next task index until none is left.  A
    worker whose task raises empties the claims, so no later task starts
    after that, and the first exception in task order is re-raised.
    With one worker, no ``os.fork``, more than one live thread (where a fork
    is unsafe) or more than ``MAX_FORKED_TASKS`` tasks, the same claim loop
    runs in this process.  Every child is reaped before this returns or
    raises, and killed first when the parent is interrupted.
    """
    tasks = list(tasks)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    jobs = min(_usable_cpus() if jobs is None else jobs, len(tasks))
    if jobs < 2 or not hasattr(os, "fork") or threading.active_count() > 1 or len(tasks) > MAX_FORKED_TASKS:
        done = _work(tasks, iter(range(len(tasks))))
    else:
        done = _forked(tasks, jobs)
    results: list = [None] * len(tasks)
    failed = []
    for i, ok, value in done:
        results[i] = value
        if not ok:
            failed.append(i)
    if failed:
        raise results[min(failed)]
    return results


def _work(tasks: list, claims: Iterator[int]) -> list:
    """(index, ok, result or exception) of each claimed task.  After a task
    raises, the rest of the claims are taken and none is run."""
    done = []
    for i in claims:
        try:
            done.append((i, True, tasks[i]()))
        except Exception as exc:
            done.append((i, False, exc))
            for _ in claims:
                pass
    return done


def _claims(fd: int) -> Iterator[int]:
    """The task indices claimed from the shared pipe, until it is empty.

    Every token is in the pipe before the first read, and a pipe read of a
    few bytes is atomic, so each index is claimed once, in increasing order.
    """
    while token := os.read(fd, _TOKEN.size):
        yield _TOKEN.unpack(token)[0]


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _forked(tasks: list, jobs: int) -> list:
    claim_r, claim_w = os.pipe()
    os.write(claim_w, b"".join(map(_TOKEN.pack, range(len(tasks)))))
    os.close(claim_w)
    fds = [claim_r]  # every descriptor the parent still holds
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(jobs - 1):
            r, w = os.pipe()
            fds += (r, w)
            # an interrupt between the fork and the record of its pid would
            # leave that child unknown, so the parent blocks it meanwhile
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _child(tasks, claim_r, w, mask)
                children[pid] = r
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            fds.remove(w)
            os.close(w)
        done = _work(tasks, _claims(claim_r))
        sent = [_read_all(r) for r in children.values()]
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        status = {pid: os.waitpid(pid, 0)[1] for pid in children}
    failed = {pid: os.waitstatus_to_exitcode(s) for pid, s in status.items() if s}
    if failed:
        raise ChildProcessError(f"worker processes ended abnormally (pid: exit code): {failed}")
    for data in sent:
        done += pickle.loads(data)
    return done


def _child(tasks: list, claim_r: int, w: int, mask) -> NoReturn:
    """A forked worker: run its claims, send their results and exit, never
    returning into the parent's stack."""
    import traceback  # imported here, where only a child pays its memory (about 128 KB of RSS)

    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done = _work(tasks, _claims(claim_r))
        if sys.version_info >= (3, 11):  # a traceback does not pickle; keep where it was raised
            for _i, ok, exc in done:
                if not ok:
                    exc.add_note("raised in a worker process at\n" + "".join(traceback.format_tb(exc.__traceback__)))
        with open(w, "wb") as out:
            pickle.dump(done, out)
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
