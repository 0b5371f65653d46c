"""Worker processes made by ``os.fork``, each streaming results through a pipe.

``simulate.monte_carlo`` and ``io.load_csv``/``io.write_csv`` split their
work across one process per available CPU with these helpers; a single fit
runs in one process. A child inherits the caller's memory, so it needs no
arguments sent; it sends each item its producer yields, pickled, through
its own pipe, and leaves through ``os._exit``. The caller reads a worker's
items only through ``take``, which computes in the calling process whatever
the worker fails to deliver: where it was never made, died, raised or sent
nothing. So every result and every error is the one a single process gives.
The caller ends every child through ``stop`` before it returns, so no child
outlives the call.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import threading
import warnings
from collections.abc import Callable, Iterable
from typing import Any, TypeVar

T = TypeVar("T")

#: Rows of work each worker process must get before work is split: the
#: drawn rows (``reps * n``) of each range of a ``simulate.monte_carlo``
#: study. Below about this many, forking a worker and reading back its
#: results costs more than the work it takes off the calling process.
WORKER_ROWS = 1 << 17

#: The length that opens each item's pickle in a pipe.
_LENGTH = struct.Struct("<Q")


def workers(tasks: int) -> int:
    """Processes to run ``tasks`` independent tasks in: one per available
    CPU on Linux, at most ``tasks``, else one. A process running other
    Python threads (``threading.active_count()``) is not forked, since a
    lock one of them holds would stay locked in the child. Threads Python
    does not count are forked beside on purpose: after a BLAS call on more
    than one CPU, numpy's bundled OpenBLAS runs its own thread pool, and it
    registers a fork handler (it imports ``__register_atfork`` and exports
    ``openblas_fork_handler``) that ends the pool before each fork; parent
    and child each start it again at their next BLAS call.
    """
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


class Worker:
    """A child made by ``fork``: its pid and the read end of its pipe."""

    def __init__(self, pid: int, read_end: int) -> None:
        self.pid = pid
        self._pipe = open(read_end, "rb")

    def receive(self) -> Any:
        """The next item the child sent. Raises the error its producer
        raised in place of the next item, or EOFError where the child ended
        without sending one.
        """
        header = self._pipe.read(_LENGTH.size)
        if len(header) == _LENGTH.size:
            (size,) = _LENGTH.unpack(header)
            payload = self._pipe.read(size)
            if len(payload) == size:
                sent, value = pickle.loads(payload)
                if not sent:
                    raise value
                return value
        raise EOFError(f"worker process {self.pid} sent no further result")

    def kill(self) -> None:
        """End the child now, whatever it has left to send, and reap it."""
        self._pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def fork(produce: Callable[[], Iterable[Any]]) -> Worker:
    """Fork a child that sends each item of ``produce()`` through a pipe,
    then, if ``produce`` raised, the error in place of the next item.

    Python 3.12 and later warn (DeprecationWarning) at a fork in a process
    with more than one OS thread. That warning alone is ignored, and only
    around the fork itself: ``workers`` forks beside no other Python thread,
    only beside the OpenBLAS pool, whose fork handler ends the pool before
    each fork.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process .*multi-threaded", DeprecationWarning)
            pid = os.fork()
    except BaseException:  # whatever stops the fork, neither pipe end outlives it
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return Worker(pid, read_end)
    # the child leaves through os._exit, so that neither the caller's frames
    # nor its buffered output, exit hooks and finally clauses run twice
    code = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            try:
                for item in produce():
                    _send(pipe, (True, item))
            except Exception as exc:
                _send(pipe, (False, exc))
        code = 0
    finally:
        os._exit(code)


def _send(pipe, message: tuple[bool, Any]) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.write(_LENGTH.pack(len(payload)))
    pipe.write(payload)
    pipe.flush()


def fork_each(
    workers: list[Worker | None], produces: Iterable[Callable[[], Iterable[Any]]]
) -> None:
    """Append to ``workers`` a child made by ``fork`` for each of
    ``produces``, in order. From the first child the system cannot make
    (``os.pipe`` or ``os.fork`` raised OSError: too many processes or open
    files, or too little memory) None takes each one's place, so the tasks
    stay dealt as planned and ``take`` leaves a missing child's to this
    process.
    """
    made = True
    for produce in produces:
        worker = None
        if made:
            try:
                worker = fork(produce)
            except OSError:
                made = False
        workers.append(worker)


def take(workers: list[Worker | None], index: int, compute: Callable[[], T]) -> T:
    """The result of task ``index`` of tasks dealt in turn to this process
    and then to each of ``workers``: ``compute()`` on this process's turn,
    else the worker's next item. Where the worker is None, ended, raised or
    sent nothing, this process computes it, so the result never depends on
    a worker.
    """
    turn = index % (len(workers) + 1)
    worker = workers[turn - 1] if turn else None
    if worker is not None:
        try:
            return worker.receive()
        except Exception:  # any failure of the worker: compute it here
            pass
    return compute()


def stop(workers: list[Worker | None]) -> None:
    """End and reap every worker in ``workers``, whose results go unread,
    and empty the list."""
    while workers:
        worker = workers.pop()
        if worker is not None:
            worker.kill()
