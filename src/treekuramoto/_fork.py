"""One index range of work per CPU, in forked worker processes.

Trials, drift probes and spectral samples each read their own
counter-addressed noise stream, so any split of their indices across
processes gives the same bits. :func:`forked_map` is the one place that
splits a run: it takes the run's index count, its work and the caller's
threshold, derives how many processes share the run
(:func:`worker_count`), splits the indices into that many contiguous
ranges (:func:`ranges`), runs the first range in this process and each
other one in a worker forked for it, and returns every range with its
part. The number of ranges it returns is the run's worker count, which
each caller reports with its result.

A worker is ``os.fork`` with one ``os.pipe`` back to the parent and its
result pickled into it, not ``multiprocessing``. On a 2-vCPU host, after
the CLI's imports, a first map of two ranges with one ``multiprocessing``
worker took 10 to 14 ms and grew the resident set by 0.30 MB (its lazy
import and its Process/Connection layer); with a bare fork it took 5 to
6 ms and 0.12 MB.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import NumericError

#: Signals held while a worker is forked: those whose handlers raise,
#: KeyboardInterrupt and the CLI's termination.
_HELD_SIGNALS = {signal.SIGINT, signal.SIGTERM}

#: True in a forked worker, so that workers never fork again. Only a
#: worker sets it, in its own copy of the module.
_in_worker = False


def worker_count(items: int, work: float, min_work: float, min_items: int = 1) -> int:
    """Processes that share a run of ``items`` indices and ``work``
    units of work.

    One per CPU in this process's affinity mask, with at least
    ``min_items`` indices each; a single one when the run is below
    ``min_work`` units, where there is no affinity mask (nor, on
    Windows, ``os.fork``), and inside a worker.
    """
    slices = items // min_items
    forkable = hasattr(os, "sched_getaffinity") and not _in_worker
    if slices < 2 or work < min_work or not forkable:
        return 1
    return min(len(os.sched_getaffinity(0)), slices)


def ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """``range(count)`` as ``workers`` contiguous ``(lo, hi)`` ranges
    whose lengths differ by at most one."""
    return [(w * count // workers, (w + 1) * count // workers) for w in range(workers)]


def forked_map(run, task, items, work, min_work, min_items=1) -> list:
    """``[((lo, hi), run(lo, hi)), ...]`` over the :func:`ranges` of
    ``range(items)``, one per process of :func:`worker_count` for
    ``items``, ``work``, ``min_work`` and ``min_items``: the first range
    in this process, each other one in a forked worker that pickles its
    result into a pipe. An exception raised in a worker is raised here,
    the lowest range's first. Every worker is killed, if it still runs,
    and reaped before this returns or raises.

    ``task`` names what the ranges index, as in ``"stepping trials"``,
    for the error that reports a worker lost.

    Raises:
        NumericError: a worker could not be started or ended without
            sending its result (killed, for example, by the kernel when
            memory runs out); the message names its range and exit code.
    """
    bounds = ranges(items, worker_count(items, work, min_work, min_items))
    workers = []  # [pid, read end of its pipe, lo, hi]; pid None once reaped
    try:
        for lo, hi in bounds[1:]:
            # SIGINT and SIGTERM wait until the worker is listed here and,
            # in the worker, until it runs inside its try/finally: a
            # handler that raised in the interpreter's after-fork hooks
            # would print a traceback from them
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD_SIGNALS)
            try:
                workers.append(_start(run, lo, hi, held))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        parts = [run(*bounds[0])]
        for worker in workers:
            pid, pipe, lo, hi = worker
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            worker[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise NumericError(
                    f"the worker {task} {lo}..{hi - 1} ended without a result "
                    f"(exit code {code})"
                )
            failed, value = pickle.loads(data)
            if failed:
                raise value
            parts.append(value)
        return list(zip(bounds, parts))
    finally:
        for pid, pipe, _, _ in workers:
            pipe.close()
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # reaped just before an interruption reached here


def _start(run, lo: int, hi: int, held) -> list:
    """Fork a worker for ``run(lo, hi)`` and return ``[pid, read end of
    its pipe, lo, hi]``. The worker restores the signal mask ``held``
    once nothing in it can unwind into the caller's frames, whose cleanup
    (temporary files, other workers) belongs to the parent: every path
    ends in ``os._exit``."""
    receive, send = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(receive)
        os.close(send)
        raise NumericError(f"cannot start a worker process: {exc}") from None
    if pid == 0:
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            os.close(receive)
            code = _serve(send, run, lo, hi)
        finally:
            os._exit(code)
    os.close(send)
    return [pid, open(receive, "rb"), lo, hi]


def _serve(send: int, run, lo: int, hi: int) -> int:
    """Body of a forked worker: pickle ``(False, run(lo, hi))``, or
    ``(True, exception)`` for the parent to raise, into the pipe ``send``
    and return the exit code 0."""
    global _in_worker
    _in_worker = True
    try:
        outcome = (False, run(lo, hi))
    except Exception as exc:  # raised again in the parent, as in one process
        outcome = (True, exc)
    with open(send, "wb") as pipe:
        pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
    return 0
