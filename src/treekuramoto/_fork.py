"""One index range of work per CPU, in forked worker processes.

Trials, drift probes and spectral samples each read their own
counter-addressed noise stream, so any split of their indices across
processes gives the same bits. :func:`forked_map` is the one place that
splits a run: it takes the run's index count and the bytes each index
touches, derives how many processes share the run (:func:`worker_count`,
against the one threshold ``_MIN_FORK_BYTES``), splits the indices into
that many contiguous ranges (:func:`ranges`), runs the first range in
this process and each other one in a worker forked for it, and returns
every range with its part. The number of ranges it returns is the run's
worker count, which each caller reports with its result.

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

#: Fewest bytes a run touches for which it forks: the 8-byte noise words
#: it reads, plus, for spectral samples, their working arrays (an m x m
#: Laplacian for eigvalsh, which solves only trees of up to 23 nodes,
#: 14 n doubles for Sturm counts). In one process on a 2-vCPU x86-64
#: host a word costs about the same in every caller on 5 to 200 nodes:
#: 0.043 / 0.068 / 0.075 us in a recurrence trial*step at n = 5 / 50 /
#: 200 (0.34 / 3.52 / 15.0 us for 8 / 52 / 200 words), about 0.1 us as a
#: drift noise value, 0.08 us per 8 bytes of eigvalsh spectral samples
#: (100 MB a second) and 0.05 us by Sturm counts on 50 nodes. 4 MiB is
#: then 20 to 40 ms of work, against several milliseconds to start a
#: worker and return its result. Two workers against one there (medians
#: of 7 to 12 alternating pairs, one BLAS thread): near the threshold
#: 0.81x to 1.09x for recurrence on line5 at 100 x 1 000 (6.4 MB), 0.83x
#: to 0.99x for drift on line5 at 10 x 8 000 (5.1 MB), 0.87x for 20 000
#: line5 spectral samples (3.8 MB) and 1.05x for recurrence on line5 at
#: 64 x 1 000 (4.1 MB); well above it 0.58x to 0.85x for recurrence on
#: 50- and 200-node trees at 32 or 64 x 1 000 (13 to 102 MB). Those need
#: the second vCPU idle: with it busy, the 50-node runs took 1.18x to
#: 1.29x. Sturm counts on 50 nodes at 700 / 1 500 / 4 000 samples (4.2 /
#: 9 / 24 MB) took 0.77x to 1.51x / 1.24x / 0.68x to 1.08x in two sets
#: of 9 pairs, with the second vCPU partly busy.
_MIN_FORK_BYTES = 4 * 2**20


def worker_count(items: int, work_bytes: float, min_items: int = 1) -> int:
    """Processes that share a run of ``items`` indices that touch
    ``work_bytes`` bytes of noise words and Laplacians.

    One per CPU in this process's affinity mask, with at least
    ``min_items`` indices each; a single one when the run touches fewer
    than ``_MIN_FORK_BYTES``, where there is no affinity mask (nor, on
    Windows, ``os.fork``), and inside a worker.
    """
    slices = items // min_items
    forkable = hasattr(os, "sched_getaffinity") and not _in_worker
    if slices < 2 or work_bytes < _MIN_FORK_BYTES or not forkable:
        return 1
    return min(len(os.sched_getaffinity(0)), slices)


def ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """``range(count)`` as ``workers`` contiguous ``(lo, hi)`` ranges
    whose lengths differ by at most one."""
    return [(w * count // workers, (w + 1) * count // workers) for w in range(workers)]


def forked_map(run, task, items, item_bytes, min_items=1) -> list:
    """``[((lo, hi), run(lo, hi)), ...]`` over the :func:`ranges` of
    ``range(items)``, one per process of :func:`worker_count` for
    ``items`` indices of ``item_bytes`` bytes each and ``min_items``
    indices per range: the first range in this process, each other one
    in a forked worker that pickles its result into a pipe. An exception
    raised in a worker is raised here, the lowest range's first. Every
    worker is killed, if it still runs, and reaped before this returns
    or raises.

    ``task`` names what the ranges index, as in ``"stepping trials"``,
    for the error that reports a worker lost.

    Raises:
        NumericError: a worker could not be started or ended without
            sending its result (killed, for example, by the kernel when
            memory runs out); the message names its range and exit code.
    """
    bounds = ranges(items, worker_count(items, items * item_bytes, min_items))
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
