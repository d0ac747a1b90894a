"""Empirical verification of stochastic phase-cohesiveness.

Three instruments, of which the first two share one stepping loop,
:func:`_chunks`. It reads the noise of one generator per trial through
``noise._NoiseReader`` a chunk at a time, steps the chunk with one call
of the integrator kernel ``dynamics._integrate`` and yields the chunk's
states, frequencies and per-state largest edge distances (the kernel
takes those once per sub-block). A chunk spans ``_MAX_BLOCK_WORDS``
noise words, raised toward one kernel sub-block (64 steps) as far as
``_MAX_FLOOR_WORDS`` words allow, so its buffers stay bounded however
long the horizon.

* :func:`simulate` collects one trajectory's chunks into a record:
  every state, the realized frequencies and each state's largest edge
  geodesic distance. The per-edge distances, drift-function values and
  set membership of any rows are ``dynamics.edge_geodesics`` and
  ``dynamics.drift_values`` of the kept states. The CLI consumes the
  chunks of :func:`_trajectory` itself and keeps only the rows it
  writes, so its memory does not grow with the horizon.
* :func:`recurrence_experiment` runs many trials from sampled initial
  states in the admissible set, where no edge distance exceeds
  ``ADMISSIBLE_LEVEL`` (pi/2, with room for rounding; the CLI checks an
  explicit start against the same level), and collects first-return
  times to the cohesive set, maximal excursions and escape counts.
  Finite-horizon return fractions are the checkable surrogate for
  almost-sure recurrence and are always reported as fractions, never
  asserted as probability one (:func:`wilson_interval` gives their
  confidence interval). The trials are stepped as one
  trials-minor batch ``(n, trials)``, and the set bookkeeping runs once
  per noise chunk, vectorized over its steps. Each trial carries one
  flag, whether it has been outside the set (true at the start for a
  trial that starts outside); a return is the first step inside with
  the flag set, an escape the first step at ``ESCAPE_LEVEL`` or beyond,
  and a trial that is never outside returns at step 1.
* :func:`drift_estimate` / :func:`drift_sweep` probe the one-step
  conditional drift ``E[V(theta(k+1)) | theta(k)] - V(theta(k))`` by
  re-drawing noise for a fixed state, exactly matching the conditional
  expectation because stepping is pure. One kernel call steps the probe
  as one column under every draw.

Trials, probes and their noise all use distinct stream coordinates, so
results are independent of evaluation order and of how work is split
across workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _SUB_STEPS,
    _UNRESOLVED,
    NetworkModel,
    PhaseState,
    _integrate,
    drift_values,
    edge_geodesics,
    validate_gamma,
    wrap_angle,
)
from .errors import ConfigError, NumericError, _check_items
from .graph import TreeGraph
from .noise import RandomStream, _NoiseReader, _words_per_step, sample_noise_block

#: States whose largest edge distance reaches ``ESCAPE_LEVEL = pi/2 -
#: ESCAPE_TOLERANCE`` are flagged as escaped: beyond that the
#: cohesiveness analysis regime no longer applies.
ESCAPE_TOLERANCE = 1e-9
ESCAPE_LEVEL = 0.5 * math.pi - ESCAPE_TOLERANCE

#: Largest edge distance of an admissible start state: pi/2, with room
#: for the rounding of wrapping the phases and taking their differences.
ADMISSIBLE_LEVEL = 0.5 * math.pi + 1e-12

#: Fewest trial*steps for which :func:`recurrence_experiment` splits its
#: trials across forked workers. Starting a worker and returning its
#: results costs about 7 to 10 ms, against about 0.6 us per trial*step
#: (line5, 200 trials in one process on a 2-vCPU host: medians of 0.54
#: to 0.65 us in four runs of six).
_MIN_FORK_WORK = 200_000

#: Fewest trials per worker. A step's numpy dispatch costs about as much
#: as stepping 20 line5 trials, and every worker pays it, so narrow
#: slices gain little over one batch. Measured on line5 (median of 10
#: alternating pairs, 30 000 steps, 2 CPUs), two processes took 0.99x
#: the time of one at 2 x 5 trials, 0.91x at 2 x 8 and 0.80x at 2 x 16.
_MIN_SLICE_TRIALS = 16

#: Noise words one chunk of a trajectory or of a recurrence slice spans,
#: so that its frequencies and its states take at most 512 KiB each (the
#: floor below aside).
_MAX_BLOCK_WORDS = 1 << 16

#: Fewest steps in a chunk, as far as ``_MAX_FLOOR_WORDS`` noise words
#: allow: each chunk pays a kernel call and the set bookkeeping. Without
#: it a 200-node tree at 100 trials gets 3-step chunks; at 6 steps a
#: trial*step took 1.13 times as long as at 64 (median of 8 alternating
#: runs, 2 vCPUs). The cap keeps 64 steps of a wide slice from taking
#: 1 GB (200 nodes, 5 000 trials).
_MIN_CHUNK_STEPS = _SUB_STEPS
_MAX_FLOOR_WORDS = 1 << 20


class InvalidInitSampler(ConfigError):
    """Initial-state sampler produced a state outside the admissible set."""


class _NonFinite(NumericError):
    """A stepped state became non-finite: the first one is at ``step``,
    in ``column`` (the lowest column at that step)."""

    def __init__(self, step: int, column: int):
        super().__init__(f"phases became non-finite at step {step}")
        self.step, self.column = step, column


@dataclass
class TrajectoryRecord:
    """What stepping produces for one simulated trajectory.

    Row ``k`` holds the state at step ``k`` and its largest edge
    geodesic distance; ``realized_frequency[k]`` is ``omega + n(k)``,
    the disturbed frequency vector that drives the transition from step
    ``k`` to ``k + 1`` (the final row carries the next, unused draw so
    the table stays rectangular). The per-edge distances, the drift
    function and set membership of any rows are
    ``dynamics.edge_geodesics`` and ``dynamics.drift_values`` of
    ``theta``, and ``max_edge_distance <= gamma``.
    """

    theta: np.ndarray
    realized_frequency: np.ndarray
    max_edge_distance: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.theta) - 1


@dataclass
class RecurrenceStats:
    """Aggregate first-return statistics over many trials.

    ``return_time[t]`` is the first step ``k >= 1`` at which trial ``t``
    is inside the cohesive set (for trials starting outside) or back
    inside after an exit (for trials starting inside; 1 when the trial
    never exits), and ``escape_time[t]`` the first step ``k >= 0`` at
    which its largest edge distance reaches ``ESCAPE_LEVEL``; ``-1``
    where there is none. ``returned`` and ``escaped`` are the flags of
    these times. ``workers`` is the number of processes that stepped the
    trials; it does not affect any other field.
    """

    trials: int
    gamma: float
    horizon: int
    started_in_set: np.ndarray
    return_time: np.ndarray
    max_excursion: np.ndarray
    escape_time: np.ndarray
    workers: int = 1

    @property
    def returned(self) -> np.ndarray:
        return self.return_time >= 0

    @property
    def escaped(self) -> np.ndarray:
        return self.escape_time >= 0

    @property
    def return_fraction(self) -> float:
        return float(np.mean(self.returned))

    @property
    def escaped_fraction(self) -> float:
        return float(np.mean(self.escaped))

    @property
    def return_times(self) -> np.ndarray:
        """Finite first-return times, one entry per returned trial."""
        return self.return_time[self.returned]


#: Two-sided 95% standard normal quantile.
Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson (1927) 95% score interval for a binomial proportion.

    Unlike the normal approximation it stays inside ``[0, 1]`` and has a
    nonzero width at ``0/trials`` and ``trials/trials``, the usual
    outcomes of a finite-horizon return fraction.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(
            f"need 0 <= successes <= trials >= 1, got {successes}/{trials}"
        )
    p = successes / trials
    z2 = Z_95 * Z_95
    denominator = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denominator
    half = (
        Z_95 / denominator * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2))
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class DriftEstimate:
    """Monte Carlo estimate of the one-step drift at a probed state."""

    theta: np.ndarray
    gamma: float
    estimate: float
    stderr: float
    samples: int


def fixed_initial(theta0):
    """Initial-state sampler that always returns ``theta0`` (wrapped)."""
    frozen = _start_state(theta0)

    def sample(graph: TreeGraph, stream: RandomStream) -> np.ndarray:
        if frozen.shape != (graph.n,):
            raise InvalidInitSampler(
                f"initial phases have shape {frozen.shape}, graph has {graph.n} nodes"
            )
        return frozen.copy()

    return sample


def edge_box_sampler(low: float = 0.0, high: float = 0.5 * math.pi):
    """Sampler drawing each edge difference uniformly from the annulus
    ``low <= |difference| < high`` with a random sign, then integrating
    the differences along the tree in one breadth-first pass from node 0,
    pinned at phase zero. The sampler raises :class:`InvalidInitSampler`
    for a graph that is not connected (a ``TreeGraph`` built directly).

    On a tree the edge differences are free coordinates, so ``low = 0``
    covers the admissible set (every edge distance at most pi/2)
    uniformly and ``low = gamma`` covers the drift-test annulus.
    """
    if not (0.0 <= low < high <= 0.5 * math.pi):
        raise ValueError(
            f"need 0 <= low < high <= pi/2, got low={low}, high={high}"
        )

    def sample(graph: TreeGraph, stream: RandomStream) -> np.ndarray:
        u = stream.uniforms(0, graph.m)
        signed = 2.0 * u - 1.0
        diffs = np.where(signed >= 0.0, 1.0, -1.0) * (
            low + np.abs(signed) * (high - low)
        )
        # Python floats: the same double arithmetic, without numpy's
        # per-element overhead
        diffs = diffs.tolist()
        theta = [0.0] + [None] * (graph.n - 1)
        incident = [[] for _ in range(graph.n)]
        for e, (tail, head) in enumerate(graph.edges):
            incident[tail].append((e, tail, head))
            incident[head].append((e, tail, head))
        # breadth first from node 0: an edge is queued when one of its ends
        # is placed, so an unplaced end is placed from the other, its parent
        queue = list(incident[0])
        for e, tail, head in queue:
            if theta[head] is None:
                theta[head] = theta[tail] - diffs[e]
                queue += incident[head]
            elif theta[tail] is None:
                theta[tail] = theta[head] + diffs[e]
                queue += incident[tail]
        if None in theta:
            raise InvalidInitSampler("graph is not connected")
        return wrap_angle(theta)

    return sample


def _start_state(state) -> np.ndarray:
    """The phases of ``state``, a ``PhaseState`` or an array, wrapped; a
    phase that is non-finite or of magnitude 2**52 or more (no phase is
    left to wrap there) becomes NaN, which no step or check accepts."""
    theta = state.theta if isinstance(state, PhaseState) else np.asarray(state, float)
    return wrap_angle(np.where(np.abs(theta) < _UNRESOLVED, theta, np.nan))


def simulate(
    model: NetworkModel,
    theta0,
    horizon: int,
    stream: RandomStream,
) -> TrajectoryRecord:
    """Iterate the dynamics for ``horizon`` steps, recording every state,
    its largest edge distance and every realized frequency.

    Noise for step ``k`` is drawn at stream index ``k`` under purpose
    ``"noise"``; two calls with equal inputs produce bit-identical
    records. The record holds the whole horizon; :func:`_trajectory`
    yields the same rows a chunk at a time.

    Raises:
        NumericError: the phases become non-finite (the message names
            the first such step), as a start phase of magnitude 2**52 or
            more does at step 1.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    n = model.graph.n
    theta0 = _start_state(theta0)
    if theta0.shape != (n,):
        raise ValueError(f"theta0 shape {theta0.shape} != ({n},)")
    theta = np.empty((horizon + 1, n))
    realized = np.empty((horizon + 1, n))
    max_distance = np.empty(horizon + 1)
    for k0, *rows in _trajectory(model, theta0, horizon, stream):
        for record, row in zip((theta, realized, max_distance), rows):
            record[k0 : k0 + len(row)] = row
    return TrajectoryRecord(
        theta=theta, realized_frequency=realized, max_edge_distance=max_distance
    )


def _trajectory(model, theta0, horizon, stream):
    """The rows of :func:`simulate`'s record for the wrapped start state
    ``theta0``, one noise chunk at a time: yields ``(k0, theta,
    realized_frequency, max_edge_distance)`` holding rows ``k0`` on, in
    buffers that the next chunk overwrites. The last chunk is the final
    state alone, with its unused draw.

    Raises:
        NumericError: as :func:`simulate` does.
    """
    noise_stream = stream.child(purpose="noise")
    for k0, states, frequency, maxima in _chunks(
        model, theta0[:, None], [noise_stream], horizon
    ):
        yield k0, states[:-1, :, 0], frequency[..., 0], maxima[:-1, 0]
    final = sample_noise_block(model.noise, noise_stream, horizon, 1)
    yield horizon, states[-1:, :, 0], model.omega + final, maxima[-1:, 0]


def recurrence_experiment(
    model: NetworkModel,
    init_sampler,
    gamma: float,
    trials: int,
    horizon: int,
    stream: RandomStream,
) -> RecurrenceStats:
    """First-return statistics for ``trials`` independent trajectories.

    Each trial draws its initial state from ``init_sampler`` (a callable
    ``(graph, stream) -> phases``, whose output, wrapped once, must lie
    in the admissible set: every edge distance at most pi/2) and its own
    noise stream, then runs for ``horizon`` steps. Trials are stepped
    together as a trials-minor batch ``(n, trials)`` by the loop that
    steps :func:`simulate`, so each column follows exactly the
    trajectory :func:`simulate` records for that trial. Per step only
    the largest edge distance of every trial is kept; return, exit,
    escape and excursion bookkeeping runs once per noise chunk over all
    of that chunk's steps.

    Large runs split the trials into contiguous slices, one per CPU
    this process may run on: this process steps the first slice and
    forked worker processes step the others (see :func:`_worker_count`).
    Per-trial stream coordinates make the result independent of the
    batch, chunk and slice sizes, so it is bit-identical at every
    worker count; ``RecurrenceStats.workers`` records the count.

    Raises:
        InvalidInitSampler: a sampled state is non-finite, has a phase of
            magnitude 2**52 or more (no phase is left to wrap there) or
            has an edge distance beyond pi/2.
        NumericError: a trial's phases become non-finite (the message
            names the first such step and, at that step, the first
            trial), or a worker process ended without a result.
        MemoryError: the trials' phases do not fit in memory, or not in
            one array.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    gamma = validate_gamma(gamma)
    graph = model.graph
    n = graph.n

    # trials-minor: one column per trial
    _check_items(n * trials, "initial phases")
    theta = np.empty((n, trials))
    for t in range(trials):
        candidate = _start_state(
            init_sampler(graph, stream.child(trial=t, purpose="init"))
        )
        if candidate.shape != (n,):
            raise InvalidInitSampler(
                f"sampler returned shape {candidate.shape}, expected ({n},)"
            )
        # NaN compares False, so unresolvable phases are rejected too
        if not np.all(edge_geodesics(graph, candidate) <= ADMISSIBLE_LEVEL):
            raise InvalidInitSampler(
                f"trial {t} starts outside the admissible set"
            )
        theta[:, t] = candidate
    noise_streams = [stream.child(trial=t, purpose="noise") for t in range(trials)]

    def run(lo: int, hi: int):
        return _step_trials(
            model, theta[:, lo:hi], noise_streams[lo:hi], gamma, horizon
        )

    workers = _worker_count(trials, horizon)
    bounds = [
        (w * trials // workers, (w + 1) * trials // workers) for w in range(workers)
    ]
    parts = _run_forked(run, bounds) if workers > 1 else [run(0, trials)]

    # the error a single batch raises: earliest step, then lowest trial
    failures = [
        (first[0], lo + first[1])
        for (lo, _), (_, first) in zip(bounds, parts)
        if first is not None
    ]
    if failures:
        step, t = min(failures)
        raise NumericError(f"trial {t} has non-finite phases at step {step}")
    return RecurrenceStats(
        trials=trials,
        gamma=gamma,
        horizon=horizon,
        workers=workers,
        **{
            name: np.concatenate([fields[name] for fields, _ in parts])
            for name in parts[0][0]
        },
    )


def _chunk_steps(n: int, width: int) -> int:
    """Steps per noise chunk of ``width`` trajectories on ``n`` nodes:
    ``_MAX_BLOCK_WORDS`` noise words, raised toward ``_MIN_CHUNK_STEPS``
    as far as ``_MAX_FLOOR_WORDS`` words allow."""
    words = _words_per_step(n) * width
    floor = min(_MIN_CHUNK_STEPS, _MAX_FLOOR_WORDS // words)
    return max(1, floor, _MAX_BLOCK_WORDS // words)


def _chunks(model, theta, noise_streams, horizon):
    """Step the trials-minor batch ``theta`` ``(n, width)`` for
    ``horizon`` steps, column ``t`` driven by ``noise_streams[t]``, one
    noise chunk of :func:`_chunk_steps` steps and one kernel call at a
    time.

    Yields ``(k0, states, frequency, maxima)`` for each chunk of
    ``count`` steps: ``states`` ``(count + 1, n, width)`` holds the
    states at steps ``k0 .. k0 + count`` and ``maxima``
    ``(count + 1, width)`` their largest edge geodesic distances;
    ``frequency`` ``(count, n, width)`` holds ``omega + noise`` of steps
    ``k0 .. k0 + count - 1``, so state row ``j`` starts the step that
    frequency row ``j`` drives. The last state row starts the next
    chunk. All three are buffers that the next chunk overwrites.

    Raises:
        _NonFinite: a state became non-finite; stepping stops at the end
            of that chunk, which is not yielded.
    """
    n, width = theta.shape
    chunk = min(horizon, _chunk_steps(n, width))
    states = np.empty((chunk + 1, n, width))
    maxima = np.empty((chunk + 1, width))
    frequency_buffer = np.empty((chunk, n, width))
    states[0] = theta
    maxima[0] = edge_geodesics(model.graph, theta.T).max(axis=-1)
    omega = model.omega[:, None]
    noise = _NoiseReader(model.noise, noise_streams)
    for k0 in range(0, horizon, chunk):
        count = min(chunk, horizon - k0)
        frequency = frequency_buffer[:count]
        noise.read(frequency)
        frequency += omega
        failure = _integrate(
            model, states[0], frequency, states[1 : count + 1], maxima[1 : count + 1]
        )
        if failure is not None:
            raise _NonFinite(k0 + failure[0] + 1, failure[1])
        yield k0, states[: count + 1], frequency, maxima[: count + 1]
        states[0], maxima[0] = states[count], maxima[count]


def _step_trials(model, theta, noise_streams, gamma, horizon):
    """Step the trials-minor batch ``theta`` ``(n, width)`` for
    ``horizon`` steps, column ``t`` driven by ``noise_streams[t]``.

    Returns the per-trial fields of :class:`RecurrenceStats` as a dict,
    and ``None``; or, when a state became non-finite, an empty dict and
    ``(step, column)`` of the first one (earliest step, then lowest
    column).
    """
    max_edge = edge_geodesics(model.graph, theta.T).max(axis=-1)
    started_in_set = max_edge <= gamma
    max_excursion = max_edge.copy()
    return_time = np.full(theta.shape[1], -1, dtype=np.int64)
    escape_time = np.where(max_edge >= ESCAPE_LEVEL, 0, -1).astype(np.int64)
    # whether each trial has been outside the set by the last step seen
    been_outside = ~started_in_set

    try:
        for k0, _, _, maxima in _chunks(model, theta, noise_streams, horizon):
            # the maxima of the states after steps k0 + 1 .. k0 + count
            step_max = maxima[1:]
            np.maximum(max_excursion, step_max.max(axis=0), out=max_excursion)
            inside = step_max <= gamma
            outside_by = np.logical_or.accumulate(~inside, axis=0) | been_outside
            # a return is a step inside after one outside, or the first
            # step inside for a trial that starts outside
            _record_first_hit(return_time, inside & outside_by, k0)
            _record_first_hit(escape_time, step_max >= ESCAPE_LEVEL, k0)
            been_outside = outside_by[-1]
    except _NonFinite as failure:
        return {}, (failure.step, failure.column)
    # a trial that never leaves the set returns at step 1
    return_time[~been_outside] = 1
    return {
        "started_in_set": started_in_set,
        "return_time": return_time,
        "max_excursion": max_excursion,
        "escape_time": escape_time,
    }, None


def _record_first_hit(times, hits, k0) -> None:
    """Set ``times[t]``, where it is still -1, to the step ``k0 + 1 +
    row`` of the first True in column ``t`` of ``hits``."""
    row = np.argmax(hits, axis=0)
    fresh = (times < 0) & hits[row, np.arange(hits.shape[1])]
    times[fresh] = k0 + 1 + row[fresh]


def _worker_count(trials: int, horizon: int) -> int:
    """Processes that step the trials of one recurrence run.

    One per CPU in this process's affinity mask, with at least
    ``_MIN_SLICE_TRIALS`` trials each; a single one when the run is below
    ``_MIN_FORK_WORK`` trial*steps, where there is no fork start method
    (or no affinity mask), and inside a worker process, so that workers
    never fork again.
    """
    slices = trials // _MIN_SLICE_TRIALS
    if (
        slices < 2
        or trials * horizon < _MIN_FORK_WORK
        or not hasattr(os, "sched_getaffinity")
    ):
        return 1
    # imported here, so that loading the package does not pay for it
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), slices)


def _run_forked(run, bounds):
    """``[run(lo, hi) for lo, hi in bounds]``: the first slice in this
    process, each other one in a forked worker that sends its result
    back through a pipe. Every worker is reaped before this returns or
    raises; an exception raised in a worker is raised here.

    Raises:
        NumericError: a worker could not be started or ended without
            sending its result (killed, for example, by the kernel when
            memory runs out).
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for lo, hi in bounds[1:]:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_worker, args=(send, run, lo, hi))
            try:
                process.start()
            except OSError as exc:
                receive.close()
                raise NumericError(f"cannot start a worker process: {exc}") from None
            finally:
                send.close()
            workers.append((process, receive, lo, hi))
        parts = [run(*bounds[0])]
        for process, receive, lo, hi in workers:
            try:
                failed, value = receive.recv()
            except EOFError:
                process.join()
                raise NumericError(
                    f"the worker stepping trials {lo}..{hi - 1} ended without "
                    f"a result (exit code {process.exitcode})"
                ) from None
            process.join()
            if failed:
                raise value
            parts.append(value)
        return parts
    finally:
        for process, receive, _, _ in workers:
            receive.close()
            if process.exitcode is None:
                process.kill()
                process.join()


def _worker(send, run, lo, hi) -> None:
    """Body of a forked worker: send ``(False, run(lo, hi))``, or
    ``(True, exception)`` for the parent to raise."""
    try:
        outcome = (False, run(lo, hi))
    except Exception as exc:  # raised again in the parent, as in one process
        outcome = (True, exc)
    send.send(outcome)
    send.close()


def drift_estimate(
    model: NetworkModel,
    state,
    gamma: float,
    noise_samples: int,
    stream: RandomStream,
) -> DriftEstimate:
    """Monte Carlo one-step drift of the drift function at ``state``.

    Averages ``V(step(state, noise)) - V(state)`` over fresh noise draws
    conditioned on the fixed state, with the standard error of the mean.

    Raises:
        NumericError: a stepped state is non-finite, as it is from a
            phase of magnitude 2**52 or more.
    """
    if noise_samples < 2:
        raise ValueError(f"need at least 2 noise samples, got {noise_samples}")
    gamma = validate_gamma(gamma)
    theta = _start_state(state)
    # without noise one draw (of zeros) is exact; averaging identical
    # values would only add rounding noise to the zero standard error
    deterministic = model.noise.is_deterministic
    draws = 1 if deterministic else noise_samples
    noise = sample_noise_block(model.noise, stream.child(purpose="drift"), 0, draws)
    # omega + noise, then the stepped states, in place: one column per draw
    frequency = np.add(noise, model.omega, out=noise).T[None]
    if _integrate(model, theta[:, None], frequency, frequency) is not None:
        raise NumericError("one step from the probed state is non-finite")
    v_next = drift_values(model.graph, noise, gamma)
    v_now = drift_values(model.graph, theta, gamma)
    spread = 0.0 if deterministic else np.std(v_next, ddof=1) / math.sqrt(draws)
    return DriftEstimate(
        theta=theta,
        gamma=gamma,
        estimate=float(np.mean(v_next) - v_now),
        stderr=float(spread),
        samples=noise_samples,
    )


def drift_sweep(
    model: NetworkModel,
    gamma: float,
    n_states: int,
    noise_samples: int,
    stream: RandomStream,
) -> list[DriftEstimate]:
    """Drift estimates at ``n_states`` states sampled uniformly from the
    annulus where every edge distance lies in ``[gamma, pi/2)``.

    This is the region where the recurrence argument requires a strictly
    negative drift; probing it systematically turns that requirement
    into a testable statement.

    Raises:
        NumericError: a step from a probed state is non-finite (the
            message names the probe).
    """
    if n_states < 0:
        raise ValueError(f"n_states must be nonnegative, got {n_states}")
    gamma = validate_gamma(gamma)
    sampler = edge_box_sampler(low=gamma, high=0.5 * math.pi)
    estimates = []
    for i in range(n_states):
        theta = sampler(model.graph, stream.child(trial=i, purpose="probe"))
        try:
            estimates.append(
                drift_estimate(
                    model, theta, gamma, noise_samples, stream.child(trial=i)
                )
            )
        except NumericError as exc:
            raise NumericError(f"probe {i}: {exc}") from exc
    return estimates
