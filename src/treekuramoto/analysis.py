"""Empirical verification of stochastic phase-cohesiveness.

Three instruments, of which the first two share one stepping loop,
:func:`_chunks`. It reads the noise of one generator per trial through
``noise._NoiseReader`` a chunk at a time, steps the chunk with one call
of the integrator kernel ``dynamics._integrate`` and yields the chunk's
states, per-state largest edge distances (the kernel takes those once
per sub-block) and, for a trajectory, its frequencies. A recurrence
chunk needs no frequencies: its noise is read into its state rows and
stepped in place there. All of a chunk's buffers together span
``_MAX_BLOCK_WORDS`` noise words (1 MiB), raised toward one kernel
sub-block (64 steps) as far as ``_MAX_FLOOR_WORDS`` words allow, so
they stay bounded however long the horizon.

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
across workers. Large recurrence runs and drift sweeps split their
trials or probes into contiguous ranges, one per CPU this process may
run on, and fork a worker process for each range but the first, in one
call of ``_fork.forked_map`` each, which keeps a run that reads less
than ``_fork._MIN_FORK_BYTES`` of noise words in one process. The
results record the count that ran
(``RecurrenceStats.workers``, ``DriftSweep.workers``). Drift estimates
take their means and standard errors from ``noise._mean_and_stderr``,
the package's one Monte Carlo estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fork
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
from .noise import (
    RandomStream,
    _NoiseReader,
    _mean_and_stderr,
    _words_per_step,
    sample_noise_block,
)

#: States whose largest edge distance reaches ``ESCAPE_LEVEL = pi/2 -
#: ESCAPE_TOLERANCE`` are flagged as escaped: beyond that the
#: cohesiveness analysis regime no longer applies.
ESCAPE_TOLERANCE = 1e-9
ESCAPE_LEVEL = 0.5 * math.pi - ESCAPE_TOLERANCE

#: Largest edge distance of an admissible start state: pi/2, with room
#: for the rounding of wrapping the phases and taking their differences.
ADMISSIBLE_LEVEL = 0.5 * math.pi + 1e-12

#: Fewest trials per worker. A step's numpy dispatch costs about as much
#: as stepping 20 line5 trials, and every worker pays it, so narrow
#: slices gain little over one batch. Measured on line5 (median of 10
#: alternating pairs, 30 000 steps, 2 CPUs), two processes took 0.99x
#: the time of one at 2 x 5 trials, 0.91x at 2 x 8 and 0.80x at 2 x 16.
_MIN_SLICE_TRIALS = 16

#: Noise words' worth of doubles that all the buffers of one chunk hold
#: together: 1 MiB (the floor below aside). A recurrence chunk steps in
#: its states alone and gets all of it; a trajectory chunk also keeps
#: its frequencies, and each of its two buffers gets half.
_MAX_BLOCK_WORDS = 1 << 17

#: Fewest steps in a chunk, as far as ``_MAX_FLOOR_WORDS`` noise words
#: over all its buffers allow: each chunk pays a kernel call and the set
#: bookkeeping. Without it a 200-node tree at 100 trials gets 3-step
#: chunks; at 6 steps a trial*step took 1.13 times as long as at 64
#: (median of 8 alternating runs, 2 vCPUs). The cap keeps 64 steps of a
#: wide slice from taking 1 GB (200 nodes, 5 000 trials).
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
    def returned_before_escape(self) -> np.ndarray:
        """Flags of the trials that returned before any escape. A trial
        that slips past pi/2 can re-enter the set on the far side; its
        return then follows its escape and is not counted here."""
        return self.returned & (
            (self.escape_time < 0) | (self.return_time < self.escape_time)
        )

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


class DriftSweep(list):
    """The :class:`DriftEstimate` of each probe of :func:`drift_sweep`, in
    probe order. ``workers`` is the number of processes that probed
    them; it affects no estimate, and list equality ignores it."""

    def __init__(self, estimates, workers: int):
        super().__init__(estimates)
        self.workers = workers


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
        model, theta0[:, None], [noise_stream], horizon, frequencies=True
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
    forked worker processes step the others (see ``_fork``): from
    ``_fork._MIN_FORK_BYTES`` of noise words on, 8 bytes for each of
    ``noise._words_per_step(n)`` words a trial*step, with at least
    ``_MIN_SLICE_TRIALS`` trials per slice. Per-trial stream coordinates
    make the result independent of the batch, chunk and slice sizes, so
    it is bit-identical at every worker count;
    ``RecurrenceStats.workers`` records the count.

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

    trial_bytes = 8 * _words_per_step(n) * horizon
    ran = _fork.forked_map(
        run, "stepping trials", trials, trial_bytes, _MIN_SLICE_TRIALS
    )

    # the error a single batch raises: earliest step, then lowest trial
    failures = [
        (first[0], lo + first[1]) for (lo, _), (_, first) in ran if first is not None
    ]
    if failures:
        step, t = min(failures)
        raise NumericError(f"trial {t} has non-finite phases at step {step}")
    return RecurrenceStats(
        trials=trials,
        gamma=gamma,
        horizon=horizon,
        workers=len(ran),
        **{
            name: np.concatenate([fields[name] for _, (fields, _) in ran])
            for name in ran[0][1][0]
        },
    )


def _chunk_steps(n: int, width: int, buffers: int = 1) -> int:
    """Steps per noise chunk of ``width`` trajectories on ``n`` nodes
    held in ``buffers`` buffers: ``_MAX_BLOCK_WORDS`` noise words over
    all of them, raised toward ``_MIN_CHUNK_STEPS`` as far as
    ``_MAX_FLOOR_WORDS`` words allow."""
    words = _words_per_step(n) * width * buffers
    floor = min(_MIN_CHUNK_STEPS, _MAX_FLOOR_WORDS // words)
    return max(1, floor, _MAX_BLOCK_WORDS // words)


def _chunks(model, theta, noise_streams, horizon, frequencies=False):
    """Step the trials-minor batch ``theta`` ``(n, width)`` for
    ``horizon`` steps, column ``t`` driven by ``noise_streams[t]``, one
    noise chunk of :func:`_chunk_steps` steps and one kernel call at a
    time.

    Yields ``(k0, states, frequency, maxima)`` for each chunk of
    ``count`` steps: ``states`` ``(count + 1, n, width)`` holds the
    states at steps ``k0 .. k0 + count`` and ``maxima``
    ``(count + 1, width)`` their largest edge geodesic distances. The
    last state row starts the next chunk. With ``frequencies``,
    ``frequency`` ``(count, n, width)`` holds ``omega + noise`` of steps
    ``k0 .. k0 + count - 1``, so state row ``j`` starts the step that
    frequency row ``j`` drives. Without, it is ``None``: the noise is
    read into the state rows and stepped in place there, so the chunk
    holds one buffer, not two, and the budget gives it twice the steps.
    All of them are buffers that the next chunk overwrites.

    Raises:
        _NonFinite: a state became non-finite; stepping stops at the end
            of that chunk, which is not yielded.
    """
    n, width = theta.shape
    chunk = min(horizon, _chunk_steps(n, width, 2 if frequencies else 1))
    states = np.empty((chunk + 1, n, width))
    maxima = np.empty((chunk + 1, width))
    frequency_buffer = np.empty((chunk, n, width)) if frequencies else None
    states[0] = theta
    maxima[0] = edge_geodesics(model.graph, theta.T).max(axis=-1)
    omega = model.omega[:, None]
    noise = _NoiseReader(model.noise, noise_streams)
    for k0 in range(0, horizon, chunk):
        count = min(chunk, horizon - k0)
        stepped = states[1 : count + 1]
        frequency = frequency_buffer[:count] if frequencies else stepped
        noise.read(frequency)
        frequency += omega
        failure = _integrate(
            model, states[0], frequency, stepped, maxima[1 : count + 1]
        )
        if failure is not None:
            raise _NonFinite(k0 + failure[0] + 1, failure[1])
        kept = frequency if frequencies else None
        yield k0, states[: count + 1], kept, maxima[: count + 1]
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


def drift_estimate(
    model: NetworkModel,
    state,
    gamma: float,
    noise_samples: int,
    stream: RandomStream,
) -> DriftEstimate:
    """Monte Carlo one-step drift of the drift function at ``state``.

    Averages ``V(step(state, noise)) - V(state)`` over fresh noise draws
    conditioned on the fixed state, with the standard error of the mean
    (``noise._mean_and_stderr``). Without noise one draw is exact, and
    its standard error is 0.

    Raises:
        NumericError: a stepped state is non-finite, as it is from a
            phase of magnitude 2**52 or more.
    """
    if noise_samples < 2:
        raise ValueError(f"need at least 2 noise samples, got {noise_samples}")
    gamma = validate_gamma(gamma)
    theta = _start_state(state)
    # without noise one draw (of zeros) is exact, with a zero standard error
    draws = 1 if model.noise.is_deterministic else noise_samples
    noise = sample_noise_block(model.noise, stream.child(purpose="drift"), 0, draws)
    # omega + noise, then the stepped states, in place: one column per draw
    frequency = np.add(noise, model.omega, out=noise).T[None]
    if _integrate(model, theta[:, None], frequency, frequency) is not None:
        raise NumericError("one step from the probed state is non-finite")
    v_next = drift_values(model.graph, noise, gamma)
    mean, stderr = _mean_and_stderr(v_next)
    return DriftEstimate(
        theta=theta,
        gamma=gamma,
        estimate=float(mean - drift_values(model.graph, theta, gamma)),
        stderr=stderr,
        samples=noise_samples,
    )


def drift_sweep(
    model: NetworkModel,
    gamma: float,
    n_states: int,
    noise_samples: int,
    stream: RandomStream,
) -> DriftSweep:
    """Drift estimates at ``n_states`` states sampled uniformly from the
    annulus where every edge distance lies in ``[gamma, pi/2)``.

    This is the region where the recurrence argument requires a strictly
    negative drift; probing it systematically turns that requirement
    into a testable statement.

    Large sweeps split the probes into contiguous ranges, one per CPU
    this process may run on, once they read at least
    ``_fork._MIN_FORK_BYTES`` of noise words in all (8 bytes for each of
    ``noise._words_per_step(n)`` words a draw): this process probes the
    first range and forked workers the others (see ``_fork``). Probe
    ``i`` samples its state from ``stream.child(trial=i,
    purpose="probe")`` and its draws from ``stream.child(trial=i)``, so
    the estimates are bit-identical at every worker count;
    ``DriftSweep.workers`` records the count.

    Raises:
        NumericError: a step from a probed state is non-finite (the
            message names the probe, the lowest one that fails), or a
            worker process ended without a result.
    """
    if n_states < 0:
        raise ValueError(f"n_states must be nonnegative, got {n_states}")
    gamma = validate_gamma(gamma)
    sampler = edge_box_sampler(low=gamma, high=0.5 * math.pi)

    def run(lo: int, hi: int) -> list[DriftEstimate]:
        estimates = []
        for i in range(lo, hi):
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

    draws = 1 if model.noise.is_deterministic else noise_samples
    probe_bytes = 8 * _words_per_step(model.graph.n) * draws
    ran = _fork.forked_map(run, "stepping probes", n_states, probe_bytes)
    return DriftSweep((estimate for _, part in ran for estimate in part), len(ran))
