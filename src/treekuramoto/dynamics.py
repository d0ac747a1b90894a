"""Discrete-time stochastic Kuramoto dynamics on trees.

Two coupling variants share one integrator:

``frequency_dependent``
    theta_i(k+1) = theta_i(k)
                   + tau * (omega_i + n_i(k)) * (1 - kappa * S_i(k))

``undirected``
    theta_i(k+1) = theta_i(k) + tau * (omega_i + n_i(k))
                   - kappa * tau * S_i(k)

with ``S_i(k) = sum over neighbors j of sin(theta_i(k) - theta_j(k))``.
In the first variant every link is effectively weighted by the noisy
frequency of its head node; in the second all links share the constant
weight ``kappa``.

Phases live on the circle and are stored wrapped to ``(-pi, pi]``. Set
membership and the drift function use the geodesic distance across
each edge, and one fold, :func:`_fold`, takes it for every caller:
:func:`edge_geodesics` (and so :func:`drift_values`) and the kernel's
per-state maxima. It requires wrapped phases: their differences are at
most ``2 pi`` in magnitude, so the shorter arc needs no modulo.
:func:`geodesic_distance` is the general form, for arbitrary angles.
The neighbor sum is computed as ``B sin(B^T theta)``, which makes it
independent of edge orientation.

Stepping is a pure function of ``(model, state, noise draw)``: the
caller supplies the disturbance vector, so conditional expectations can
re-draw noise for a fixed state. :func:`step` steps one
:class:`PhaseState` under one draw.

One kernel, :func:`_integrate`, steps every caller, and it is the one
entry for stepping a batch: :func:`step` (one column for one step),
``analysis._chunks``, the one chunk loop of ``simulate`` and of the
recurrence batch (a whole noise chunk per call, one column per
trajectory), and ``analysis.drift_estimate`` (one probe under every
draw). Each caller hands it the noisy frequencies ``omega + noise``;
the kernel alone scales them by ``tau``, and it alone reports the first
non-finite state. It runs the steps in sub-blocks of up to 64. Model
constants are looked up once per call, and the per-step edge
differences ``B^T theta``, which the next step's coupling needs anyway,
are kept for the sub-block, so that their geodesic distances and
per-state maxima cost four numpy calls per sub-block, not per step.

Most steps are wrapped by :func:`_wrap_small`: two compares, and a
masked update only where one of them holds, in place of
:func:`wrap_angle`'s eight operations, with the same bits. It is exact
for ``|x| < 3 pi`` (see its docstring). The kernel uses it only for a
sub-block whose increments are provably below pi in magnitude:

* ``max|drive| * (1 + kappa * maxdeg) < pi`` (frequency-dependent),
* ``max|drive| + kappa * tau * maxdeg < pi`` (undirected),

with ``drive = tau * (omega + noise)`` and ``maxdeg`` the largest node
degree. Since ``|S_i| <= deg_i`` and rounding is monotone, the bound
holds for the computed increments too, and from a wrapped state the
pre-wrap value stays near ``2 pi`` at most, well inside ``3 pi``. This
is the paper's small-tau regime; other sub-blocks take the general
wrap. Every result is bitwise the one that :func:`wrap_angle` after
each step gives.

A phase of magnitude ``2**52`` or more has no phase left to wrap:
neighbouring floats there lie a radian or more apart, and from about
``2**56`` on :func:`wrap_angle` even leaves the value outside
``(-pi, pi]``. In a sub-block where the bound plus the largest start
phase (pi, after the first sub-block) is not below ``2**52``, the kernel
turns such a pre-wrap state into NaN, which every caller reports as a
non-finite state. Other sub-blocks cannot reach it and skip the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericError
from .graph import TreeGraph
from .noise import NoiseSpec

VARIANTS = ("frequency_dependent", "undirected")

TWO_PI = 2.0 * math.pi


def wrap_angle(x):
    """Wrap angles to the half-open interval ``(-pi, pi]``.

    Exact identity for inputs already in range (round-to-even maps the
    half-integer quotient at +pi to zero turns), so wrapping is
    idempotent bit for bit and zero-increment steps are exact fixed
    points.
    """
    x = np.array(x, dtype=float)
    return _wrap_inplace(x, np.empty_like(x), np.empty(x.shape, dtype=bool))


def _wrap_inplace(x, scratch, mask):
    """Wrap the float array ``x`` in place, exactly as :func:`wrap_angle`.

    ``scratch`` (float) and ``mask`` (bool) are work buffers of
    ``x``'s shape; returns ``x``.
    """
    np.divide(x, TWO_PI, out=scratch)
    np.rint(scratch, out=scratch)
    scratch *= TWO_PI
    x -= scratch
    np.greater(x, np.pi, out=mask)
    np.subtract(x, TWO_PI, out=x, where=mask)
    np.less_equal(x, -np.pi, out=mask)
    np.add(x, TWO_PI, out=x, where=mask)
    return x


def _wrap_small(x, mask):
    """Wrap ``x`` in place to ``(-pi, pi]`` by adding or subtracting
    ``2 pi`` at most once; ``mask`` is a bool work buffer of ``x``'s
    shape. Returns ``x``.

    For ``|x| < 3 pi`` this gives the same bits as :func:`wrap_angle`,
    which subtracts ``q * 2 pi`` with ``q = rint(x / 2 pi)`` in
    ``{-2, ..., 2}`` and then corrects by ``2 pi`` once. Every step of
    both is exact: ``q * 2 pi`` is, and by the Sterbenz lemma so is each
    subtraction of ``2 pi`` or ``4 pi`` from an ``x`` of at least half
    its size. Both therefore return the exact ``x - k * 2 pi`` that lies
    in ``(-pi, pi]``, and only one integer ``k`` puts it there; the ties
    ``x / 2 pi = +-0.5`` (``x = +-pi``) agree too. The one exception is
    ``-0.0``: :func:`wrap_angle` turns it into ``+0.0``, this function
    keeps it.
    """
    if np.count_nonzero(np.greater(x, np.pi, out=mask)):
        np.subtract(x, TWO_PI, out=x, where=mask)
    if np.count_nonzero(np.less_equal(x, -np.pi, out=mask)):
        np.add(x, TWO_PI, out=x, where=mask)
    return x


def geodesic_distance(a, b):
    """Shortest arc length between two angles, in ``[0, pi]``."""
    delta = np.mod(np.abs(np.asarray(a, dtype=float) - b), TWO_PI)
    return np.minimum(delta, TWO_PI - delta)


def validate_gamma(gamma: float) -> float:
    """Cohesion half-width: strictly inside ``(0, pi/2)``."""
    gamma = float(gamma)
    if not 0.0 < gamma < 0.5 * math.pi:
        raise ValueError(f"gamma must lie strictly in (0, pi/2), got {gamma}")
    return gamma


class InvalidModel(ConfigError, ValueError):
    """Model inputs that do not fit together or lie out of range."""


@dataclass(frozen=True)
class NetworkModel:
    """Tree network with frequencies, noise, coupling and sampling period.

    Raises:
        InvalidModel: ``omega`` or ``noise`` does not cover the graph's
            nodes, ``kappa`` or ``tau`` is not positive, or ``variant``
            is unknown.
    """

    graph: TreeGraph
    omega: np.ndarray
    noise: NoiseSpec
    kappa: float
    tau: float
    variant: str = "frequency_dependent"

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        if omega.shape != (self.graph.n,):
            raise InvalidModel(
                f"omega shape {omega.shape} != node count {self.graph.n}"
            )
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        if self.noise.n != self.graph.n:
            raise InvalidModel(
                f"noise spec covers {self.noise.n} nodes, graph has {self.graph.n}"
            )
        if not self.kappa > 0:
            raise InvalidModel(f"kappa must be positive, got {self.kappa}")
        if not self.tau > 0:
            raise InvalidModel(f"tau must be positive, got {self.tau}")
        if self.variant not in VARIANTS:
            raise InvalidModel(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )

    @cached_property
    def _incidence_blocks(self) -> tuple[np.ndarray, tuple]:
        """``(B^T, blocks)`` with the edges reordered into consecutive
        blocks in which every node meets at most two edges, and
        ``blocks`` the ``(B columns, edge slice)`` pair of each block.

        Within a block a node's neighbor sum has at most two terms and so
        one rounding, whatever order BLAS sums in for the batch shape at
        hand; the blocks are then added in a fixed order. One step is
        therefore bitwise the same for a single state and inside any
        batch. Trees without a node of degree three or more (paths) form
        a single block in the original edge order.
        """
        graph = self.graph
        load: list[list[int]] = []
        members: list[list[int]] = []
        for e, (tail, head) in enumerate(graph.edges):
            for b, counts in enumerate(load):
                if counts[tail] < 2 and counts[head] < 2:
                    break
            else:
                b = len(load)
                load.append([0] * graph.n)
                members.append([])
            load[b][tail] += 1
            load[b][head] += 1
            members[b].append(e)
        order = np.concatenate(members)
        incidence = np.ascontiguousarray(graph.incidence_matrix[:, order])
        blocks, start = [], 0
        for block in members:
            edges = slice(start, start + len(block))
            blocks.append((incidence[:, edges], edges))
            start = edges.stop
        return np.ascontiguousarray(incidence.T), tuple(blocks)

    @cached_property
    def _max_degree(self) -> float:
        """Most edges at one node; bounds every coupling sum's magnitude."""
        return float(np.abs(self.graph.incidence_matrix).sum(axis=1).max())


@dataclass(frozen=True)
class PhaseState:
    """Phases of all oscillators at one step, wrapped to ``(-pi, pi]``."""

    theta: np.ndarray
    k: int = 0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError(f"theta must be 1-d, got shape {theta.shape}")
        # NaN fails both comparisons
        if not np.all((theta > -np.pi) & (theta <= np.pi)):
            raise ValueError("phases must already be wrapped to (-pi, pi]")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def wrapped(cls, theta, k: int = 0) -> "PhaseState":
        """Construct from arbitrary angles, wrapping them once."""
        return cls(wrap_angle(theta), k)


#: Most steps, and most words of edge differences, in one sub-block of
#: :func:`_integrate`.
_SUB_STEPS = 64
_SUB_WORDS = 1 << 16

#: Pre-wrap magnitude from which a phase is unresolved (floats a radian
#: or more apart); :func:`_integrate` makes such a state NaN.
_UNRESOLVED = 2.0**52


def _integrate(model, theta, frequency, out, step_max=None):
    """The model equation, stepped once per row of ``frequency``. This is
    the only integrator in the package and the one entry for stepping a
    batch of states: :func:`step` (one column, one step), the chunk loop
    of ``simulate`` and the recurrence batch, and the drift probes all
    call it.

    ``theta`` ``(n, c)`` holds one start state per column, ``frequency``
    ``(steps, n, w)`` holds ``omega + noise`` of each step, and ``out``
    of the same shape receives the state after each step. The kernel
    writes ``tau * frequency`` into ``out`` one sub-block at a time and
    steps it there, so ``out`` may be ``frequency`` itself. ``c`` is
    ``w``, or 1 for one state under ``w`` draws, whose first coupling is
    then computed once. ``step_max`` ``(steps, w)``, if given, receives
    the largest edge geodesic distance of every state in ``out``.

    Returns ``None``, or ``(j, column)`` of the earliest non-finite state
    (the lowest column at that step): row ``j`` of ``out``, the state
    after ``j + 1`` steps. It checks once per sub-block, on ``step_max``
    when that is given and on the states otherwise, and stops stepping
    at the end of the sub-block that failed; later rows of ``out`` are
    then left as they were.

    The steps run in sub-blocks of at most ``_SUB_STEPS``. Per step,
    ``B^T theta`` goes to one row of a sub-block buffer, and the geodesic
    distances and their maxima are taken once over the whole sub-block.
    A sub-block whose increments are provably below pi in magnitude is
    wrapped by :func:`_wrap_small`, which gives the same bits as
    :func:`wrap_angle` in half the numpy calls; any other sub-block (and
    the first, if a start state lies outside ``[-pi, pi]`` or is -0.0)
    is wrapped by :func:`_wrap_inplace`. A sub-block that may reach
    ``_UNRESOLVED`` first turns every state of that magnitude into NaN.
    """
    incidence_t, blocks = model._incidence_blocks
    steps, n, width = out.shape
    m = incidence_t.shape[0]
    sub = max(1, min(_SUB_STEPS, steps, _SUB_WORDS // (m * width)))
    rel = np.empty((sub, m, width))
    folded = np.empty_like(rel) if step_max is not None else None
    sines = np.empty((m, width))
    coupling = np.empty((n, width))
    # in the states' memory order, which the drift probes' transposed
    # view makes Fortran order: mixed orders would slow every wrap down
    scratch = np.empty_like(out[0])
    mask = np.empty_like(out[0], dtype=bool)
    (first, first_edges), *rest = blocks
    # np.dot with out= skips matmul's dispatch; both are exact here
    sin, dot, multiply, subtract, add = (
        np.sin, np.dot, np.multiply, np.subtract, np.add
    )
    frequency_dependent = model.variant == "frequency_dependent"
    # Python floats: an overflowing bound is inf, without a warning
    degree = model._max_degree
    if frequency_dependent:
        gain = float(model.kappa)
        # |tau (omega + noise) (1 - kappa S)| <= |drive| (1 + kappa deg)
        growth, offset = 1.0 + gain * degree, 0.0
    else:
        gain = float(model.kappa) * float(model.tau)
        # |tau (omega + noise) - kappa tau S| <= |drive| + kappa tau deg
        growth, offset = 1.0, gain * degree

    def factor(rel_now, sines, coupling):
        """1 - kappa S (frequency dependent) or kappa tau S (undirected)."""
        sin(rel_now, out=sines)
        dot(first, sines[first_edges], out=coupling)
        for incidence, edges in rest:
            coupling += incidence @ sines[edges]
        multiply(coupling, gain, out=coupling)
        if frequency_dependent:
            subtract(1.0, coupling, out=coupling)
        return coupling

    # the start states' coupling, at their own width
    c = theta.shape[1]
    current = factor(incidence_t @ theta, np.empty((m, c)), np.empty((n, c)))
    # _wrap_small needs |theta| <= pi, and would keep a -0.0; every
    # wrapped state after the first step has both properties
    reach = float(np.abs(theta).max())
    small = reach <= np.pi and not np.any(np.signbit(theta[theta == 0.0]))
    previous = theta
    last = steps - 1
    tau = float(model.tau)
    for j0 in range(0, steps, sub):
        count = min(sub, steps - j0)
        # tau * (omega + noise); each row becomes its state in place
        block = multiply(frequency[j0 : j0 + count], tau, out=out[j0 : j0 + count])
        # NaN fails the comparison, and so does an overflow to inf
        bound = max(float(block.max()), -float(block.min())) * growth + offset
        fast = small and bound < np.pi
        # every pre-wrap state lies within reach + bound
        unresolved = not reach + bound < _UNRESOLVED
        small, reach = True, np.pi
        for j in range(j0, j0 + count):
            state = out[j]
            if frequency_dependent:
                # theta + tau * frequency * (1 - kappa * S)
                multiply(state, current, out=state)
                add(previous, state, out=state)
            else:
                # theta + tau * frequency - kappa * tau * S
                add(previous, state, out=state)
                subtract(state, current, out=state)
            if fast:
                _wrap_small(state, mask)
            else:
                if unresolved:
                    state[np.abs(state) >= _UNRESOLVED] = np.nan
                _wrap_inplace(state, scratch, mask)
            previous = state
            if j == last and step_max is None:
                break
            rel_now = dot(incidence_t, state, out=rel[j - j0])
            if j != last:
                current = factor(rel_now, sines, coupling)
        if step_max is not None:
            distance = _fold(rel[:count], folded[:count])
            np.maximum.reduce(distance, axis=1, out=step_max[j0 : j0 + count])
        checked = block if step_max is None else step_max[j0 : j0 + count, None]
        finite = np.isfinite(checked).all(axis=1)
        if not finite.all():
            j, column = np.argwhere(~finite)[0]
            return j0 + int(j), int(column)
    return None


def step(model: NetworkModel, state: PhaseState, noise_draw) -> PhaseState:
    """One update of the network under ``noise_draw``, one disturbance
    per node; pure in all of its inputs.

    Raises:
        ValueError: ``noise_draw`` is not of the state's shape.
        NumericError: the stepped phases are non-finite.
    """
    noise_draw = np.asarray(noise_draw, dtype=float)
    if noise_draw.shape != state.theta.shape:
        raise ValueError(
            f"noise draw shape {noise_draw.shape} != state shape {state.theta.shape}"
        )
    # omega + noise, stepped in place into the next state: one column
    theta = np.add(model.omega, noise_draw)
    column = theta[None, :, None]
    if _integrate(model, state.theta[:, None], column, column) is not None:
        raise NumericError(f"phases became non-finite at step {state.k + 1}")
    return PhaseState(theta, state.k + 1)


def _fold(delta, out=None):
    """Geodesic distances of the edge differences ``delta`` of wrapped
    phases, ``min(|delta|, 2 pi - |delta|)``, into ``out``; ``delta`` is
    left holding ``|delta|``.

    For phases in ``(-pi, pi]``, ``|delta|`` is below ``2 pi`` or rounds
    to exactly ``2 pi``, where the modulo in :func:`geodesic_distance`
    returns its input or zero; either way the results are the same bits.
    """
    np.absolute(delta, out=delta)
    out = np.subtract(TWO_PI, delta, out=out)
    return np.minimum(delta, out, out=out)


def edge_geodesics(graph: TreeGraph, theta: np.ndarray) -> np.ndarray:
    """Geodesic distance across every edge of wrapped phases ``theta``;
    shape ``(..., m)``, in C order whatever the order of ``theta``, so
    that a sum over the edges of a batch row has the same bits as the
    sum for that state alone. Angles outside ``(-pi, pi]`` need
    :func:`geodesic_distance`."""
    theta = np.asarray(theta, dtype=float)
    delta = np.take(theta, graph.tails, axis=-1)
    delta -= np.take(theta, graph.heads, axis=-1)
    return _fold(delta)


def drift_values(graph: TreeGraph, theta: np.ndarray, gamma: float) -> np.ndarray:
    """Drift function ``V = sin(gamma) * sum of edge geodesic distances``
    of wrapped phases; broadcasts over leading axes. It is zero exactly on
    phase-locked states and invariant under global phase shifts."""
    return math.sin(gamma) * np.sum(edge_geodesics(graph, theta), axis=-1)
