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

Phases live on the circle and are stored wrapped to ``(-pi, pi]``;
relative phases are wrapped signed differences and set membership uses
geodesic distance throughout. The neighbor sum is computed as
``B sin(B^T theta)``, which makes it independent of edge orientation.

Stepping is a pure function of ``(model, state, noise draw)``: the
caller supplies the disturbance vector, so conditional expectations can
re-draw noise for a fixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class NetworkModel:
    """Tree network with frequencies, noise, coupling and sampling period."""

    graph: TreeGraph
    omega: np.ndarray
    noise: NoiseSpec
    kappa: float
    tau: float
    variant: str = "frequency_dependent"

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        if omega.shape != (self.graph.n,):
            raise ValueError(
                f"omega shape {omega.shape} != node count {self.graph.n}"
            )
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        if self.noise.n != self.graph.n:
            raise ValueError(
                f"noise spec covers {self.noise.n} nodes, graph has {self.graph.n}"
            )
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.variant not in VARIANTS:
            raise ValueError(
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


@dataclass(frozen=True)
class PhaseState:
    """Phases of all oscillators at one step, wrapped to ``(-pi, pi]``."""

    theta: np.ndarray
    k: int = 0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError(f"theta must be 1-d, got shape {theta.shape}")
        if np.any(theta <= -np.pi) or np.any(theta > np.pi):
            raise ValueError("phases must already be wrapped to (-pi, pi]")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def wrapped(cls, theta, k: int = 0) -> "PhaseState":
        """Construct from arbitrary angles, wrapping them once."""
        return cls(wrap_angle(theta), k)


def step_theta(model: NetworkModel, theta: np.ndarray, noise_draw) -> np.ndarray:
    """Advance raw phase arrays one step; broadcasts over leading axes.

    ``theta`` and ``noise_draw`` have shape ``(..., n)``; the result is
    wrapped to ``(-pi, pi]``. A single state ``(n,)`` stepped under a
    batch of draws computes its coupling once.
    """
    theta = np.asarray(theta, dtype=float)
    drive = model.tau * (model.omega + noise_draw)
    n = model.graph.n
    if drive.shape != theta.shape:
        shape = np.broadcast_shapes(theta.shape, drive.shape)
        if theta.size != n:
            theta = np.broadcast_to(theta, shape)
        drive = np.broadcast_to(drive, shape)
    # node axis first, leading axes flattened into columns
    nodes = theta.reshape(-1, n).T
    out = np.empty(drive.shape)
    flat = out.reshape(-1, n).T
    drive = drive.reshape(-1, n).T
    _advance(
        model,
        nodes,
        _edge_differences(model, nodes),
        drive,
        flat,
        np.empty(nodes.shape),
        np.empty_like(flat),
        np.empty_like(flat, dtype=bool),
    )
    return out


def _edge_differences(model: NetworkModel, theta, out=None) -> np.ndarray:
    """``B^T theta`` for node-first ``theta``, edges in the order of
    ``model._incidence_blocks``. Exact: each edge row holds one +1 and
    one -1, so the difference is rounded once."""
    return np.matmul(model._incidence_blocks[0], theta, out=out)


def _advance(model, theta, rel, drive, out, coupling, scratch, mask) -> None:
    """The model equation: one step on node-first arrays, written to ``out``.

    ``theta`` is ``(n, c)`` with one state per column (``c`` may be 1
    and broadcast), ``rel`` holds :func:`_edge_differences` of ``theta``
    and is overwritten by its sine, ``drive`` is ``tau * (omega +
    noise)`` of ``out``'s shape ``(n, k)``, and ``out`` may be ``theta``
    itself. ``coupling`` has ``theta``'s shape; ``scratch`` and ``mask``
    have ``out``'s. This is the only integrator in the package:
    :func:`step_theta` and the batched recurrence loop both call it.
    """
    np.sin(rel, out=rel)
    (incidence, edges), *rest = model._incidence_blocks[1]
    np.matmul(incidence, rel[edges], out=coupling)
    for incidence, edges in rest:
        coupling += incidence @ rel[edges]
    if model.variant == "frequency_dependent":
        # theta + tau * realized * (1 - kappa * S)
        coupling *= model.kappa
        np.subtract(1.0, coupling, out=coupling)
        np.multiply(drive, coupling, out=scratch)
        np.add(theta, scratch, out=out)
    else:
        # theta + tau * realized - kappa * tau * S
        coupling *= model.kappa * model.tau
        np.add(theta, drive, out=out)
        np.subtract(out, coupling, out=out)
    _wrap_inplace(out, scratch, mask)


def step(model: NetworkModel, state: PhaseState, noise_draw) -> PhaseState:
    """One update of the network; pure in all of its inputs."""
    noise_draw = np.asarray(noise_draw, dtype=float)
    if noise_draw.shape != state.theta.shape:
        raise ValueError(
            f"noise draw shape {noise_draw.shape} != state shape {state.theta.shape}"
        )
    return PhaseState(step_theta(model, state.theta, noise_draw), state.k + 1)


def relative_phases(graph: TreeGraph, state: PhaseState | np.ndarray) -> np.ndarray:
    """Signed wrapped phase difference ``theta_tail - theta_head`` per edge."""
    theta = state.theta if isinstance(state, PhaseState) else np.asarray(state)
    return wrap_angle(theta[..., graph.tails] - theta[..., graph.heads])


def edge_geodesics(graph: TreeGraph, theta: np.ndarray) -> np.ndarray:
    """Geodesic distance across every edge; shape ``(..., m)``."""
    theta = np.asarray(theta, dtype=float)
    return geodesic_distance(theta[..., graph.tails], theta[..., graph.heads])


def max_relative_geodesic(graph: TreeGraph, state: PhaseState | np.ndarray) -> float:
    """Largest edge-wise geodesic distance of the state."""
    theta = state.theta if isinstance(state, PhaseState) else np.asarray(state)
    return float(np.max(edge_geodesics(graph, theta)))


def in_cohesion_set(
    graph: TreeGraph, state: PhaseState | np.ndarray, gamma: float
) -> bool:
    """Whether every edge-wise geodesic distance is at most ``gamma``."""
    gamma = validate_gamma(gamma)
    return bool(max_relative_geodesic(graph, state) <= gamma)


def drift_values(graph: TreeGraph, theta: np.ndarray, gamma: float) -> np.ndarray:
    """Drift function on raw phase arrays; broadcasts over leading axes."""
    return math.sin(gamma) * np.sum(edge_geodesics(graph, theta), axis=-1)


def drift_function_V(
    graph: TreeGraph, state: PhaseState | np.ndarray, gamma: float
) -> float:
    """Radially unbounded drift function ``sin(gamma) * sum of edge
    geodesic distances``; zero exactly on phase-locked states and
    invariant under global phase shifts."""
    gamma = validate_gamma(gamma)
    theta = state.theta if isinstance(state, PhaseState) else np.asarray(state)
    return float(drift_values(graph, theta, gamma))
