"""Discrete-time stochastic Kuramoto oscillators on tree networks.

Simulation of the frequency-dependent and undirected coupling variants,
coupling-strength and sampling-period bounds for stochastic
phase-cohesiveness, and empirical recurrence / drift diagnostics, all on
reproducible counter-based random streams.
"""

__version__ = "0.1.0"

from .graph import TreeGraph, build_tree, edge_laplacian, incidence
from .linalg import weighted_edge_laplacian
from .noise import (
    DeltaOmegaEstimate,
    NodeNoise,
    NoiseSpec,
    RandomStream,
    e_max_delta_omega,
    folded_normal_mean,
)
from .dynamics import (
    NetworkModel,
    PhaseState,
    geodesic_distance,
    step,
    wrap_angle,
)
from .conditions import (
    BoundResult,
    SpectralStats,
    bounds,
    continuous_reference_kappa,
    mc_spectral_stats,
)
from .analysis import (
    DriftEstimate,
    RecurrenceStats,
    TrajectoryRecord,
    drift_estimate,
    drift_sweep,
    edge_box_sampler,
    fixed_initial,
    recurrence_experiment,
    simulate,
)

__all__ = [
    "__version__",
    "TreeGraph",
    "build_tree",
    "incidence",
    "edge_laplacian",
    "weighted_edge_laplacian",
    "NodeNoise",
    "NoiseSpec",
    "RandomStream",
    "DeltaOmegaEstimate",
    "folded_normal_mean",
    "e_max_delta_omega",
    "NetworkModel",
    "PhaseState",
    "wrap_angle",
    "geodesic_distance",
    "step",
    "SpectralStats",
    "BoundResult",
    "mc_spectral_stats",
    "bounds",
    "continuous_reference_kappa",
    "TrajectoryRecord",
    "RecurrenceStats",
    "DriftEstimate",
    "simulate",
    "recurrence_experiment",
    "drift_estimate",
    "drift_sweep",
    "fixed_initial",
    "edge_box_sampler",
]
