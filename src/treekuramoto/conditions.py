"""Coupling-strength and sampling-period bounds for stochastic
phase-cohesiveness, plus the Monte Carlo spectral statistics they need.

For the frequency-dependent variant the governing quantities are the
expected extreme eigenvalues of the randomly weighted edge Laplacian
``B^T diag(omega + n(k)) B``; recurrence of the relative-phase chain is
guaranteed by

    kappa > ((1 - sin g) * pi / (2 tau) + gap) / (sin(g)^2 * E[lambda_min])
    tau   < ((1 + sin g) * g) / (kappa * E[lambda_max] + gap)

where ``g`` is the cohesion half-width and ``gap`` the largest expected
absolute disturbed-frequency difference. The kappa condition is
sufficient and the tau condition necessary; both are open inequalities
and are reported as strict bounds, never as safe equalities. The
undirected variant uses the deterministic spectrum of ``B^T B`` instead
of an expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .dynamics import validate_gamma
from .graph import TreeGraph, edge_laplacian
from .linalg import NoConvergence, batch_eigenvalues, weighted_edge_laplacian
from .noise import NoiseSpec, RandomStream, _NoiseReader, _words_per_step

#: Default cohesion half-width when the caller does not choose one.
DEFAULT_GAMMA = 0.5 * math.pi - 0.05

#: Default Monte Carlo sample count for spectral statistics.
DEFAULT_SPECTRAL_SAMPLES = 100_000

#: Bytes one Monte Carlo batch may take, counting each sample's ``m x m``
#: Laplacian and its noise words, so memory stays bounded at any sample
#: count. 512 KiB is the smallest power of two that holds one Laplacian
#: of a 200-node tree; besides its eigensolves a batch costs about 75 us
#: at 50 nodes, so smaller batches would buy little memory for their time.
_CHUNK_BYTES = 512 * 2**10


class HypothesisViolated(NumericError):
    """E[lambda_min] is not strictly positive; the kappa bound is undefined."""


class NonPositiveEigenvalue(NumericError):
    """A spectral quantity required to be positive is not."""


@dataclass(frozen=True)
class SpectralStats:
    """Monte Carlo estimates of the extreme eigenvalue expectations."""

    e_lambda_min: float
    e_lambda_max: float
    stderr_min: float
    stderr_max: float
    samples: int

    def __post_init__(self):
        if self.e_lambda_min > self.e_lambda_max:
            raise ValueError("e_lambda_min exceeds e_lambda_max")
        if self.stderr_min < 0 or self.stderr_max < 0:
            raise ValueError("standard errors must be nonnegative")


@dataclass(frozen=True)
class BoundResult:
    """Evaluated bounds for one variant at one cohesion half-width.

    ``kappa_min`` is the sufficient lower coupling bound at the given
    ``tau``; ``tau_max`` the necessary upper sampling-period bound at
    the given ``kappa`` (or at ``kappa_min`` itself when no kappa was
    supplied). Whichever input was absent leaves the matching field
    ``None``.
    """

    kappa_min: float | None
    tau_max: float | None
    gamma: float
    e_max_delta_omega: float
    variant: str
    tau: float | None = None
    kappa: float | None = None


def mc_spectral_stats(
    graph: TreeGraph,
    omega,
    noise: NoiseSpec,
    n_samples: int = DEFAULT_SPECTRAL_SAMPLES,
    stream: RandomStream | None = None,
) -> SpectralStats:
    """Estimate ``E[lambda_min]`` and ``E[lambda_max]`` of the weighted
    edge Laplacian under ``n_samples`` disturbance draws.

    Each draw weights the edge Laplacian with ``omega + n``; extreme
    eigenvalues are averaged with their sample standard errors. Samples
    are addressed by index on the stream, so any evaluation order (or
    concurrent evaluation) yields the identical result; a fully
    deterministic spec short-circuits to the exact eigenvalues.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    omega = np.asarray(omega, dtype=float)

    if noise.is_deterministic:
        ev = batch_eigenvalues(weighted_edge_laplacian(graph, omega))
        return SpectralStats(float(ev[0]), float(ev[-1]), 0.0, 0.0, n_samples)

    if stream is None:
        raise ValueError("stochastic spectral statistics require a stream")
    reader = _NoiseReader(noise, [stream.child(purpose="spectral")])
    lam_min = np.empty(n_samples)
    lam_max = np.empty(n_samples)
    chunk = max(1, _CHUNK_BYTES // (8 * (graph.m**2 + _words_per_step(noise.n))))
    block = np.empty((min(chunk, n_samples), noise.n, 1))
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        reader.read(block[:count])
        try:
            ev = batch_eigenvalues(
                weighted_edge_laplacian(graph, omega + block[:count, :, 0])
            )
        except NoConvergence as exc:
            raise NoConvergence(
                f"eigensolver failed at sample {start + exc.batch_index}: {exc}",
                batch_index=start + exc.batch_index,
            ) from exc
        lam_min[start : start + count] = ev[:, 0]
        lam_max[start : start + count] = ev[:, -1]

    e_lambda_min, stderr_min = _mean_and_stderr(lam_min)
    e_lambda_max, stderr_max = _mean_and_stderr(lam_max)
    return SpectralStats(e_lambda_min, e_lambda_max, stderr_min, stderr_max, n_samples)


def _mean_and_stderr(x: np.ndarray) -> tuple[float, float]:
    """Mean of the samples ``x`` and its standard error (0 for one sample).

    Both are taken on ``x`` scaled by the power of two of its largest
    magnitude, and scaled back. A power of two scales exactly as long as
    no scaled value is subnormal, so the results have the bits of
    ``np.mean`` and ``np.std`` of ``x``, except that their running sums
    no longer overflow for samples near the largest double.
    """
    _, exponent = np.frexp(np.max(np.abs(x)))
    scaled = np.ldexp(x, -exponent)
    mean = np.ldexp(np.mean(scaled), exponent)
    if len(x) < 2:
        return float(mean), 0.0
    spread = np.ldexp(np.std(scaled, ddof=1), exponent) / math.sqrt(len(x))
    return float(mean), float(spread)


def _evaluate_bounds(
    lam_min: float,
    lam_max: float,
    e_max_dw: float,
    gamma: float,
    tau: float | None,
    kappa: float | None,
    variant: str,
) -> BoundResult:
    gamma = validate_gamma(gamma)
    if tau is None and kappa is None:
        raise ValueError("supply tau (for kappa_min), kappa (for tau_max) or both")
    if tau is not None and not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if kappa is not None and not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if e_max_dw < 0:
        raise ValueError(f"gap expectation must be nonnegative, got {e_max_dw}")

    # numpy scalars: a subnormal gamma whose sin(gamma)**2 underflows
    # gives an infinite kappa_min for the caller to reject, not a
    # ZeroDivisionError
    sin_g = np.float64(math.sin(gamma))
    kappa_min = None
    if tau is not None:
        kappa_min = ((1.0 - sin_g) * math.pi / (2.0 * tau) + e_max_dw) / (
            sin_g * sin_g * lam_min
        )
    kappa_eff = kappa if kappa is not None else kappa_min
    denominator = kappa_eff * lam_max + e_max_dw
    # an overflow would report tau_max as 0.0, a bound no tau meets
    if not math.isfinite(denominator):
        raise NumericError(
            "tau_max's denominator kappa * lambda_max + gap is not finite "
            f"({denominator})"
        )
    tau_max = (1.0 + sin_g) * gamma / denominator
    return BoundResult(
        kappa_min=kappa_min,
        tau_max=tau_max,
        gamma=gamma,
        e_max_delta_omega=e_max_dw,
        variant=variant,
        tau=tau,
        kappa=kappa,
    )


def bounds_frequency_dependent(
    stats: SpectralStats,
    e_max_dw: float,
    gamma: float = DEFAULT_GAMMA,
    tau: float | None = None,
    kappa: float | None = None,
) -> BoundResult:
    """Bounds for the frequency-dependent variant.

    Requires ``stats.e_lambda_min > 0``; with an indefinite expected
    spectrum the sufficient coupling bound is meaningless.

    Raises:
        HypothesisViolated: ``E[lambda_min] <= 0``.
    """
    if not stats.e_lambda_min > 0:
        raise HypothesisViolated(
            f"E[lambda_min] = {stats.e_lambda_min} is not strictly positive"
        )
    return _evaluate_bounds(
        stats.e_lambda_min,
        stats.e_lambda_max,
        e_max_dw,
        gamma,
        tau,
        kappa,
        "frequency_dependent",
    )


def bounds_undirected(
    graph: TreeGraph,
    e_max_dw: float,
    gamma: float = DEFAULT_GAMMA,
    tau: float | None = None,
    kappa: float | None = None,
) -> BoundResult:
    """Bounds for the undirected constant-coupling variant.

    Uses the deterministic extreme eigenvalues of the edge Laplacian,
    which is positive definite on every tree - no expectation and no
    positivity hypothesis is involved.
    """
    ev = batch_eigenvalues(edge_laplacian(graph))
    return _evaluate_bounds(
        float(ev[0]), float(ev[-1]), e_max_dw, gamma, tau, kappa, "undirected"
    )


def continuous_reference_kappa(
    omega, graph: TreeGraph, gamma: float = DEFAULT_GAMMA
) -> float:
    """Deterministic continuous-time reference bound on the coupling.

    For a noise-free network with strictly positive frequencies the
    continuous-time flow is phase-cohesive once
    ``kappa > (omega_max - omega_min) / (lambda_min(B^T diag(omega) B) * sin(gamma))``;
    this is the comparison point for the stochastic sufficient bound.

    Raises:
        NonPositiveEigenvalue: the weighted edge Laplacian is not
            positive definite (some frequency is too small or negative).
    """
    gamma = validate_gamma(gamma)
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise NonPositiveEigenvalue(
            "reference bound assumes strictly positive frequencies"
        )
    ev = batch_eigenvalues(weighted_edge_laplacian(graph, omega))
    lam_min = float(ev[0])
    if lam_min <= 0:
        raise NonPositiveEigenvalue(f"lambda_min = {lam_min} is not positive")
    spread = float(np.max(omega) - np.min(omega))
    return spread / (lam_min * math.sin(gamma))
