"""Coupling-strength and sampling-period bounds for stochastic
phase-cohesiveness, and the spectral statistics they need.

Both coupling variants share one condition. Recurrence of the
relative-phase chain is guaranteed by

    kappa > ((1 - sin g) * pi / (2 tau) + gap) / (sin(g)^2 * E[lambda_min])
    tau   < ((1 + sin g) * g) / (kappa * E[lambda_max] + gap)

where ``g`` is the cohesion half-width and ``gap`` the largest expected
absolute disturbed-frequency difference. The kappa condition is
sufficient and the tau condition necessary; both are open inequalities
and are reported as strict bounds, never as safe equalities. Only the
spectrum differs: the frequency-dependent variant takes the expected
extreme eigenvalues of the randomly weighted edge Laplacian
``B^T diag(omega + n(k)) B``, the undirected variant the exact ones of
``B^T B``. :func:`bounds` evaluates the condition on either.

:func:`mc_spectral_stats` is the one spectrum function: exact for a
noise-free spec, from one ``eigvalsh`` solve, and Monte Carlo otherwise.
Its Monte Carlo samples need only the two extreme eigenvalues. The tree
alone picks how they are solved (:func:`_sturm_pays`): by Sturm counts
(``linalg.extreme_eigenvalues``) on every tree of 24 nodes or more and
on smaller ones that are not too deep, and by ``eigvalsh`` on the rest,
such as the bundled five-node line. It splits its samples across
processes in one call of ``_fork.forked_map`` and takes its means and
standard errors from ``noise._mean_and_stderr``. The gap is exact
(``noise.e_max_delta_omega``), so the spectra are the bounds' only Monte
Carlo figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _fork
from .errors import NumericError
from .dynamics import validate_gamma
from .graph import TreeGraph
from .linalg import (
    NoConvergence,
    batch_eigenvalues,
    extreme_eigenvalues,
    weighted_edge_laplacian,
)
from .noise import (
    NoiseSpec,
    RandomStream,
    _NoiseReader,
    _mean_and_stderr,
    _words_per_step,
)

#: Default cohesion half-width when the caller does not choose one.
DEFAULT_GAMMA = 0.5 * math.pi - 0.05

#: Default Monte Carlo sample count for spectral statistics.
DEFAULT_SPECTRAL_SAMPLES = 100_000

#: Bytes one Monte Carlo batch may take, counting each sample's working
#: set (see :func:`mc_spectral_stats`) and its noise words, so memory
#: stays bounded at any sample count. Sturm counts pay a fixed cost per
#: batch and run out of cache in large ones: on random trees, pinned to
#: one CPU, a sample cost 55 / 33 / 24 / 27 us at 50 nodes in batches of
#: 100 / 200 / 500 / 1 000 samples (0.6 / 1.2 / 3 / 6 MB as counted),
#: and 214 / 167 / 116 / 145 us at 200 nodes in batches of 30 / 60 / 100
#: / 200 (0.7 / 1.4 / 2.4 / 4.8 MB). ``eigvalsh`` solves only trees of
#: 23 nodes or fewer, of which 2 MiB holds 516 Laplacians or more.
_CHUNK_BYTES = 2 * 2**20


class HypothesisViolated(NumericError):
    """E[lambda_min] is not strictly positive; the kappa bound is undefined."""


class NonPositiveEigenvalue(NumericError):
    """A spectral quantity required to be positive is not."""


@dataclass(frozen=True)
class SpectralStats:
    """Monte Carlo estimates of the extreme eigenvalue expectations.

    ``workers`` is the number of processes that solved the samples; it
    does not affect any other field, and equality ignores it.
    """

    e_lambda_min: float
    e_lambda_max: float
    stderr_min: float
    stderr_max: float
    samples: int
    workers: int = field(default=1, compare=False)

    def __post_init__(self):
        if self.e_lambda_min > self.e_lambda_max:
            raise ValueError("e_lambda_min exceeds e_lambda_max")
        if self.stderr_min < 0 or self.stderr_max < 0:
            raise ValueError("standard errors must be nonnegative")


@dataclass(frozen=True)
class BoundResult:
    """Evaluated bounds on one spectrum at one cohesion half-width.

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
    tau: float | None = None
    kappa: float | None = None


def mc_spectral_stats(
    graph: TreeGraph,
    omega,
    noise: NoiseSpec,
    n_samples: int = DEFAULT_SPECTRAL_SAMPLES,
    stream: RandomStream | None = None,
) -> SpectralStats:
    """The extreme eigenvalues ``E[lambda_min]`` and ``E[lambda_max]``
    of the edge Laplacian weighted with ``omega + n``.

    A noise-free spec gives the exact eigenvalues of its one Laplacian,
    needs no stream, has zero standard errors and reports the one solve
    as ``samples``, whatever ``n_samples`` asks for; unit ``omega`` gives
    those of ``B^T B``. Otherwise they are Monte Carlo means over
    ``n_samples`` disturbance draws, with their sample standard errors.
    Samples are addressed by index on the stream, so any evaluation
    order (or concurrent evaluation) yields the identical result.

    The samples are solved by Sturm counts or by ``eigvalsh``, as
    :func:`_sturm_pays` decides from ``graph`` alone; the two agree to
    within a few ``n eps max|w| deg``, and a sample's bits depend only
    on the tree and its own weights, never on its batch or on
    ``n_samples``. Large runs split the samples into contiguous ranges,
    one per CPU this process may run on, once they span
    ``_fork._MIN_FORK_BYTES`` of working arrays and noise: this process
    solves the first range and forked workers the others (see
    ``_fork``), each reading its noise from the range's first sample on.
    ``SpectralStats.workers`` records the count; the other fields are
    bit-identical at every count.

    Raises:
        NoConvergence: a sample's weights or eigenvalues were not finite,
            or the eigensolver failed on it; the message and
            ``batch_index`` give its index among all the samples.
        NumericError: a worker process ended without a result.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    omega = np.asarray(omega, dtype=float)

    if noise.is_deterministic:
        ev = batch_eigenvalues(weighted_edge_laplacian(graph, omega))
        return SpectralStats(float(ev[0]), float(ev[-1]), 0.0, 0.0, 1)

    if stream is None:
        raise ValueError("stochastic spectral statistics require a stream")
    sturm = _sturm_pays(graph)
    # working set per sample besides its noise words: for Sturm counts
    # 11 to 11.5 n doubles in extreme_eigenvalues (tracemalloc) and the
    # sample's noise and weights, for eigvalsh the m x m Laplacian
    working = 14 * graph.n if sturm else graph.m**2
    sample_bytes = 8 * (working + _words_per_step(noise.n))
    chunk = max(1, _CHUNK_BYTES // sample_bytes)
    # the extreme eigenvalues of every sample; each range fills its columns
    lam = np.empty((2, n_samples))

    def solve(w: np.ndarray) -> np.ndarray:
        if sturm:
            return extreme_eigenvalues(graph, w)
        return batch_eigenvalues(weighted_edge_laplacian(graph, w))[:, [0, -1]]

    def run(lo: int, hi: int) -> np.ndarray:
        reader = _NoiseReader(noise, [stream.child(purpose="spectral")], lo)
        block = np.empty((min(chunk, hi - lo), noise.n, 1))
        for start in range(lo, hi, chunk):
            count = min(chunk, hi - start)
            reader.read(block[:count])
            try:
                ends = solve(omega + block[:count, :, 0])
            except NoConvergence as exc:
                raise NoConvergence(
                    f"eigensolver failed at sample {start + exc.batch_index}: {exc}",
                    batch_index=start + exc.batch_index,
                ) from exc
            lam[:, start : start + count] = ends.T
        return lam[:, lo:hi]

    ran = _fork.forked_map(run, "solving samples", n_samples, sample_bytes)
    for (lo, hi), part in ran[1:]:
        lam[:, lo:hi] = part

    (e_min, se_min), (e_max, se_max) = map(_mean_and_stderr, lam)
    return SpectralStats(e_min, e_max, se_min, se_max, n_samples, len(ran))


def _sturm_pays(graph: TreeGraph) -> bool:
    """Whether Monte Carlo samples on ``graph`` are solved by Sturm
    counts (:func:`~treekuramoto.linalg.extreme_eigenvalues`) rather
    than by ``eigvalsh``: where ``2 n >= 12 + 3 levels``, ``levels`` the
    levels of ``graph.elimination_levels``.

    Sturm counts pay a few numpy calls per level in each of 51 passes,
    ``eigvalsh`` a cost that grows with ``m**2``. Timed on paths, stars,
    binary, random trees and caterpillars of 5 to 30, 40 and 50 nodes at
    2 000 and 100 000 samples (pinned to one CPU, one BLAS thread), the
    rule picks the faster solver, or one within 5% of it, in all but two
    of the 280 cases, both on its boundary (README, Model). Every tree of
    24 nodes or more takes Sturm counts, since its levels are at most
    ``n / 2``, and every tree of 7 nodes or fewer ``eigvalsh``. The rule
    reads no sample count, so a sample's bits never depend on how many a
    run takes, and tiny runs on deep trees pay Sturm counts' fixed cost
    per level: a few milliseconds at 100 samples.
    """
    return 2 * graph.n >= 12 + 3 * len(graph.elimination_levels[1])


def bounds(
    stats: SpectralStats,
    e_max_dw: float,
    gamma: float = DEFAULT_GAMMA,
    tau: float | None = None,
    kappa: float | None = None,
) -> BoundResult:
    """The coupling and sampling-period bounds on the spectrum ``stats``.

    The frequency-dependent variant passes the Monte Carlo spectrum of
    ``B^T diag(omega + n) B``; the undirected variant the exact spectrum
    of ``B^T B``, ``mc_spectral_stats(graph, np.ones(n), NoiseSpec.none(n))``.
    With an indefinite spectrum the sufficient coupling bound is
    meaningless, so ``stats.e_lambda_min`` must be strictly positive.

    Raises:
        HypothesisViolated: ``e_lambda_min <= 0``, checked before the
            other arguments.
    """
    if not stats.e_lambda_min > 0:
        raise HypothesisViolated(
            f"E[lambda_min] = {stats.e_lambda_min} is not strictly positive"
        )
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
            sin_g * sin_g * stats.e_lambda_min
        )
    kappa_eff = kappa if kappa is not None else kappa_min
    denominator = kappa_eff * stats.e_lambda_max + e_max_dw
    # an overflow would report tau_max as 0.0, a bound no tau meets
    if not math.isfinite(denominator):
        raise NumericError(
            "tau_max's denominator kappa * lambda_max + gap is not finite "
            f"({denominator})"
        )
    tau_max = (1.0 + sin_g) * gamma / denominator
    return BoundResult(kappa_min, tau_max, gamma, e_max_dw, tau, kappa)


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
    lam_min = mc_spectral_stats(graph, omega, NoiseSpec.none(graph.n)).e_lambda_min
    if lam_min <= 0:
        raise NonPositiveEigenvalue(f"lambda_min = {lam_min} is not positive")
    spread = float(np.max(omega) - np.min(omega))
    return spread / (lam_min * math.sin(gamma))
