"""Per-node i.i.d. disturbance generation and disturbance-gap expectations.

Randomness is counter-based: a Philox generator is keyed by a hash of
``(master seed, trial, purpose)`` and its counter addresses the draw for
``(step, node)`` directly. Any draw can therefore be regenerated in
isolation, trials can run concurrently or in any order with identical
results, and whole-horizon noise blocks come out of a single vectorized
call that matches step-by-step sampling bit for bit.

Gaussian draws use inverse-CDF sampling (exactly one counter word per
value) rather than rejection methods, which would consume a variable
number of words and break counter addressing.

Words become disturbances in one place, :func:`_disturbances`: one
vectorized pass per family over that family's node columns. Two readers
feed it. :func:`sample_noise_block` addresses one stream's block by
counter. :class:`_NoiseReader` reads many streams in step order, with
one generator per stream that is placed once and then read onward, and
fills trials-minor ``(steps, n, trials)`` blocks a group of streams at a
time; every column equals the first reader's block bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import ConfigError, _check_items

FAMILIES = ("gaussian", "uniform", "none")

#: Philox emits 4 of the 64-bit words addressed here per counter value.
_WORDS_PER_COUNTER = 4


class InvalidNoiseSpec(ConfigError):
    """Noise specification violates its invariants."""


class NegativeVariance(InvalidNoiseSpec):
    """Variance below zero."""


class UnsupportedFamily(ConfigError):
    """Analytic computation requested for a family without a closed form."""


@dataclass(frozen=True)
class NodeNoise:
    """Disturbance distribution of one node.

    ``family`` is ``gaussian``, ``uniform`` (mean/variance parametrized)
    or ``none`` (identically zero). Mean is in rad/s, variance in
    (rad/s)^2. Finite mean and variance are guaranteed by restricting
    the families.
    """

    family: str
    mean: float = 0.0
    variance: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidNoiseSpec(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise InvalidNoiseSpec("mean and variance must be finite")
        if self.variance < 0:
            raise NegativeVariance(f"variance {self.variance} < 0")
        if self.family == "none" and (self.mean != 0.0 or self.variance != 0.0):
            raise InvalidNoiseSpec("family 'none' requires zero mean and variance")
        if self.family != "none" and self.variance == 0.0:
            raise InvalidNoiseSpec(
                "zero variance is only allowed with family 'none'"
            )


@dataclass(frozen=True)
class NoiseSpec:
    """Per-node disturbance distributions for an n-node network."""

    nodes: tuple[NodeNoise, ...]

    def __post_init__(self):
        if len(self.nodes) == 0:
            raise InvalidNoiseSpec("empty noise specification")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def is_deterministic(self) -> bool:
        """True when every node has family ``none``."""
        return all(node.family == "none" for node in self.nodes)

    @property
    def analytic_gaussian(self) -> bool:
        """True when every family is gaussian or none (closed forms apply)."""
        return all(node.family in ("gaussian", "none") for node in self.nodes)

    def means(self) -> np.ndarray:
        return np.array([node.mean for node in self.nodes])

    def variances(self) -> np.ndarray:
        return np.array([node.variance for node in self.nodes])

    @classmethod
    def gaussian(cls, variances, means=None) -> "NoiseSpec":
        """Gaussian noise on every node (variance 0 maps to family none)."""
        variances = list(variances)
        means = [0.0] * len(variances) if means is None else list(means)
        nodes = []
        for mu, var in zip(means, variances, strict=True):
            if var == 0.0 and mu == 0.0:
                nodes.append(NodeNoise("none"))
            else:
                nodes.append(NodeNoise("gaussian", mean=mu, variance=var))
        return cls(tuple(nodes))

    @classmethod
    def none(cls, n: int) -> "NoiseSpec":
        """No disturbance on any of ``n`` nodes."""
        return cls(tuple(NodeNoise("none") for _ in range(n)))


@dataclass(frozen=True)
class RandomStream:
    """Addressable random stream: master seed plus stream coordinates.

    Distinct ``(seed, trial, purpose)`` tuples key statistically
    independent Philox streams; within a stream, the (step, slot) pair
    selects the counter position, so the same coordinates always
    reproduce the same value on every platform and in any evaluation
    order.
    """

    seed: int
    trial: int = 0
    purpose: str = ""

    def child(self, *, trial: int | None = None, purpose: str | None = None):
        """Stream with some coordinates replaced."""
        changes = {}
        if trial is not None:
            changes["trial"] = trial
        if purpose is not None:
            changes["purpose"] = purpose
        return replace(self, **changes)

    def _key(self) -> np.ndarray:
        tag = f"{self.seed}\x1f{self.trial}\x1f{self.purpose}".encode()
        digest = hashlib.blake2b(tag, digest_size=16).digest()
        return np.frombuffer(digest, dtype=np.uint64)

    def _generator(self, index: int) -> tuple[Philox, int]:
        """Philox whose next words start at the counter block holding word
        ``index``, and the offset of ``index`` in that block."""
        counter, offset = divmod(index, _WORDS_PER_COUNTER)
        return Philox(counter=counter, key=self._key()), offset

    def raw_words(self, index: int, count: int) -> np.ndarray:
        """``count`` raw 64-bit words starting at word ``index``.

        Raises:
            MemoryError: the words do not fit in memory, or not in one
                array.
        """
        bitgen, offset = self._generator(index)
        _check_items(offset + count, "noise words")
        return bitgen.random_raw(offset + count)[offset:]

    def uniforms(self, index: int, count: int) -> np.ndarray:
        """``count`` doubles in the open interval (0, 1)."""
        return _open_unit(self.raw_words(index, count))


#: The largest double below one.
_BELOW_ONE = 1.0 - 2.0**-53


def _open_unit(words: np.ndarray) -> np.ndarray:
    """Doubles in the open interval (0, 1) from 64-bit words: the top 53
    bits scaled to [0, 1) plus 2**-54. The sum rounds to exactly 1 for
    the one word value whose top 53 bits are all ones; that value is
    mapped to the largest double below 1, and every other is unchanged.
    """
    u = (words >> np.uint64(11)) * 2.0**-53
    u += 2.0**-54
    return np.minimum(u, _BELOW_ONE, out=u)


def _words_per_step(n: int) -> int:
    """Counter words reserved per step: one per node, padded to whole
    counter blocks so consecutive steps never share a block."""
    blocks = -(-n // _WORDS_PER_COUNTER)
    return blocks * _WORDS_PER_COUNTER


def _family_rows(spec: NoiseSpec) -> list:
    """``(family, columns, scale, mean)`` for each random family in
    ``spec``: its node columns (``slice(None)`` when it has every node)
    and per-node rows of its scale (gaussian: the standard deviation,
    uniform: the half width ``sqrt(3 variance)``) and of its mean."""
    rows = []
    for family, spread in (("gaussian", 1.0), ("uniform", 3.0)):
        nodes = [i for i, node in enumerate(spec.nodes) if node.family == family]
        if nodes:
            rows.append(
                (
                    family,
                    slice(None) if len(nodes) == spec.n else np.array(nodes),
                    np.sqrt(spread * spec.variances()[nodes]),
                    spec.means()[nodes],
                )
            )
    return rows


def _disturbances(rows: list, u: np.ndarray) -> np.ndarray:
    """Disturbances from open-interval uniforms ``u`` of shape ``(..., n)``,
    node ``i`` in column ``i``: ``ndtri(u) * sd + mean`` for gaussian
    nodes, ``mean + (2u - 1) * half_width`` for uniform nodes and +0.0 for
    ``none`` nodes, one pass per family over its columns. ``rows`` is
    :func:`_family_rows` of the spec."""
    out = None
    for family, columns, scale, mean in rows:
        picked = u[..., columns]
        x = ndtri(picked) if family == "gaussian" else 2.0 * picked - 1.0
        x *= scale
        x += mean
        if isinstance(columns, slice):
            return x
        if out is None:
            out = np.zeros(u.shape)
        out[..., columns] = x
    return np.zeros(u.shape) if out is None else out


def sample_noise_block(
    spec: NoiseSpec, stream: RandomStream, k0: int, steps: int
) -> np.ndarray:
    """Disturbance realizations for steps ``k0 .. k0 + steps - 1``.

    Returns an array of shape ``(steps, n)``, one independent draw per
    node and step. Each step's draws occupy their own counter range, so
    row ``j`` is the same for every ``k0`` and ``steps`` that cover step
    ``k0 + j``, independent of evaluation order.
    """
    n = spec.n
    stride = _words_per_step(n)
    u = stream.uniforms(k0 * stride, steps * stride).reshape(steps, stride)[:, :n]
    return _disturbances(_family_rows(spec), u)


#: Streams a :class:`_NoiseReader` draws as one group: ``random_raw``
#: from each, then one conversion, one transform and one store for all.
_READ_GROUP = 16


class _NoiseReader:
    """The noise of many streams, read in step order into trials-minor
    blocks.

    Holds one Philox per stream, placed once at step ``k0`` through
    :meth:`RandomStream._generator`; each :meth:`read` continues where the
    last one stopped. A step's words are whole counter blocks, so a
    generator that has emitted them stands where a new one for the next
    step would start, and column ``t`` of every block equals
    ``sample_noise_block(spec, streams[t], k, count)`` bit for bit.
    """

    def __init__(self, spec: NoiseSpec, streams, k0: int = 0):
        self._rows = _family_rows(spec)
        self._stride = _words_per_step(spec.n)
        self._generators = [
            stream._generator(k0 * self._stride)[0] for stream in streams
        ]

    def read(self, out: np.ndarray) -> None:
        """Fill ``out`` ``(count, n, width)``, one column per stream, with
        the next ``count`` steps of every stream."""
        count, n, width = out.shape
        words = count * self._stride
        for lo in range(0, width, _READ_GROUP):
            group = self._generators[lo : lo + _READ_GROUP]
            raw = np.empty((len(group), words), dtype=np.uint64)
            for row, bitgen in zip(raw, group):
                row[:] = bitgen.random_raw(words)
            u = _open_unit(raw).reshape(len(group), count, self._stride)[..., :n]
            out[:, :, lo : lo + len(group)] = _disturbances(self._rows, u).transpose(
                1, 2, 0
            )


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def folded_normal_mean(m: float, s2: float) -> float:
    """``E|X|`` for ``X ~ Normal(m, s2)``.

    Closed form ``s*sqrt(2/pi)*exp(-m^2/(2 s^2)) + m*(1 - 2*Phi(-m/s))``;
    degenerates to ``|m|`` at zero variance.

    Raises:
        NegativeVariance: ``s2 < 0``.
    """
    if s2 < 0:
        raise NegativeVariance(f"variance {s2} < 0")
    if s2 == 0:
        return abs(m)
    s = math.sqrt(s2)
    return s * math.sqrt(2.0 / math.pi) * math.exp(-(m * m) / (2.0 * s2)) + m * (
        1.0 - 2.0 * _normal_cdf(-m / s)
    )


@dataclass(frozen=True)
class DeltaOmegaEstimate:
    """Largest expected absolute disturbed-frequency gap.

    ``method`` is ``analytic`` (closed form, ``stderr == 0``) or
    ``monte-carlo`` with ``samples`` draws; ``pair`` is the node pair
    attaining the maximum.
    """

    value: float
    stderr: float
    method: str
    pair: tuple[int, int]
    samples: int = 0


def _pair_set(n: int, pairs: str, graph) -> list[tuple[int, int]]:
    if pairs == "all":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs == "edges":
        if graph is None:
            raise ValueError("pairs='edges' requires the graph argument")
        return [tuple(sorted(e)) for e in graph.edges]
    raise ValueError(f"unknown pair set {pairs!r}, expected 'all' or 'edges'")


def e_max_delta_omega(
    omega,
    spec: NoiseSpec,
    pairs: str = "all",
    graph=None,
    method: str = "auto",
    mc_samples: int = 100_000,
    stream: RandomStream | None = None,
) -> DeltaOmegaEstimate:
    """Maximum over node pairs of ``E|(omega_i + n_i) - (omega_j + n_j)|``.

    For gaussian (or none) families the per-pair expectation has the
    folded-normal closed form with mean ``(omega_i + mu_i) - (omega_j +
    mu_j)`` and variance ``V_i + V_j``; otherwise the expectations are
    estimated by Monte Carlo with a reported standard error.

    Args:
        omega: Exogenous frequencies, length ``n``.
        spec: Per-node disturbance spec.
        pairs: ``all`` node pairs (default, conservative) or graph
            ``edges`` only; the latter requires ``graph``.
        graph: Tree supplying the edge set when ``pairs='edges'``.
        method: ``auto`` picks analytic when available; ``analytic``
            insists on it; ``mc`` forces Monte Carlo.
        mc_samples: Monte Carlo sample count.
        stream: Random stream, required for Monte Carlo.

    Raises:
        UnsupportedFamily: ``method='analytic'`` with a family lacking a
            closed form.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (spec.n,):
        raise ValueError(f"omega shape {omega.shape} != ({spec.n},)")
    pair_list = _pair_set(spec.n, pairs, graph)

    if method == "auto":
        method = "analytic" if spec.analytic_gaussian else "mc"
    if method == "analytic":
        if not spec.analytic_gaussian:
            raise UnsupportedFamily(
                "analytic gap expectation needs gaussian or none families"
            )
        shifted = omega + spec.means()
        variances = spec.variances()
        best, best_pair = -math.inf, pair_list[0]
        for i, j in pair_list:
            value = folded_normal_mean(
                shifted[i] - shifted[j], variances[i] + variances[j]
            )
            if value > best:
                best, best_pair = value, (i, j)
        return DeltaOmegaEstimate(best, 0.0, "analytic", best_pair)

    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    if stream is None:
        raise ValueError("Monte Carlo gap estimation requires a stream")
    draws = sample_noise_block(spec, stream.child(purpose="emax"), 0, mc_samples)
    disturbed = omega + draws
    best, best_pair, best_err = -math.inf, pair_list[0], 0.0
    for i, j in pair_list:
        gaps = np.abs(disturbed[:, i] - disturbed[:, j])
        mean = float(np.mean(gaps))
        if mean > best:
            best, best_pair = mean, (i, j)
            best_err = float(np.std(gaps, ddof=1) / math.sqrt(mc_samples))
    return DeltaOmegaEstimate(best, best_err, "monte-carlo", best_pair, mc_samples)
