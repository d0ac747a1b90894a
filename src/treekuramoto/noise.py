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

Words become open-interval uniforms in one place, :func:`_open_uniforms`,
which takes the placed Philox's raw words and scales their top 53 bits,
and uniforms become disturbances in one place, :func:`_disturbances`:
one vectorized pass per family over that family's nodes, whose scaling
pass writes into the caller's block.
Two readers feed them. :func:`sample_noise_block` addresses one
stream's block by counter. :class:`_NoiseReader` reads many streams in
step order, with one generator per stream that is placed once and then
read onward, and fills trials-minor ``(steps, n, trials)`` blocks a
group of streams at a time through two reused buffers; every column
equals the first reader's block bit for bit.

Every Monte Carlo mean in the package and its standard error come from
:func:`_mean_and_stderr`, which keeps numpy's bits without overflowing
near the largest double. The disturbance gap is not one of them: for
gaussian, uniform and ``none`` nodes alike, :func:`e_max_delta_omega`
takes each pair's expectation in closed form, with ``math.erfc`` for the
gaussian tail.

scipy's special functions come only from its compiled ufunc module,
``scipy.special._ufuncs``, and numpy's ``Philox`` only from its compiled
module, ``numpy.random._philox``. :func:`_from_package` loads each
without running its package's ``__init__``. The ``scipy.special``
package's ``__init__`` imports scipy's array-API layer, and with it
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, which nearly doubled
the import time of the CLI; the ``numpy.random`` package's loads the
legacy ``RandomState`` (``mtrand``), the other bit generators and their
pickling helpers, 0.8 MB of every CLI process (README, "Fixed cost of a
CLI process"). numpy's ``Generator`` is not loaded either: it would only
scale the words as :func:`_open_uniforms` does, and its module brings
``_bounded_integers`` and ``_pcg64`` with it, about 1 MB more. ``ndtri``
is bound from ``_ufuncs``. ``ndtr`` and ``bdtr`` are in it too: take
them from there, since an ``import scipy.special`` anywhere in the
package brings the cost back; and never read ``np.random``, whose lazy
attribute imports the whole package.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericError, _check_items


def _from_package(package: str, *names: str) -> list:
    """The objects ``names``, each ``"module.attribute"`` of a submodule
    of ``package``, or the package's own attributes if it is loaded.

    The submodules are imported under an unexecuted stand-in for their
    package, which is then taken out of ``sys.modules``: a later ``import
    package`` runs the real ``__init__``, which reuses the loaded
    submodules, so both give the same objects. The package is looked up
    in ``sys.modules`` and never as an attribute of its parent, whose
    module ``__getattr__`` may import the whole package. A package laid
    out otherwise (``ImportError`` or ``AttributeError``) is imported
    whole.
    """
    pairs = [dotted.split(".") for dotted in names]
    loaded = sys.modules.get(package)
    if loaded is None:
        spec = importlib.util.find_spec(package)
        sys.modules[package] = importlib.util.module_from_spec(spec)
        try:
            return [
                getattr(importlib.import_module(f"{package}.{module}"), name)
                for module, name in pairs
            ]
        except (ImportError, AttributeError):
            pass
        finally:
            del sys.modules[package]
        loaded = importlib.import_module(package)
    return [getattr(loaded, name) for _, name in pairs]


(ndtri,) = _from_package("scipy.special", "_ufuncs.ndtri")
(Philox,) = _from_package("numpy.random", "_philox.Philox")

FAMILIES = ("gaussian", "uniform", "none")

#: Philox emits 4 of the 64-bit words addressed here per counter value.
_WORDS_PER_COUNTER = 4


class InvalidNoiseSpec(ConfigError):
    """Noise specification violates its invariants."""


class NegativeVariance(InvalidNoiseSpec):
    """Variance below zero."""


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

    def _generator(self, index: int) -> Philox:
        """Philox whose next word is word ``index`` of this stream."""
        counter, offset = divmod(index, _WORDS_PER_COUNTER)
        bitgen = Philox(counter=counter, key=self._key())
        bitgen.random_raw(offset)
        return bitgen

    def uniforms(self, index: int, count: int) -> np.ndarray:
        """``count`` doubles in the open interval (0, 1), from the raw
        64-bit words starting at word ``index`` (see :func:`_open_uniforms`).

        Raises:
            MemoryError: the words do not fit in memory, or not in one
                array.
        """
        _check_items(count, "noise words")
        return _open_uniforms([self._generator(index)], np.empty((1, count)))[0]


#: The largest double below one.
_BELOW_ONE = 1.0 - 2.0**-53


def _open_uniforms(generators, out: np.ndarray) -> np.ndarray:
    """Fill row ``i`` of ``out`` with doubles in the open interval (0, 1),
    one from each of the next 64-bit words of ``generators[i]``: the top
    53 bits scaled to [0, 1) (the bits of numpy's ``Generator.random``)
    plus 2**-54. The sum rounds to exactly 1 for the one word value whose
    top 53 bits are all ones; that value is mapped to the largest double
    below 1, and every other is unchanged.

    Each row's words are shifted in place and converted and scaled
    into the row, exactly below 2**53, so the only buffer beside ``out``
    is one row's words. Converting all rows in one call needs all their
    words at once (README, "Bounded noise chunks")."""
    for row, generator in zip(out, generators):
        words = generator.random_raw(len(row))
        words >>= 11
        np.multiply(words, 2.0**-53, out=row)
    out += 2.0**-54
    return np.minimum(out, _BELOW_ONE, out=out)


def _words_per_step(n: int) -> int:
    """Counter words reserved per step: one per node, padded to whole
    counter blocks so consecutive steps never share a block."""
    blocks = -(-n // _WORDS_PER_COUNTER)
    return blocks * _WORDS_PER_COUNTER


def _family_rows(spec: NoiseSpec) -> list:
    """``(family, columns, scale, mean)`` for each random family in
    ``spec``: its nodes (``slice(None)`` when it has every node) and
    ``(nodes, 1)`` columns of its scale (gaussian: the standard
    deviation, uniform: the half width ``sqrt(3 variance)``) and of its
    mean; ``mean`` is ``None`` when every mean is zero, since adding a
    zero leaves the bits of every draw but -0.0 as they are, and
    ``ndtri(u)`` and ``2u - 1`` are +0.0 at ``u = 1/2``, their one zero."""
    rows = []
    for family, spread in (("gaussian", 1.0), ("uniform", 3.0)):
        nodes = [i for i, node in enumerate(spec.nodes) if node.family == family]
        if nodes:
            mean = spec.means()[nodes, None]
            rows.append(
                (
                    family,
                    slice(None) if len(nodes) == spec.n else np.array(nodes),
                    np.sqrt(spread * spec.variances()[nodes, None]),
                    mean if mean.any() else None,
                )
            )
    return rows


def _disturbances(rows: list, u, standard, out) -> np.ndarray:
    """Fill ``out`` ``(steps, n, width)`` with the disturbances of the
    open-interval uniforms ``u`` of that shape, node ``i`` at index ``i``
    of axis 1: ``ndtri(u) * sd + mean`` for gaussian nodes, ``(2u - 1) *
    half_width + mean`` for uniform nodes and +0.0 for ``none`` nodes,
    one pass per family over its nodes. ``rows`` is :func:`_family_rows`
    of the spec; ``standard``, of the same shape (it may be ``out``),
    receives ``ndtri(u)`` or ``2u - 1`` of a family that has every node,
    and the scaling pass writes those straight into ``out``."""
    if not (rows and isinstance(rows[0][1], slice)):
        out[...] = 0.0
    for family, columns, scale, mean in rows:
        whole = isinstance(columns, slice)
        picked = u if whole else u[:, columns]
        x = standard if whole else picked
        if family == "gaussian":
            ndtri(picked, out=x)
        else:
            np.multiply(picked, 2.0, out=x)
            x -= 1.0
        x = np.multiply(x, scale, out=out if whole else x)
        if mean is not None:
            x += mean
        if not whole:
            out[:, columns] = x
    return out


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
    u = stream.uniforms(k0 * stride, steps * stride).reshape(steps, stride, 1)
    out = np.empty((steps, n, 1))
    return _disturbances(_family_rows(spec), u[:, :n], out, out)[:, :, 0]


#: Streams a :class:`_NoiseReader` draws as one group: one fill of the
#: group's uniforms, then one pass of each family and one scaled store.
_READ_GROUP = 16


class _NoiseReader:
    """The noise of many streams, read in step order into trials-minor
    blocks.

    Holds one generator per stream, placed once at step ``k0`` through
    :meth:`RandomStream._generator`; each :meth:`read` continues where the
    last one stopped. A step's words are whole counter blocks, so a
    generator that has emitted them stands where a new one for the next
    step would start, and column ``t`` of every block equals
    ``sample_noise_block(spec, streams[t], k, count)`` bit for bit. The
    uniforms of a group and their standardized draws live in two buffers
    that every read reuses.
    """

    def __init__(self, spec: NoiseSpec, streams, k0: int = 0):
        self._rows = _family_rows(spec)
        self._stride = _words_per_step(spec.n)
        self._generators = [stream._generator(k0 * self._stride) for stream in streams]
        self._uniforms = self._standard = np.empty(0)

    def read(self, out: np.ndarray) -> None:
        """Fill ``out`` ``(count, n, width)``, one column per stream, with
        the next ``count`` steps of every stream."""
        count, n, width = out.shape
        words = count * self._stride
        group = min(_READ_GROUP, width)
        if self._uniforms.size < group * words:
            self._uniforms = np.empty(group * words)
            self._standard = np.empty(group * count * n)
        for lo in range(0, width, _READ_GROUP):
            generators = self._generators[lo : lo + _READ_GROUP]
            size = len(generators)
            u = self._uniforms[: size * words].reshape(size, words)
            _open_uniforms(generators, u)
            # steps, nodes and streams as the axes of out
            u = u.reshape(size, count, self._stride)[..., :n].transpose(1, 2, 0)
            standard = self._standard[: size * count * n].reshape(size, count, n)
            _disturbances(
                self._rows, u, standard.transpose(1, 2, 0), out[:, :, lo : lo + size]
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
    """Largest expected absolute disturbed-frequency gap and the node pair
    attaining it."""

    value: float
    pair: tuple[int, int]


#: Standard scores past which :func:`_gaussian_tail` is its limit in
#: doubles: beyond ``+_TAIL_END`` it is below the smallest double
#: (``erfc(t / sqrt 2)`` underflows near ``t = 38.5``), and below
#: ``-_TAIL_END`` ``Q(t)`` rounds to 1 and ``phi(t)`` to 0.
_TAIL_END = 40.0

#: A uniform half-width below ``_FOLD`` times the pair's wider scale, its
#: gaussian standard deviation or the other uniform's half-width, is
#: taken as a gaussian of its variance: its difference quotient would
#: lose digits as the inverse of that ratio, while the fold's error falls
#: as its fourth power. About the threshold both stay within about 7e-13
#: relative (README, "The disturbance gap").
_FOLD = 1e-4


#: Relative margin by which a pair's upper bound on its gap must fall
#: below the largest mean gap before :func:`e_max_delta_omega` skips it:
#: far above their rounding and the 7e-13 of :func:`_gap_mean`'s fold.
_PRUNE_MARGIN = 1e-9


def _gaussian_tail(x: float, s: float) -> float:
    """``E[(G - x)+^2] / 2`` for ``G ~ Normal(0, s^2)``: the integral from
    ``x`` to infinity of the partial expectation ``E[(G - y)+] = s phi(t)
    - y Q(t)``, ``t = y / s``, which is ``s^2 ((1 + t^2) Q(t) - t phi(t)) /
    2`` at ``t = x / s`` and ``max(-x, 0)^2 / 2`` at ``s = 0``. ``Q`` is
    ``erfc(t / sqrt 2) / 2``, exact in the tail."""
    if not x < _TAIL_END * s:  # NaN too, which its caller's sum carries
        return 0.0
    if x <= -_TAIL_END * s:
        return (x * x + s * s) / 2
    t = x / s
    q = 0.5 * math.erfc(t / math.sqrt(2.0))
    p = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return s * s * ((1 + t * t) * q - t * p) / 2


def _gap_mean(m: float, nodes) -> float:
    """``E|m + G + U|``, where ``G + U`` is the difference of the two
    ``nodes``' centred disturbances: ``G ~ Normal(0, s2)``, ``s2`` their
    summed gaussian variance, and ``U`` the sum of one uniform on
    ``[-a, a]``, ``a = sqrt(3 var)``, for each uniform node (a pair of
    uniform nodes has no gaussian).

    It is ``|m| + 2 E[(-|m| - G - U)+]``, whose tail term is a finite
    difference of the antiderivatives of the partial expectation: of
    :func:`_gaussian_tail` over ``±a`` divided by ``2a`` for one uniform,
    of ``max(-x, 0)^3 / 6`` (its integral at ``s = 0``) over ``±a ± b``
    divided by ``4ab`` for two. Each pair is scaled by ``max(a, s)``, so
    no square or cube overflows and a mean gap far beyond the noise has a
    tail of exactly 0. Widths too narrow for their difference quotient
    are folded into ``s2`` first (``_FOLD``); a pair left without a
    uniform is :func:`folded_normal_mean`'s, bit for bit.
    """
    s2 = sum(node.variance for node in nodes if node.family == "gaussian")
    widths = sorted(
        math.sqrt(3.0 * node.variance) for node in nodes if node.family == "uniform"
    )
    while widths and widths[0] < _FOLD * max(math.sqrt(s2), widths[-1]):
        s2 += widths.pop(0) ** 2 / 3.0
    if not widths:
        return folded_normal_mean(m, s2)
    scale = max(widths[-1], math.sqrt(s2))
    x, s = abs(m) / scale, math.sqrt(s2) / scale
    if len(widths) == 1:
        a = widths[0] / scale
        tail = (_gaussian_tail(x - a, s) - _gaussian_tail(x + a, s)) / a
    else:
        b, a = (w / scale for w in widths)
        corners = ((i * j, x + i * a + j * b) for i in (-1, 1) for j in (-1, 1))
        tail = sum(sign * max(-y, 0.0) ** 3 for sign, y in corners) / (12 * a * b)
    return abs(m) + scale * tail


def _pair_set(n: int, pairs: str, graph) -> list[tuple[int, int]]:
    if pairs == "all":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs == "edges":
        if graph is None:
            raise ValueError("pairs='edges' requires the graph argument")
        return [tuple(sorted(e)) for e in graph.edges]
    raise ValueError(f"unknown pair set {pairs!r}, expected 'all' or 'edges'")


def e_max_delta_omega(
    omega, spec: NoiseSpec, pairs: str = "all", graph=None
) -> DeltaOmegaEstimate:
    """Maximum over node pairs of ``E|(omega_i + n_i) - (omega_j + n_j)|``,
    exact for every family.

    A pair's difference is ``m + G + U_i + U_j``: ``m = (omega_i + mu_i) -
    (omega_j + mu_j)``, ``G`` gaussian with the sum of the pair's gaussian
    variances, and a uniform of half-width ``sqrt(3 V)`` for each uniform
    node (see :func:`_gap_mean`). A pair without a uniform node has the
    folded-normal closed form, :func:`folded_normal_mean`.

    Args:
        omega: Exogenous frequencies, length ``n``.
        spec: Per-node disturbance spec.
        pairs: ``all`` node pairs (default, conservative) or graph
            ``edges`` only; the latter requires ``graph``.
        graph: Tree supplying the edge set when ``pairs='edges'``.

    Raises:
        NumericError: a pair's expected gap is not finite, as with a
            uniform variance whose half-width overflows (the message
            names the pair).
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (spec.n,):
        raise ValueError(f"omega shape {omega.shape} != ({spec.n},)")
    pair_list = _pair_set(spec.n, pairs, graph)
    if not pair_list:
        raise ValueError("the gap needs at least one node pair")
    # E|m + X| <= |m| + sd(X), and the largest gap is at least the largest
    # |m|, so a pair whose bound falls short of it (beyond rounding) cannot
    # attain the maximum. The spread is taken from the half-widths that
    # _gap_mean uses, so one that overflows bounds its pairs by inf and
    # they still raise; a NaN compares false and skips nothing.
    first, second = np.array(pair_list).T
    uniform = np.array([node.family == "uniform" for node in spec.nodes])
    variances = spec.variances()
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = omega + spec.means()
        m = np.abs(shifted[first] - shifted[second])
        spread = np.where(uniform, np.sqrt(3.0 * variances) ** 2 / 3.0, variances)
        bound = m + np.sqrt(spread[first] + spread[second])
        reachable = ~(bound < np.max(m) * (1.0 - _PRUNE_MARGIN))
    shifted = shifted.tolist()
    best, best_pair = -math.inf, None
    for i, j in itertools.compress(pair_list, reachable):
        value = _gap_mean(shifted[i] - shifted[j], (spec.nodes[i], spec.nodes[j]))
        if not math.isfinite(value):
            raise NumericError(
                f"the expected gap of nodes {i} and {j} is not finite ({value})"
            )
        if value > best:
            best, best_pair = value, (i, j)
    return DeltaOmegaEstimate(best, best_pair)


def _mean_and_stderr(x: np.ndarray) -> tuple[float, float]:
    """Mean of the samples ``x`` and its standard error (0 for one
    sample): the one estimator of every Monte Carlo mean in the package,
    the spectral means and the drift estimates.

    Both are taken on ``x`` scaled by the power of two of its largest
    magnitude, and scaled back. A power of two scales exactly as long as
    no scaled value is subnormal, so the results have the bits of
    ``np.mean`` and ``np.std(ddof=1) / sqrt(len(x))`` of ``x``, except
    that their running sums no longer overflow for samples near the
    largest double.
    """
    _, exponent = np.frexp(np.max(np.abs(x)))
    scaled = np.ldexp(x, -exponent)
    mean = np.ldexp(np.mean(scaled), exponent)
    if len(x) < 2:
        return float(mean), 0.0
    spread = np.ldexp(np.std(scaled, ddof=1), exponent) / math.sqrt(len(x))
    return float(mean), float(spread)
