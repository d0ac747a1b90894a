import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Philox
from scipy.integrate import quad
from scipy.special import ndtri

from treekuramoto import (
    NodeNoise,
    NoiseSpec,
    RandomStream,
    build_tree,
    e_max_delta_omega,
    folded_normal_mean,
)
from treekuramoto.errors import NumericError
from treekuramoto.noise import (
    FAMILIES,
    InvalidNoiseSpec,
    NegativeVariance,
    _BELOW_ONE,
    _NoiseReader,
    _from_package,
    _gap_mean,
    _open_uniforms,
    _words_per_step,
    sample_noise_block,
)

from conftest import OMEGA5, VARIANCES5, run_python


def folded_mean_quadrature(m, s2):
    """Independent oracle: numeric quadrature of |x| against the density."""
    s = math.sqrt(s2)

    def integrand(x):
        return abs(x) * math.exp(-((x - m) ** 2) / (2 * s2)) / (s * math.sqrt(2 * math.pi))

    lo, hi = m - 12 * s, m + 12 * s
    value, _ = quad(integrand, lo, hi, limit=200)
    return value


# --- specs -----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(NegativeVariance):
        NodeNoise("gaussian", variance=-1.0)
    with pytest.raises(InvalidNoiseSpec):
        NodeNoise("gaussian", variance=0.0)
    with pytest.raises(InvalidNoiseSpec):
        NodeNoise("none", mean=1.0)
    with pytest.raises(InvalidNoiseSpec):
        NodeNoise("lognormal", variance=1.0)
    spec = NoiseSpec.gaussian([1.0, 0.0], [0.5, 0.0])
    assert spec.nodes[1].family == "none"
    assert not spec.is_deterministic
    assert NoiseSpec.none(3).is_deterministic


# --- sampling --------------------------------------------------------------


def test_none_family_yields_zeros():
    spec = NoiseSpec.none(4)
    draw = sample_noise_block(spec, RandomStream(seed=1), 0, 1)[0]
    assert np.array_equal(draw, np.zeros(4))


def test_identical_coordinates_reproduce():
    spec = NoiseSpec.gaussian(VARIANCES5)
    a = sample_noise_block(spec, RandomStream(seed=9, trial=2, purpose="noise"), 17, 1)
    b = sample_noise_block(spec, RandomStream(seed=9, trial=2, purpose="noise"), 17, 1)
    assert np.array_equal(a, b)


def loop_noise_block(spec, stream, k0, steps):
    """Reference: the family arithmetic one node column at a time."""
    stride = -(-spec.n // 4) * 4
    u = stream.uniforms(k0 * stride, steps * stride).reshape(steps, stride)
    out = np.zeros((steps, spec.n))
    for i, node in enumerate(spec.nodes):
        if node.family == "gaussian":
            out[:, i] = node.mean + math.sqrt(node.variance) * ndtri(u[:, i])
        elif node.family == "uniform":
            half_width = math.sqrt(3.0 * node.variance)
            out[:, i] = node.mean + (2.0 * u[:, i] - 1.0) * half_width
    return out


BLOCK_SPECS = [
    # several nodes of each family, interleaved
    NoiseSpec(
        (
            NodeNoise("gaussian", mean=0.3, variance=2.0),
            NodeNoise("uniform", mean=-1.0, variance=0.5),
            NodeNoise("none"),
            NodeNoise("gaussian", mean=-2.5, variance=0.7),
            NodeNoise("uniform", mean=0.0, variance=4.0),
            NodeNoise("gaussian", mean=0.0, variance=1.5),
            NodeNoise("none"),
        )
    ),
    NoiseSpec.gaussian(VARIANCES5, [0.5, -1.0, 0.0, 2.0, -0.25]),
    NoiseSpec(tuple(NodeNoise("uniform", mean=1.0, variance=v) for v in (1, 2, 3))),
    NoiseSpec.none(3),
]


def test_block_sampling_matches_per_step():
    stream = RandomStream(seed=4, trial=1, purpose="noise")
    for spec in BLOCK_SPECS:
        block = sample_noise_block(spec, stream, 5, 20)
        assert block.tobytes() == loop_noise_block(spec, stream, 5, 20).tobytes()
        for j in range(20):
            single = sample_noise_block(spec, stream, 5 + j, 1)[0]
            assert np.array_equal(block[j], single)


@st.composite
def noise_specs(draw):
    """1-9 nodes, each gaussian, uniform or none with random parameters."""
    nodes = []
    for family in draw(st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=9)):
        if family == "none":
            nodes.append(NodeNoise("none"))
        else:
            mean = draw(st.floats(-5.0, 5.0))
            nodes.append(NodeNoise(family, mean, draw(st.floats(0.01, 10.0))))
    return NoiseSpec(tuple(nodes))


@settings(max_examples=60, deadline=None)
@given(
    noise_specs(),
    st.integers(1, 40),
    st.lists(st.integers(1, 70), min_size=1, max_size=4),
    st.integers(0, 1000),
    st.integers(0, 2**32),
)
def test_reader_blocks_equal_per_stream_blocks(spec, width, counts, k0, seed):
    # widths that are not multiples of the reader's group end in a
    # partial group; consecutive reads continue each stream's counter
    streams = [RandomStream(seed, trial=t, purpose="noise") for t in range(width)]
    reader = _NoiseReader(spec, streams, k0)
    none = [i for i, node in enumerate(spec.nodes) if node.family == "none"]
    for count in counts:
        block = np.empty((count, spec.n, width))
        reader.read(block)
        for t, stream in enumerate(streams):
            expected = sample_noise_block(spec, stream, k0, count)
            assert block[:, :, t].tobytes() == expected.tobytes()
        # +0.0, not -0.0
        assert not np.signbit(block[:, none]).any()
        assert not block[:, none].any()
        k0 += count


def test_steps_are_order_independent():
    spec = NoiseSpec.gaussian([1.0] * 3)
    stream = RandomStream(seed=11)
    later = sample_noise_block(spec, stream, 1000, 1)[0]
    earlier = sample_noise_block(spec, stream, 0, 1)[0]
    assert np.array_equal(later, sample_noise_block(spec, stream, 1000, 1)[0])
    assert np.array_equal(earlier, sample_noise_block(spec, stream, 0, 1)[0])


def test_gaussian_moments():
    spec = NoiseSpec.gaussian([1.0])
    draws = sample_noise_block(spec, RandomStream(seed=13), 0, 1_000_000)[:, 0]
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var(ddof=1) - 1.0) <= 0.01


def test_uniform_moments():
    spec = NoiseSpec((NodeNoise("uniform", mean=2.0, variance=3.0),))
    draws = sample_noise_block(spec, RandomStream(seed=14), 0, 500_000)[:, 0]
    assert draws.mean() == pytest.approx(2.0, abs=0.01)
    assert draws.var(ddof=1) == pytest.approx(3.0, abs=0.03)
    width = math.sqrt(3.0 * 3.0)
    assert draws.min() >= 2.0 - width
    assert draws.max() <= 2.0 + width


def test_distinct_coordinates_are_uncorrelated():
    spec = NoiseSpec.gaussian([1.0])
    n = 100_000
    base = RandomStream(seed=21)
    a = sample_noise_block(spec, base.child(trial=0, purpose="noise"), 0, n)[:, 0]
    b = sample_noise_block(spec, base.child(trial=1, purpose="noise"), 0, n)[:, 0]
    c = sample_noise_block(spec, base.child(trial=0, purpose="init"), 0, n)[:, 0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01


def test_different_seeds_differ():
    spec = NoiseSpec.gaussian([1.0])
    a = sample_noise_block(spec, RandomStream(seed=1), 0, 8)
    b = sample_noise_block(spec, RandomStream(seed=2), 0, 8)
    assert not np.array_equal(a, b)


# --- folded normal ---------------------------------------------------------


def test_folded_normal_standard():
    assert folded_normal_mean(0.0, 1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-12
    )


def test_folded_normal_degenerate():
    assert folded_normal_mean(3.0, 0.0) == 3.0
    assert folded_normal_mean(-3.0, 0.0) == 3.0


def test_folded_normal_large_offset_vs_quadrature():
    assert folded_normal_mean(9.0, 5.5) == pytest.approx(
        folded_mean_quadrature(9.0, 5.5), abs=1e-4
    )


def test_folded_normal_grid_vs_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = float(rng.uniform(-8.0, 8.0))
        s2 = float(rng.uniform(0.05, 9.0))
        assert folded_normal_mean(m, s2) == pytest.approx(
            folded_mean_quadrature(m, s2), abs=1e-6
        )


def test_folded_normal_symmetry_and_lower_bounds():
    rng = np.random.default_rng(18)
    for _ in range(100):
        m = float(rng.uniform(-5.0, 5.0))
        s2 = float(rng.uniform(0.0, 4.0))
        value = folded_normal_mean(m, s2)
        assert folded_normal_mean(-m, s2) == pytest.approx(value, abs=1e-12)
        assert value >= abs(m) - 1e-12
        if s2 > 0:
            half = math.sqrt(s2) * math.sqrt(2 / math.pi) * math.exp(-m * m / (2 * s2))
            assert value >= half - 1e-12


def test_folded_normal_negative_variance():
    with pytest.raises(NegativeVariance):
        folded_normal_mean(1.0, -0.5)


# --- disturbance gap -------------------------------------------------------


def test_gap_zero_for_silent_network():
    spec = NoiseSpec.none(3)
    est = e_max_delta_omega(np.zeros(3), spec)
    assert (est.value, est.pair) == (0.0, (0, 1))
    with pytest.raises(ValueError, match="at least one node pair"):
        e_max_delta_omega([0.0], NoiseSpec.none(1))


def test_gap_reference_network_all_pairs():
    spec = NoiseSpec.gaussian(VARIANCES5)
    est = e_max_delta_omega(OMEGA5, spec, pairs="all")
    # dominated by the node pair with frequencies 10 and 1
    assert est.pair == (1, 2)
    assert est.value == pytest.approx(folded_normal_mean(9.0, 5.5), abs=1e-12)
    assert est.value == pytest.approx(9.000068, abs=1e-5)


def test_gap_two_node_zero_frequencies():
    spec = NoiseSpec.gaussian([1.0, 1.0])
    est = e_max_delta_omega(np.zeros(2), spec)
    assert est.value == pytest.approx(math.sqrt(4.0 / math.pi), abs=1e-12)


def test_gap_edges_only_can_be_smaller():
    g = build_tree(3, [(0, 1), (1, 2)])
    omega = np.array([0.0, 5.0, 10.0])
    spec = NoiseSpec.none(3)
    all_pairs = e_max_delta_omega(omega, spec, pairs="all")
    edges_only = e_max_delta_omega(omega, spec, pairs="edges", graph=g)
    assert all_pairs.value == 10.0
    assert edges_only.value == 5.0


def gap_quadrature(m, s, a, b=0.0):
    """Independent oracle: ``E|m + G + V|`` by quadrature of the
    folded-normal mean (``G ~ Normal(0, s^2)``) of ``m + v`` against the
    density of ``V``, the uniform on [-a, a] or, with ``b``, the
    trapezoid of the sum of uniforms on [-a, a] and [-b, b]; the
    density's corners and the points about the kink at ``v = -m`` break
    the range."""

    def folded(y):
        if s == 0:
            return abs(y)
        z = y / (s * math.sqrt(2))
        return s * math.sqrt(2 / math.pi) * math.exp(-z * z) + y * math.erf(z)

    def density(v):
        return min(a + b - abs(v), 2 * b) / (4 * a * b) if b else 1 / (2 * a)

    corners = {-a - b, -a + b, a - b, a + b}
    kinks = {-m + k * s for k in (-8, -1, 0, 1, 8)}
    points = sorted(corners | {p for p in kinks if -a - b < p < a + b})
    # each piece to 1e-14 of the answer's scale, which exceeds a / 2
    tolerance = 1e-14 * (abs(m) + a + s)
    return math.fsum(
        quad(lambda v: folded(m + v) * density(v), lo, hi, epsabs=tolerance)[0]
        for lo, hi in zip(points, points[1:])
    )


def uniform_node(half_width):
    return NodeNoise("uniform", variance=half_width**2 / 3)


#: Ratios of the narrower scale of a pair to the wider one, on both
#: sides of the one below which a uniform is folded into the gaussian.
RATIOS = [1e-12, 1e-8, 0.9e-4, 1.1e-4, 0.1, 1.0]


@pytest.mark.parametrize(
    "other",
    ["none", "gaussian", "narrow gaussian", "uniform"],
)
def test_gap_agrees_with_quadrature_of_the_convolution(other):
    # one uniform node of half-width a paired with a node of no noise, a
    # gaussian of standard deviation a / ratio or a * ratio, or a uniform
    # of half-width a * ratio: width ratios from 1e-12 to 1e12, at means
    # about the corners of the sum's density, at three magnitudes
    for ratio in RATIOS if other != "none" else [None]:
        for a in (1.0, 2.0**-400, 2.0**400):
            s = b = 0.0
            if other == "none":
                second = NodeNoise("none")
            elif other == "uniform":
                b = a * ratio
                second = uniform_node(b)
            else:
                s = a / ratio if other == "gaussian" else a * ratio
                second = NodeNoise("gaussian", variance=s * s)
            spec = NoiseSpec((uniform_node(a), second))
            reach = a + b + s
            for offset in (0.0, 0.3 * a, a - b, a, a + b, 0.99 * reach, 1.5 * reach):
                got = e_max_delta_omega([offset, 0.0], spec).value
                want = gap_quadrature(offset, s, a, b)
                assert got == pytest.approx(want, rel=1e-10, abs=0), (offset, s, a, b)


@st.composite
def gap_cases(draw, families=FAMILIES):
    """A random tree of 2-8 nodes, its frequencies and a spec mixing
    ``families`` with negative means, and a pair set."""
    n = draw(st.integers(2, 8))
    parents = [draw(st.integers(0, node - 1)) for node in range(1, n)]
    graph = build_tree(n, [(parent, node) for node, parent in enumerate(parents, 1)])
    omega = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    nodes = []
    for _ in range(n):
        family = draw(st.sampled_from(families))
        if family == "none":
            nodes.append(NodeNoise("none"))
        else:
            mean = draw(st.floats(-3.0, 3.0))
            variance = draw(st.floats(0.01, 9.0))
            nodes.append(NodeNoise(family, mean=mean, variance=variance))
    pairs = draw(st.sampled_from(["all", "edges"]))
    return graph, np.array(omega), NoiseSpec(tuple(nodes)), pairs


def pair_list(graph, pairs):
    if pairs == "edges":
        return [tuple(sorted(edge)) for edge in graph.edges]
    return [(i, j) for i in range(graph.n) for j in range(i + 1, graph.n)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gap_cases())
def test_gap_agrees_with_the_mean_over_noise_draws(case):
    # every pair's exact gap, taken as the gap of a two-node spec, lies
    # within 4 standard errors of the mean of |disturbed difference| over
    # the pair's draws; the largest over the pair set is the one reported
    graph, omega, spec, pairs = case
    draws = omega + sample_noise_block(spec, RandomStream(seed=27), 0, 20_000)
    exact = {}
    for i, j in pair_list(graph, pairs):
        pair = NoiseSpec((spec.nodes[i], spec.nodes[j]))
        exact[i, j] = e_max_delta_omega(omega[[i, j]], pair).value
        gaps = np.abs(draws[:, i] - draws[:, j])
        stderr = np.std(gaps, ddof=1) / math.sqrt(len(gaps))
        assert abs(exact[i, j] - np.mean(gaps)) <= 4 * stderr + 1e-12, (i, j)
    est = e_max_delta_omega(omega, spec, pairs=pairs, graph=graph)
    assert est.value == max(exact.values())
    assert exact[est.pair] == est.value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gap_cases(families=("gaussian", "none")))
def test_gaussian_gap_keeps_the_bits_of_the_folded_normal(case):
    graph, omega, spec, pairs = case
    shifted, variances = omega + spec.means(), spec.variances()
    pair_set = pair_list(graph, pairs)
    values = [
        folded_normal_mean(shifted[i] - shifted[j], variances[i] + variances[j])
        for i, j in pair_set
    ]
    est = e_max_delta_omega(omega, spec, pairs=pairs, graph=graph)
    assert est.value == max(values)
    assert est.pair == pair_set[values.index(max(values))]


@st.composite
def crowded_gap_cases(draw):
    """A random tree of 2-60 nodes whose frequencies, means and variances
    come from short lists, so many pairs tie, with gaussian, uniform and
    silent nodes mixed, and a pair set."""
    n = draw(st.integers(2, 60))
    parents = [draw(st.integers(0, node - 1)) for node in range(1, n)]
    graph = build_tree(n, [(parent, node) for node, parent in enumerate(parents, 1)])
    values = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4)
    omega = st.lists(st.sampled_from(draw(values)), min_size=n, max_size=n)
    means = st.sampled_from(draw(values))
    variances = st.sampled_from(draw(st.lists(st.floats(0.01, 400.0), min_size=1)))
    nodes = []
    for _ in range(n):
        family = draw(st.sampled_from(FAMILIES))
        if family == "none":
            nodes.append(NodeNoise("none"))
        else:
            nodes.append(NodeNoise(family, draw(means), draw(variances)))
    pairs = draw(st.sampled_from(["all", "edges"]))
    return graph, np.array(draw(omega)), NoiseSpec(tuple(nodes)), pairs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(crowded_gap_cases())
def test_skipped_pairs_change_no_bit_of_the_gap(case):
    # the same value and pair as _gap_mean on every pair, the first pair
    # attaining the largest gap winning a tie
    graph, omega, spec, pairs = case
    shifted = (omega + spec.means()).tolist()
    best, best_pair = -math.inf, None
    for i, j in pair_list(graph, pairs):
        value = _gap_mean(shifted[i] - shifted[j], (spec.nodes[i], spec.nodes[j]))
        if value > best:
            best, best_pair = value, (i, j)
    est = e_max_delta_omega(omega, spec, pairs=pairs, graph=graph)
    assert (est.value, est.pair) == (best, best_pair)


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_a_pair_with_no_mean_gap_can_hold_the_largest_gap(family):
    # the silent pair's gap, 3, is the largest |m|; the noisy pair's,
    # E|X| for a difference of standard deviation 4 (0.80 or 0.82 of it),
    # exceeds it, so a bound tighter than |m| + 0.75 sd(X) would skip the
    # pair that holds the maximum
    noisy = NodeNoise(family, variance=8.0)
    nodes = (NodeNoise("none"), NodeNoise("none"), noisy, noisy)
    est = e_max_delta_omega([0.0, 3.0, 1.5, 1.5], NoiseSpec(nodes))
    assert est.pair == (2, 3)
    assert est.value == _gap_mean(0.0, (noisy, noisy)) > 3.0


@pytest.mark.parametrize("m", [3.0, 1e10, 1e155, 1e200, 1e305, -1e305])
@pytest.mark.parametrize(
    "nodes",
    [
        (uniform_node(1.0), NodeNoise("none")),
        (uniform_node(1.0), uniform_node(2.0)),
        (uniform_node(1.0), uniform_node(1e-9)),
        (uniform_node(1.0), NodeNoise("gaussian", variance=1e-6)),
        (uniform_node(1.0), NodeNoise("gaussian", variance=1e-2)),
    ],
    ids=["uniform", "two-uniforms", "narrow-uniform", "narrow-gaussian", "gaussian"],
)
def test_gap_beyond_the_reach_of_the_noise_is_the_mean_gap(m, nodes):
    # past a + b no uniform sum reaches zero, so the gap is exactly |m|;
    # a gaussian's tail below -|m|, 20 standard deviations or more away,
    # is far below the last bit of |m| (its squares would overflow past
    # 1e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = e_max_delta_omega([m, 0.0], NoiseSpec(nodes))
    assert est.value == abs(m)


def test_gap_whose_width_overflows_names_its_pair():
    # sqrt(3 * 1e308) is inf; at 5e307 the half-width 1.2e154 is finite
    def spec(variance):
        last = NodeNoise("uniform", variance=variance)
        return NoiseSpec((NodeNoise("none"), uniform_node(1.0), last))

    with pytest.raises(NumericError, match=r"nodes 0 and 2 is not finite \(nan\)"):
        e_max_delta_omega([0.0, 1.0, 2.0], spec(1e308))
    # beside a largest |m| of 1e160 the pair is still evaluated, not
    # skipped: its bound on the gap is inf
    with pytest.raises(NumericError, match=r"nodes 0 and 2 is not finite \(nan\)"):
        e_max_delta_omega([0.0, 1e160, 2.0], spec(1e308))
    est = e_max_delta_omega([0.0, 1.0, 2.0], spec(5e307))
    assert math.isfinite(est.value) and est.pair == (0, 2)
    assert est.value == pytest.approx(math.sqrt(3 * 5e307) / 2, rel=1e-12)


class PlacedWords:
    """Stands in for a placed generator whose next words are ``words``:
    ``random`` scales their top 53 bits to [0, 1) as numpy's
    ``Generator.random`` does, which
    ``test_reader_and_uniforms_bits_equal_raw_word_oracle`` pins."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def random(self, out):
        out[:] = (self.words[: len(out)] >> np.uint64(11)) * 2.0**-53
        self.words = self.words[len(out) :]


@pytest.mark.parametrize("special_first", [True, False])
def test_ndtri_is_scipy_specials_in_either_import_order(special_first):
    # noise loads scipy.special's compiled ufuncs without the package; the
    # package, imported before or after, must give the same ufunc and work
    imports = ["import scipy.special", "from treekuramoto import noise"]
    if not special_first:
        imports.reverse()
    script = "\n".join([
        "import math",
        *imports,
        "assert noise.ndtri is scipy.special.ndtri",
        "assert scipy.special.ndtr(0.0) == 0.5",
        "assert math.isclose(scipy.special.logsumexp([0.0, 0.0]), math.log(2))",
        "print('ok')",
    ])
    done = run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_cli_import_leaves_the_numpy_random_package_unloaded():
    # noise loads Philox and Generator without numpy.random's __init__,
    # whose legacy RandomState (mtrand) and other bit generators no command
    # uses; the package, imported later, must reuse the same classes, and a
    # stream must draw the same bits before and after
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import treekuramoto.cli",
        "from treekuramoto import noise",
        "heavy = ('numpy.random', 'numpy.random.mtrand')",
        "print('loaded:', [m for m in heavy if m in sys.modules])",
        "stream = noise.RandomStream(seed=7, trial=3, purpose='order')",
        "before = stream.uniforms(5, 1000)",
        "import numpy.random",
        "assert numpy.random.Philox is noise.Philox",
        "assert numpy.random.Generator is noise.Generator",
        "after = stream.uniforms(5, 1000)",
        "assert np.array_equal(before.view(np.uint64), after.view(np.uint64))",
        "print('ok')",
    ])
    done = run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "loaded: []\nok\n"


def test_noise_takes_numpy_randoms_classes_when_it_is_loaded_first():
    script = "\n".join([
        "import numpy.random",
        "from treekuramoto import noise",
        "assert noise.Philox is numpy.random.Philox",
        "assert noise.Generator is numpy.random.Generator",
        "print('ok')",
    ])
    done = run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_from_package_imports_a_package_laid_out_otherwise(tmp_path, monkeypatch):
    # a submodule that is not there makes _from_package import the package
    # whole and take the name from it
    package = tmp_path / "laid_out_otherwise"
    package.mkdir()
    (package / "__init__.py").write_text("from ._core import thing\n")
    (package / "_core.py").write_text("thing = object()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        (thing,) = _from_package("laid_out_otherwise", "_elsewhere.thing")
        assert thing is sys.modules["laid_out_otherwise._core"].thing
        assert sys.modules["laid_out_otherwise"].thing is thing
    finally:
        sys.modules.pop("laid_out_otherwise", None)
        sys.modules.pop("laid_out_otherwise._core", None)


#: The smallest word, the smallest with a nonzero top 53 bits and the
#: next-to-largest top 53 bits.
EDGE_WORDS = [0, 1 << 11, 2**64 - 2**12]


def test_open_unit_stays_below_one_for_all_ones_words():
    # the top 53 bits all ones: (2**53 - 1) * 2**-53 + 2**-54 rounds to 1
    words = [2**64 - 1, 2**64 - 2**11]
    u = _open_uniforms([PlacedWords(words)], np.empty((1, 2)))[0]
    assert np.all(u < 1.0)
    assert np.all(u == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(ndtri(u)))


def test_open_unit_bits_equal_plain_formula():
    words = RandomStream(seed=17, purpose="words")._generator(0).bit_generator
    words = words.random_raw(100_000)
    words[:3] = EDGE_WORDS
    plain = (words >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    u = _open_uniforms([PlacedWords(words)], np.empty((1, len(words))))[0]
    assert np.array_equal(u.view(np.uint64), plain.view(np.uint64))
    u = RandomStream(seed=17).uniforms(5, 1000)
    assert np.all((0.0 < u) & (u < 1.0))


def oracle_uniforms(words):
    """Open-interval doubles of raw 64-bit words, by the plain formula."""
    return np.minimum((words >> np.uint64(11)) * 2.0**-53 + 2.0**-54, _BELOW_ONE)


def oracle_disturbances(spec, u):
    """Disturbances of uniforms ``u`` ``(steps, n)`` by the plain formulas."""
    out = np.zeros(u.shape)
    for i, node in enumerate(spec.nodes):
        if node.family == "gaussian":
            out[:, i] = ndtri(u[:, i]) * math.sqrt(node.variance) + node.mean
        elif node.family == "uniform":
            half = math.sqrt(3.0 * node.variance)
            out[:, i] = (2.0 * u[:, i] - 1.0) * half + node.mean
    return out


def placed_words(stream, index, count):
    """``count`` raw words of ``stream`` from word ``index``, from a Philox
    placed as ``RandomStream`` documents it: keyed by the stream, its
    counter at the block that holds word ``index``."""
    counter, offset = divmod(index, 4)
    bitgen = Philox(counter=counter, key=stream._key())
    return bitgen.random_raw(offset + count)[offset:]


ORACLE_SPECS = BLOCK_SPECS + [
    # one family with every node and zero means: the scaled store alone
    NoiseSpec.gaussian(VARIANCES5),
    NoiseSpec(tuple(NodeNoise("uniform", variance=v) for v in (1.0, 2.0, 3.0))),
]


@pytest.mark.parametrize("case", range(len(ORACLE_SPECS)))
def test_reader_and_uniforms_bits_equal_raw_word_oracle(case):
    # every double from the raw words of an identically placed Philox,
    # compared bitwise: this pins Generator.random to (w >> 11) * 2**-53
    spec = ORACLE_SPECS[case]
    stream = RandomStream(seed=31, trial=case, purpose="oracle")
    words = placed_words(stream, 5, 100_000)
    u = stream.uniforms(5, 100_000)
    assert u.tobytes() == oracle_uniforms(words).tobytes()

    stride, k0, width = _words_per_step(spec.n), 7, 3
    count = -(-100_000 // (stride * width))
    streams = [stream.child(trial=t) for t in range(width)]
    block = np.empty((count, spec.n, width))
    _NoiseReader(spec, streams, k0).read(block)
    for t, child in enumerate(streams):
        u = oracle_uniforms(placed_words(child, k0 * stride, count * stride))
        expected = oracle_disturbances(spec, u.reshape(count, stride)[:, : spec.n])
        assert block[:, :, t].tobytes() == expected.tobytes()
        assert sample_noise_block(spec, child, k0, count).tobytes() == (
            expected.tobytes()
        )

    # the edge words, and the all-ones one, through the reader's fill
    edge = np.array(EDGE_WORDS + [2**64 - 1], dtype=np.uint64)
    words = np.resize(edge, 2 * stride)
    reader = _NoiseReader(spec, [stream])
    reader._generators = [PlacedWords(words)]
    block = np.empty((2, spec.n, 1))
    reader.read(block)
    u = oracle_uniforms(words).reshape(2, stride)[:, : spec.n]
    assert block[:, :, 0].tobytes() == oracle_disturbances(spec, u).tobytes()
