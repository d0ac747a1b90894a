import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from treekuramoto.noise import (
    FAMILIES,
    InvalidNoiseSpec,
    NegativeVariance,
    UnsupportedFamily,
    _NoiseReader,
    _open_unit,
    sample_noise_block,
)

from conftest import OMEGA5, VARIANCES5


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
    assert est.value == 0.0
    assert est.method == "analytic"


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


def test_gap_monte_carlo_agrees_with_analytic():
    spec = NoiseSpec.gaussian(VARIANCES5)
    analytic = e_max_delta_omega(OMEGA5, spec)
    mc = e_max_delta_omega(
        OMEGA5,
        spec,
        method="mc",
        mc_samples=200_000,
        stream=RandomStream(seed=23),
    )
    assert mc.method == "monte-carlo"
    assert mc.stderr > 0
    assert abs(mc.value - analytic.value) <= 4.0 * mc.stderr


def test_gap_analytic_rejected_for_uniform_family():
    spec = NoiseSpec((NodeNoise("uniform", variance=1.0), NodeNoise("none")))
    with pytest.raises(UnsupportedFamily):
        e_max_delta_omega(np.zeros(2), spec, method="analytic")
    # auto falls back to Monte Carlo
    est = e_max_delta_omega(
        np.zeros(2), spec, mc_samples=10_000, stream=RandomStream(seed=5)
    )
    assert est.method == "monte-carlo"


def test_open_unit_stays_below_one_for_all_ones_words():
    # the top 53 bits all ones: (2**53 - 1) * 2**-53 + 2**-54 rounds to 1
    words = np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64)
    u = _open_unit(words)
    assert np.all(u < 1.0)
    assert np.all(u == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(ndtri(u)))


def test_open_unit_bits_equal_plain_formula():
    words = RandomStream(seed=17, purpose="words")._generator(0)[0].random_raw(100_000)
    words[:3] = [0, 1 << 11, 2**64 - 2**12]  # smallest and next-to-largest
    plain = (words >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    assert np.array_equal(_open_unit(words).view(np.uint64), plain.view(np.uint64))
    u = RandomStream(seed=17).uniforms(5, 1000)
    assert np.all((0.0 < u) & (u < 1.0))
