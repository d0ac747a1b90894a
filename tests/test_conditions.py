import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from treekuramoto import (
    NetworkModel,
    NodeNoise,
    NoiseSpec,
    RandomStream,
    SpectralStats,
    bounds,
    build_tree,
    continuous_reference_kappa,
    edge_laplacian,
    e_max_delta_omega,
    edge_box_sampler,
    mc_spectral_stats,
    recurrence_experiment,
)
from treekuramoto.conditions import (
    DEFAULT_GAMMA,
    HypothesisViolated,
    NonPositiveEigenvalue,
)
from treekuramoto.errors import NumericError
from treekuramoto.linalg import NoConvergence, batch_eigenvalues
from treekuramoto.noise import _mean_and_stderr, sample_noise_block

from conftest import (
    LINE5_EDGES,
    OMEGA5,
    VARIANCES5,
    force_workers,
    no_children_left,
    random_tree,
)

PI = math.pi

# Expectations of the extreme eigenvalues for the reference line-5
# network, frozen from converged tensor Gauss-Hermite quadrature
# (11- and 15-node grids agree to 5 decimals).
TRUTH = {
    0.0: (1.21087, 24.58956),
    -1.6: (0.33258, 24.02031),
    -3.0: (-1.21363, 23.66011),
}


def line5_spec(n3_mean=0.0):
    means = np.array([0.0, 0.0, n3_mean, 0.0, 0.0])
    return NoiseSpec.gaussian(VARIANCES5, means)


@pytest.fixture
def line5():
    return build_tree(5, LINE5_EDGES)


def unit_spectrum(graph):
    """The exact spectrum of ``B^T B``, the undirected variant's."""
    return mc_spectral_stats(graph, np.ones(graph.n), NoiseSpec.none(graph.n))


# --- spectral statistics -----------------------------------------------------


def test_deterministic_spec_is_exact(line5):
    from treekuramoto import weighted_edge_laplacian
    from treekuramoto.linalg import batch_eigenvalues

    stats = mc_spectral_stats(line5, OMEGA5, NoiseSpec.none(5), n_samples=1000)
    ev = batch_eigenvalues(weighted_edge_laplacian(line5, OMEGA5))
    lo, hi = ev[0], ev[-1]
    assert stats.e_lambda_min == lo
    assert stats.e_lambda_max == hi
    assert stats.stderr_min == 0.0
    assert stats.stderr_max == 0.0
    # one Laplacian was solved, whatever the sample count asked for
    assert stats.samples == 1


def test_noise_free_reference_values(line5):
    stats = mc_spectral_stats(line5, OMEGA5, NoiseSpec.none(5), n_samples=1)
    assert stats.e_lambda_min == pytest.approx(1.31, abs=0.01)
    assert stats.e_lambda_max == pytest.approx(24.46, abs=0.01)


@pytest.mark.parametrize("n3_mean", [0.0, -1.6, -3.0])
def test_stochastic_spectral_stats_match_quadrature(line5, n3_mean):
    stats = mc_spectral_stats(
        line5, OMEGA5, line5_spec(n3_mean), n_samples=20_000,
        stream=RandomStream(seed=606),
    )
    lo, hi = TRUTH[n3_mean]
    assert stats.stderr_min > 0 and stats.stderr_max > 0
    assert abs(stats.e_lambda_min - lo) <= 4 * stats.stderr_min
    assert abs(stats.e_lambda_max - hi) <= 4 * stats.stderr_max


def test_negative_mean_drives_expected_minimum_negative(line5):
    stats = mc_spectral_stats(
        line5, OMEGA5, line5_spec(-3.0), n_samples=20_000,
        stream=RandomStream(seed=7),
    )
    assert stats.e_lambda_min < 0


def test_stderr_shrinks_with_sample_count(line5):
    small = mc_spectral_stats(
        line5, OMEGA5, line5_spec(), n_samples=5_000, stream=RandomStream(seed=8)
    )
    large = mc_spectral_stats(
        line5, OMEGA5, line5_spec(), n_samples=20_000, stream=RandomStream(seed=8)
    )
    for a, b in ((small.stderr_min, large.stderr_min), (small.stderr_max, large.stderr_max)):
        assert b == pytest.approx(a / 2.0, rel=0.15)


def test_chunking_does_not_change_results(line5, monkeypatch):
    import treekuramoto.conditions as cond

    reference = mc_spectral_stats(
        line5, OMEGA5, line5_spec(), n_samples=3000, stream=RandomStream(seed=9)
    )
    # a line5 sample takes a 4 x 4 Laplacian and 8 noise words
    monkeypatch.setattr(cond, "_CHUNK_BYTES", 700 * 8 * (4 * 4 + 8))
    rechunked = mc_spectral_stats(
        line5, OMEGA5, line5_spec(), n_samples=3000, stream=RandomStream(seed=9)
    )
    assert rechunked == reference


def line5_batch_bytes(samples):
    """``_CHUNK_BYTES`` of ``samples`` line5 samples, each a 4 x 4
    Laplacian and 8 noise words."""
    return samples * 8 * (4 * 4 + 8)


@pytest.mark.parametrize("batch", [None, 700])
def test_spectral_identical_at_any_worker_count(line5, monkeypatch, batch):
    import treekuramoto.conditions as cond

    if batch is not None:
        # ranges start at 1500 (2 workers), 1000 and 2000 (3 workers),
        # each inside a batch of 700 samples
        monkeypatch.setattr(cond, "_CHUNK_BYTES", line5_batch_bytes(batch))
    runs = {}
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        runs[workers] = mc_spectral_stats(
            line5, OMEGA5, line5_spec(), n_samples=3001, stream=RandomStream(seed=9)
        )
        assert runs[workers].workers == workers
        assert no_children_left()
    for workers in (2, 3):
        # equality compares every field but workers
        assert runs[workers] == runs[1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_eigensolver_failure_names_global_sample(line5, monkeypatch, workers):
    import treekuramoto.conditions as cond

    # samples 1700 and 2400 fail: at 2 workers both lie in the second
    # range (1500..3000), at 3 workers in the second (1000..1999) and the
    # third, and in the batches of 700 samples neither starts a batch
    monkeypatch.setattr(cond, "_CHUNK_BYTES", line5_batch_bytes(700))
    spec, stream = line5_spec(), RandomStream(seed=5)
    draws = stream.child(purpose="spectral")
    bad = [
        OMEGA5[0] + sample_noise_block(spec, draws, k, 1)[0, 0] for k in (1700, 2400)
    ]
    laplacian = cond.weighted_edge_laplacian

    def failing(graph, w):
        lap = laplacian(graph, w)
        lap[np.isin(w[..., 0], bad)] = np.nan
        return lap

    monkeypatch.setattr(cond, "weighted_edge_laplacian", failing)
    force_workers(monkeypatch, workers)
    with pytest.raises(
        NoConvergence, match=r"^eigensolver failed at sample 1700: "
    ) as failure:
        mc_spectral_stats(line5, OMEGA5, spec, n_samples=3001, stream=stream)
    assert failure.value.batch_index == 1700
    assert no_children_left()


def tree50():
    """A random 50-node tree with perfbench's ranges of frequencies and
    Gaussian variances, which takes Sturm counts."""
    rng = np.random.default_rng(21)
    g = random_tree(rng, 50)
    omega = rng.uniform(1.0, 10.0, size=50)
    spec = NoiseSpec.gaussian(rng.uniform(0.5, 5.0, size=50), np.zeros(50))
    return g, omega, spec


def path_tree(n):
    return build_tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n):
    return build_tree(n, [(0, i) for i in range(1, n)])


def test_solver_rule_on_the_measured_grid(line5):
    import treekuramoto.conditions as cond

    # anchors of the timed grid: deep or small trees on eigvalsh, shallow
    # ones from 9 nodes and every tree from 24 nodes on Sturm counts
    binary12 = build_tree(12, [((i - 1) // 2, i) for i in range(1, 12)])
    two_nodes = build_tree(2, [(0, 1)])
    for g in (line5, two_nodes, path_tree(8), path_tree(22)):
        assert not cond._sturm_pays(g)
    for g in (star_tree(9), binary12, path_tree(25), tree50()[0]):
        assert cond._sturm_pays(g)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "path", "star", "caterpillar"]),
    st.one_of(st.integers(2, 7), st.integers(24, 120)),
    st.integers(0, 2**32 - 1),
)
def test_property_solver_rule_by_size(shape, n, seed):
    # a tree of 24 nodes or more has at most n / 2 levels and takes Sturm
    # counts; one of 7 or fewer keeps eigvalsh, whatever its shape
    import treekuramoto.conditions as cond

    if shape == "random":
        g = random_tree(np.random.default_rng(seed), n)
    elif shape == "path":
        g = path_tree(n)
    elif shape == "star":
        g = star_tree(n)
    else:
        spine = (n + 1) // 2
        legs = [(i - spine, i) for i in range(spine, n)]
        g = build_tree(n, [(i, i + 1) for i in range(spine - 1)] + legs)
    assert cond._sturm_pays(g) == (n >= 24)


@pytest.mark.parametrize("graph", [path_tree(50), star_tree(12)], ids=["path50", "star12"])
def test_sample_extremes_independent_of_the_sample_count(monkeypatch, graph):
    # each sample's extremes come from the tree and its own weights: the
    # first 100 of 1 000 samples are the bits of a 100-sample run
    import treekuramoto.conditions as cond

    extremes, eigenvalues = cond.extreme_eigenvalues, cond.batch_eigenvalues
    rows = []

    def sturm(g, w):
        ends = extremes(g, w)
        rows.append(ends)
        return ends

    def lapack(m):
        ev = eigenvalues(m)
        rows.append(ev[:, [0, -1]])
        return ev

    monkeypatch.setattr(cond, "extreme_eigenvalues", sturm)
    monkeypatch.setattr(cond, "batch_eigenvalues", lapack)
    force_workers(monkeypatch, 1)
    rng = np.random.default_rng(8)
    omega = rng.uniform(1.0, 10.0, size=graph.n)
    spec = NoiseSpec.gaussian(rng.uniform(0.5, 5.0, size=graph.n), np.zeros(graph.n))
    runs = []
    for n_samples in (100, 1000):
        rows.clear()
        mc_spectral_stats(graph, omega, spec, n_samples, RandomStream(seed=6))
        runs.append(np.concatenate(rows)[:100])
    assert runs[0].tobytes() == runs[1].tobytes()


@pytest.mark.parametrize("batch", [None, 1, 37, 150])
def test_sturm_spectra_identical_at_any_worker_count_and_batch(monkeypatch, batch):
    import treekuramoto.conditions as cond

    g, omega, spec = tree50()
    assert cond._sturm_pays(g)
    if batch is not None:
        monkeypatch.setattr(cond, "_CHUNK_BYTES", batch * 8 * (14 * 50 + 52))
    runs = {}
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        runs[workers] = mc_spectral_stats(
            g, omega, spec, n_samples=301, stream=RandomStream(seed=4)
        )
        assert runs[workers].workers == workers
        assert no_children_left()
    assert runs[2] == runs[1] and runs[3] == runs[1]
    reference = mc_spectral_stats(
        g, omega, spec, n_samples=301, stream=RandomStream(seed=4)
    )
    assert runs[1] == reference


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sturm_non_finite_weight_names_global_sample(monkeypatch, workers):
    import treekuramoto.conditions as cond

    # samples 130 and 250 get a NaN weight: at 2 workers both lie in the
    # second range (150..300), at 3 in the second (100..199) and third
    g, omega, spec = tree50()
    stream = RandomStream(seed=5)
    draws = stream.child(purpose="spectral")
    bad = [omega[0] + sample_noise_block(spec, draws, k, 1)[0, 0] for k in (130, 250)]
    extremes = cond.extreme_eigenvalues

    def failing(graph, w):
        w = w.copy()
        w[np.isin(w[:, 0], bad), 3] = np.nan
        return extremes(graph, w)

    monkeypatch.setattr(cond, "extreme_eigenvalues", failing)
    monkeypatch.setattr(cond, "_CHUNK_BYTES", 40 * 8 * (14 * 50 + 52))
    force_workers(monkeypatch, workers)
    with pytest.raises(
        NoConvergence, match=r"^eigensolver failed at sample 130: "
    ) as failure:
        mc_spectral_stats(g, omega, spec, n_samples=301, stream=stream)
    assert failure.value.batch_index == 130
    assert no_children_left()


def test_spectral_means_near_the_largest_double_stay_finite(line5):
    # lambda_max of each sample is about 1.7e308: a running sum of the
    # samples overflows, their mean does not
    omega = np.array([1.7e308, 10.0, 1.0, 6.0, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        stats = mc_spectral_stats(
            line5, omega, line5_spec(), n_samples=2000, stream=RandomStream(seed=1)
        )
    assert stats.e_lambda_max == pytest.approx(1.7e308, rel=1e-12)
    assert math.isfinite(stats.stderr_max)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 300),
        elements=st.one_of(
            st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)
        ),
    )
)
def test_scaled_mean_and_stderr_keep_the_bits_of_numpy(x):
    # samples whose squared deviations cannot underflow or overflow
    mean, stderr = _mean_and_stderr(x)
    assert mean == float(np.mean(x))
    if len(x) > 1:
        assert stderr == float(np.std(x, ddof=1) / math.sqrt(len(x)))


def test_no_convergence_carries_sample_index(monkeypatch):
    import treekuramoto.conditions as cond
    from treekuramoto.linalg import NoConvergence, batch_eigenvalues

    real_laplacian = cond.weighted_edge_laplacian
    seen = 0

    def poisoned(graph, w):
        # node 2 of global sample 103 made NaN, wherever its batch starts
        nonlocal seen
        if seen <= 103 < seen + len(w):
            w = w.copy()
            w[103 - seen, 2] = np.nan
        seen += len(w)
        return real_laplacian(graph, w)

    # 100-sample batches of 4 x 4 Laplacians and 8 noise words each
    monkeypatch.setattr(cond, "_CHUNK_BYTES", 100 * 8 * (4 * 4 + 8))
    monkeypatch.setattr(cond, "weighted_edge_laplacian", poisoned)
    # the line, and a tree whose poisoned node 2 joins three edges
    for edges in (LINE5_EDGES, [(0, 1), (1, 2), (2, 3), (4, 2)]):
        seen = 0
        with pytest.raises(NoConvergence) as err:
            mc_spectral_stats(
                build_tree(5, edges),
                OMEGA5,
                line5_spec(),
                n_samples=300,
                stream=RandomStream(seed=1),
            )
        assert err.value.batch_index == 103
        assert "sample 103" in str(err.value)


def test_large_tree_chunks_bounded_and_match_oracle(monkeypatch):
    # 200 nodes: Sturm counts, whose batches are capped by memory at 14 n
    # doubles and 200 noise words a sample, so the samples span several
    # chunks.
    import treekuramoto.conditions as cond
    from treekuramoto.noise import sample_noise_block

    rng = np.random.default_rng(11)
    g = random_tree(rng, 200)
    omega = rng.uniform(1.0, 10.0, size=200)
    spec = NoiseSpec.gaussian(rng.uniform(0.5, 5.0, size=200), np.zeros(200))
    batches = []
    real_extremes = cond.extreme_eigenvalues

    def spy(graph, w):
        batches.append(w.shape[0])
        return real_extremes(graph, w)

    monkeypatch.setattr(cond, "extreme_eigenvalues", spy)
    # the spy counts this process's batches: no worker solves any
    force_workers(monkeypatch, 1)
    n_samples = 240
    stats = mc_spectral_stats(
        g, omega, spec, n_samples=n_samples, stream=RandomStream(seed=12)
    )
    assert len(batches) >= 2 and sum(batches) == n_samples
    assert max(batches) * 8 * (14 * g.n + 200) <= cond._CHUNK_BYTES

    draws = sample_noise_block(
        spec, RandomStream(seed=12).child(purpose="spectral"), 0, n_samples
    )
    b = g.incidence_matrix
    ev = np.array([np.linalg.eigvalsh(b.T @ np.diag(omega + d) @ b) for d in draws])
    assert stats.e_lambda_min == pytest.approx(np.mean(ev[:, 0]), rel=1e-10)
    assert stats.e_lambda_max == pytest.approx(np.mean(ev[:, -1]), rel=1e-10)
    assert stats.stderr_min == pytest.approx(
        np.std(ev[:, 0], ddof=1) / math.sqrt(n_samples), rel=1e-8
    )


def test_spectral_memory_does_not_grow_with_sample_count():
    # 50 nodes: at 4 000 samples one batch of all the Laplacians would
    # take 77 MB. Beyond the two eigenvalue arrays (16 bytes per sample),
    # the peak may grow by at most one batch budget.
    import tracemalloc

    import treekuramoto.conditions as cond

    rng = np.random.default_rng(5)
    g = random_tree(rng, 50)
    omega = rng.uniform(1.0, 10.0, size=50)
    spec = NoiseSpec.gaussian(rng.uniform(0.5, 5.0, size=50), np.zeros(50))

    def peak(n_samples):
        tracemalloc.start()
        try:
            mc_spectral_stats(
                g, omega, spec, n_samples=n_samples, stream=RandomStream(seed=3)
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200), peak(4_000)
    assert large - small < 16 * (4_000 - 200) + cond._CHUNK_BYTES


def test_spectral_stats_validation():
    with pytest.raises(ValueError):
        SpectralStats(2.0, 1.0, 0.0, 0.0, 10)
    with pytest.raises(ValueError):
        SpectralStats(1.0, 2.0, -0.1, 0.0, 10)


# --- frequency-dependent bounds ------------------------------------------------


def test_reference_bounds():
    stats = SpectralStats(1.197, 25.35, 0.0, 0.0, 100_000)
    gamma = PI / 2 - 0.044
    bound = bounds(
        stats, 9.000068, gamma, tau=0.002, kappa=30.0
    )
    assert bound.kappa_min == pytest.approx(8.1697, abs=2e-4)
    assert bound.tau_max == pytest.approx(0.0039664, abs=1e-6)
    assert bound.gamma == gamma


def test_hypothesis_guard():
    stats = SpectralStats(-1.17, 23.669, 0.0, 0.0, 100_000)
    with pytest.raises(HypothesisViolated):
        bounds(stats, 9.0, PI / 2 - 0.05, tau=0.002)
    with pytest.raises(HypothesisViolated):
        bounds(
            SpectralStats(0.0, 1.0, 0.0, 0.0, 1), 0.0, 1.0, tau=0.1
        )


@pytest.mark.parametrize("lam_min", [0.0, -1.17])
@pytest.mark.parametrize(
    "gap, args",
    [
        (9.0, {"gamma": 2.0, "tau": 0.002}),
        (9.0, {"tau": -1.0}),
        (9.0, {"tau": 0.002, "kappa": 0.0}),
        (9.0, {}),
        (-1.0, {"tau": 0.002}),
    ],
    ids=["gamma", "tau", "kappa", "neither", "gap"],
)
def test_hypothesis_is_checked_before_the_arguments(lam_min, gap, args):
    # an indefinite spectrum is the run's numeric error, whatever else is
    # wrong with the arguments
    with pytest.raises(HypothesisViolated):
        bounds(SpectralStats(lam_min, 23.7, 0.0, 0.0, 1), gap, **args)


def test_bounds_require_tau_or_kappa():
    stats = SpectralStats(1.0, 10.0, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        bounds(stats, 0.0, 1.0)
    only_kappa = bounds(stats, 0.0, 1.0, kappa=5.0)
    assert only_kappa.kappa_min is None
    assert only_kappa.tau_max > 0
    only_tau = bounds(stats, 0.0, 1.0, tau=0.01)
    assert only_tau.kappa_min > 0
    # with no kappa given, tau_max is evaluated at kappa_min itself
    at_kmin = bounds(
        stats, 0.0, 1.0, tau=0.01, kappa=only_tau.kappa_min
    )
    assert only_tau.tau_max == at_kmin.tau_max


def test_round_trip_inversion():
    # Solving each bound formula back for its input must reproduce it.
    stats = SpectralStats(1.197, 25.35, 0.0, 0.0, 100_000)
    gamma = PI / 2 - 0.044
    emax = 9.000068
    tau, kappa = 0.002, 30.0
    bound = bounds(stats, emax, gamma, tau=tau, kappa=kappa)
    sin_g = math.sin(gamma)
    tau_back = ((1 - sin_g) * PI / 2) / (
        bound.kappa_min * sin_g**2 * stats.e_lambda_min - emax
    )
    assert tau_back == pytest.approx(tau, rel=1e-9)
    kappa_back = ((1 + sin_g) * gamma / bound.tau_max - emax) / stats.e_lambda_max
    assert kappa_back == pytest.approx(kappa, rel=1e-9)


def test_kappa_min_decreasing_in_gamma():
    stats = SpectralStats(1.197, 25.35, 0.0, 0.0, 100_000)
    gammas = np.linspace(0.3, PI / 2 - 1e-3, 60)
    values = [
        bounds(stats, 9.0, g, tau=0.002).kappa_min
        for g in gammas
    ]
    assert np.all(np.diff(values) < 0)


def test_tau_max_decreasing_in_kappa():
    stats = SpectralStats(1.197, 25.35, 0.0, 0.0, 100_000)
    kappas = np.linspace(9.0, 100.0, 50)
    values = [
        bounds(stats, 9.0, PI / 2 - 0.05, kappa=k).tau_max
        for k in kappas
    ]
    assert np.all(np.diff(values) < 0)


# --- undirected bounds ---------------------------------------------------------


def test_undirected_two_node_hand_value():
    # gamma = pi/4, tau = 0.01, silent network; cross-checked with
    # 50-digit arithmetic.
    g = build_tree(2, [(0, 1)])
    bound = bounds(unit_spectrum(g), 0.0, PI / 4, tau=0.01)
    mpmath.mp.dps = 50
    g4 = mpmath.pi / 4
    expected = ((1 - mpmath.sin(g4)) * mpmath.pi / (2 * mpmath.mpf("0.01"))) / (
        mpmath.sin(g4) ** 2 * 2
    )
    assert bound.kappa_min == pytest.approx(float(expected), rel=1e-12)
    assert bound.kappa_min == pytest.approx(46.01, abs=0.01)


def test_undirected_line5_uses_edge_laplacian_spectrum():
    g = build_tree(5, LINE5_EDGES)
    gamma = PI / 2 - 0.05
    bound = bounds(unit_spectrum(g), 9.0, gamma, tau=0.002, kappa=30.0)
    lam_min = 2 - 2 * math.cos(PI / 5)
    lam_max = 2 - 2 * math.cos(4 * PI / 5)
    sin_g = math.sin(gamma)
    expected_kmin = ((1 - sin_g) * PI / 0.004 + 9.0) / (sin_g**2 * lam_min)
    expected_tmax = (1 + sin_g) * gamma / (30.0 * lam_max + 9.0)
    assert bound.kappa_min == pytest.approx(expected_kmin, rel=1e-12)
    assert bound.tau_max == pytest.approx(expected_tmax, rel=1e-12)


@st.composite
def relabelled_trees(draw):
    """A random tree of 2-60 nodes, its edges listed in a shuffled order
    and each edge's orientation drawn."""
    n = draw(st.integers(2, 60))
    edges = [(draw(st.integers(0, node - 1)), node) for node in range(1, n)]
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return build_tree(n, [(h, t) if f else (t, h) for (t, h), f in zip(edges, flips)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(relabelled_trees())
def test_unit_spectrum_is_the_edge_laplacians(graph):
    stats = unit_spectrum(graph)
    ev = batch_eigenvalues(edge_laplacian(graph))[[0, -1]]
    assert (stats.e_lambda_min, stats.e_lambda_max) == tuple(ev)
    assert (stats.stderr_min, stats.stderr_max) == (0.0, 0.0)


def test_two_node_bound_product_approaches_half_pi():
    g = build_tree(2, [(0, 1)])
    gamma = PI / 2 - 1e-6
    bound = bounds(unit_spectrum(g), 0.0, gamma, tau=0.01)
    product = bound.kappa_min * bound.tau_max
    assert abs(product - PI / 2) <= 1e-6 * (PI / 2)


def test_overflowing_tau_max_denominator_is_numeric_error(line5):
    # kappa * lambda_max overflows; tau_max would read 0.0, though the
    # true bound, about 1e-309, is a double
    stats = SpectralStats(1.2, 24.6, 0.0, 0.0, 1)
    with pytest.raises(NumericError, match="not finite"):
        bounds(stats, 9.0, tau=0.002, kappa=1e308)
    with pytest.raises(NumericError, match="not finite"):
        bounds(unit_spectrum(line5), 9.0, tau=0.002, kappa=1e308)


# --- continuous-time reference ---------------------------------------------------


def test_reference_kappa_line5(line5):
    value = continuous_reference_kappa(OMEGA5, line5, PI / 2 - 1e-9)
    assert value == pytest.approx(9.0 / 1.3137832948436456, rel=1e-9)
    assert value == pytest.approx(6.85, abs=0.01)


def test_reference_kappa_equal_frequencies(line5):
    assert continuous_reference_kappa(np.full(5, 3.0), line5, 1.0) == 0.0


def test_reference_kappa_two_node():
    g = build_tree(2, [(0, 1)])
    value = continuous_reference_kappa(np.array([1.0, 2.0]), g, PI / 2 - 1e-12)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_reference_kappa_rejects_nonpositive_frequencies():
    g = build_tree(2, [(0, 1)])
    with pytest.raises(NonPositiveEigenvalue):
        continuous_reference_kappa(np.array([1.0, -5.0]), g, 1.0)


def test_paper_conditions_bound_the_dynamics_on_random_trees():
    # The kappa condition is sufficient: at 1.2 kappa_min(tau) every trial
    # from the admissible box returns to the cohesive set. The tau
    # condition is necessary: at 1.2 tau_max(kappa) every trial escapes.
    # Six seeded trees of 3-8 nodes, half with uniform noise, through
    # the library's own spectra, gap and bounds. Neither bound is sharp:
    # the return fraction stays 1.0 far below kappa_min, and every trial
    # escapes from 0.8 tau_max up, so this catches a tau_max that is too
    # small but no bound that is too loose (README, "The conditions
    # against the dynamics").
    rng = np.random.default_rng(909)
    failures = []
    for tree in range(6):
        n = int(rng.integers(3, 9))
        graph = random_tree(rng, n)
        omega = rng.uniform(5.0, 10.0, n)
        family = "uniform" if tree % 2 else "gaussian"
        spec = NoiseSpec(
            tuple(NodeNoise(family, variance=v) for v in rng.uniform(0.1, 2.0, n))
        )
        stream = RandomStream(seed=9000 + tree)
        stats = mc_spectral_stats(graph, omega, spec, n_samples=4000, stream=stream)
        gap = e_max_delta_omega(omega, spec).value
        kappa = 1.2 * bounds(stats, gap, tau=0.002).kappa_min
        tau_max = bounds(stats, gap, kappa=kappa).tau_max
        halves = (("return", 0.002, 20_000), ("escape", 1.2 * tau_max, 5_000))
        for half, tau, horizon in halves:
            model = NetworkModel(
                graph=graph, omega=omega, noise=spec, kappa=kappa, tau=tau,
                variant="frequency_dependent",
            )
            run = recurrence_experiment(
                model, edge_box_sampler(), DEFAULT_GAMMA, trials=64, horizon=horizon,
                stream=stream,
            )
            fraction = run.return_fraction if half == "return" else run.escaped_fraction
            if fraction != 1.0:
                failures.append(f"tree {tree} ({n} nodes, {family}): {half} {fraction}")
    assert not failures, failures
