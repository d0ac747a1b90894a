import dataclasses
import math
import os
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treekuramoto import _fork, analysis, dynamics
from treekuramoto import (
    NetworkModel,
    NoiseSpec,
    RandomStream,
    build_tree,
    drift_estimate,
    drift_sweep,
    edge_box_sampler,
    fixed_initial,
    mc_spectral_stats,
    recurrence_experiment,
    simulate,
)
from treekuramoto.analysis import (
    ESCAPE_TOLERANCE,
    InvalidInitSampler,
    wilson_interval,
)
from treekuramoto.errors import NumericError
from treekuramoto.dynamics import edge_geodesics, geodesic_distance, wrap_angle
from treekuramoto.graph import TreeGraph
from treekuramoto.noise import _words_per_step, sample_noise_block

from conftest import (
    THETA0_5,
    force_workers,
    make_line5_model,
    no_children_left,
    random_tree,
)

PI = math.pi
GAMMA = PI / 2 - 0.05


def two_node_model(kappa=1.0, tau=0.3, omega=(0.0, 0.0)):
    g = build_tree(2, [(0, 1)])
    return NetworkModel(
        graph=g,
        omega=np.array(omega, dtype=float),
        noise=NoiseSpec.none(2),
        kappa=kappa,
        tau=tau,
        variant="undirected",
    )


# --- simulate ------------------------------------------------------------------


def test_constant_trajectory_for_locked_silent_network():
    g = build_tree(3, [(0, 1), (1, 2)])
    model = NetworkModel(g, np.zeros(3), NoiseSpec.none(3), 1.0, 0.1, "undirected")
    rec = simulate(model, np.full(3, 0.4), 50, RandomStream(seed=1))
    assert np.all(rec.theta == 0.4)
    assert np.all(dynamics.drift_values(g, rec.theta, GAMMA) == 0.0)
    assert np.all(rec.max_edge_distance <= GAMMA)
    assert np.all(rec.max_edge_distance == 0.0)


def test_record_internal_consistency():
    model = make_line5_model()
    rec = simulate(model, THETA0_5, 400, RandomStream(seed=2))
    assert rec.horizon == 400
    assert rec.theta.shape == (401, 5)
    assert rec.realized_frequency.shape == (401, 5)
    recomputed_v = np.array(
        [dynamics.drift_values(model.graph, rec.theta[k], GAMMA) for k in range(401)]
    )
    assert np.allclose(
        dynamics.drift_values(model.graph, rec.theta, GAMMA), recomputed_v, atol=1e-12
    )
    # the kernel's per-step maxima are the maxima of the edge geodesics
    assert np.array_equal(
        rec.max_edge_distance, edge_geodesics(model.graph, rec.theta).max(axis=1)
    )


def test_reference_zero_mean_run_stays_cohesive():
    model = make_line5_model()
    rec = simulate(model, THETA0_5, 5000, RandomStream(seed=10))
    assert bool(np.all(rec.max_edge_distance <= GAMMA))
    assert rec.max_edge_distance.max() < GAMMA


def test_realized_frequency_column_matches_stream():
    model = make_line5_model()
    stream = RandomStream(seed=3)
    rec = simulate(model, THETA0_5, 20, stream)
    noise_stream = stream.child(purpose="noise")
    for k in (0, 7, 20):
        expected = model.omega + sample_noise_block(model.noise, noise_stream, k, 1)[0]
        assert np.array_equal(rec.realized_frequency[k], expected)


def test_simulation_reproducible_bitwise():
    model = make_line5_model()
    a = simulate(model, THETA0_5, 300, RandomStream(seed=4))
    b = simulate(model, THETA0_5, 300, RandomStream(seed=4))
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.realized_frequency, b.realized_frequency)
    assert np.array_equal(a.max_edge_distance, b.max_edge_distance)
    assert np.array_equal(
        dynamics.drift_values(model.graph, a.theta, GAMMA),
        dynamics.drift_values(model.graph, b.theta, GAMMA),
    )


def test_simulate_validations():
    model = make_line5_model()
    with pytest.raises(ValueError):
        simulate(model, THETA0_5, 0, RandomStream(seed=1))
    with pytest.raises(ValueError):
        simulate(model, np.zeros(3), 10, RandomStream(seed=1))


# --- initial-state samplers -------------------------------------------------------


def test_edge_box_sampler_band_and_determinism():
    rng = np.random.default_rng(5)
    for trial in range(30):
        g = random_tree(rng, int(rng.integers(2, 10)))
        sampler = edge_box_sampler(0.7, 1.1)
        stream = RandomStream(seed=trial, purpose="init")
        theta = sampler(g, stream)
        again = sampler(g, stream)
        assert np.array_equal(theta, again)
        dist = edge_geodesics(g, theta)
        assert np.all(dist >= 0.7) and np.all(dist < 1.1)
        assert theta[0] == 0.0


def scanned_edge_box_sample(low, high, graph, stream):
    """Reference: the sampler's former placement, which rescans the edge
    list until every node is placed (quadratic for leaf-first lists)."""
    u = stream.uniforms(0, graph.m)
    signed = 2.0 * u - 1.0
    diffs = np.where(signed >= 0.0, 1.0, -1.0) * (low + np.abs(signed) * (high - low))
    theta = np.full(graph.n, np.nan)
    theta[0] = 0.0
    known = 1
    while known < graph.n:
        progressed = False
        for e, (tail, head) in enumerate(graph.edges):
            if np.isnan(theta[head]) and not np.isnan(theta[tail]):
                theta[head] = theta[tail] - diffs[e]
                known += 1
                progressed = True
            elif np.isnan(theta[tail]) and not np.isnan(theta[head]):
                theta[tail] = theta[head] + diffs[e]
                known += 1
                progressed = True
        if not progressed:
            raise InvalidInitSampler("graph is not connected")
    return wrap_angle(theta)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    band=st.sampled_from([(0.0, PI / 2), (0.7, 1.1), (GAMMA, PI / 2)]),
    reversed_path=st.booleans(),
)
@example(n=300, seed=3, band=(0.0, PI / 2), reversed_path=True)
def test_edge_box_sampler_matches_edge_scan(n, seed, band, reversed_path):
    rng = np.random.default_rng(seed)
    if reversed_path:
        # leaf first: the scan places one node per pass over the edges
        edges = [(i, i + 1) for i in reversed(range(n - 1))]
    else:
        # a random recursive tree, relabelled, reoriented and reordered
        label = rng.permutation(n)
        edges = [(label[int(rng.integers(0, i))], label[i]) for i in range(1, n)]
        edges = [e[::-1] if rng.integers(0, 2) else e for e in edges]
        edges = [edges[i] for i in rng.permutation(n - 1)]
    graph = build_tree(n, edges)
    for trial in range(3):
        stream = RandomStream(seed=seed, trial=trial, purpose="init")
        expected = scanned_edge_box_sample(*band, graph, stream)
        assert edge_box_sampler(*band)(graph, stream).tobytes() == expected.tobytes()


def test_edge_box_sampler_rejects_disconnected_graph():
    # build_tree refuses these edges; a TreeGraph built directly does not
    graph = TreeGraph(n=5, edges=((3, 4), (0, 1), (2, 3)))
    with pytest.raises(InvalidInitSampler, match="graph is not connected"):
        edge_box_sampler()(graph, RandomStream(seed=0))


def test_edge_box_sampler_validation():
    with pytest.raises(ValueError):
        edge_box_sampler(-0.1, 1.0)
    with pytest.raises(ValueError):
        edge_box_sampler(1.0, 1.0)
    with pytest.raises(ValueError):
        edge_box_sampler(0.0, PI)


def test_invalid_init_sampler_detected():
    model = two_node_model()

    def bad_sampler(graph, stream):
        return np.array([0.0, PI - 0.1])  # edge distance above pi/2

    with pytest.raises(InvalidInitSampler):
        recurrence_experiment(model, bad_sampler, GAMMA, 2, 10, RandomStream(seed=1))


# --- recurrence ----------------------------------------------------------------


def oracle_trial_stats(max_edge, gamma):
    """Independent scalar re-implementation of the per-trial bookkeeping."""
    level = PI / 2 - ESCAPE_TOLERANCE
    in0 = max_edge[0] <= gamma
    exited = False
    return_time = -1
    escape_time = 0 if max_edge[0] >= level else -1
    for k in range(1, len(max_edge)):
        inside = max_edge[k] <= gamma
        if return_time < 0 and inside and (not in0 or exited):
            return_time = k
        if in0 and not inside:
            exited = True
        if escape_time < 0 and max_edge[k] >= level:
            escape_time = k
    if in0 and not exited:
        return_time = 1
    return return_time, escape_time, float(max_edge.max())


@st.composite
def small_models(draw):
    """A random tree on 2-8 nodes with Gaussian noise, either variant."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_tree(rng, n)
    return NetworkModel(
        graph=graph,
        omega=rng.uniform(0.0, 10.0, n),
        noise=NoiseSpec.gaussian(
            rng.uniform(0.5, 5.0, n), rng.uniform(-2.0, 2.0, n)
        ),
        kappa=float(rng.uniform(0.5, 10.0)),
        tau=float(rng.uniform(0.002, 0.05)),
        variant=draw(st.sampled_from(["frequency_dependent", "undirected"])),
    )


#: Line5 at a large tau, where the kernel's wrap bound holds for some
#: sub-blocks and fails for others, in the batch and in each single
#: trajectory: ``(model, trials, horizon, gamma, block_words, seed)``.
#: 333 steps are 5 sub-blocks of 64 and 13 steps; chunks of 150 steps
#: at 5 trials, and 750 steps for one trajectory.
LARGE_TAU_CASES = [
    (make_line5_model(tau=0.0032), 5, 333, 1.0, 8 * 5 * 150, 5),
    (make_line5_model(tau=0.042, variant="undirected"), 5, 333, 1.0, 8 * 5 * 150, 5),
]


@settings(max_examples=40, deadline=None)
@given(
    small_models(),
    st.integers(1, 5),
    st.integers(1, 40),
    st.floats(0.3, 1.4),
    st.integers(1, 64),
    st.integers(0, 1000),
)
@example(*LARGE_TAU_CASES[0])
@example(*LARGE_TAU_CASES[1])
def test_batch_trials_equal_sequential_simulation(
    model, trials, horizon, gamma, block_words, seed
):
    # chunks of a few steps, so chunk boundaries fall inside the horizon
    base = RandomStream(seed=seed)
    sampler = edge_box_sampler(0.0, PI / 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_MAX_BLOCK_WORDS", block_words)
        stats = recurrence_experiment(model, sampler, gamma, trials, horizon, base)
        for t in range(trials):
            theta0 = sampler(model.graph, base.child(trial=t, purpose="init"))
            rec = simulate(model, theta0, horizon, base.child(trial=t))
            rt, et, mx = oracle_trial_stats(rec.max_edge_distance, gamma)
            assert stats.return_time[t] == rt
            assert stats.escape_time[t] == et
            assert stats.max_excursion[t] == pytest.approx(mx, abs=0.0)
            assert stats.returned[t] == (rt >= 0)
            assert stats.started_in_set[t] == (rec.max_edge_distance[0] <= gamma)


def count_kernel_wraps(monkeypatch):
    """Count the kernel's steps wrapped each way. The kernel's arrays
    are node-first 2-d; ``wrap_angle``'s 1-d calls are not counted."""
    counts = {"small": 0, "general": 0}
    small, general = dynamics._wrap_small, dynamics._wrap_inplace

    def counted_small(x, mask):
        counts["small"] += 1
        return small(x, mask)

    def counted_general(x, scratch, mask):
        counts["general"] += x.ndim == 2
        return general(x, scratch, mask)

    monkeypatch.setattr(dynamics, "_wrap_small", counted_small)
    monkeypatch.setattr(dynamics, "_wrap_inplace", counted_general)
    return counts


@pytest.mark.parametrize("case", range(len(LARGE_TAU_CASES)))
def test_large_tau_cases_take_both_wraps(case, monkeypatch):
    model, trials, horizon, gamma, block_words, seed = LARGE_TAU_CASES[case]
    monkeypatch.setattr(analysis, "_MAX_BLOCK_WORDS", block_words)
    base = RandomStream(seed=seed)
    sampler = edge_box_sampler(0.0, PI / 2)
    counts = count_kernel_wraps(monkeypatch)
    recurrence_experiment(model, sampler, gamma, trials, horizon, base)
    assert counts["small"] > 0 and counts["general"] > 0, counts
    counts.update(small=0, general=0)
    for t in range(trials):
        theta0 = sampler(model.graph, base.child(trial=t, purpose="init"))
        simulate(model, theta0, horizon, base.child(trial=t))
    assert counts["small"] + counts["general"] == trials * horizon
    assert counts["small"] > 0 and counts["general"] > 0, counts


@settings(max_examples=25, deadline=None)
@given(
    small_models(),
    st.floats(0.002, 0.2),
    st.integers(1, 200),
    st.integers(0, 1000),
)
def test_guarded_wrap_leaves_results_unchanged(model, tau, horizon, seed):
    # tau up to 0.2 makes most sub-blocks fail the bound, small tau none
    model = dataclasses.replace(model, tau=tau)
    sampler = edge_box_sampler(0.0, PI / 2)

    def run():
        base = RandomStream(seed=seed)
        stats = recurrence_experiment(model, sampler, 1.0, 3, horizon, base)
        theta0 = sampler(model.graph, base.child(trial=0, purpose="init"))
        return stats, simulate(model, theta0, horizon, base.child(trial=0))

    guarded = run()
    with pytest.MonkeyPatch.context() as mp:
        # every sub-block through the general wrap
        mp.setattr(
            dynamics,
            "_wrap_small",
            lambda x, mask: dynamics._wrap_inplace(x, np.empty_like(x), mask),
        )
        general = run()
    for field in dataclasses.fields(guarded[0]):
        assert np.array_equal(
            getattr(guarded[0], field.name), getattr(general[0], field.name)
        ), field.name
    assert guarded[1].theta.tobytes() == general[1].theta.tobytes()


CHUNK_REGIMES = {
    # (model, initial sampler, gamma, trials, horizon)
    "returns_k5": (
        make_line5_model(kappa=5.0), edge_box_sampler(0.0, 0.8), 0.6, 30, 600
    ),
    "exits_k2": (
        make_line5_model(kappa=2.0), edge_box_sampler(0.0, 0.8), 0.6, 30, 600
    ),
    "exits_undirected_k5": (
        make_line5_model(kappa=5.0, variant="undirected"),
        edge_box_sampler(0.0, 1.0),
        0.9,
        30,
        600,
    ),
    "escapes": (
        make_line5_model(means=np.array([0.0, 0.0, -3.0, 0.0, 0.0])),
        fixed_initial(THETA0_5),
        GAMMA,
        10,
        2000,
    ),
}


@pytest.mark.parametrize("regime", sorted(CHUNK_REGIMES))
def test_recurrence_independent_of_chunk_size(regime, monkeypatch):
    model, sampler, gamma, trials, horizon = CHUNK_REGIMES[regime]
    run = lambda: recurrence_experiment(  # noqa: E731
        model, sampler, gamma, trials, horizon, RandomStream(seed=11)
    )
    reference = run()
    # the regime exercises the bookkeeping it is named for
    exited_and_returned = reference.started_in_set & (reference.return_time > 1)
    assert reference.returned.any()
    assert {
        "returns_k5": (~reference.started_in_set & reference.returned).any(),
        "exits_k2": exited_and_returned.any() and not reference.returned.all(),
        "exits_undirected_k5": exited_and_returned.any() and reference.escaped.any(),
        "escapes": reference.escaped.all(),
    }[regime]
    for steps_per_chunk in (1, 3, 7):
        # 8 noise words per step for five nodes
        words = 8 * trials * steps_per_chunk
        monkeypatch.setattr(analysis, "_MAX_BLOCK_WORDS", words)
        chunked = run()
        for field in dataclasses.fields(reference):
            assert np.array_equal(
                getattr(chunked, field.name), getattr(reference, field.name)
            ), (steps_per_chunk, field.name)


@pytest.mark.parametrize("regime", sorted(CHUNK_REGIMES))
def test_recurrence_independent_of_chunks_below_the_floor(regime, monkeypatch):
    # the same comparison at chunks of 1, 3 and 7 steps, which the floor
    # of one kernel sub-block per chunk otherwise rounds up
    monkeypatch.setattr(analysis, "_MIN_CHUNK_STEPS", 1)
    test_recurrence_independent_of_chunk_size(regime, monkeypatch)


def test_recurrence_identical_across_budgets_with_partial_read_groups(monkeypatch):
    # 37 trials: the noise reader's groups of 16 end in one of 5, and
    # every chunk is read into its state rows and stepped in place there
    model, sampler, gamma, _, horizon = CHUNK_REGIMES["exits_undirected_k5"]
    trials = 37
    force_workers(monkeypatch, 1)
    monkeypatch.setattr(analysis, "_MIN_CHUNK_STEPS", 1)
    run = lambda: recurrence_experiment(  # noqa: E731
        model, sampler, gamma, trials, horizon, RandomStream(seed=37)
    )
    reference = run()
    assert reference.returned.any() and reference.escaped.any()
    for steps_per_chunk in (1, 5, 64, 163, horizon):
        monkeypatch.setattr(analysis, "_MAX_BLOCK_WORDS", 8 * trials * steps_per_chunk)
        assert analysis._chunk_steps(5, trials) == steps_per_chunk
        chunked = run()
        for field in dataclasses.fields(reference):
            assert np.array_equal(
                getattr(chunked, field.name), getattr(reference, field.name)
            ), (steps_per_chunk, field.name)
    # and trial by trial, each column follows simulate's trajectory
    base = RandomStream(seed=37)
    for t in (0, 16, 36):
        theta0 = sampler(model.graph, base.child(trial=t, purpose="init"))
        rec = simulate(model, theta0, horizon, base.child(trial=t))
        rt, et, mx = oracle_trial_stats(rec.max_edge_distance, gamma)
        assert (reference.return_time[t], reference.escape_time[t]) == (rt, et)
        assert reference.max_excursion[t] == mx


def test_batch_equals_sequential_below_the_chunk_floor(monkeypatch):
    # batch chunks of a few steps, so their seams fall inside the short
    # horizons of the property test
    monkeypatch.setattr(analysis, "_MIN_CHUNK_STEPS", 1)
    test_batch_trials_equal_sequential_simulation()


@pytest.mark.parametrize("n", [5, 50, 200])
@pytest.mark.parametrize("width", [1, 17, 200])
def test_recurrence_frequency_blocks_stay_bounded(n, width, monkeypatch):
    # a path: two coupling blocks at any n, so the kernel stays cheap
    rng = np.random.default_rng(n)
    model = NetworkModel(
        graph=build_tree(n, [(i, i + 1) for i in range(n - 1)]),
        omega=rng.uniform(1.0, 10.0, n),
        noise=NoiseSpec.gaussian(rng.uniform(0.5, 5.0, n), np.zeros(n)),
        kappa=5.0,
        tau=0.002,
        variant="frequency_dependent",
    )
    words = _words_per_step(n)
    # past both the word budget and the floor: at least two chunks
    horizon = analysis._MAX_BLOCK_WORDS // (words * width) + dynamics._SUB_STEPS + 1
    blocks = []
    kernel = analysis._integrate

    def spy(model, theta, frequency, out, step_max=None):
        blocks.append((frequency.shape, frequency.base, out.base))
        return kernel(model, theta, frequency, out, step_max)

    monkeypatch.setattr(analysis, "_integrate", spy)
    force_workers(monkeypatch, 1)
    recurrence_experiment(
        model, edge_box_sampler(), 1.0, width, horizon, RandomStream(seed=n)
    )
    assert len(blocks) >= 2 and sum(shape[0] for shape, _, _ in blocks) == horizon
    # every chunk's noise is read into the rows of one states buffer and
    # stepped there: no other chunk buffer
    states = blocks[0][1]
    for (steps, nodes, columns), frequency, out in blocks:
        assert (nodes, columns) == (n, width)
        assert frequency is states and out is states
    # the budget counts a step's noise words, and the buffer holds one
    # more row, the chunk's start state
    budget = analysis._MAX_BLOCK_WORDS
    if len(states) - 1 <= dynamics._SUB_STEPS:
        budget = max(budget, analysis._MAX_FLOOR_WORDS)
    assert states.nbytes <= 8 * (budget + words * width)
    assert (len(states) - 1) * words * width <= budget


@pytest.mark.parametrize(
    "n, width, steps",
    [
        (5, 1, 16384),  # one line5 trial: the word budget in one buffer
        (5, 100, 163),  # line5's 200 trials on two workers: the word budget
        (200, 100, 52),  # the floor, capped at its word limit: 8.3 MB
        (200, 5000, 1),  # the floor would take 1 GB; the budget gives none
        (200, 300, 17),  # the floor, capped at its word limit
    ],
)
def test_recurrence_chunk_steps(n, width, steps):
    assert analysis._chunk_steps(n, width) == steps


@pytest.mark.parametrize(
    "n, steps",
    [
        (5, 8192),  # one line5 trajectory: half the word budget per buffer
        (50, 1260),  # one trajectory on a 50-node tree (52 words a step)
        (200, 327),  # one trajectory on a 200-node tree
    ],
)
def test_trajectory_chunk_steps(n, steps):
    # a trajectory keeps its frequencies beside its states: two buffers
    assert analysis._chunk_steps(n, 1, buffers=2) == steps


WORKER_REGIMES = {
    "cohesive": (make_line5_model(), edge_box_sampler(0.0, 0.8), GAMMA, 400),
    **{
        name: CHUNK_REGIMES[name][:3] + (CHUNK_REGIMES[name][4],)
        for name in ("exits_k2", "escapes")
    },
}


@pytest.mark.parametrize("regime", sorted(WORKER_REGIMES))
def test_recurrence_identical_at_any_worker_count(regime, monkeypatch):
    model, sampler, gamma, horizon = WORKER_REGIMES[regime]
    runs = {}
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        # 7 trials: uneven slices of 3+4 and 2+2+3 trials
        runs[workers] = recurrence_experiment(
            model, sampler, gamma, 7, horizon, RandomStream(seed=3)
        )
        assert runs[workers].workers == workers
        assert no_children_left()
    reference = runs[1]
    assert {
        "cohesive": reference.returned.all() and not reference.escaped.any(),
        "exits_k2": not reference.returned.all(),
        "escapes": reference.escaped.all(),
    }[regime]
    for workers in (2, 3):
        for field in dataclasses.fields(reference):
            if field.name != "workers":
                assert np.array_equal(
                    getattr(runs[workers], field.name),
                    getattr(reference, field.name),
                ), (workers, field.name)


def diverging_trials(bad_trials):
    """A silent model whose zero state stays put, and a sampler that
    gives only ``bad_trials`` a state whose coupling overflows."""
    model = NetworkModel(
        build_tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        np.zeros(5),
        NoiseSpec.none(5),
        1e308,
        0.002,
        "frequency_dependent",
    )

    def sampler(graph, stream):
        if stream.trial in bad_trials:
            return np.array([0.0, 1.5, 0.0, 1.5, 0.0])
        return np.zeros(5)

    return model, sampler


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bad_trials", [(5,), (1, 5)])
def test_worker_numeric_error_names_global_trial(workers, bad_trials, monkeypatch):
    # trial 5 lies in the second slice at 2 workers, the third at 3; the
    # message names the lowest failing trial at the earliest step, as in
    # a single batch
    model, sampler = diverging_trials(bad_trials)
    force_workers(monkeypatch, workers)
    # the overflow is the point; the CLI silences its warnings the same way
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError,
        match=rf"^trial {bad_trials[0]} has non-finite phases at step 1$",
    ):
        recurrence_experiment(model, sampler, GAMMA, 7, 20, RandomStream(seed=1))
    assert no_children_left()


def test_worker_count_derivation(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    count = _fork.worker_count
    assert count(200, 10**9, 16) == min(cpus, 200 // 16)
    assert count(1, 10**9, 16) == 1
    assert count(31, 10**9, 16) == 1  # slices narrower than 16
    assert count(3, 10**9) == min(cpus, 3)
    # a worker process never forks again
    force_workers(monkeypatch, 2)
    in_each = _fork.forked_map(
        lambda lo, hi: count(200, 10**9, 16), "testing", 2, 0
    )
    assert in_each == [((0, 1), min(cpus, 200 // 16)), ((1, 2), 1)]
    assert not _fork._in_worker and no_children_left()


@pytest.mark.parametrize("command", ["recurrence", "drift", "spectral"])
def test_worker_count_turns_at_the_fork_bytes(command, monkeypatch):
    # every caller forks from _fork._MIN_FORK_BYTES of noise words (and,
    # for spectral, Laplacians) on, and stays in one process one size
    # below; on line5 a step or draw reads 8 words
    cpus = len(os.sched_getaffinity(0))
    model = make_line5_model()
    if command == "recurrence":
        # 32 trials, two slices of 16; the size is the horizon
        size_bytes, ranges = 32 * 8 * 8, 2

        def workers(horizon):
            return recurrence_experiment(
                model, edge_box_sampler(0.0, 0.8), GAMMA, 32, horizon,
                RandomStream(seed=1),
            ).workers

    elif command == "drift":
        # 100 probes; the size is the draws a probe. The count alone is
        # under test: each probe's estimate is its index
        monkeypatch.setattr(
            analysis,
            "drift_estimate",
            lambda model, theta, gamma, n, stream: stream.trial,
        )
        size_bytes, ranges = 100 * 8 * 8, 100

        def workers(draws, model=model):
            sweep = drift_sweep(model, GAMMA, 100, draws, RandomStream(seed=1))
            assert sweep == list(range(100))
            return sweep.workers

        # without noise a probe takes one draw, whatever the sample count
        assert workers(10**9, two_node_model()) == 1
        assert drift_sweep(model, GAMMA, 1, 10**9, RandomStream(seed=1)).workers == 1
    else:
        # the size is the sample count: a 4 x 4 Laplacian and 8 words
        # each, and as many ranges as CPUs
        size_bytes, ranges = 8 * (4 * 4 + 8), cpus

        def workers(samples, noise=model.noise):
            return mc_spectral_stats(
                model.graph, model.omega, noise, n_samples=samples,
                stream=RandomStream(seed=1),
            ).workers

        # a noise-free spectrum is one exact solve
        assert workers(10**9, NoiseSpec.none(5)) == 1
    at_threshold = -(-_fork._MIN_FORK_BYTES // size_bytes)
    assert workers(at_threshold) == min(cpus, ranges)
    assert workers(at_threshold - 1) == 1
    assert no_children_left()


def test_recurrence_on_a_wide_tree_forks_by_its_noise_bytes():
    # 64 trials x 1 000 steps on 50 nodes read 52 noise words a
    # trial*step, 26.6 MB in all: four slices of 16 trials
    rng = np.random.default_rng(50)
    graph = random_tree(rng, 50)
    model = NetworkModel(
        graph=graph,
        omega=rng.uniform(1.0, 10.0, 50),
        noise=NoiseSpec.gaussian(rng.uniform(0.5, 5.0, 50), np.zeros(50)),
        kappa=30.0,
        tau=0.002,
        variant="frequency_dependent",
    )
    stats = recurrence_experiment(
        model, edge_box_sampler(0.0, 0.8), GAMMA, 64, 1000, RandomStream(seed=7)
    )
    assert stats.workers == min(len(os.sched_getaffinity(0)), 4)
    assert no_children_left()


def test_forked_map_keeps_range_order_and_raises_the_lowest_failure(monkeypatch):
    def run(lo, hi):
        bad = [i for i in range(lo, hi) if i in (4, 7)]
        if bad:
            raise ValueError(f"index {bad[0]}")
        return list(range(lo, hi)), os.getpid()

    force_workers(monkeypatch, 3)
    ran = _fork.forked_map(run, "testing", 4, 0)
    assert [bounds for bounds, _ in ran] == _fork.ranges(4, 3)
    parts = [part for _, part in ran]
    assert [values for values, _ in parts] == [[0], [1], [2, 3]]
    pids = [pid for _, pid in parts]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    # 4 and 7 fail in the second and third range, both in workers
    bounds = _fork.ranges(9, 3)
    assert bounds == [(0, 3), (3, 6), (6, 9)]
    with pytest.raises(ValueError, match="^index 4$"):
        _fork.forked_map(run, "testing", 9, 0)
    assert no_children_left()


def test_non_finite_initial_state_rejected():
    with pytest.raises(InvalidInitSampler, match="trial 0 starts outside"):
        recurrence_experiment(
            make_line5_model(),
            fixed_initial([0.0, math.nan, 0.0, 0.0, 0.0]),
            GAMMA,
            2,
            5,
            RandomStream(seed=1),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**52])
def test_unresolvable_sampled_phase_rejected(bad):
    # the sampler's raw output, not wrapped by fixed_initial
    def sampler(graph, stream):
        return np.array([0.0, bad, 0.0, 0.0, 0.0])

    with pytest.raises(InvalidInitSampler, match="trial 0 starts outside"):
        recurrence_experiment(
            make_line5_model(), sampler, GAMMA, 2, 5, RandomStream(seed=1)
        )


def test_unresolvable_start_phase_is_non_finite():
    # wrap_angle leaves 1e18 at 121.7, outside (-pi, pi]: no phase is left
    # to wrap at that magnitude, and edge geodesics need wrapped phases
    assert wrap_angle(1e18) > PI
    model = make_line5_model()
    theta0 = np.array([1e18, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericError, match="non-finite at step 1$"):
        simulate(model, theta0, 5, RandomStream(seed=1))
    with pytest.raises(NumericError, match="non-finite"):
        drift_estimate(model, theta0, GAMMA, 10, RandomStream(seed=1))
    with pytest.raises(InvalidInitSampler, match="trial 0 starts outside"):
        recurrence_experiment(
            model, fixed_initial(theta0), GAMMA, 2, 5, RandomStream(seed=1)
        )


@settings(max_examples=20, deadline=None)
@given(
    small_models(),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    st.integers(0, 1000),
)
def test_sampler_output_shifted_by_whole_turns_is_accepted(model, turns, seed):
    # start states are wrapped before the admissibility check, so whole
    # turns added to each phase change nothing
    turns = 2.0 * PI * np.array(turns[: model.graph.n], dtype=float)
    sampler = edge_box_sampler()

    def shifted(graph, stream):
        return sampler(graph, stream) + turns

    def wrapped(graph, stream):
        return wrap_angle(shifted(graph, stream))

    runs = [
        recurrence_experiment(model, start, GAMMA, 3, 40, RandomStream(seed=seed))
        for start in (shifted, wrapped)
    ]
    for field in dataclasses.fields(runs[0]):
        assert np.array_equal(
            getattr(runs[0], field.name), getattr(runs[1], field.name)
        ), field.name


def test_non_finite_state_is_numeric_error():
    model = make_line5_model(kappa=1e308)
    # the overflow is the point; the CLI silences its warnings the same way
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            NumericError, match=r"trial \d+ has non-finite .* step \d+"
        ):
            recurrence_experiment(
                model, fixed_initial(THETA0_5), GAMMA, 3, 50, RandomStream(seed=1)
            )
        with pytest.raises(NumericError, match=r"at step \d+"):
            simulate(model, THETA0_5, 50, RandomStream(seed=1))
        # node 1's coupling sum is 2 sin(1.5), so kappa times it overflows
        with pytest.raises(NumericError):
            drift_estimate(
                model, [0.0, 1.5, 0.0, 1.5, 0.0], GAMMA, 100, RandomStream(seed=1)
            )


@pytest.mark.parametrize(
    "successes, trials, low, high",
    [
        (200, 200, 0.9812, 1.0),
        (0, 200, 0.0, 0.0188),
        # Newcombe (1998), Table I, Wilson score interval
        (81, 263, 0.2553, 0.3662),
        (15, 148, 0.0624, 0.1605),
        (0, 20, 0.0, 0.1611),
        (1, 29, 0.0061, 0.1718),
    ],
)
def test_wilson_interval_closed_form(successes, trials, low, high):
    lo, hi = wilson_interval(successes, trials)
    assert lo == pytest.approx(low, abs=5e-5)
    assert hi == pytest.approx(high, abs=5e-5)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(3, 2)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_two_node_rotation_returns():
    # With (numerically) uncoupled oscillators and distinct frequencies
    # the relative phase rotates by tau * (w0 - w1) each step and
    # re-enters the cohesive set periodically.
    g = build_tree(2, [(0, 1)])
    model = NetworkModel(
        g, np.array([1.0, 0.0]), NoiseSpec.none(2), 1e-9, 0.1, "undirected"
    )
    gamma = 1.0
    d0 = 1.35
    stats = recurrence_experiment(
        model, fixed_initial([d0 / 2, -d0 / 2]), gamma, 3, 500, RandomStream(seed=1)
    )
    # closed-form oracle on the scalar rotation
    d, expect = d0, None
    for k in range(1, 501):
        d = d + 0.1
        geo = min(abs(d) % (2 * PI), 2 * PI - abs(d) % (2 * PI))
        if geo <= gamma:
            expect = k
            break
    assert stats.return_fraction == 1.0
    assert np.all(stats.return_time == expect)


def test_two_node_contraction_regime():
    # kappa * tau <= 1: the edge distance is non-increasing step by step.
    for kt in (0.3, 0.9, 1.0):
        model = two_node_model(kappa=kt, tau=1.0)
        for d0 in (0.3, 1.0, 1.5, PI / 2):
            rec = simulate(
                model, np.array([d0 / 2, -d0 / 2]), 200, RandomStream(seed=5)
            )
            diffs = np.diff(rec.max_edge_distance)
            assert np.all(diffs <= 1e-12)
    # in the rest of the recurrent window monotonicity can fail (a step
    # can overshoot past zero, transiently even beyond pi/2) but every
    # trajectory still returns to the cohesive set
    for kt in (1.2, 1.5):
        model = two_node_model(kappa=kt, tau=1.0)
        stats = recurrence_experiment(
            model,
            edge_box_sampler(0.0, PI / 2),
            GAMMA,
            20,
            200,
            RandomStream(seed=6),
        )
        assert stats.return_fraction == 1.0


def test_escape_detected_in_strong_negative_regime():
    model = make_line5_model(means=np.array([0.0, 0.0, -3.0, 0.0, 0.0]))
    stats = recurrence_experiment(
        model, fixed_initial(THETA0_5), GAMMA, 10, 2000, RandomStream(seed=7)
    )
    assert stats.escaped_fraction > 0.5
    assert np.all(stats.escape_time[stats.escaped] >= 1)
    assert np.all(stats.max_excursion[stats.escaped] >= PI / 2 - ESCAPE_TOLERANCE)


def test_recurrence_validations():
    model = two_node_model()
    sampler = edge_box_sampler()
    with pytest.raises(ValueError):
        recurrence_experiment(model, sampler, GAMMA, 0, 10, RandomStream(seed=1))
    with pytest.raises(ValueError):
        recurrence_experiment(model, sampler, GAMMA, 2, 0, RandomStream(seed=1))


# --- invariances on random trees -----------------------------------------------


@st.composite
def tree_runs(draw):
    """A model on a random tree or path of 2-40 nodes, either variant,
    with Gaussian noise and a small ``tau``, so that a few steps amplify
    a rounding difference only a little; a start state, 2-8 steps, a
    stream and a generator for the transformation applied."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        nodes = rng.permutation(n).tolist()
        flips = rng.integers(0, 2, n - 1)
        pairs = zip(nodes, nodes[1:], flips)
        graph = build_tree(n, [(b, a) if flip else (a, b) for a, b, flip in pairs])
    else:
        graph = random_tree(rng, n)
    model = NetworkModel(
        graph=graph,
        omega=rng.uniform(0.0, 10.0, n),
        noise=NoiseSpec.gaussian(rng.uniform(0.5, 5.0, n), rng.uniform(-2.0, 2.0, n)),
        kappa=float(rng.uniform(0.5, 10.0)),
        tau=float(rng.uniform(0.002, 0.02)),
        variant=draw(st.sampled_from(["frequency_dependent", "undirected"])),
    )
    theta0 = rng.uniform(-PI, PI, n)
    stream = RandomStream(seed=draw(st.integers(0, 2**31)))
    return model, theta0, draw(st.integers(2, 8)), stream, rng


#: Bound on what a difference in rounding grows to over the steps of
#: :func:`tree_runs`, in the states, edge distances and V; in 10 000
#: such runs it stayed below 1.6e-11.
ROUNDING = 1e-8


@settings(max_examples=100, deadline=None)
@given(tree_runs())
def test_reordered_edges_leave_states_within_rounding(run):
    model, theta0, horizon, stream, rng = run
    graph = model.graph
    reordered = dataclasses.replace(
        model,
        graph=build_tree(graph.n, [graph.edges[e] for e in rng.permutation(graph.m)]),
    )
    record = simulate(model, theta0, horizon, stream)
    moved = simulate(reordered, theta0, horizon, stream)
    assert moved.realized_frequency.tobytes() == record.realized_frequency.tobytes()
    if np.bincount(np.ravel(graph.edges), minlength=graph.n).max() <= 2:
        # a path's coupling sums have two terms, in any edge order
        assert moved.theta.tobytes() == record.theta.tobytes()
        assert moved.max_edge_distance.tobytes() == record.max_edge_distance.tobytes()
    else:
        assert geodesic_distance(moved.theta, record.theta).max() <= ROUNDING
        assert np.abs(moved.max_edge_distance - record.max_edge_distance).max() <= (
            ROUNDING
        )


@settings(max_examples=100, deadline=None)
@given(tree_runs(), st.floats(-PI, PI), st.floats(0.3, 1.4))
def test_rotated_start_leaves_geodesics_and_drift_within_rounding(run, shift, gamma):
    model, theta0, horizon, stream, _ = run
    graph = model.graph
    record = simulate(model, theta0, horizon, stream)
    rotated = simulate(model, wrap_angle(theta0 + shift), horizon, stream)
    assert np.abs(
        edge_geodesics(graph, rotated.theta) - edge_geodesics(graph, record.theta)
    ).max() <= ROUNDING
    assert np.abs(
        dynamics.drift_values(graph, rotated.theta, gamma)
        - dynamics.drift_values(graph, record.theta, gamma)
    ).max() <= ROUNDING


@settings(max_examples=50, deadline=None)
@given(tree_runs(), st.integers(1, 40), st.integers(1, 200), st.floats(0.3, 1.4))
def test_permuted_trials_permute_recurrence_rows_bitwise(run, width, horizon, gamma):
    # more than 16 trials span several noise read groups, and a wide
    # slice on a large tree several chunks
    model, _, _, stream, rng = run
    sampler = edge_box_sampler()
    starts = [stream.child(trial=t, purpose="init") for t in range(width)]
    theta = np.stack([sampler(model.graph, start) for start in starts], axis=1)
    streams = [stream.child(trial=t, purpose="noise") for t in range(width)]
    order = rng.permutation(width)
    fields, failure = analysis._step_trials(model, theta, streams, gamma, horizon)
    moved, moved_failure = analysis._step_trials(
        model, theta[:, order], [streams[t] for t in order], gamma, horizon
    )
    assert failure is None and moved_failure is None
    assert list(moved) == list(fields)
    for name, values in fields.items():
        assert moved[name].tobytes() == values[order].tobytes(), name


# --- drift ---------------------------------------------------------------------


def test_drift_estimate_deterministic_when_silent():
    model = two_node_model(kappa=0.5, tau=0.2)
    state = np.array([0.6, -0.6])
    est = drift_estimate(model, state, GAMMA, 100, RandomStream(seed=8))
    v0 = dynamics.drift_values(model.graph, state, GAMMA)
    stepped = dynamics.step(model, dynamics.PhaseState(state), np.zeros(2)).theta
    v1 = dynamics.drift_values(model.graph, stepped, GAMMA)
    assert est.stderr == 0.0
    assert est.estimate == pytest.approx(v1 - v0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    small_models(),
    st.booleans(),
    st.integers(2, 50),
    st.floats(0.3, 1.4),
    st.integers(0, 1000),
)
def test_drift_step_equals_step_per_draw(model, silent, samples, gamma, seed):
    # one kernel call steps the probe as one column under every draw; a
    # silent model takes one zero draw
    if silent:
        model = dataclasses.replace(model, noise=NoiseSpec.none(model.graph.n))
    stream = RandomStream(seed=seed)
    probe = edge_box_sampler(gamma, 0.5 * PI)
    theta = probe(model.graph, stream.child(purpose="probe"))
    stepped = []

    def record(graph, states, gamma):
        stepped.append(states.copy())
        return dynamics.drift_values(graph, states, gamma)

    with unittest.mock.patch.object(analysis, "drift_values", record):
        estimate = drift_estimate(model, theta, gamma, samples, stream)
    draws = sample_noise_block(
        model.noise, stream.child(purpose="drift"), 0, 1 if silent else samples
    )
    expected = np.array(
        [dynamics.step(model, dynamics.PhaseState(theta), draw).theta for draw in draws]
    )
    # the stepped states, then the probe itself
    assert [states.tobytes() for states in stepped] == [
        expected.tobytes(),
        wrap_angle(theta).tobytes(),
    ]
    v_next = dynamics.drift_values(model.graph, expected, gamma)
    v_now = dynamics.drift_values(model.graph, theta, gamma)
    assert estimate.estimate == float(np.mean(v_next) - v_now)
    assert (estimate.stderr == 0.0) == silent
    assert estimate.samples == samples


def test_drift_negative_on_annulus_for_reference_model():
    model = make_line5_model()
    sampler = edge_box_sampler(GAMMA, PI / 2)
    for trial in range(5):
        theta = sampler(model.graph, RandomStream(seed=trial, purpose="probe"))
        est = drift_estimate(model, theta, GAMMA, 2000, RandomStream(seed=trial))
        assert est.estimate + 3.0 * est.stderr < 0.0


def test_negative_mean_flips_drift_sign_at_mixed_states():
    # Where the failure regime actually escapes: states whose node-2
    # edges are large while the outer edges are small. There the
    # expected one-step drift is strongly positive once the node-2
    # disturbance mean is -3, and negative for zero means. (On the
    # all-edges-large annulus the total drift stays negative in both
    # cases; escape is driven through this mixed region.)
    diffs = np.array([0.1, 1.5, -1.5, -0.1])
    theta = np.zeros(5)
    g = make_line5_model().graph
    for e, (tail, head) in enumerate(g.edges):
        theta[head] = theta[tail] - diffs[e]

    bad = make_line5_model(means=np.array([0.0, 0.0, -3.0, 0.0, 0.0]))
    est_bad = drift_estimate(bad, theta, GAMMA, 20_000, RandomStream(seed=31))
    assert est_bad.estimate - 3.0 * est_bad.stderr > 0.3

    zero = make_line5_model()
    est_zero = drift_estimate(zero, theta, GAMMA, 20_000, RandomStream(seed=31))
    assert est_zero.estimate + 3.0 * est_zero.stderr < -0.2


def test_boundary_graze_contracts_after_one_step():
    # A start a few millirad inside the admissible boundary can be
    # pushed a fraction of a millirad past pi/2 by the first strong
    # coupling step; the pull inward then wins immediately. This is the
    # one mechanism by which cohesive-regime trials register escapes.
    model = make_line5_model()
    base = RandomStream(seed=501)
    sampler = edge_box_sampler()
    stats = recurrence_experiment(model, sampler, GAMMA, 200, 50, base)
    grazed = np.flatnonzero(stats.escaped)
    assert grazed.size >= 1
    t = int(grazed[0])
    assert stats.escape_time[t] == 1
    assert stats.returned[t]
    assert stats.return_time[t] <= 5
    # the overshoot is marginal: well under a millirad past pi/2
    assert stats.max_excursion[t] < PI / 2 + 1e-3
    theta0 = sampler(model.graph, base.child(trial=t, purpose="init"))
    assert edge_geodesics(model.graph, theta0).max() > PI / 2 - 1e-2


def test_drift_requires_two_samples():
    model = two_node_model()
    with pytest.raises(ValueError):
        drift_estimate(model, np.zeros(2), GAMMA, 1, RandomStream(seed=1))


def test_drift_sweep_empty_and_band():
    model = make_line5_model()
    assert drift_sweep(model, GAMMA, 0, 10, RandomStream(seed=1)) == []
    estimates = drift_sweep(model, GAMMA, 8, 64, RandomStream(seed=2))
    assert len(estimates) == 8
    for est in estimates:
        dist = edge_geodesics(model.graph, est.theta)
        assert np.all(dist >= GAMMA) and np.all(dist < PI / 2)
        assert est.samples == 64
    # distinct probe coordinates give distinct states
    assert not np.array_equal(estimates[0].theta, estimates[1].theta)


def test_drift_sweep_reproducible():
    model = make_line5_model()
    a = drift_sweep(model, GAMMA, 3, 50, RandomStream(seed=9))
    b = drift_sweep(model, GAMMA, 3, 50, RandomStream(seed=9))
    for x, y in zip(a, b):
        assert np.array_equal(x.theta, y.theta)
        assert x.estimate == y.estimate
        assert x.stderr == y.stderr


@pytest.mark.parametrize("means", [None, (0.0, 0.0, -3.0, 0.0, 0.0)])
def test_drift_sweep_identical_at_any_worker_count(means, monkeypatch):
    model = make_line5_model(means=None if means is None else np.array(means))
    runs = {}
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        # 7 probes: uneven ranges of 3+4 and 2+2+3 probes
        runs[workers] = drift_sweep(model, GAMMA, 7, 300, RandomStream(seed=4))
        assert no_children_left()
    reference = runs[1]
    assert len(reference) == 7
    for workers in (2, 3):
        for ours, theirs in zip(runs[workers], reference, strict=True):
            for field in dataclasses.fields(theirs):
                assert np.array_equal(
                    getattr(ours, field.name), getattr(theirs, field.name)
                ), (workers, field.name)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_drift_error_names_global_probe(workers, monkeypatch):
    # probes 5 and 6 fail; both lie in the last range at 2 and 3
    # workers, and the message names the lower one, as in one process
    estimate = analysis.drift_estimate

    def failing(model, theta, gamma, samples, stream):
        if stream.trial in (5, 6):
            raise NumericError("one step from the probed state is non-finite")
        return estimate(model, theta, gamma, samples, stream)

    monkeypatch.setattr(analysis, "drift_estimate", failing)
    force_workers(monkeypatch, workers)
    with pytest.raises(
        NumericError, match=r"^probe 5: one step from the probed state is non-finite$"
    ):
        drift_sweep(make_line5_model(), GAMMA, 7, 50, RandomStream(seed=1))
    assert no_children_left()
