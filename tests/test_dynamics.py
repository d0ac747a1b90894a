import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treekuramoto import (
    NetworkModel,
    NoiseSpec,
    PhaseState,
    RandomStream,
    build_tree,
    geodesic_distance,
    step,
    wrap_angle,
)
from treekuramoto.analysis import edge_box_sampler
from treekuramoto.dynamics import (
    InvalidModel,
    _integrate,
    _wrap_small,
    drift_values,
    edge_geodesics,
    validate_gamma,
)
from treekuramoto.errors import ConfigError, NumericError

from conftest import LINE5_EDGES, THETA0_5, make_line5_model, random_tree

PI = math.pi


def edge_differences(graph, theta):
    """Signed wrapped phase difference ``theta_tail - theta_head`` per edge."""
    return wrap_angle(theta[..., graph.tails] - theta[..., graph.heads])


def noise_free_model(graph, variant="undirected", kappa=1.0, tau=0.1, omega=None):
    omega = np.zeros(graph.n) if omega is None else np.asarray(omega, float)
    return NetworkModel(
        graph=graph,
        omega=omega,
        noise=NoiseSpec.none(graph.n),
        kappa=kappa,
        tau=tau,
        variant=variant,
    )


# --- angles ------------------------------------------------------------------


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(PI) == PI
    assert wrap_angle(-PI) == PI
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * PI / 2) == pytest.approx(-PI / 2, abs=1e-15)
    xs = np.linspace(-20.0, 20.0, 10001)
    wrapped = wrap_angle(xs)
    assert np.all(wrapped > -PI)
    assert np.all(wrapped <= PI)
    assert np.allclose(np.sin(wrapped), np.sin(xs), atol=1e-12)
    assert np.allclose(np.cos(wrapped), np.cos(xs), atol=1e-12)


THREE_PI = 3 * PI


def ulp_neighbours(center, count=64):
    """``center`` and the ``count`` nearest floats on either side."""
    points, below, above = [center], center, center
    for _ in range(count):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        points += [float(below), float(above)]
    return points


#: The points where a wrap can go wrong: +-pi, +-2 pi, +-3 pi and 0, with
#: their neighbours, inside ``|x| < 3 pi``. -0.0 is left out (see below).
WRAP_EDGE_POINTS = np.array(
    sorted(
        x
        for center in (PI, -PI, 2 * PI, -2 * PI, THREE_PI, -THREE_PI, 0.0)
        for x in ulp_neighbours(center)
        if abs(x) < THREE_PI and not (x == 0.0 and math.copysign(1.0, x) < 0)
    )
)


def small_wrap(x):
    x = np.array(x, dtype=float)
    return _wrap_small(x, np.empty(x.shape, dtype=bool))


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def kernel_step(model, theta, draw):
    """One step of ``theta`` under ``draw`` by the kernel itself, which,
    unlike :func:`step`, takes unwrapped phases and leaves NaN where a
    phase is unresolvable."""
    out = np.add(model.omega, draw)
    column = out[None, :, None]
    _integrate(model, np.asarray(theta, float)[:, None], column, column)
    return out


def test_small_wrap_equals_wrap_angle_at_edge_points():
    # +-pi are the floats whose quotient by 2 pi rounds to the ties
    # +-0.5, where rint rounds to even; their neighbours' quotients do not
    quotient = WRAP_EDGE_POINTS / (2 * np.pi)
    for tie in (0.5, -0.5):
        assert list(WRAP_EDGE_POINTS[quotient == tie]) == [tie * 2 * PI]
    assert same_bits(small_wrap(WRAP_EDGE_POINTS), wrap_angle(WRAP_EDGE_POINTS))
    assert small_wrap(PI) == PI and small_wrap(-PI) == PI


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            # + 0.0 turns -0.0 into +0.0 and leaves every other float as is
            st.floats(-THREE_PI, THREE_PI, exclude_min=True, exclude_max=True).map(
                lambda x: x + 0.0
            ),
            st.sampled_from(list(WRAP_EDGE_POINTS)),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_small_wrap_equals_wrap_angle(xs):
    assert same_bits(small_wrap(xs), wrap_angle(xs))


def test_small_wrap_keeps_negative_zero():
    # the one difference: the integrator never holds -0.0 after a wrap
    assert math.copysign(1.0, wrap_angle(-0.0)) == 1.0
    assert math.copysign(1.0, small_wrap(-0.0)) == -1.0


def test_geodesic_distance_examples():
    assert geodesic_distance(0.0, 0.0) == 0.0
    assert geodesic_distance(0.0, 3 * PI / 2) == pytest.approx(PI / 2, abs=1e-15)
    assert geodesic_distance(PI / 4, -PI / 8) == pytest.approx(3 * PI / 8, abs=1e-15)
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-10, 10, (2, 1000))
    d = geodesic_distance(a, b)
    assert np.all((0.0 <= d) & (d <= PI))
    assert np.allclose(d, geodesic_distance(b, a), atol=0.0)


#: Wrapped phases where a fold without ``np.mod`` could part from
#: :func:`geodesic_distance`: +-pi and their inner neighbours, whose
#: differences round to exactly 2 pi, +-0.0, and subnormals.
FOLD_POINTS = [
    PI,
    -PI,
    float(np.nextafter(PI, 0.0)),
    float(np.nextafter(-PI, 0.0)),
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    -2.225073858507201e-308,
]
FOLD_PAIRS = np.array([(a, b) for a in FOLD_POINTS for b in FOLD_POINTS])


def test_fold_pairs_reach_two_pi():
    differences = np.abs(FOLD_PAIRS[:, 0] - FOLD_PAIRS[:, 1])
    assert np.count_nonzero(differences == 2 * PI) >= 2


@st.composite
def wrapped_phase_rows(draw):
    """A random tree on 2-8 nodes and 1-4 rows of wrapped phases on it."""
    n = draw(st.integers(2, 8))
    graph = random_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    rows = draw(st.integers(1, 4))
    phase = st.one_of(st.floats(-PI, PI), st.sampled_from(FOLD_POINTS))
    phases = draw(st.lists(phase, min_size=rows * n, max_size=rows * n))
    return graph, np.array(phases).reshape(rows, n)


@settings(max_examples=300, deadline=None)
@given(wrapped_phase_rows())
@example((build_tree(2, [(0, 1)]), FOLD_PAIRS))
def test_edge_geodesics_equal_geodesic_distance(case):
    graph, theta = case
    expected = geodesic_distance(theta[..., graph.tails], theta[..., graph.heads])
    assert edge_geodesics(graph, theta).view(np.uint64).tobytes() == (
        expected.view(np.uint64).tobytes()
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["frequency_dependent", "undirected"]),
    st.integers(1, 150),
    st.integers(1, 4),
    st.booleans(),
    st.floats(0.002, 0.3),
)
def test_kernel_step_max_is_the_edge_geodesic_maximum(
    seed, variant, steps, width, one_start, tau
):
    # large tau takes the general wrap in some sub-blocks; one start
    # state may step under every column's draws
    rng = np.random.default_rng(seed)
    graph = random_tree(rng, int(rng.integers(2, 9)))
    model = NetworkModel(
        graph,
        rng.uniform(0.0, 10.0, graph.n),
        NoiseSpec.none(graph.n),
        kappa=float(rng.uniform(0.5, 10.0)),
        tau=tau,
        variant=variant,
    )
    theta = rng.uniform(-PI, PI, (graph.n, 1 if one_start else width))
    frequency = model.omega[:, None] + rng.normal(0.0, 3.0, (steps, graph.n, width))
    out = np.empty_like(frequency)
    step_max = np.empty((steps, width))
    assert _integrate(model, theta, frequency, out, step_max) is None
    expected = edge_geodesics(graph, out.transpose(0, 2, 1)).max(axis=-1)
    assert step_max.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


# --- stepping ----------------------------------------------------------------


def test_equal_phases_are_fixed_points():
    for variant in ("frequency_dependent", "undirected"):
        g = build_tree(4, [(0, 1), (1, 2), (1, 3)])
        model = noise_free_model(g, variant=variant)
        state = PhaseState(np.full(4, 0.7))
        nxt = step(model, state, np.zeros(4))
        assert np.array_equal(nxt.theta, state.theta)
        assert nxt.k == 1


def test_undirected_two_node_hand_value():
    g = build_tree(2, [(0, 1)])
    model = noise_free_model(g, variant="undirected", kappa=1.0, tau=0.1)
    nxt = step(model, PhaseState(np.array([0.0, PI / 2])), np.zeros(2))
    assert nxt.theta[0] == pytest.approx(0.1, abs=1e-15)
    assert nxt.theta[1] == pytest.approx(PI / 2 - 0.1, abs=1e-15)


def test_frequency_dependent_two_node_hand_value():
    g = build_tree(2, [(0, 1)])
    model = noise_free_model(
        g, variant="frequency_dependent", kappa=0.5, tau=0.1, omega=[1.0, 1.0]
    )
    nxt = step(model, PhaseState(np.array([0.0, PI / 2])), np.zeros(2))
    assert nxt.theta[0] == pytest.approx(0.15, abs=1e-15)
    assert nxt.theta[1] == pytest.approx(PI / 2 + 0.05, abs=1e-15)


def test_step_is_deterministic_bitwise():
    model = make_line5_model()
    draw = np.array([0.3, -0.2, 0.9, 0.0, -1.4])
    a = step(model, PhaseState(THETA0_5), draw)
    b = step(model, PhaseState(THETA0_5), draw)
    assert np.array_equal(a.theta, b.theta)


@pytest.mark.parametrize("variant", ["frequency_dependent", "undirected"])
def test_step_from_unwrapped_phases_is_the_model_equation(variant):
    # phases far outside (-pi, pi]: one addition or subtraction of 2 pi
    # cannot wrap them, so the kernel must take the general wrap
    model = make_line5_model(variant=variant)
    theta = THETA0_5 + np.array([8 * PI, -8 * PI, 20.0, 0.0, -31.0])
    draw = np.array([0.3, -0.2, 0.9, 0.0, -1.4])
    b = model.graph.incidence_matrix
    coupling = b @ np.sin(b.T @ theta)
    drive = model.tau * (model.omega + draw)
    if variant == "frequency_dependent":
        raw = theta + drive * (1.0 - model.kappa * coupling)
    else:
        raw = theta + drive - (model.kappa * model.tau) * coupling
    assert kernel_step(model, theta, draw).tobytes() == wrap_angle(raw).tobytes()


@pytest.mark.parametrize("variant", ["frequency_dependent", "undirected"])
@pytest.mark.parametrize("increment", [1e17, 1e18])
def test_unresolvable_phase_becomes_nan(variant, increment):
    # no float resolves a phase of 2**52 or more; wrap_angle would turn
    # 1e17 into 0.0 and leave 1e18 at 121.7, both without any meaning
    model = make_line5_model(variant=variant)
    draw = np.array([increment / model.tau, -0.2, 0.9, 0.0, -1.4])
    b = model.graph.incidence_matrix
    coupling = b @ np.sin(b.T @ THETA0_5)
    drive = model.tau * (model.omega + draw)
    if variant == "frequency_dependent":
        raw = THETA0_5 + drive * (1.0 - model.kappa * coupling)
    else:
        raw = THETA0_5 + drive - (model.kappa * model.tau) * coupling
    unresolved = np.abs(raw) >= 2.0**52
    assert list(unresolved) == [True, False, False, False, False]
    stepped = kernel_step(model, THETA0_5, draw)
    assert np.isnan(stepped[unresolved]).all()
    assert same_bits(stepped[~unresolved], wrap_angle(raw[~unresolved]))


@pytest.mark.parametrize("with_step_max", [False, True])
def test_kernel_reports_first_non_finite_state_and_stops(with_step_max):
    # 150 steps at 3 columns are sub-blocks of 64, 64 and 22 steps
    model = make_line5_model()
    rng = np.random.default_rng(6)
    theta = np.repeat(THETA0_5[:, None], 3, axis=1)
    frequency = model.omega[:, None] + rng.normal(size=(150, 5, 3))
    clean = np.full_like(frequency, -7.0)
    assert _integrate(model, theta, frequency, clean) is None
    frequency[70, 0, 1] = np.nan
    frequency[70, 2, 2] = np.inf
    frequency[90, :, 0] = np.inf
    out = np.full_like(frequency, -7.0)
    step_max = np.full((150, 3), -7.0) if with_step_max else None
    with np.errstate(all="ignore"):
        failure = _integrate(model, theta, frequency, out, step_max)
    # earliest step, then the lowest column at that step
    assert failure == (70, 1)
    assert same_bits(out[:70], clean[:70])
    assert np.isnan(out[70, 0, 1]) and np.isnan(out[70, 2, 2])
    assert same_bits(out[70, :, 0], clean[70, :, 0])
    # the failing sub-block is finished, the next one never started
    assert (out[128:] == -7.0).all()
    if with_step_max:
        assert (step_max[128:] == -7.0).all()


def test_step_takes_one_draw_per_state():
    model = make_line5_model()
    with pytest.raises(ValueError, match="noise draw shape"):
        step(model, PhaseState(THETA0_5), np.zeros((4, 5)))
    thetas = np.stack([THETA0_5, -THETA0_5])
    draws = np.array([[0.3, -0.2, 0.9, 0.0, -1.4], [1.0, 0.5, -0.5, 2.0, 0.0]])
    # one kernel step of both states, one column each
    stepped = np.add(model.omega, draws)
    columns = stepped.T[None]
    _integrate(model, thetas.T, columns, columns)
    for theta, draw, row in zip(thetas, draws, stepped):
        assert same_bits(row, step(model, PhaseState(theta), draw).theta)


def test_rotation_invariance():
    rng = np.random.default_rng(1)
    model = make_line5_model()
    theta = rng.uniform(-PI / 4, PI / 4, 5)
    draw = rng.normal(size=5)
    for shift in (0.5, -2.0, 3.0):
        base = step(model, PhaseState(theta), draw).theta
        shifted = step(model, PhaseState(wrap_angle(theta + shift)), draw).theta
        assert np.allclose(
            edge_differences(model.graph, shifted),
            edge_differences(model.graph, base),
            atol=1e-12,
        )
        assert drift_values(model.graph, shifted, 1.0) == pytest.approx(
            drift_values(model.graph, base, 1.0), abs=1e-12
        )


def test_orientation_invariance():
    rng = np.random.default_rng(2)
    g = build_tree(5, LINE5_EDGES)
    flipped = build_tree(5, [(1, 0), (1, 2), (3, 2), (3, 4)])
    for variant in ("frequency_dependent", "undirected"):
        for _ in range(10):
            theta = rng.uniform(-PI, PI, 5)
            draw = rng.normal(size=5)
            m1 = NetworkModel(g, np.arange(5.0), NoiseSpec.none(5), 2.0, 0.05, variant)
            m2 = NetworkModel(
                flipped, np.arange(5.0), NoiseSpec.none(5), 2.0, 0.05, variant
            )
            assert np.allclose(
                step(m1, PhaseState(theta), draw).theta,
                step(m2, PhaseState(theta), draw).theta,
                atol=1e-12,
            )


@st.composite
def kernel_runs(draw):
    """A random tree on 2-40 nodes, a variant, ``kappa`` and ``tau``, start
    states ``(n, width)`` and explicit frequencies ``(steps, n, width)``
    for several steps, and a generator for the transformation applied."""
    n = draw(st.integers(2, 40))
    width = draw(st.integers(1, 3))
    steps = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_tree(rng, n)
    variant = draw(st.sampled_from(["frequency_dependent", "undirected"]))
    kappa, tau = rng.uniform(0.5, 10.0), rng.uniform(0.002, 0.1)
    theta = rng.uniform(-PI, PI, (n, width))
    frequency = rng.uniform(0.0, 10.0, (n, 1)) + rng.normal(0.0, 3.0, (steps, n, width))
    return graph, variant, kappa, tau, theta, frequency, rng


def run_kernel(graph, variant, kappa, tau, theta, frequency):
    """The states and their largest edge distances after each step."""
    model = NetworkModel(
        graph, np.zeros(graph.n), NoiseSpec.none(graph.n), kappa, tau, variant
    )
    out = np.empty_like(frequency)
    maxima = np.empty((len(frequency), frequency.shape[-1]))
    assert _integrate(model, theta, frequency, out, maxima) is None
    return out, maxima


@settings(max_examples=100, deadline=None)
@given(kernel_runs())
def test_edge_flips_leave_states_and_maxima_bitwise(case):
    graph, variant, kappa, tau, theta, frequency, rng = case
    flip = rng.integers(0, 2, graph.m).astype(bool)
    flipped = build_tree(
        graph.n,
        [(h, t) if f else (t, h) for (t, h), f in zip(graph.edges, flip)],
    )
    args = (variant, kappa, tau, theta, frequency)
    out, maxima = run_kernel(graph, *args)
    out_flipped, maxima_flipped = run_kernel(flipped, *args)
    assert out_flipped.tobytes() == out.tobytes()
    assert maxima_flipped.tobytes() == maxima.tobytes()


@settings(max_examples=100, deadline=None)
@given(kernel_runs())
def test_relabelled_nodes_permute_states_bitwise(case):
    graph, variant, kappa, tau, theta, frequency, rng = case
    # node i is called label[i]; its phase and draws move with it
    label = rng.permutation(graph.n)
    relabelled = build_tree(
        graph.n, [(int(label[t]), int(label[h])) for t, h in graph.edges]
    )
    moved_theta = np.empty_like(theta)
    moved_theta[label] = theta
    moved_frequency = np.empty_like(frequency)
    moved_frequency[:, label] = frequency
    out, maxima = run_kernel(graph, variant, kappa, tau, theta, frequency)
    out_moved, maxima_moved = run_kernel(
        relabelled, variant, kappa, tau, moved_theta, moved_frequency
    )
    assert np.ascontiguousarray(out_moved[:, label]).tobytes() == out.tobytes()
    assert maxima_moved.tobytes() == maxima.tobytes()


def test_node_stepping_reproduces_compact_relative_form():
    # Advancing nodes and differencing must equal the closed-form update
    # of the relative phases (modulo wrapping).
    rng = np.random.default_rng(3)
    for variant in ("frequency_dependent", "undirected"):
        for trial in range(20):
            g = random_tree(rng, int(rng.integers(2, 9)))
            model = NetworkModel(
                g,
                rng.normal(size=g.n),
                NoiseSpec.none(g.n),
                kappa=1.5,
                tau=0.02,
                variant=variant,
            )
            theta = rng.uniform(-PI, PI, g.n)
            draw = rng.normal(size=g.n)
            b = g.incidence_matrix
            rel = b.T @ theta
            w = model.omega + draw
            if variant == "frequency_dependent":
                compact = (
                    rel
                    + model.tau * b.T @ w
                    - model.kappa * model.tau * b.T @ (w * (b @ np.sin(rel)))
                )
            else:
                compact = (
                    rel
                    + model.tau * b.T @ w
                    - model.kappa * model.tau * (b.T @ b) @ np.sin(rel)
                )
            stepped = step(model, PhaseState(theta), draw).theta
            via_nodes = edge_differences(g, stepped)
            assert np.allclose(via_nodes, wrap_angle(compact), atol=1e-12)


# --- relative phases and sets --------------------------------------------------


def test_relative_phases_equal_phases():
    g = build_tree(3, [(0, 1), (1, 2)])
    assert np.array_equal(edge_differences(g, np.full(3, 1.2)), np.zeros(2))


def test_relative_phases_reference_initial_condition(line5):
    rel = edge_differences(line5, THETA0_5)
    expected = [PI / 8, PI / 4, 3 * PI / 40, -2 * PI / 5]
    assert np.allclose(rel, expected, atol=1e-15)


def test_relative_phases_wrap_around():
    g = build_tree(2, [(0, 1)])
    rel = edge_differences(g, np.array([PI - 0.1, -PI + 0.1]))
    assert rel[0] == pytest.approx(-0.2, abs=1e-12)


def test_cohesion_set_membership(line5):
    assert edge_geodesics(line5, np.zeros(5)).max() <= 0.3
    assert edge_geodesics(line5, np.zeros(5)).max() == 0.0
    # reference initial condition: largest edge distance is 2*pi/5
    assert edge_geodesics(line5, THETA0_5).max() == pytest.approx(
        2 * PI / 5, abs=1e-15
    )
    assert edge_geodesics(line5, THETA0_5).max() <= PI / 2 - 0.05
    g2 = build_tree(2, [(0, 1)])
    assert edge_geodesics(g2, np.array([0.0, PI / 2])).max() > PI / 4


def test_gamma_validation():
    for bad in (0.0, -0.1, PI / 2, 2.0):
        with pytest.raises(ValueError):
            validate_gamma(bad)


def test_drift_function_values():
    g = build_tree(2, [(0, 1)])
    assert drift_values(g, np.zeros(2), 0.3) == 0.0
    v = drift_values(g, np.array([PI / 4, -PI / 4]), PI / 3)
    assert v == pytest.approx(math.sin(PI / 3) * PI / 2, abs=1e-12)
    # invariant under a common phase shift
    shifted = wrap_angle(np.array([PI / 4, -PI / 4]) + 1.9)
    assert drift_values(g, shifted, PI / 3) == pytest.approx(v, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(9, 60),
    st.integers(1, 6),
    st.booleans(),
)
def test_drift_values_of_a_batch_row_equal_the_state_alone(seed, n, rows, fortran):
    # from 8 edges on numpy sums in pairs, so a batch whose rows were
    # summed in another order would differ from the state in the last bits
    rng = np.random.default_rng(seed)
    graph = random_tree(rng, n)
    batch = rng.uniform(-PI, PI, (rows, n))
    if fortran:
        batch = np.asfortranarray(batch)
    alone = np.array([drift_values(graph, state, 1.0) for state in batch])
    assert np.array_equal(
        drift_values(graph, batch, 1.0).view(np.uint64), alone.view(np.uint64)
    )


def test_drift_decreases_one_step_on_the_annulus():
    # Deterministic form of the negative-drift region: with zero
    # frequencies and no noise, one undirected step strictly reduces V
    # whenever every edge distance lies in [gamma, pi/2).
    gamma = PI / 2 - 0.05
    rng = np.random.default_rng(4)
    sampler = edge_box_sampler(gamma, PI / 2)
    for trial in range(100):
        g = random_tree(rng, int(rng.integers(2, 9)))
        model = noise_free_model(g, tau=0.05)
        theta = sampler(g, RandomStream(seed=trial, purpose="probe"))
        v0 = drift_values(g, theta, gamma)
        stepped = step(model, PhaseState(theta), np.zeros(g.n)).theta
        v1 = drift_values(g, stepped, gamma)
        assert v1 < v0


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState(np.array([0.0, 4.0]))
    wrapped = PhaseState.wrapped(np.array([0.0, 4.0]))
    assert wrapped.theta[1] == pytest.approx(4.0 - 2 * PI, abs=1e-15)
    with pytest.raises(ValueError):
        PhaseState(np.zeros((2, 2)))


def test_phase_state_rejects_nan():
    # NaN compares False both ways, so a bounds check written as two
    # rejections let it through
    with pytest.raises(ValueError, match="already be wrapped"):
        PhaseState(np.full(5, np.nan))
    with pytest.raises(ValueError, match="already be wrapped"):
        PhaseState(np.array([0.0, np.nan, 1.0]))


def test_step_raises_on_non_finite_phases():
    model = make_line5_model(kappa=1e308)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="step 4"):
        step(model, PhaseState(np.array([0.0, 1.5, 0.0, 1.5, 0.0]), k=3), np.zeros(5))


def test_model_validation(line5):
    spec = NoiseSpec.none(5)
    with pytest.raises(ValueError):
        NetworkModel(line5, np.zeros(4), spec, 1.0, 0.1)
    with pytest.raises(ValueError):
        NetworkModel(line5, np.zeros(5), spec, -1.0, 0.1)
    with pytest.raises(ValueError):
        NetworkModel(line5, np.zeros(5), spec, 1.0, 0.0)
    with pytest.raises(ValueError):
        NetworkModel(line5, np.zeros(5), spec, 1.0, 0.1, "directed")
    with pytest.raises(ValueError):
        NetworkModel(line5, np.zeros(5), NoiseSpec.none(4), 1.0, 0.1)


def test_model_checks_are_config_errors(line5):
    spec = NoiseSpec.none(5)
    cases = [
        ((np.zeros(4), spec, 1.0, 0.1), r"omega shape \(4,\) != node count 5"),
        ((np.zeros(5), NoiseSpec.none(4), 1.0, 0.1), "noise spec covers 4 nodes"),
        ((np.zeros(5), spec, -1.0, 0.1), "kappa must be positive"),
        ((np.zeros(5), spec, 1.0, 0.0), "tau must be positive"),
        ((np.zeros(5), spec, 1.0, 0.1, "directed"), "unknown variant 'directed'"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidModel, match=message) as err:
            NetworkModel(line5, *args)
        assert isinstance(err.value, ConfigError) and isinstance(err.value, ValueError)
