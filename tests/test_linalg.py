import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from treekuramoto import (
    build_tree,
    edge_laplacian,
    weighted_edge_laplacian,
)
from treekuramoto.linalg import (
    DimensionMismatch,
    NoConvergence,
    batch_eigenvalues,
    extreme_eigenvalues,
)

from conftest import LINE5_EDGES, OMEGA5


def random_symmetric(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) * scale
    return a + a.T


def test_weighted_edge_laplacian_single_edge():
    g = build_tree(2, [(0, 1)])
    m = weighted_edge_laplacian(g, np.array([3.0, 4.0]))
    assert np.array_equal(m, np.array([[7.0]]))


def test_weighted_edge_laplacian_reference_extremes():
    g = build_tree(5, LINE5_EDGES)
    m = weighted_edge_laplacian(g, OMEGA5)
    ev = batch_eigenvalues(m)
    lo, hi = ev[0], ev[-1]
    assert lo == pytest.approx(1.31, abs=0.01)
    assert hi == pytest.approx(24.46, abs=0.01)


def test_weighted_edge_laplacian_unit_weights_is_edge_laplacian():
    rng = np.random.default_rng(0)
    from conftest import random_tree

    for _ in range(10):
        g = random_tree(rng, int(rng.integers(2, 9)))
        m = weighted_edge_laplacian(g, np.ones(g.n))
        assert np.array_equal(m, edge_laplacian(g))


def test_weighted_edge_laplacian_dimension_mismatch():
    g = build_tree(3, [(0, 1), (1, 2)])
    with pytest.raises(DimensionMismatch):
        weighted_edge_laplacian(g, np.ones(4))


def test_weighted_edge_laplacian_batch_matches_loop():
    g = build_tree(4, [(0, 1), (1, 2), (1, 3)])
    rng = np.random.default_rng(1)
    w = rng.normal(size=(6, 4))
    batch = weighted_edge_laplacian(g, w)
    for i in range(6):
        single = weighted_edge_laplacian(g, w[i])
        assert np.array_equal(batch[i], single)


def test_identity_eigenvalues():
    assert np.array_equal(batch_eigenvalues(np.eye(3)), np.ones(3))


def test_two_by_two_analytic():
    # characteristic polynomial l^2 - 4l + 3 = (l - 1)(l - 3)
    ev = batch_eigenvalues(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(ev, [1.0, 3.0], atol=1e-12)


def test_line5_edge_laplacian_eigenvalues():
    import math

    g = build_tree(5, LINE5_EDGES)
    expected = sorted(2.0 - 2.0 * math.cos(k * math.pi / 5) for k in range(1, 5))
    assert np.allclose(batch_eigenvalues(edge_laplacian(g)), expected, atol=1e-9)


def test_extreme_eigenvalues_trivial():
    ev = batch_eigenvalues(np.array([[2.0]]))
    assert (ev[0], ev[-1]) == (2.0, 2.0)


def test_psd_matrices_stay_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        b = rng.normal(size=(d, d + 2))
        lo = batch_eigenvalues(b @ b.T)[0]
        assert lo >= -1e-9


def test_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        a = random_symmetric(rng, d)
        assert np.allclose(
            batch_eigenvalues(a), np.linalg.eigvalsh(a), atol=1e-10
        )


def test_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(4)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a = random_symmetric(rng, d)
        ev = batch_eigenvalues(a)
        tol = 1e-9 * d * np.max(np.abs(a))
        assert abs(np.trace(a) - ev.sum()) <= tol


def test_determinant_equals_eigenvalue_product():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a = random_symmetric(rng, d)
        det = np.linalg.det(a)
        prod = float(np.prod(batch_eigenvalues(a)))
        assert prod == pytest.approx(det, rel=1e-6, abs=1e-12)


def test_gershgorin_discs_contain_spectrum():
    rng = np.random.default_rng(6)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a = random_symmetric(rng, d)
        radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
        centers = np.diag(a)
        for lam in batch_eigenvalues(a):
            assert np.any(np.abs(lam - centers) <= radii + 1e-9)


def test_indefinite_weighted_laplacian_regression():
    # A sufficiently negative weight pushes the smallest eigenvalue below
    # zero; the solver must not assume definiteness.
    g = build_tree(5, LINE5_EDGES)
    w = np.array([7.0, 10.0, -2.0, 6.0, 2.0])
    m = weighted_edge_laplacian(g, w)
    ev = batch_eigenvalues(m)
    lo, hi = ev[0], ev[-1]
    ref = np.linalg.eigvalsh(m)
    assert lo < 0.0
    assert lo == pytest.approx(ref[0], abs=1e-10)
    assert hi == pytest.approx(ref[-1], abs=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_signals_with_batch_index(bad):
    batch = np.tile(np.eye(3), (6, 1, 1))
    batch[4, 1, 0] = bad
    with pytest.raises(NoConvergence) as err:
        batch_eigenvalues(batch)
    assert err.value.batch_index == 4
    with pytest.raises(NoConvergence) as err:
        batch_eigenvalues(batch[4])
    assert err.value.batch_index == 0


def test_lapack_failure_maps_to_no_convergence(monkeypatch):
    # LAPACK names no matrix when it fails; the solver finds it itself.
    real = np.linalg.eigvalsh

    def failing(a):
        if np.any(a[..., 0, 0] == 5.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    batch = np.tile(np.eye(3), (6, 1, 1))
    batch[2, 0, 0] = 5.0
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergence) as err:
        batch_eigenvalues(batch)
    assert err.value.batch_index == 2


def test_asymmetric_input_rejected():
    with pytest.raises(DimensionMismatch):
        batch_eigenvalues(np.ones((2, 3)))


def test_batch_equals_single():
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(40, 5, 5))
    batch = batch + np.swapaxes(batch, -1, -2)
    stacked = batch_eigenvalues(batch)
    singles = np.stack([batch_eigenvalues(batch[i]) for i in range(40)])
    assert np.array_equal(stacked, singles)


def test_deterministic_for_fixed_input():
    rng = np.random.default_rng(8)
    a = random_symmetric(rng, 6)
    assert np.array_equal(batch_eigenvalues(a), batch_eigenvalues(a))


def test_extreme_scales():
    rng = np.random.default_rng(9)
    for scale in (1e-250, 1e-100, 1e100, 1e250):
        a = random_symmetric(rng, 5, scale=scale)
        ours = batch_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(ours, ref, rtol=1e-12, atol=0.0)


# --- properties of the batched solver on random weighted trees ---------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
WEIGHTS = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def weighted_trees(draw, batch=1, elements=WEIGHTS):
    """A random tree on 2-60 nodes, its edges oriented at random, and a
    ``(batch, n)`` array of node weights, which may be negative
    (indefinite Laplacians)."""
    n = draw(st.integers(2, 60))
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        edges.append((parent, node) if draw(st.booleans()) else (node, parent))
    w = draw(arrays(float, (batch, n), elements=elements))
    return build_tree(n, edges), w


def dense_weighted_edge_laplacian(g, w):
    """Reference ``B^T diag(w) B`` as a dense product, batched over ``w``."""
    b = g.incidence_matrix
    return np.einsum("ve,...v,vf->...ef", b, w, b)


@PROPERTY_SETTINGS
@given(
    weighted_trees(
        batch=3,
        elements=st.one_of(
            st.just(0.0), st.floats(-1e300, 1e300, allow_subnormal=False)
        ),
    )
)
def test_property_scatter_equals_dense_product(tree):
    # Every entry of the dense product is exact (products with +-1 and
    # sums of at most two nonzero terms), so the values agree exactly;
    # array_equal equates only -0.0 with +0.0, and any other pair of
    # equal doubles has equal bits.
    g, w = tree
    for weights in (w, w[0]):
        lap = weighted_edge_laplacian(g, weights)
        reference = dense_weighted_edge_laplacian(g, weights)
        assert lap.shape == reference.shape
        assert np.array_equal(lap, reference)
        assert np.array_equal(lap, np.swapaxes(lap, -1, -2))


def spectra_close(a, b):
    scale = np.max(np.abs(a))
    return np.all(np.abs(a - b) <= 1e-10 * scale)


@PROPERTY_SETTINGS
@given(weighted_trees(batch=5))
def test_property_batch_equals_per_matrix(tree):
    g, w = tree
    laplacians = weighted_edge_laplacian(g, w)
    stacked = batch_eigenvalues(laplacians)
    singles = np.stack([batch_eigenvalues(lap) for lap in laplacians])
    assert np.array_equal(stacked, singles)


@PROPERTY_SETTINGS
@given(weighted_trees(), st.data())
def test_property_orientation_and_labels_leave_spectrum(tree, data):
    g, w = tree
    w = w[0]
    ev = batch_eigenvalues(weighted_edge_laplacian(g, w))

    flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    flipped = build_tree(
        g.n, [(h, t) if f else (t, h) for (t, h), f in zip(g.edges, flips)]
    )
    signs = np.where(flips, -1.0, 1.0)
    assert np.array_equal(flipped.incidence_matrix, g.incidence_matrix * signs)
    ev_flipped = batch_eigenvalues(
        weighted_edge_laplacian(flipped, w)
    )
    assert spectra_close(ev, ev_flipped)

    # Relabel the nodes and list the edges in another order as well.
    perm = np.array(data.draw(st.permutations(range(g.n))))
    order = data.draw(st.permutations(range(g.m)))
    relabelled = build_tree(
        g.n, [(perm[g.edges[e][0]], perm[g.edges[e][1]]) for e in order]
    )
    w_relabelled = np.empty_like(w)
    w_relabelled[perm] = w
    ev_relabelled = batch_eigenvalues(
        weighted_edge_laplacian(relabelled, w_relabelled)
    )
    assert spectra_close(ev, ev_relabelled)


@PROPERTY_SETTINGS
@given(weighted_trees())
def test_property_eigenvalue_sum_equals_trace(tree):
    g, w = tree
    lap = weighted_edge_laplacian(g, w[0])
    tol = 1e-10 * g.m * np.max(np.abs(lap))
    assert abs(batch_eigenvalues(lap).sum() - np.trace(lap)) <= tol


# --- extreme eigenvalues by Sturm counts -------------------------------------

SIGNED_WEIGHTS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def shaped_trees(draw, batch):
    """A star, a path or a random tree on 2-60 nodes, its nodes relabelled,
    its edges flipped and listed in a shuffled order, and a ``(batch, n)``
    array of weights of mixed sign with exact +0.0 and -0.0 among them."""
    n = draw(st.integers(2, 60))
    shape = draw(st.sampled_from(["star", "path", "random"]))
    if shape == "star":
        edges = [(0, node) for node in range(1, n)]
    elif shape == "path":
        edges = [(node - 1, node) for node in range(1, n)]
    else:
        edges = [(draw(st.integers(0, node - 1)), node) for node in range(1, n)]
    label = draw(st.permutations(range(n)))
    edges = [
        (label[h], label[t]) if draw(st.booleans()) else (label[t], label[h])
        for t, h in edges
    ]
    edges = draw(st.permutations(edges))
    w = draw(arrays(float, (batch, n), elements=SIGNED_WEIGHTS))
    return build_tree(n, edges), w


@PROPERTY_SETTINGS
@given(shaped_trees(batch=4))
def test_property_sturm_extremes_match_eigvalsh(tree):
    # within a few n eps max|w| deg of LAPACK, the scale of the rounding
    # in either method; an all-zero sample gives exact zeros
    g, w = tree
    ends = extreme_eigenvalues(g, w)
    ev = batch_eigenvalues(weighted_edge_laplacian(g, w))
    degree = np.bincount(np.concatenate([g.tails, g.heads]))
    tol = 4 * g.n * np.finfo(float).eps * np.max(np.abs(w) * degree, axis=1)
    assert ends.shape == (len(w), 2)
    assert np.all(np.abs(ends[:, 0] - ev[:, 0]) <= tol)
    assert np.all(np.abs(ends[:, 1] - ev[:, -1]) <= tol)


@PROPERTY_SETTINGS
@given(shaped_trees(batch=9), st.integers(1, 7))
def test_property_sturm_extremes_independent_of_the_batch(tree, k):
    # a batch split into pieces of 1, k and the rest gives the same bits
    g, w = tree
    whole = extreme_eigenvalues(g, w)
    pieces = [
        extreme_eigenvalues(g, part) for part in (w[:1], w[1 : 1 + k], w[1 + k :])
    ]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sturm_non_finite_weight_names_its_row(bad):
    g = build_tree(5, LINE5_EDGES)
    w = np.tile(OMEGA5, (6, 1))
    w[4, 2] = bad
    with pytest.raises(NoConvergence) as err:
        extreme_eigenvalues(g, w)
    assert err.value.batch_index == 4


def test_sturm_rejects_weights_of_the_wrong_shape():
    g = build_tree(5, LINE5_EDGES)
    for w in (OMEGA5, np.ones((2, 4))):
        with pytest.raises(DimensionMismatch):
            extreme_eigenvalues(g, w)


def test_sturm_extremes_near_the_ends_of_the_double_range():
    # each sample is scaled by a power of two, so a spectrum that eigvalsh
    # solves finitely near the largest double, or among tiny weights, is
    # solved as finely; one that overflows is reported
    g = build_tree(4, [(0, 1), (1, 2), (1, 3)])
    w = np.array([[1.7e308, 1.0, 1.7e308, -2.0], [3e-300, 1e-310, 2e-300, 1e-300]])
    ends = extreme_eigenvalues(g, w)
    ev = batch_eigenvalues(weighted_edge_laplacian(g, w))
    assert np.all(np.isfinite(ends))
    degree = np.bincount(np.concatenate([g.tails, g.heads]))
    tol = 4 * g.n * np.finfo(float).eps * np.max(np.abs(w) * degree, axis=1)
    assert np.all(np.abs(ends - ev[:, [0, -1]]) <= tol[:, None])
    with pytest.raises(NoConvergence) as err:
        extreme_eigenvalues(g, np.array([OMEGA5[:4], [1.7e308] * 4]))
    assert err.value.batch_index == 1
