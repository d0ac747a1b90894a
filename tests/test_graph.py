import math

import numpy as np
import pytest

from treekuramoto import build_tree, edge_laplacian, incidence
from treekuramoto.graph import (
    BadIndex,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    SelfLoop,
)
from treekuramoto.linalg import batch_eigenvalues

from conftest import LINE5_EDGES, random_tree


def test_smallest_tree():
    g = build_tree(2, [(0, 1)])
    assert g.n == 2
    assert g.m == 1
    assert g.edges == ((0, 1),)


def test_line5_is_valid():
    g = build_tree(5, LINE5_EDGES)
    assert g.m == 4


def test_triangle_is_rejected():
    with pytest.raises(CycleDetected):
        build_tree(3, [(0, 1), (1, 2), (2, 0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_tree(3, [(0, 1), (2, 2)])


def test_duplicate_edge_rejected_even_when_reversed():
    with pytest.raises(DuplicateEdge):
        build_tree(3, [(0, 1), (1, 0)])


def test_bad_index_rejected():
    with pytest.raises(BadIndex):
        build_tree(3, [(0, 1), (1, 5)])
    with pytest.raises(BadIndex):
        build_tree(1, [])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_tree(4, [(0, 1), (2, 3)])


def test_incidence_single_edge():
    g = build_tree(2, [(0, 1)])
    assert np.array_equal(incidence(g), np.array([[1.0], [-1.0]]))


def test_incidence_line5_structure():
    g = build_tree(5, LINE5_EDGES)
    b = incidence(g)
    assert b.shape == (5, 4)
    for e in range(4):
        assert b[e, e] == 1.0
        assert b[e + 1, e] == -1.0
    assert np.array_equal(b.sum(axis=0), np.zeros(4))


def test_incidence_columns_sum_to_zero_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = random_tree(rng, int(rng.integers(2, 11)))
        b = incidence(g)
        assert np.array_equal(b.sum(axis=0), np.zeros(g.m))
        # exactly one +1 and one -1 per column
        assert np.array_equal(np.abs(b).sum(axis=0), 2.0 * np.ones(g.m))


def test_edge_laplacian_single_edge():
    g = build_tree(2, [(0, 1)])
    assert np.array_equal(edge_laplacian(g), np.array([[2.0]]))


def test_edge_laplacian_line5_spectrum():
    g = build_tree(5, LINE5_EDGES)
    expected = sorted(2.0 - 2.0 * math.cos(k * math.pi / 5) for k in range(1, 5))
    ev = batch_eigenvalues(edge_laplacian(g))
    assert np.allclose(ev, expected, atol=1e-9)


def test_edge_laplacian_star_spectrum():
    # 4-node star: char. polynomial of the node Laplacian gives {0,1,1,4}.
    g = build_tree(4, [(0, 1), (0, 2), (0, 3)])
    ev = batch_eigenvalues(edge_laplacian(g))
    assert np.allclose(ev, [1.0, 1.0, 4.0], atol=1e-9)
    node_lap = incidence(g) @ incidence(g).T
    nonzero = np.sort(np.linalg.eigvalsh(node_lap))[1:]
    assert np.allclose(ev, nonzero, atol=1e-9)


def test_edge_laplacian_spd_and_matches_node_laplacian_on_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_tree(rng, int(rng.integers(2, 11)))
        lap = edge_laplacian(g)
        assert np.array_equal(lap, lap.T)
        ev = batch_eigenvalues(lap)
        assert np.all(ev > 0)
        node_ev = np.sort(np.linalg.eigvalsh(incidence(g) @ incidence(g).T))
        assert np.allclose(ev, node_ev[1:], atol=1e-9)


def test_edge_permutation_permutes_columns_and_keeps_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 11))
        g = random_tree(rng, n)
        perm = rng.permutation(g.m)
        g2 = build_tree(n, [g.edges[e] for e in perm])
        b, b2 = incidence(g), incidence(g2)
        assert np.array_equal(b[:, perm], b2)
        ev = batch_eigenvalues(edge_laplacian(g))
        ev2 = batch_eigenvalues(edge_laplacian(g2))
        assert np.allclose(ev, ev2, atol=1e-9)


def test_orientation_flip_flips_column_sign_and_keeps_spectrum():
    rng = np.random.default_rng(5)
    g = random_tree(rng, 8)
    flip = 3
    edges = [
        (h, t) if e == flip else (t, h) for e, (t, h) in enumerate(g.edges)
    ]
    g2 = build_tree(8, edges)
    b, b2 = incidence(g), incidence(g2)
    assert np.array_equal(b[:, flip], -b2[:, flip])
    assert np.allclose(
        batch_eigenvalues(edge_laplacian(g)),
        batch_eigenvalues(edge_laplacian(g2)),
        atol=1e-9,
    )


def test_graph_is_immutable():
    g = build_tree(2, [(0, 1)])
    with pytest.raises(Exception):
        g.incidence_matrix[0, 0] = 5.0
    for arr in build_tree(3, [(0, 1), (1, 2)]).laplacian_pattern:
        with pytest.raises(ValueError):
            arr[0] = 0


def eccentricities(g):
    """Each node's largest distance to another node, by breadth-first search."""
    neighbours = [[] for _ in range(g.n)]
    for t, h in g.edges:
        neighbours[t].append(h)
        neighbours[h].append(t)
    result = []
    for source in range(g.n):
        distance = {source: 0}
        queue = [source]
        for v in queue:
            for u in neighbours[v]:
                if u not in distance:
                    distance[u] = distance[v] + 1
                    queue.append(u)
        result.append(max(distance.values()))
    return result


@pytest.mark.parametrize("shape", ["star", "path", "random", "pair"])
def test_elimination_levels_root_a_centre_and_list_children_first(shape):
    rng = np.random.default_rng(4)
    for n in (2, 3, 7, 30):
        if shape == "star":
            g = build_tree(n, [(node, 0) for node in range(1, n)])
        elif shape == "path":
            g = build_tree(n, [(node, node - 1) for node in range(n - 1, 0, -1)])
        elif shape == "random":
            g = random_tree(rng, n)
        else:
            g = build_tree(2, [(1, 0)])
        order, children = g.elimination_levels
        assert sorted(order) == list(range(g.n))
        ecc = eccentricities(g)
        root = order[-1]
        # rooted at a centre, the levels are as few as the radius
        assert ecc[root] == min(ecc) == len(children)
        assert children[-1].shape[1] == 1
        stop = g.n
        listed = []
        for table in reversed(children):
            start = stop - table.shape[1]
            for j, parent in enumerate(order[start:stop]):
                below = [p for p in table[:, j] if p != g.n - 1]
                # children come before their parent, and each is a neighbour
                assert all(p < start for p in below)
                assert all(
                    (parent, order[p]) in g.edges or (order[p], parent) in g.edges
                    for p in below
                )
                listed += below
            stop = start
        # every node but the root is somebody's child exactly once, and the
        # nodes before the first level are the leaves
        assert sorted(listed) == list(range(g.n - 1))
        degree = np.bincount(np.concatenate([g.tails, g.heads]), minlength=g.n)
        assert all(degree[v] == 1 for v in order[:stop])
