"""Tree graphs with oriented incidence matrices.

A tree on ``n`` nodes has exactly ``n - 1`` edges and a unique path between
any two nodes. Each edge carries the orientation given at construction
time as a ``(tail, head)`` pair; the incidence matrix column for edge
``e = (tail, head)`` holds ``+1`` at the tail row and ``-1`` at the head
row. The oscillator dynamics built on top of these graphs depend only on
neighbor sets, so flipping an edge's orientation does not change
trajectories (the orientation-carrying matrix always appears in
quadratic or sign-cancelling combinations).

Matrices are dense: the target scale is tens to a few hundred nodes,
where sparse machinery buys nothing. Each graph caches where the
nonzeros of its weighted edge Laplacians sit, so
:func:`~treekuramoto.linalg.weighted_edge_laplacian` writes them
directly instead of multiplying by the incidence matrix, and the levels
in which :func:`~treekuramoto.linalg.extreme_eigenvalues` eliminates
the tree from its leaves up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .linalg import weighted_edge_laplacian


class GraphError(ConfigError):
    """Invalid graph structure."""


class BadIndex(GraphError):
    """Edge endpoint outside ``0..n-1`` or node count below 2."""


class SelfLoop(GraphError):
    """Edge connecting a node to itself."""


class DuplicateEdge(GraphError):
    """Same undirected edge listed twice."""


class CycleDetected(GraphError):
    """Edge set contains a cycle."""


class Disconnected(GraphError):
    """Edge set does not connect all nodes."""


@dataclass(frozen=True)
class TreeGraph:
    """Validated tree: ``n`` nodes, ``n - 1`` oriented edges.

    Construct through :func:`build_tree`, which enforces the tree
    invariants. Instances are immutable and safe to share across
    concurrent trials.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        """Edge count (``n - 1`` for a tree)."""
        return len(self.edges)

    @cached_property
    def tails(self) -> np.ndarray:
        arr = np.array([t for t, _ in self.edges], dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @cached_property
    def heads(self) -> np.ndarray:
        arr = np.array([h for _, h in self.edges], dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @cached_property
    def incidence_matrix(self) -> np.ndarray:
        """Cached oriented incidence matrix, see :func:`incidence`."""
        b = incidence(self)
        b.setflags(write=False)
        return b

    @cached_property
    def laplacian_pattern(self) -> tuple[np.ndarray, ...]:
        """Off-diagonal nonzeros of every weighted edge Laplacian
        ``B^T diag(w) B``, as ``(rows, cols, nodes, signs)``: entry
        ``(rows[k], cols[k])`` is ``signs[k] * w[nodes[k]]``.

        There is one entry for each node ``v`` and each ordered pair
        ``(e, f)`` of distinct edges at ``v``, with sign
        ``B[v, e] * B[v, f]``. Two edges of a tree share at most one
        node, so no position appears twice. The diagonal entry of edge
        ``e`` is ``w[tails[e]] + w[heads[e]]``.
        """
        at_node = [[] for _ in range(self.n)]
        for e, (tail, head) in enumerate(self.edges):
            at_node[tail].append((e, 1.0))
            at_node[head].append((e, -1.0))
        entries = [
            (e, f, v, sign_e * sign_f)
            for v, incident in enumerate(at_node)
            for e, sign_e in incident
            for f, sign_f in incident
            if e != f
        ]
        table = np.array(entries, dtype=float).reshape(-1, 4)
        rows, cols, nodes = table[:, :3].T.astype(np.intp)
        pattern = (rows, cols, nodes, table[:, 3].copy())
        for arr in pattern:
            arr.setflags(write=False)
        return pattern

    @cached_property
    def elimination_levels(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The tree rooted at a centre and cut into levels by height, for
        :func:`~treekuramoto.linalg.extreme_eigenvalues`, as ``(order,
        children)``.

        ``order`` lists the nodes leaves first, then the nodes of height
        1, 2, ... and the root last; a node's height is the length of the
        longest path down to a leaf, so every child comes before its
        parent. ``children[k]`` belongs to the ``k``-th level above the
        leaves (the root's is the last): a ``(c, width)`` array whose
        column ``j`` holds the positions in ``order`` of the children of
        the level's ``j``-th node, padded with ``n - 1``, the root's
        position. Rooting at a centre makes the levels as few as the
        tree's radius.
        """
        neighbours = [[] for _ in range(self.n)]
        for tail, head in self.edges:
            neighbours[tail].append(head)
            neighbours[head].append(tail)
        # peel the leaves off, all at once, until one or two nodes are left:
        # a node's round is its height in the tree rooted at one of those,
        # a centre, which is one higher than the other when two are left
        degree = [len(v) for v in neighbours]
        height = [0] * self.n
        layer = [v for v in range(self.n) if degree[v] == 1]
        left = self.n
        while left > 2:
            left -= len(layer)
            peeled = []
            for v in layer:
                for u in neighbours[v]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        peeled.append(u)
                        height[u] = height[v] + 1
            layer = peeled
        root = min(layer)
        height[root] += len(layer) - 1
        below = [
            [u for u in near if height[u] < height[v]]
            for v, near in enumerate(neighbours)
        ]
        order = sorted(range(self.n), key=lambda v: (v == root, height[v], v))
        position = {v: i for i, v in enumerate(order)}
        children = []
        for h in range(1, height[root] + 1):
            level = [v for v in order if height[v] == h]
            table = np.full(
                (max(len(below[v]) for v in level), len(level)), self.n - 1, np.intp
            )
            for j, v in enumerate(level):
                table[: len(below[v]), j] = [position[u] for u in below[v]]
            table.setflags(write=False)
            children.append(table)
        order = np.array(order, dtype=np.intp)
        order.setflags(write=False)
        return order, tuple(children)


def build_tree(n: int, edges) -> TreeGraph:
    """Validate ``edges`` as a tree on ``n`` nodes.

    Args:
        n: Node count, at least 2. Nodes are indexed ``0..n-1``.
        edges: Iterable of ``(tail, head)`` pairs. Orientation is kept
            as given.

    Returns:
        The validated :class:`TreeGraph`.

    Raises:
        BadIndex: node count below 2 or an endpoint out of range.
        SelfLoop: an edge joins a node to itself.
        DuplicateEdge: an undirected edge appears twice.
        CycleDetected: the edges close a cycle.
        Disconnected: the edges leave the graph in several components.
    """
    if n < 2:
        raise BadIndex(f"need at least 2 nodes, got n={n}")

    edge_list = []
    seen = set()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for raw in edges:
        tail, head = int(raw[0]), int(raw[1])
        if not (0 <= tail < n and 0 <= head < n):
            raise BadIndex(f"edge ({tail}, {head}) outside 0..{n - 1}")
        if tail == head:
            raise SelfLoop(f"edge ({tail}, {head}) is a self-loop")
        key = (min(tail, head), max(tail, head))
        if key in seen:
            raise DuplicateEdge(f"undirected edge {key} listed twice")
        seen.add(key)
        rt, rh = find(tail), find(head)
        if rt == rh:
            raise CycleDetected(f"edge ({tail}, {head}) closes a cycle")
        parent[rt] = rh
        edge_list.append((tail, head))

    roots = {find(i) for i in range(n)}
    if len(roots) > 1:
        raise Disconnected(f"{len(roots)} components, expected 1")

    return TreeGraph(n=n, edges=tuple(edge_list))


def incidence(g: TreeGraph) -> np.ndarray:
    """Oriented incidence matrix ``B`` of shape ``(n, m)``.

    Column ``e`` has ``+1`` at the tail of edge ``e``, ``-1`` at its
    head, zeros elsewhere; every column sums to zero. Deterministic
    given the edge order.
    """
    b = np.zeros((g.n, g.m))
    for e, (tail, head) in enumerate(g.edges):
        b[tail, e] = 1.0
        b[head, e] = -1.0
    return b


def edge_laplacian(g: TreeGraph) -> np.ndarray:
    """Edge Laplacian ``B^T B`` of shape ``(m, m)``: the unit-weight
    case of :func:`~treekuramoto.linalg.weighted_edge_laplacian`.

    Symmetric and positive definite on trees, so its spectrum equals
    the nonzero spectrum of the node Laplacian ``B B^T``.
    """
    return weighted_edge_laplacian(g, np.ones(g.n))
