"""Weighted edge Laplacians and the eigenvalues of symmetric matrices.

On a tree, ``B^T diag(w) B`` has ``m + sum_v deg(v) (deg(v) - 1)``
nonzeros: edge ``e``'s diagonal entry is ``w[tail] + w[head]``, and
entry ``(e, f)`` of two distinct edges that meet at node ``v`` is
``B[v, e] B[v, f] w[v]``, one weight with a sign. The graph caches where
they sit, and :func:`weighted_edge_laplacian` writes them into a zeroed
array, which is symmetric as built. For finite weights this gives the
doubles of the dense product ``B^T (w B)`` in any summation order: every
product with a +-1 entry of ``B`` is exact, all other terms are zeros,
and no entry has more than two nonzero terms. Only the sign of a zero
entry can differ, where a weight or a diagonal sum is itself zero.

Eigenvalues come two ways, and neither makes a definiteness assumption:
node weights in this package can go negative, which makes
``B^T diag(w) B`` indefinite.

- :func:`batch_eigenvalues` returns every eigenvalue of each matrix from
  LAPACK, through one batched ``np.linalg.eigvalsh`` call. Its input
  must be symmetric: only the lower triangle is read, and nothing checks
  the upper one. Every matrix this package solves is an edge Laplacian,
  symmetric as built.
- :func:`extreme_eigenvalues` returns only the smallest and the largest
  eigenvalue of ``B^T diag(w) B``, from the node weights, without forming
  the ``m x m`` matrix: it bisects on Sturm counts, each one ``O(n)``
  elimination on the tree with every edge subdivided. It needs about
  ``11 n`` doubles a sample where LAPACK needs ``m**2``, and
  ``conditions._sturm_pays`` picks it, from the tree alone, on the trees
  where it is the faster of the two: every one of 24 nodes or more, and
  smaller ones that are not too deep.

Both take a batch of matrices or weight rows, so Monte Carlo loops solve
many samples at once, and a batch gives the same bits as its members
solved one at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericError

if TYPE_CHECKING:
    from .graph import TreeGraph


class DimensionMismatch(NumericError):
    """Operands have incompatible shapes."""


class NoConvergence(NumericError):
    """The eigensolver failed or returned a non-finite eigenvalue;
    ``batch_index`` is the first offending matrix of a batch."""

    def __init__(self, message: str, batch_index: int = 0):
        super().__init__(message)
        self.batch_index = batch_index


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
    return m


def weighted_edge_laplacian(graph: TreeGraph, w) -> np.ndarray:
    """Form ``B^T diag(w) B`` of shape ``(..., m, m)`` for a tree and
    node weights of shape ``(..., n)``, by writing each nonzero of
    ``graph.laplacian_pattern`` into a zeroed array.

    Raises:
        DimensionMismatch: weight length does not match the node count.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (graph.n,):
        raise DimensionMismatch(f"weights of shape {w.shape} for {graph.n} nodes")
    rows, cols, nodes, signs = graph.laplacian_pattern
    diagonal = np.arange(graph.m)
    lap = np.zeros(w.shape[:-1] + (graph.m, graph.m))
    lap[..., diagonal, diagonal] = w[..., graph.tails] + w[..., graph.heads]
    lap[..., rows, cols] = w[..., nodes] * signs
    return lap


def batch_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of each symmetric matrix in ``(..., d, d)``, ascending;
    only the lower triangle is read.

    Raises:
        NoConvergence: LAPACK failed or gave a non-finite eigenvalue
            (``eigvalsh`` maps NaN input to NaN silently); ``batch_index``
            is the first such matrix in flattened batch order.
    """
    m = _square(m)
    d = m.shape[-1]
    try:
        ev = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        # LAPACK does not say which matrix failed: solve them one by one.
        ev = np.array([_eigvalsh_or_nan(a) for a in m.reshape(-1, d, d)])
    failed = ~np.all(np.isfinite(ev), axis=-1).reshape(-1)
    if np.any(failed):
        index = int(np.argmax(failed))
        raise NoConvergence(
            f"eigensolver failed or gave non-finite eigenvalues "
            f"(first offending batch index {index})",
            batch_index=index,
        )
    return ev.reshape(m.shape[:-1])


def _eigvalsh_or_nan(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return np.full(len(a), np.nan)


#: Bisection passes of :func:`extreme_eigenvalues`: a Gershgorin bracket
#: of width at most ``2 R``, ``R`` the largest disc bound, narrows to
#: ``2 R 2**-51 = 4 eps R``.
_PASSES = 51

#: Largest magnitude of a reciprocal weight, relative to the largest
#: weight of its sample. It moves a weight smaller than ``2**-900`` of the
#: largest, zeros included, to that size with its sign bit, which moves
#: no eigenvalue by more than ``deg * 2**-900`` of the largest weight.
_RECIPROCAL_BOUND = 2.0**900


def extreme_eigenvalues(graph: TreeGraph, w) -> np.ndarray:
    """``(lambda_min, lambda_max)`` of ``B^T diag(w) B`` for each row of
    node weights ``w`` of shape ``(samples, n)``, as a ``(samples, 2)``
    array, by bisection on Sturm counts of the subdivided tree.

    Haynsworth's inertia additivity puts the number of eigenvalues above
    ``lam`` at the number of negative pivots of
    ``N(lam) = [[W^-1, B], [B^T, lam I]]`` less the number of negative
    weights. The graph of ``N`` is the tree with every edge subdivided,
    so an elimination from the leaves up (``graph.elimination_levels``)
    has no fill-in: a node's pivot is ``d_v = 1/w_v - sum x`` over its
    children, the pivot of the edge to its parent ``d_e = lam - 1/d_v``,
    and ``x = 1/d_e`` is what it passes up (Jacobs and Trevisan,
    "Locating the eigenvalues of trees", 2011). A leaf's pivot is its
    ``1/w_v`` and cancels its own weight's sign, so neither is counted.

    Each sample is scaled by the power of two of its largest weight and
    solved as two columns, one per end, from the Gershgorin bracket for
    ``_PASSES`` passes: every operation is elementwise along the columns,
    and sums over children run in a fixed order, so a row's bits depend
    on that row alone, never on the rest of the batch. The results agree
    with ``eigvalsh`` to a few ``n eps max|w| deg``.

    A pivot is never NaN, for the clipped reciprocals below are finite
    and nonzero: only an exact zero ``d_e`` passes up an infinite ``x``,
    always ``+inf``, since ``lam`` is never ``-0.0``; its parent's pivot
    is then ``-inf``, negative and passing ``-0.0`` up, which is the
    Jacobs-Trevisan rule for a zero child. Any NaN would raise
    ``FloatingPointError`` rather than be counted.

    Raises:
        DimensionMismatch: ``w`` is not ``(samples, n)``.
        NoConvergence: a weight is not finite, or an eigenvalue
            overflows; ``batch_index`` is the first such row.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] != graph.n:
        raise DimensionMismatch(f"weights of shape {w.shape} for {graph.n} nodes")
    _check_finite(np.isfinite(w).all(axis=1))
    samples = len(w)
    order, children = graph.elimination_levels
    _, exponent = np.frexp(np.max(np.abs(w), axis=1))
    w = np.ldexp(w, -exponent[:, None])

    lo, hi = _gershgorin_bracket(graph, w)
    half = np.tile(0.5 * (hi - lo), 2)
    lam = np.tile(lo, 2) + half

    with np.errstate(divide="ignore", over="ignore", invalid="raise"):
        # rows in elimination order; columns the lower ends, then the upper
        inverse = np.clip(1.0 / w.T[order], -_RECIPROCAL_BOUND, _RECIPROCAL_BOUND)
        inverse = np.tile(inverse, 2)
        n, leaves = graph.n, graph.n - sum(c.shape[1] for c in children)
        # eigenvalues above lam: all m of them below lambda_min, one or
        # more below lambda_max; counted with the inner nodes' negative
        # weights, which the inner pivots include
        target = np.count_nonzero(np.signbit(inverse[leaves:]), axis=0)
        target[:samples] += graph.m
        target[samples:] += 1
        leaf_weights = 1.0 / inverse[:leaves]
        # x per position in order; the root's row n - 1 stays zero and
        # pads the children tables
        x = np.zeros((n, 2 * samples))
        # pivots: the edge above each non-root position, then the inner nodes
        pivots = np.empty((2 * n - 1 - leaves, 2 * samples))
        negative = np.empty(pivots.shape, dtype=bool)
        levels = _level_views(children, leaves, inverse, pivots, x)
        leaf_pivots, leaf_x = pivots[:leaves], x[:leaves]
        for _ in range(_PASSES):
            np.subtract(lam, leaf_weights, out=leaf_pivots)
            np.divide(1.0, leaf_pivots, out=leaf_x)
            for table, inverse_rows, node, passed, edge, edge_x in levels:
                np.add.reduce(x.take(table, axis=0), axis=0, out=passed)
                np.subtract(inverse_rows, passed, out=node)
                if edge is not None:  # the root has no edge above
                    np.divide(1.0, node, out=passed)
                    np.subtract(lam, passed, out=edge)
                    np.divide(1.0, edge, out=edge_x)
            np.less(pivots, 0.0, out=negative)
            above = np.add.reduce(negative, axis=0, dtype=np.int32) >= target
            half *= 0.5
            lam += np.where(above, half, -half)
        ends = np.ldexp(lam.reshape(2, samples).T, exponent[:, None])
    _check_finite(np.isfinite(ends).all(axis=1))
    return ends


def _level_views(children, leaves: int, inverse, pivots, x) -> list:
    """For each level of inner nodes above the leaves, in elimination
    order: its children table, its rows of ``inverse``, its node pivots,
    a view of one ``passed`` buffer its width, and its rows of the edge
    pivots and of ``x`` (``None`` at the root, which has no edge above).
    :func:`extreme_eigenvalues` takes them once and reuses them in every
    pass."""
    n = len(x)
    buffer = np.empty((max(table.shape[1] for table in children), x.shape[1]))
    levels, start = [], leaves
    for table in children:
        stop = start + table.shape[1]
        node = pivots[n - 1 + start - leaves : n - 1 + stop - leaves]
        passed = buffer[: stop - start]
        edge, edge_x = (pivots[start:stop], x[start:stop]) if stop < n else (None, None)
        levels.append((table, inverse[start:stop], node, passed, edge, edge_x))
        start = stop
    return levels


def _gershgorin_bracket(graph: TreeGraph, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """The lowest and highest points of the Gershgorin discs of each
    ``B^T diag(w) B``, widened past their rounding: an edge's disc has
    centre ``w[tail] + w[head]`` and radius ``|w[tail]| (deg(tail) - 1)
    + |w[head]| (deg(head) - 1)``."""
    degree = np.bincount(np.concatenate([graph.tails, graph.heads]))
    tails, heads = w[:, graph.tails], w[:, graph.heads]
    radius = np.abs(tails) * (degree[graph.tails] - 1)
    radius += np.abs(heads) * (degree[graph.heads] - 1)
    centre = tails + heads
    lo, hi = np.min(centre - radius, axis=1), np.max(centre + radius, axis=1)
    pad = 8 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    return lo - pad, hi + pad


def _check_finite(rows: np.ndarray) -> None:
    """Raise :class:`NoConvergence` at the first row that is ``False``."""
    if not np.all(rows):
        index = int(np.argmin(rows))
        raise NoConvergence(
            f"non-finite weight or eigenvalue (first offending batch index {index})",
            batch_index=index,
        )
