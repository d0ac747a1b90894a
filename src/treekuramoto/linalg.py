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

Eigenvalues come from LAPACK through one batched ``np.linalg.eigvalsh``
call. Its input must be symmetric: only the lower triangle is read, and
nothing checks the upper one. Every matrix this package solves is an
edge Laplacian, symmetric as built. The solve makes no definiteness
assumption: node weights in this package can go negative, which makes
``B^T diag(w) B`` indefinite. Every function accepts a leading batch
dimension, so Monte Carlo loops decompose many small matrices at once;
a batch gives the same bits as its matrices solved one at a time.
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
