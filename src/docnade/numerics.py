"""Numerically stable sigmoid, log-softmax and row softmax, and the top-k
ranking order, shared by the models and the metrics."""

from __future__ import annotations

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow for large |z|."""
    return np.exp(-np.logaddexp(0.0, -z))


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis (each row of a matrix separately)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of a matrix."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def top_order(ids: np.ndarray, scores: np.ndarray, top_k: int | None = None) -> np.ndarray:
    """Positions of the `top_k` best scores along the last axis (all of them
    if None), by non-increasing score with ties toward the smaller id.

    With a positive `top_k` shorter than the axis, only each row's entries
    at or above its k-th best score (ties included) are sorted.
    """
    ids = np.broadcast_to(ids, np.shape(scores))
    if top_k is None or not 0 < top_k < np.shape(scores)[-1]:
        return np.lexsort((ids, -scores))[..., :top_k]
    neg = -np.atleast_2d(scores)
    kth = np.partition(neg, top_k - 1, axis=-1)[:, top_k - 1 : top_k]
    # not `neg <= kth`: NaN scores stay candidates and sort last, as in a full sort;
    # np.nonzero is row-major, so each row's candidates are contiguous
    rows, cols = np.nonzero(~(neg > kth))
    cols = cols[np.lexsort((np.atleast_2d(ids)[rows, cols], neg[rows, cols], rows))]
    per_row = np.bincount(rows, minlength=len(neg))
    order = cols[(np.cumsum(per_row) - per_row)[:, None] + np.arange(top_k)]
    return order.reshape(np.shape(scores)[:-1] + (top_k,))
