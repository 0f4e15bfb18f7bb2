"""Numerically stable sigmoid, log-softmax and row softmax, shared by the
models and the metrics."""

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
