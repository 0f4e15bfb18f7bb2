"""Numerically stable sigmoid, log-softmax and row softmax, the top-k
ranking order, Glorot initialization, a model's arrays (`Params`), the
sparse gradient format and the two-thread runner of a training call's bulk
work, shared by the models, the trainer and the metrics."""

from __future__ import annotations

import copy
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A training call runs its bulk, order-free work (the Glorot draws, the last
# checkpoint and the model file) on this many threads; no byte depends on it.
THREADS = min(2, os.cpu_count() or 1)


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


def glorot_bound(rows: int, cols: int) -> float:
    return np.sqrt(6.0) / np.sqrt(rows + cols)


def call_all(calls) -> list:
    """The results of the argument-free `calls`, run on `THREADS` threads.
    Every call ends (and every thread is joined) before this returns or
    raises; a failure is raised as the first failing call's exception."""
    with ThreadPoolExecutor(THREADS) as pool:
        futures = [pool.submit(call) for call in calls]
    return [future.result() for future in futures]


def glorot_arrays(shapes, rng: np.random.Generator) -> list[np.ndarray]:
    """A Glorot matrix, uniform on +-glorot_bound(rows, cols), of each
    (rows, cols) of `shapes` (an empty one draws nothing), drawn by
    `call_all` with the bytes of a loop of `rng.uniform` calls in order:
    each is filled in place from a copy of `rng` advanced to its first draw
    (a float64 uniform is one 64-bit output, and uniform(low, high) is
    random() * (high - low) + low), and `rng` ends advanced past all of them.
    The calling thread allocates the arrays: one allocated on a worker lands
    in that thread's malloc arena, which raised a small shallow run's peak
    RSS by 7 MB (13%)."""
    arrays = [np.empty(shape) for shape in shapes]
    starts = np.cumsum([0] + [arr.size for arr in arrays]).tolist()

    def draw(arr: np.ndarray, start: int) -> None:
        if arr.size:
            high = glorot_bound(*arr.shape)
            low = -high
            own = copy.deepcopy(rng)
            own.bit_generator.advance(start)
            own.random(out=arr)
            arr *= high - low
            arr += low

    call_all([functools.partial(draw, arr, start) for arr, start in zip(arrays, starts)])
    rng.bit_generator.advance(starts[-1])
    return arrays


class Params:
    """A model's arrays by their file names, in file order (`array_shapes`),
    each also an attribute, which keeps its place when assigned."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        vars(self).update(arrays)

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return list(vars(self).items())

    def copy(self) -> "Params":
        """A copy of every array in its own memory order (W stays column-major)."""
        return Params({name: arr.copy(order="K") for name, arr in self.arrays()})


# A sparse gradient is a dict {name: (axis, index, block)}: the gradient of
# parameter `name` is zero except at `index` along `axis` (sorted indices, or
# `slice(None)` for a whole-array gradient), where it is `block`, i.e.
# block = grad[along(axis, index)].  A parameter with no entry has a zero
# gradient.
def along(axis: int, index: np.ndarray | slice) -> tuple:
    """The subscript that selects `index` along `axis`."""
    return (slice(None),) * axis + (index,)
