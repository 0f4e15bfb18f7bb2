"""Numerically stable sigmoid, log-softmax and row softmax, both families'
class head, the top-k ranking order, Glorot initialization, a model's
arrays (`Params`), the sparse gradient format, the two-thread runner of a
training call's bulk work (`call_all`, and `on_rows` over fixed row parts)
and the one-thread BLAS setting of training and inference
(`one_blas_thread`), shared by the models, the trainer and the metrics."""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import os
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

# A training call runs its bulk, order-free work (the Glorot draws, the row
# parts of `on_rows`, the last checkpoint and the model file) on this many
# threads, at most the CPUs this process may use; no byte depends on it.
THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)

# `on_rows` cuts an array of at least PART_MIN entries into ROW_PARTS fixed
# row parts; a smaller one is not worth a thread's start (0.13-0.25 ms on a
# 2-core VM).  Constants, not THREADS, so that no byte depends on the core
# count.
ROW_PARTS = 2
PART_MIN = 1 << 16


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow for large |z|."""
    return np.exp(-np.logaddexp(0.0, -z))


def log_softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax over the last axis (each row of a matrix separately),
    written into `out` if given (which may be `z` itself)."""
    shifted = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of a matrix."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


HEADS = ("softmax", "sigmoid")


def supervised_loss(
    h_top: np.ndarray, labels: list, params: Params, head: str
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-row class-head losses of a (rows, H) `h_top`, one collection of
    labels per row, and the gradients {U, d, h}, U and d summed over the
    rows: the head p(y | h) = head(d + U h) of every supervised model.

    softmax: -log p(y | h) for the single label y.
    sigmoid: per-class binary cross-entropy against the label set.
    """
    if head == "softmax" and any(len(label_set) != 1 for label_set in labels):
        raise ValueError("softmax head requires exactly one label")
    bad = next((y for label_set in labels for y in label_set if not 0 <= y < len(params.d)), None)
    if bad is not None:
        raise ValueError(f"label {bad} out of range")
    z = params.d + h_top @ params.U.T
    target = np.zeros_like(z)
    for row, label_set in enumerate(labels):
        target[row, sorted(label_set)] = 1.0
    if head == "softmax":
        log_post = log_softmax(z)
        loss = -log_post[target == 1.0]
        d_logits = np.exp(log_post) - target
    else:
        # -t*log(sig(z)) - (1-t)*log(1-sig(z)), computed stably
        loss = (target * np.logaddexp(0.0, -z) + (1 - target) * np.logaddexp(0.0, z)).sum(axis=1)
        d_logits = sigmoid(z) - target
    return loss, {"U": d_logits.T @ h_top, "d": d_logits.sum(axis=0), "h": d_logits @ params.U}


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


def _outcome(call) -> Future:
    """A finished future of `call()`: its result, or the exception it raised."""
    future = Future()
    try:
        future.set_result(call())
    except Exception as exc:
        future.set_exception(exc)
    return future


def call_all(calls) -> list:
    """The results of the argument-free `calls`, run on `THREADS` threads:
    the first on the calling thread, the others on `THREADS - 1` workers,
    so that one call, or one thread, starts no thread (a start costs about
    0.13 ms).  Every call runs and ends (and every worker is joined) before
    this returns or raises; a failure is raised as the first failing call's
    exception."""
    calls = list(calls)
    if THREADS == 1 or len(calls) < 2:
        futures = [_outcome(call) for call in calls]
    else:
        with ThreadPoolExecutor(THREADS - 1) as pool:
            queued = [pool.submit(call) for call in calls[1:]]
            futures = [_outcome(calls[0]), *queued]
    return [future.result() for future in futures]


def on_rows(fn, arr: np.ndarray) -> None:
    """Calls `fn(rows)` for each of ROW_PARTS fixed, consecutive row slices
    of `arr` (`call_all`), or once with every row, `fn(slice(None))`, in the
    calling thread, when `arr` has fewer than PART_MIN entries or fewer than
    two rows a part.  The parts are disjoint, so a pass that keeps each
    row's arithmetic whole (no part cuts a reduction axis) gives the same
    bytes either way; a part of one row would not, as numpy multiplies a
    one-row matrix by a matrix-vector product, which sums in another order
    than a matrix product.  `fn` writes only into arrays the calling thread
    allocated (slices or `out=`), as `glorot_arrays` explains."""
    if arr.size < PART_MIN or len(arr) < 2 * ROW_PARTS:
        fn(slice(None))
        return
    bounds = [len(arr) * part // ROW_PARTS for part in range(ROW_PARTS + 1)]
    call_all([functools.partial(fn, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])])


@functools.cache
def _blas_thread_calls():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None where numpy has no such library."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """BLAS on one thread inside (a context manager or a decorator), its old
    thread count restored on exit: a product's bytes may change with the
    thread count, so training and inference set it.  A BLAS that numpy does
    not bundle is left alone."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


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
