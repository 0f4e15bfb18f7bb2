"""Single-hidden-layer autoregressive topic models over token sequences.

The unsupervised model factors p(v) into per-position conditionals
p(v_i | v_<i); each conditional is a tree-decomposed output computed from a
hidden state h_i = relu(c + sum_{k<i} W[:, v_k]).  The supervised variant
adds a softmax class head on the full-document hidden state and trains the
hybrid objective

    L = -log p(y | v) - unsup_weight * sum_i log p(v_i | v_<i)

with exact gradients.  Hidden states are computed incrementally (one column
add per token), so a full pass is O(H * D) instead of O(H * D^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import JointVocabulary, MultimodalDocument
from .numerics import log_softmax, sigmoid
from .wordtree import OpCounter, WordTree, words_log_prob


@dataclass
class ShallowParams:
    """All trainable weights of the shallow model.

    W: (H, Q) input/embedding weights, c: (H,) hidden bias,
    V: (T, H) tree logistic weights, b: (T,) tree biases,
    U: (C, H) class head weights, d: (C,) class bias (C may be 0).
    """

    W: np.ndarray
    c: np.ndarray
    V: np.ndarray
    b: np.ndarray
    U: np.ndarray
    d: np.ndarray

    @property
    def n_hidden(self) -> int:
        return self.W.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.W.shape[1]

    @property
    def n_classes(self) -> int:
        return self.U.shape[0]

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameter arrays in their declared (serialization) order."""
        return [
            ("W", self.W),
            ("c", self.c),
            ("V", self.V),
            ("b", self.b),
            ("U", self.U),
            ("d", self.d),
        ]

    def copy(self) -> "ShallowParams":
        return ShallowParams(*(arr.copy() for _, arr in self.arrays()))

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.arrays()}


def _preactivations(tokens: np.ndarray, params: ShallowParams) -> np.ndarray:
    """(D+1, H) running pre-activations; row i is c + sum of first i columns."""
    pre = np.empty((len(tokens) + 1, params.n_hidden))
    pre[0] = params.c
    if len(tokens):
        np.cumsum(params.W[:, tokens].T, axis=0, out=pre[1:])
        pre[1:] += params.c
    return pre


def hidden_states(
    tokens: np.ndarray, params: ShallowParams, counter: OpCounter | None = None
) -> np.ndarray:
    """Hidden states h_1 .. h_{D+1}; the last row is the full-document state."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if counter is not None:
        counter.column_adds += len(tokens)
    return np.maximum(_preactivations(tokens, params), 0.0)


class _Paths(NamedTuple):
    """The tree-path entries of a token sequence on a (tokens x depth) grid.

    Row i holds the path of token i; `valid` marks the entries that exist,
    since a path may be one node shorter than the grid.
    """

    nodes: np.ndarray  # tree node of each entry, 0 where not valid
    bits: np.ndarray
    valid: np.ndarray
    v_at: np.ndarray  # (D, depth, H) V[nodes]
    act: np.ndarray  # b[nodes] + V[nodes] . h_i, h_i the state token i is read at
    log_lik: float  # log p(v), the sum of the valid entries' log-sigmoids


def _path_terms(
    tokens: np.ndarray, states: np.ndarray, params: ShallowParams, tree: WordTree
) -> _Paths:
    """Path entries of a nonempty token sequence over a tree with Q >= 2."""
    nodes_tab, bits_tab, _ = tree.path_table()
    nodes, bits = nodes_tab[tokens], bits_tab[tokens]
    valid = nodes >= 0
    nodes = np.where(valid, nodes, 0)
    v_at = params.V[nodes]
    act = params.b[nodes] + np.einsum("ijh,ih->ij", v_at, states[: len(tokens)])
    signs = 2 * bits - 1
    log_lik = float(-np.logaddexp(0.0, -signs[valid] * act[valid]).sum())
    return _Paths(nodes, bits, valid, v_at, act, log_lik)


def doc_log_likelihood(
    tokens: np.ndarray, params: ShallowParams, tree: WordTree
) -> float:
    """log p(v) for one explicit token ordering; 0 for the empty document."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if len(tokens) == 0 or tree.n_internal == 0:
        return 0.0
    return _path_terms(tokens, hidden_states(tokens, params), params, tree).log_lik


def class_posterior(tokens: np.ndarray, params: ShallowParams) -> np.ndarray:
    """softmax(d + U h) on the full-document hidden state."""
    if params.n_classes < 2:
        raise ValueError("class posterior needs at least 2 classes")
    tokens = np.asarray(tokens, dtype=np.int64)
    h_full = hidden_states(tokens, params)[-1]
    return np.exp(log_softmax(params.d + params.U @ h_full))


def joint_log_prob(
    tokens: np.ndarray, label: int, params: ShallowParams, tree: WordTree
) -> float:
    """log p(v, y) = log p(v) + log p(y | v)."""
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    tokens = np.asarray(tokens, dtype=np.int64)
    h_full = hidden_states(tokens, params)[-1]
    log_post = log_softmax(params.d + params.U @ h_full)
    return doc_log_likelihood(tokens, params, tree) + float(log_post[label])


@dataclass
class SparseGrads:
    """A gradient stored only where it can be nonzero.

    W: (|cols|, H), the gradient of the W columns `cols` (sorted unique
    token ids); V: (|rows|, H) and b: (|rows|,), the gradient of the tree
    nodes `rows` (sorted unique nodes on the tokens' paths); c, U and d
    are dense.
    """

    cols: np.ndarray
    W: np.ndarray
    rows: np.ndarray
    V: np.ndarray
    b: np.ndarray
    c: np.ndarray
    U: np.ndarray
    d: np.ndarray

    def to_dense(
        self, params: ShallowParams, out: dict[str, np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Dense gradient arrays; `out`, if given, is zeroed and filled."""
        if out is None:
            out = params.zero_grads()
        else:
            for arr in out.values():
                arr.fill(0.0)
        out["W"][:, self.cols] = self.W.T
        out["V"][self.rows] = self.V
        out["b"][self.rows] = self.b
        for name in ("c", "U", "d"):
            out[name][...] = getattr(self, name)
        return out


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable sort order of `keys`, the start of each run of equal keys in
    it, and each run's key.  `np.add.reduceat` over those starts sums the
    values of each key in input order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return order, starts, sorted_keys[starts]


def sum_gradients(grads: list[SparseGrads]) -> SparseGrads:
    """Sum of sparse gradients, added in list order."""
    if len(grads) == 1:
        return grads[0]
    first = grads[0]
    cols = np.unique(np.concatenate([g.cols for g in grads]))
    rows = np.unique(np.concatenate([g.rows for g in grads]))
    total = SparseGrads(
        cols, np.zeros((len(cols), first.W.shape[1])),
        rows, np.zeros((len(rows), first.V.shape[1])), np.zeros(len(rows)),
        first.c.copy(), first.U.copy(), first.d.copy(),
    )
    for n, g in enumerate(grads):
        at_cols = np.searchsorted(cols, g.cols)
        at_rows = np.searchsorted(rows, g.rows)
        total.W[at_cols] += g.W
        total.V[at_rows] += g.V
        total.b[at_rows] += g.b
        if n:
            total.c += g.c
            total.U += g.U
            total.d += g.d
    return total


def sparse_gradients(
    tokens: np.ndarray,
    params: ShallowParams,
    tree: WordTree,
    unsup_weight: float,
    label: int | None = None,
) -> tuple[float, SparseGrads]:
    """Loss and exact gradient of -log p(y|v) - unsup_weight * log p(v) for
    one token ordering; `label` None drops the class term.

    The generative part follows the reverse-order backward recurrence: path
    gradients produce per-position dh_i, and the running accumulator that
    feeds dW[:, v_i] collects the masked dh_j of strictly later positions
    plus the class-head term (h_i does not depend on v_i itself, so dh_i
    joins the accumulator only after position i's dW update).  The hidden
    bias receives every masked dh_i plus the class-head term.
    """
    if label is not None and not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    tokens = np.asarray(tokens, dtype=np.int64)
    n_tokens, n_hidden = len(tokens), params.n_hidden
    loss = 0.0

    pre = _preactivations(tokens, params)
    states = np.maximum(pre, 0.0)
    active = pre > 0  # relu subgradient: strict inequality, 0 at the kink

    if label is not None:
        log_post = log_softmax(params.d + params.U @ states[-1])
        loss -= float(log_post[label])
        g_d = np.exp(log_post)
        g_d[label] -= 1.0
        g_U = np.outer(g_d, states[-1])
        dact_head = (params.U.T @ g_d) * active[-1]
    else:
        g_d, g_U = np.zeros_like(params.d), np.zeros_like(params.U)
        dact_head = np.zeros(n_hidden)

    no_ids = np.empty(0, dtype=np.int64)
    grads = SparseGrads(
        no_ids, np.empty((0, n_hidden)), no_ids, np.empty((0, n_hidden)), np.empty(0),
        dact_head, g_U, g_d,
    )
    if n_tokens == 0:
        return loss, grads

    masked = np.zeros((n_tokens, n_hidden))
    if tree.n_internal:  # a one-word vocabulary has no tree
        paths = _path_terms(tokens, states, params, tree)
        loss -= unsup_weight * paths.log_lik
        if unsup_weight != 0.0:
            dt = unsup_weight * (sigmoid(paths.act) - paths.bits)
            dt *= paths.valid
            # dh_i sums dt * V over the path of token i
            masked = np.einsum("ij,ijh->ih", dt, paths.v_at)
            masked *= active[:n_tokens]
            nodes, valid = paths.nodes, paths.valid
            del paths  # frees the (D, depth, H) block before dV is built
            order, starts, grads.rows = _runs(nodes[valid])
            dt_sorted = dt[valid][order]
            grads.b = np.add.reduceat(dt_sorted, starts)
            dV = states[np.nonzero(valid)[0][order]]
            dV *= dt_sorted[:, None]
            grads.V = np.add.reduceat(dV, starts, axis=0)

    # dact at position i = head term + masked dh of positions > i
    suffix = np.cumsum(masked[::-1], axis=0)[::-1]
    dact = dact_head + np.vstack([suffix[1:], np.zeros((1, n_hidden))])
    order, starts, grads.cols = _runs(tokens)
    grads.W = np.add.reduceat(dact[order], starts, axis=0)
    grads.c = dact_head + masked.sum(axis=0)
    return loss, grads


def supdocnade_gradients(
    tokens: np.ndarray,
    label: int,
    params: ShallowParams,
    tree: WordTree,
    unsup_weight: float,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact gradients of -log p(y|v) - unsup_weight * log p(v), as dense
    arrays; `out`, a gradient dict returned by an earlier call, is zeroed
    and reused."""
    loss, grads = sparse_gradients(tokens, params, tree, unsup_weight, label)
    return loss, grads.to_dense(params, out)


def docnade_gradients(
    tokens: np.ndarray,
    params: ShallowParams,
    tree: WordTree,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact gradients of the unsupervised objective -log p(v), as dense
    arrays; `out` as in `supdocnade_gradients`."""
    loss, grads = sparse_gradients(tokens, params, tree, 1.0)
    return loss, grads.to_dense(params, out)


def represent(
    doc: MultimodalDocument,
    params: ShallowParams,
    vocab: JointVocabulary,
    restrict: str = "all-words",
) -> np.ndarray:
    """Order-independent document representation relu(c + sum counts * W)."""
    if restrict not in ("all-words", "visual-only"):
        raise ValueError(f"unknown restriction {restrict!r}")
    pre = params.c.copy()
    for token_id, count in doc.counts.items():
        if restrict == "visual-only" and vocab.is_annotation(token_id):
            continue
        pre += count * params.W[:, token_id]
    return np.maximum(pre, 0.0)


def predict_annotations(
    doc: MultimodalDocument,
    params: ShallowParams,
    tree: WordTree,
    vocab: JointVocabulary,
    top_k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k annotation ids by next-word probability given the visual words.

    Only annotation-word leaves are evaluated; annotation counts already in
    the document are ignored.  Ties break toward the smaller id.  Returns
    (ids, probabilities) sorted by decreasing probability.
    """
    if top_k > vocab.n_annotation:
        raise ValueError(
            f"top_k={top_k} exceeds annotation vocabulary ({vocab.n_annotation})"
        )
    h = represent(doc, params, vocab, restrict="visual-only")
    candidates = np.arange(vocab.visual_size, vocab.size, dtype=np.int64)
    log_probs = words_log_prob(tree, h, candidates, params.V, params.b)
    order = np.lexsort((candidates, -log_probs))[:top_k]
    return candidates[order], np.exp(log_probs[order])
