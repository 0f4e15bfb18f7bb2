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

import numpy as np

from .corpus import JointVocabulary, MultimodalDocument
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


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


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


def _gather_paths(tree: WordTree, tokens: np.ndarray):
    """Concatenated tree-path entries for a token sequence.

    Returns (rows, bits, pos) where pos[k] is the 0-based position of the
    token that path entry k belongs to.
    """
    nodes_tab, bits_tab, lengths = tree.path_table()
    nodes = nodes_tab[tokens]
    valid = nodes >= 0
    pos = np.broadcast_to(np.arange(len(tokens))[:, None], nodes.shape)
    return nodes[valid], bits_tab[tokens][valid], pos[valid]


def doc_log_likelihood(
    tokens: np.ndarray, params: ShallowParams, tree: WordTree
) -> float:
    """log p(v) for one explicit token ordering; 0 for the empty document."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if len(tokens) == 0:
        return 0.0
    states = hidden_states(tokens, params)
    rows, bits, pos = _gather_paths(tree, tokens)
    act = params.b[rows] + np.einsum("ij,ij->i", params.V[rows], states[pos])
    signs = 2 * bits - 1
    return float(-np.logaddexp(0.0, -signs * act).sum())


def class_posterior(tokens: np.ndarray, params: ShallowParams) -> np.ndarray:
    """softmax(d + U h) on the full-document hidden state."""
    if params.n_classes < 2:
        raise ValueError("class posterior needs at least 2 classes")
    tokens = np.asarray(tokens, dtype=np.int64)
    h_full = hidden_states(tokens, params)[-1]
    return np.exp(_log_softmax(params.d + params.U @ h_full))


def joint_log_prob(
    tokens: np.ndarray, label: int, params: ShallowParams, tree: WordTree
) -> float:
    """log p(v, y) = log p(v) + log p(y | v)."""
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    tokens = np.asarray(tokens, dtype=np.int64)
    h_full = hidden_states(tokens, params)[-1]
    log_post = _log_softmax(params.d + params.U @ h_full)
    return doc_log_likelihood(tokens, params, tree) + float(log_post[label])


def _gradient_core(
    tokens: np.ndarray,
    params: ShallowParams,
    tree: WordTree,
    unsup_weight: float,
    label: int | None,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients of the (hybrid) objective for one document.

    `out`, a gradient dict returned by an earlier call, is zeroed and
    reused instead of allocating fresh dense gradients.

    The generative part follows the reverse-order backward recurrence: path
    gradients produce per-position dh_i, and the running accumulator that
    feeds dW[:, v_i] collects the masked dh_j of strictly later positions
    plus the class-head term (h_i does not depend on v_i itself, so dh_i
    joins the accumulator only after position i's dW update).  The hidden
    bias receives every masked dh_i plus the class-head term.
    """
    n_tokens = len(tokens)
    if out is None:
        grads = params.zero_grads()
    else:
        grads = out
        for arr in grads.values():
            arr.fill(0.0)
    loss = 0.0

    pre = _preactivations(tokens, params)
    states = np.maximum(pre, 0.0)
    active = pre > 0  # relu subgradient: strict inequality, 0 at the kink

    if label is not None:
        log_post = _log_softmax(params.d + params.U @ states[-1])
        loss -= float(log_post[label])
        d_logits = np.exp(log_post)
        d_logits[label] -= 1.0
        grads["d"] = d_logits
        grads["U"] = np.outer(d_logits, states[-1])
        dact_head = (params.U.T @ d_logits) * active[-1]
    else:
        dact_head = np.zeros(params.n_hidden)

    if n_tokens == 0:
        grads["c"] = dact_head
        return loss, grads

    rows, bits, pos = _gather_paths(tree, tokens)
    act = params.b[rows] + np.einsum("ij,ij->i", params.V[rows], states[pos])
    signs = 2 * bits - 1
    log_lik = float(-np.logaddexp(0.0, -signs * act).sum())
    loss -= unsup_weight * log_lik

    if unsup_weight != 0.0:
        dt = unsup_weight * (np.exp(-np.logaddexp(0.0, -act)) - bits)
        np.add.at(grads["b"], rows, dt)
        np.add.at(grads["V"], rows, dt[:, None] * states[pos])
        dh = np.zeros((n_tokens, params.n_hidden))
        np.add.at(dh, pos, dt[:, None] * params.V[rows])
        masked = dh * active[:n_tokens]
    else:
        masked = np.zeros((n_tokens, params.n_hidden))

    # dact at position i = head term + masked dh of positions > i
    suffix = np.cumsum(masked[::-1], axis=0)[::-1]
    dact = dact_head + np.vstack([suffix[1:], np.zeros((1, params.n_hidden))])
    np.add.at(grads["W"].T, tokens, dact)
    grads["c"] = dact_head + masked.sum(axis=0)
    return loss, grads


def supdocnade_gradients(
    tokens: np.ndarray,
    label: int,
    params: ShallowParams,
    tree: WordTree,
    unsup_weight: float,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact gradients of -log p(y|v) - unsup_weight * log p(v)."""
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    tokens = np.asarray(tokens, dtype=np.int64)
    return _gradient_core(tokens, params, tree, unsup_weight, label, out)


def docnade_gradients(
    tokens: np.ndarray,
    params: ShallowParams,
    tree: WordTree,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact gradients of the unsupervised objective -log p(v)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return _gradient_core(tokens, params, tree, 1.0, None, out)


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
