"""The shallow family: DocNADE and SupDocNADE, single-hidden-layer
autoregressive topic models over token sequences.

The unsupervised model factors p(v) into per-position conditionals
p(v_i | v_<i); each conditional is a tree-decomposed output computed from a
hidden state h_i = relu(c + sum_{k<i} W[:, v_k]).  The supervised variant
adds a softmax class head on the full-document hidden state and trains the
hybrid objective

    L = -log p(y | v) - unsup_weight * sum_i log p(v_i | v_<i)

with exact gradients.  Hidden states are computed incrementally (one column
add per token), so a full pass is O(H * D) instead of O(H * D^2), and each
token's conditional reads only the tree nodes on its word's path, so a
training step costs O(H * D * log Q), as in the paper.

This module is the shallow model family of `model_io.FAMILIES`, with the
same family names as `deep`; its context is the word tree.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import JointVocabulary
from .numerics import Params, supervised_loss, top_order
from .wordtree import WordTree, build_tree, words_log_prob


def _preactivations(tokens: np.ndarray, params: Params) -> np.ndarray:
    """(D+1, H) running pre-activations; row i is c + sum of first i columns."""
    pre = np.empty((len(tokens) + 1, len(params.c)))
    pre[0] = params.c
    if len(tokens):
        np.cumsum(params.W.T[tokens], axis=0, out=pre[1:])
        pre[1:] += params.c
    return pre


def hidden_states(tokens: np.ndarray, params: Params) -> np.ndarray:
    """Hidden states h_1 .. h_{D+1}; the last row is the full-document state."""
    return np.maximum(_preactivations(np.asarray(tokens, dtype=np.int64), params), 0.0)


# Token positions per block of the tree terms: a longer document is processed
# a block at a time, over just the words and tree nodes that block touches, so
# the memory and the matrix sizes of a step are bounded by the block.
BLOCK_TOKENS = 64


class DocLayout(NamedTuple):
    """A document's distinct words and the tree nodes on their paths.

    Training builds one per document once per run, so that a step sorts
    nothing:
    its token positions are `word_of_token[perm]` for a permutation `perm`,
    each an index into `ids`.  `nodes` holds the m sorted unique tree nodes
    on the words' paths, then the last one again for a padding column.
    `slots[j, k]` is the index in `nodes` of the k-th node (root first) on
    the path of word j, or m past the end of a shorter path; `flips[j, k]`
    is 1 - 2 * (its branch bit), or 0 past the end.  `n_cols` counts the
    columns the slots use: m, or m + 1 when some path is shorter than the
    tree's depth and reaches the padding column.
    """

    ids: np.ndarray  # (n,) sorted distinct token ids
    word_of_token: np.ndarray  # (D,) int32, repeat(arange(n), counts)
    nodes: np.ndarray  # (m + 1,) int32
    slots: np.ndarray  # (n, depth) int32
    flips: np.ndarray  # (n, depth) int8
    n_cols: int


def doc_layout(ids: np.ndarray, counts: np.ndarray, tree: WordTree) -> DocLayout:
    """The layout of a document with sorted distinct `ids` and their counts."""
    nodes_tab, bits_tab, _ = tree.path_table()
    paths = nodes_tab[ids]
    valid = paths >= 0
    nodes, inverse = np.unique(paths[valid], return_inverse=True)
    slots = np.full(paths.shape, len(nodes), dtype=np.int32)
    slots[valid] = inverse
    flips = np.where(valid, 1 - 2 * bits_tab[ids], 0).astype(np.int8)
    word_of_token = np.repeat(np.arange(len(ids), dtype=np.int32), counts)
    return DocLayout(ids, word_of_token, np.append(nodes, nodes[-1:]).astype(np.int32),
                     slots, flips, len(nodes) + int(not valid.all()))


def _blocks(n_tokens: int) -> list[slice]:
    return [slice(start, start + BLOCK_TOKENS) for start in range(0, n_tokens, BLOCK_TOKENS)]


_POSITIONS = np.arange(BLOCK_TOKENS)  # a block's token positions, the prefix of its length


def _compact(index: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of `index` (all in [0, size)) and `index`
    renumbered into positions among them, without a sort."""
    used = np.zeros(size, dtype=bool)
    used[index] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[index]


def _numbering(
    index: np.ndarray, size: int, n_used: int | None
) -> tuple[np.ndarray | slice, np.ndarray, int]:
    """`_compact(index, size)` as (its values or a slice of them, the
    renumbered `index`, their count).  A block that is the whole document
    uses every value below `n_used`, so its numbering is `index` itself
    over the first `n_used`; `n_used` None (one of several blocks) compacts."""
    if n_used is None:
        used, local = _compact(index, size)
        return used, local, len(used)
    return slice(n_used), index, n_used


def _path_entries(
    states: np.ndarray, rows: np.ndarray, flips: np.ndarray, params: Params
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The path entries (B, depth) of a block of token positions: `rows`
    the V row of each entry, `flips` its 1 - 2 * bit (0 for padding) and
    `states` (B, H) the state each position is read at.

    Returns the entries' V rows (B, depth, H), their margins
    flip * (b + V . h), one dot product per entry, the margins' softplus
    (-log p of each entry, log 2 for padding) and the log p of the
    positions' tokens, the sum over the real entries."""
    v = params.V[rows]
    margin = np.matmul(v, states[:, :, None])[..., 0]
    margin += params.b[rows]
    margin *= flips
    soft = np.logaddexp(0.0, margin)
    return v, margin, soft, -float(soft[flips != 0].sum())


def doc_log_likelihood(
    tokens: np.ndarray, params: Params, tree: WordTree
) -> float:
    """log p(v) for one explicit token ordering; 0 for the empty document."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if len(tokens) == 0 or tree.n_internal == 0:
        return 0.0
    nodes_tab, bits_tab, _ = tree.path_table()
    states = hidden_states(tokens, params)[:-1]
    log_lik = 0.0
    for blk in _blocks(len(tokens)):
        words = tokens[blk]
        nodes = nodes_tab[words]  # -1 past a path's end reads the last row, with flip 0
        flips = (1 - 2 * bits_tab[words]) * (nodes >= 0)
        log_lik += _path_entries(states[blk], nodes, flips, params)[3]
    return log_lik


def supdocnade_gradients(
    layout: DocLayout,
    seg: np.ndarray,
    params: Params,
    unsup_weight: float,
    label: int | None = None,
) -> tuple[float, dict]:
    """Loss and exact gradient of -log p(y|v) - unsup_weight * log p(v) for
    the token ordering layout.ids[seg]; `label` None drops the class term.
    The gradient comes as blocks (see `numerics.along`): the columns of the
    document's words in W, the rows of its path nodes in V and b, the other
    arrays whole.  Every shallow training step calls it (`batch_step`).

    The generative part follows the reverse-order backward recurrence: path
    gradients produce per-position dh_i, and the running accumulator that
    feeds dW[:, v_i] collects the masked dh_j of strictly later positions
    plus the class-head term (h_i does not depend on v_i itself, so dh_i
    joins the accumulator only after position i's dW update).  The hidden
    bias receives every masked dh_i plus the class-head term.

    Per block of `BLOCK_TOKENS` positions, the path terms read only the V
    row of each path entry, as in the paper's O(H log Q) cost per token:
    the activations and dh are one dot product per entry.  dV and db sum
    the entries' gradients per tree node, as the transposed product of the
    (tokens x block nodes) matrix of those gradients with the hidden states
    and its column sums.  dW is the product of a one-hot (block words x
    tokens) matrix with the accumulator.  A document of one block uses
    every word and path node of its layout, so the block's nodes and words
    keep the layout's numbering (slots and seg) and its sums are contiguous
    adds; each block of a longer document compacts its own (`_compact`).
    """
    tokens = layout.ids[seg]
    n_tokens, n_hidden = len(tokens), len(params.c)
    loss = 0.0

    pre = _preactivations(tokens, params)
    states = np.maximum(pre, 0.0)
    active = pre > 0  # relu subgradient: strict inequality, 0 at the kink

    whole = slice(None)
    grads = {}
    dact_head = np.zeros(n_hidden)
    if label is not None:
        (head_loss,), head = supervised_loss(states[-1:], [(label,)], params, "softmax")
        loss += float(head_loss)
        grads.update(U=(0, whole, head["U"]), d=(0, whole, head["d"]))
        dact_head = head["h"][0] * active[-1]
    grads["c"] = (0, whole, dact_head)
    if n_tokens == 0:
        return loss, grads

    blocks = _blocks(n_tokens)
    single = len(blocks) == 1  # the block holds every word and path node of the layout
    read = states[:n_tokens]  # row i is the state token i is read at
    masked = np.zeros((n_tokens, n_hidden))
    if len(layout.nodes):  # a one-word vocabulary has no tree
        dV = np.zeros((len(layout.nodes), n_hidden))  # the last row is the padding column's
        db = np.zeros(len(layout.nodes))
        for blk in blocks:
            slots, flips = layout.slots[seg[blk]], layout.flips[seg[blk]]
            v, margin, soft, log_lik = _path_entries(read[blk], layout.nodes[slots], flips,
                                                     params)
            loss -= unsup_weight * log_lik
            if unsup_weight == 0.0:
                continue
            # d(-w log sigmoid(-margin)) / d act = w * flip * sigmoid(margin); 0 for padding
            dt = np.exp(margin - soft)
            dt *= unsup_weight * flips
            masked[blk] = np.matmul(dt[:, None, :], v)[:, 0]
            cols, local, n_cols = _numbering(slots, len(layout.nodes),
                                             layout.n_cols if single else None)
            grid = np.zeros((len(dt), n_cols))
            grid[_POSITIONS[:len(dt), None], local] = dt
            dV[cols] += grid.T @ read[blk]
            db[cols] += grid.sum(axis=0)
        if unsup_weight != 0.0:
            masked *= active[:n_tokens]
            grads["V"] = (0, layout.nodes[:-1], dV[:-1])
            grads["b"] = (0, layout.nodes[:-1], db[:-1])

    # dact at position i = head term + masked dh of positions > i
    dact = np.empty_like(masked)
    dact[-1] = 0.0
    np.cumsum(masked[:0:-1], axis=0, out=dact[-2::-1])
    dact += dact_head
    dW = np.zeros((len(layout.ids), n_hidden))
    for blk in blocks:
        words, local, n_words = _numbering(seg[blk], len(dW), len(dW) if single else None)
        onehot = np.zeros((n_words, len(local)))
        onehot[local, _POSITIONS[:len(local)]] = 1.0
        dW[words] += onehot @ dact[blk]
    grads["W"] = (1, layout.ids, dW.T)
    grads["c"] = (0, whole, dact_head + masked.sum(axis=0))
    return loss, grads


def docnade_gradients(layout: DocLayout, seg: np.ndarray, params: Params):
    """`supdocnade_gradients` of the unsupervised objective -log p(v).  No
    step calls it; `perfbench/spans.py` wraps this name as well."""
    return supdocnade_gradients(layout, seg, params, 1.0)


def represent(
    rows, params: Params, tree: WordTree, restrict: str = "all-words"
) -> np.ndarray:
    """Order-independent representations relu(c + sum counts * W) of the
    rows of a corpus, one per row, from one count-matrix product over the
    union of their token ids.  "visual-only" drops the annotation columns.
    The family's context, the word `tree`, plays no part in it.
    """
    if restrict not in ("all-words", "visual-only"):
        raise ValueError(f"unknown restriction {restrict!r}")
    limit = rows.vocabulary.visual_size if restrict == "visual-only" else None
    cols, counts = rows.count_block(limit)
    return np.maximum(counts @ params.W.T[cols] + params.c, 0.0)


def predict_annotations(
    rows, params: Params, tree: WordTree, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k annotation ids by next-word probability given the visual words.

    Only annotation-word leaves are evaluated; annotation counts already in
    the document are ignored.  Ties break toward the smaller id.  Returns
    (ids, probabilities), both (len(rows), top_k) arrays with one row per
    row of the corpus `rows`, sorted by decreasing probability.
    """
    vocab = rows.vocabulary
    if top_k > vocab.n_annotation:
        raise ValueError(f"top_k={top_k} exceeds annotation vocabulary ({vocab.n_annotation})")
    h = represent(rows, params, tree, restrict="visual-only")
    candidates = np.arange(vocab.visual_size, vocab.size, dtype=np.int64)
    log_probs = words_log_prob(tree, h, candidates, params.V, params.b)
    order = top_order(candidates, log_probs, top_k)
    return candidates[order], np.exp(np.take_along_axis(log_probs, order, axis=-1))


PERPLEXITY = "perplexity"  # the eval metric: exact log-likelihoods of sampled orderings


def perplexity_losses(
    rows, params: Params, tree: WordTree, samples: int, rng: np.random.Generator
) -> list[float]:
    """-log p(v) of each (nonempty) row of a corpus, averaged over `samples`
    token orderings drawn in row order."""
    losses = []
    for i in range(len(rows)):
        tokens = np.repeat(*rows.row(i))
        draws = [doc_log_likelihood(tokens[rng.permutation(len(tokens))], params, tree)
                 for _ in range(samples)]
        losses.append(-float(np.mean(draws)))
    return losses


def class_word_associations(
    params: Params, visual_size: int, class_index: int, top_topics: int, top_words: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Most-associated (topics, visual ids, annotation ids) for a class, the
    visual ids those below `visual_size` of W's Q columns.

    Topics are the hidden units with the largest class-head weight for the
    class; their embedding rows are averaged into a per-word score.
    """
    if top_topics > len(params.c):
        raise ValueError(f"top_topics={top_topics} exceeds hidden size {len(params.c)}")
    if not (0 <= class_index < len(params.d)):
        raise ValueError(f"class index {class_index} out of range")
    column = params.U[class_index]
    topics = top_order(np.arange(len(column)), column, top_topics)
    word_scores = params.W[topics].mean(axis=0)
    top = [ids[top_order(ids, word_scores[ids], min(top_words, len(ids)))]
           for ids in (np.arange(visual_size), np.arange(visual_size, params.W.shape[1]))]
    return topics, *top


def check_config(hidden_sizes, head: str, supervised: bool) -> None:
    if head != "softmax":
        raise ValueError(f"head {head!r} is only available for supdeepdocnade")
    if len(hidden_sizes) != 1:
        raise ValueError("hidden_sizes must hold exactly one size for a shallow model")


def tree_seed(seed: int) -> int:
    """The meta's tree seed: the run's seed lays out the word tree."""
    return seed


def context(meta, vocab: JointVocabulary) -> WordTree:
    """The word tree of the meta's vocabulary size and tree seed."""
    return build_tree(meta.vocab_size, meta.tree_seed)


def array_shapes(meta) -> list:
    """The [name, shape] of each array of the meta's model, in file order:
    W (H, Q) the input weights, c (H,) the hidden bias, V (Q - 1, H) the
    tree's logistic weights, b (Q - 1,) its biases, U (C, H) the class head
    and d (C,) its bias (C may be 0).  There is no global-feature map."""
    hidden, size, n_classes = meta.hidden_sizes[0], meta.vocab_size, meta.n_classes
    return [["W", [hidden, size]], ["c", [hidden]], ["V", [size - 1, hidden]],
            ["b", [size - 1]], ["U", [n_classes, hidden]], ["d", [n_classes]]]


def params_from_arrays(arrays: dict[str, np.ndarray]) -> Params:
    """The model of its arrays by name, W made column-major, so that each
    word's column, which a step reads and updates whole, is one contiguous
    run (`Params.copy` keeps it so): `W.T[ids]` reads them as C rows."""
    return Params({**arrays, "W": np.asfortranarray(arrays["W"])})


def doc_data(corpus, tree: WordTree) -> list[DocLayout]:
    """The per-run cache of each document: its layout on the word tree."""
    return [doc_layout(*corpus.row(i), tree) for i in range(len(corpus))]


def batch_step(batch, params: Params, config, streams, cache):
    """Per-document orderings and sparse gradients, in batch order, over the
    layouts in `cache.docs`, each labelled document's class its one label;
    an empty document is skipped when its labels are None (an unsupervised
    run).

    Returns (documents kept, their losses, their gradients).
    """
    docs, losses, grads = [], [], []
    for doc_idx in batch:
        layout, labels = cache.docs[doc_idx], cache.labels[doc_idx]
        n_tokens = len(layout.word_of_token)
        if labels is None and n_tokens == 0:
            continue
        label = None if labels is None else int(labels[0])
        seg = layout.word_of_token
        if n_tokens:
            seg = seg[streams["shuffle"].permutation(n_tokens)]
        loss, doc_grads = supdocnade_gradients(layout, seg, params, cache.unsup_weight, label)
        docs.append(doc_idx)
        losses.append(loss)
        grads.append(doc_grads)
    return docs, losses, grads
