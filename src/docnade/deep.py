"""Deep extensions trained with the ordering-split estimator.

One stochastic update splits a document's token multiset into an observed
part (fed through the network as a histogram) and a predicted part (scored
under a full-softmax output).  Sampling a split position d uniformly from
{1..D} and a uniformly random (d-1)-sub-multiset as the observed side makes
the rescaled loss

    (D / (D - d + 1)) * sum_{w in output} omega_w * -log softmax(...)[w]

an unbiased estimator of the expected negative log-likelihood over all token
orderings (the tests certify this on small instances against an exhaustive
enumeration of the orderings).

One weight vector omega (1 for a visual id, the annotation weight rho for an
annotation id) weights both the input histogram and the per-token loss;
input histograms are rescaled to unit variance.
The supervised head (softmax for single-label, sigmoid for multi-label)
conditions on the full document's histogram.

A document enters only as its sorted (ids, counts) pair, and a split as its
observed counts aligned with those ids: the predicted side is the rest of
the document, and D - d + 1 the predicted count.  Training, inference and
the perplexity estimate all run rows of documents through the network as
one block: the rows' counts on `cols`, the union of their ids, so the first
layer reads W1[:, cols] alone and every later layer, head and the output
softmax are matrix products over the rows.  The predicted sides are scored as
(ids, counts) rows too: the weighted targets live on the union of the
predicted ids, where they are subtracted from the softmax term, and no
(rows, Q) target is built.  A training step returns a gradient block only
for the arrays its rows reach.

This module is the deep model family of `model_io.FAMILIES`, with the same
family names as `shallow`; its context is the weight vector omega.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .corpus import JointVocabulary, count_rows, weight_vector
from .numerics import Params, log_softmax, on_rows, supervised_loss, top_order

_STD_GUARD = 1e-12


def _layers(params: Params) -> list[tuple[np.ndarray, np.ndarray]]:
    """The weights and bias (W{n}, c{n}) of each hidden layer n = 1, 2, ..."""
    layers = itertools.takewhile(lambda n: hasattr(params, f"W{n}"), itertools.count(1))
    return [(getattr(params, f"W{n}"), getattr(params, f"c{n}")) for n in layers]


def split_histogram(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """The observed side of one update's split of a document's count values
    (those of its sorted ids): observed counts aligned with them.  The
    predicted side is the rest of the counts, and the split position d is
    the observed token count + 1.

    Draws d uniformly from {1..D} and then a uniformly random
    (d-1)-sub-multiset of the tokens (sequential hypergeometric draws per
    word, in id order), which matches the distribution of uniformly shuffled
    token prefixes exactly.

    Returns None for empty documents (the caller skips them).
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        return None
    observed = np.zeros_like(counts)
    need = int(rng.integers(1, total + 1)) - 1
    remaining = total
    for word in np.flatnonzero(counts):
        if need == 0:
            break
        have = int(counts[word])
        take = int(rng.hypergeometric(have, remaining - have, need))
        observed[word] = take
        need -= take
        remaining -= have
    return observed


def prepare_histogram(
    raw: np.ndarray, cols: np.ndarray, vocab_size: int, omega: np.ndarray | None
) -> np.ndarray:
    """Weighted, unit-variance-rescaled input rows, given on the vocabulary
    columns `cols` only and zero outside them.

    The rescale is taken over all Q entries: the mean and the variance come
    from the kept columns plus Q - len(cols) zeros.
    """
    x = raw.astype(float)
    if omega is not None:
        x = x * omega[cols]
    mean = x.sum(axis=1, keepdims=True) / vocab_size
    squares = ((x - mean) ** 2).sum(axis=1, keepdims=True)
    std = np.sqrt((squares + (vocab_size - len(cols)) * mean**2) / vocab_size)
    np.divide(x, std, out=x, where=std >= _STD_GUARD)  # zero rows pass through unscaled
    return x


def deep_forward(
    x: np.ndarray,
    cols: np.ndarray,
    params: Params,
    features: np.ndarray | None = None,
    scales: list | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Hidden stack h^(1)..h^(N) of a (rows, len(cols)) input block; returns
    (activations, pre-activations), one row per input row.

    The inputs are zero outside the vocabulary columns `cols`, so the first
    layer reads W1[:, cols] alone.  `features` carries one row per input
    row.  Layer n's activations are multiplied by `scales[n]`, if given:
    its (rows, H_n) binary dropout masks in training, the keep probability
    at inference (the weight-scaling rule).
    """
    if x.shape[-1] != len(cols):
        raise ValueError(f"input width {x.shape[-1]} != {len(cols)} columns")
    hs, pres = [], []
    inp = x
    for n, (w, c) in enumerate(_layers(params)):
        if n == 0:
            w = w[:, cols]
        pre = c + inp @ w.T
        if n == 0 and features is not None:
            pre = pre + features @ params.P
        h = np.maximum(pre, 0.0)
        if scales is not None:
            h = h * scales[n]
        pres.append(pre)
        hs.append(h)
        inp = h
    return hs, pres


def _generative_terms(h, docs, observed, omega, params):
    """Per-row losses of a (rows, H) `h`, all that inference needs, with the
    log-softmax (`output_log_probs`), the union `ids` of the rows' predicted
    ids, the weighted predicted counts on them and the (rows, 1) rescale
    factors D / (D - d + 1) that `generative_loss` builds the output-layer
    gradients from."""
    log_probs = output_log_probs(h, params.V_out, params.b_out)
    ids, counts = count_rows([(doc_ids, doc_counts - seen)
                              for (doc_ids, doc_counts), seen in zip(docs, observed)])
    weighted = counts * omega[ids] if omega is not None else counts.astype(float)
    tokens = np.array([doc_counts.sum() for _, doc_counts in docs])
    factor = np.reshape(tokens / counts.sum(axis=1), (-1, 1))
    loss = factor[:, 0] * -np.einsum("ij,ij->i", weighted, log_probs[:, ids])
    return loss, log_probs, ids, weighted, factor


def generative_loss(
    h_top: np.ndarray,
    docs: list[tuple[np.ndarray, np.ndarray]],
    observed: list[np.ndarray],
    omega: np.ndarray | None,
    params: Params,
    weight: float = 1.0,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Rescaled weighted cross-entropy of the predicted sides.

    `h_top` is (rows, H); row i predicts the rest of the document `docs[i]`,
    an (ids, counts) pair, after the observed counts `observed[i]`.  One
    log-softmax over the vocabulary serves every predicted token of a row,
    so the cost is O(Q * H) per row regardless of how many tokens are
    predicted.  Returns the per-row losses and the output-layer gradients
    {V_out, b_out, h} of `weight` times their sum (h is the (rows, H)
    gradient w.r.t. h_top, to be backpropagated by the caller).  Each pass
    over a (rows, Q) or (Q, H) block runs on row parts (`on_rows`), and no
    part cuts the axis a product sums over; the weight is applied there,
    not in another pass over the block.
    """
    loss, log_probs, ids, weighted, factor = _generative_terms(h_top, docs, observed, omega,
                                                               params)
    totals = weighted.sum(axis=1, keepdims=True)
    d_logits, d_h = log_probs, np.empty_like(h_top)  # d_logits overwrites the log-softmax

    def batch_rows(rows):
        out = d_logits[rows]
        np.exp(out, out=out)
        np.multiply(totals[rows], out, out=out)
        out[:, ids] -= weighted[rows]  # the targets are zero off `ids`
        out *= factor[rows]
        np.matmul(out, params.V_out, out=d_h[rows])
        d_h[rows] *= weight

    d_v = np.empty_like(params.V_out)

    def vocab_rows(words):  # the batch axis, which the product sums over, stays whole
        np.matmul(d_logits[:, words].T, h_top, out=d_v[words])
        d_v[words] *= weight

    on_rows(batch_rows, d_logits)
    on_rows(vocab_rows, d_v)
    return loss, {"V_out": d_v, "b_out": weight * d_logits.sum(axis=0), "h": d_h}


def hybrid_loss_gradients(
    docs: list[tuple[np.ndarray, np.ndarray]],
    labels: list[frozenset[int] | None],
    features: np.ndarray | None,
    params: Params,
    unsup_weight: float,
    omega: np.ndarray | None,
    observed: list[np.ndarray | None],
    gen_masks: list[list[np.ndarray] | None],
    sup_masks: list[list[np.ndarray] | None],
    head: str = "softmax",
) -> tuple[np.ndarray, dict]:
    """Deterministic core of one mini-batch update (stochasticity passed in).

    `docs` holds the batch's documents as sorted (ids, counts) pairs,
    `features` their (n, N_f) feature rows (or None), and `observed` the
    observed counts of a split of each one (or None); the other list
    arguments hold one entry per document too, the masks None for every
    document or for none.  Each labelled document contributes a supervised
    row (its full histogram); each document with a split contributes a
    generative row (its observed counts, scored against the rest of the
    document and weighted by `unsup_weight`); `omega` weights every input
    histogram and every predicted token.  All rows go through the network
    together: the first layer reads only `cols`, the union of the
    documents' ids, and every other layer, the class head and the output
    softmax run as matrix products over the rows.

    Returns (per-document losses, gradient summed over the batch), the
    gradient as blocks (see `numerics.along`), one for each array the rows
    reach: W1 on the columns `cols`, every other reached array whole.  U
    and d have none without a supervised row, V_out and b_out none without
    a generative row, and P none without features.
    """
    sup = [i for i, label_set in enumerate(labels) if label_set is not None]
    gen = [i for i, seen in enumerate(observed) if seen is not None and unsup_weight != 0.0]
    n_sup = len(sup)
    # the documents' own rows come first, so that cols is the union of their ids
    rows = [docs[i] for i in sup] + [(docs[i][0], observed[i]) for i in gen]
    cols, counts = count_rows(list(docs) + rows)
    losses = np.zeros(len(docs))
    x = prepare_histogram(counts[len(docs):], cols, len(params.b_out), omega)
    feats = None if features is None else features[sup + gen]
    masks = [sup_masks[i] for i in sup] + [gen_masks[i] for i in gen]
    masks = None if all(m is None for m in masks) else [np.stack(m) for m in zip(*masks)]
    hs, pres = deep_forward(x, cols, params, feats, masks)

    grads = {}
    d_top = np.zeros_like(hs[-1])
    if sup:
        sup_loss, head_grads = supervised_loss(hs[-1][:n_sup], [labels[i] for i in sup],
                                               params, head)
        losses[sup] += sup_loss
        grads["U"], grads["d"] = head_grads["U"], head_grads["d"]
        d_top[:n_sup] = head_grads["h"]
    if gen:
        gen_loss, out_grads = generative_loss(hs[-1][n_sup:], [docs[i] for i in gen],
                                              [observed[i] for i in gen], omega, params,
                                              unsup_weight)
        losses[gen] += unsup_weight * gen_loss
        grads["V_out"], grads["b_out"] = out_grads["V_out"], out_grads["b_out"]
        d_top[n_sup:] = out_grads["h"]

    delta = d_top
    for n in range(len(pres), 0, -1):
        if masks is not None:
            delta = delta * masks[n - 1]
        delta = delta * (pres[n - 1] > 0)
        grads[f"c{n}"] = delta.sum(axis=0)
        grads[f"W{n}"] = delta.T @ (hs[n - 2] if n > 1 else x)
        if n > 1:
            delta = delta @ getattr(params, f"W{n}")
        elif feats is not None:
            grads["P"] = feats.T @ delta
    blocks = {name: (0, slice(None), grad) for name, grad in grads.items()}
    blocks["W1"] = (1, cols, grads["W1"])
    return losses, blocks


def deep_represent(
    counts: np.ndarray,
    cols: np.ndarray,
    features: np.ndarray | None,
    params: Params,
    omega: np.ndarray | None,
    dropout_rate: float = 0.0,
) -> np.ndarray:
    """Top-layer representations of a (rows, len(cols)) block of count rows
    that are zero outside the vocabulary columns `cols`, with one feature
    row per count row: the training forward pass of the weighted, rescaled
    histograms, scaled for `dropout_rate`."""
    scales = [1.0 - dropout_rate] * len(_layers(params)) if dropout_rate > 0.0 else None
    x = prepare_histogram(counts, cols, len(params.b_out), omega)
    hs, _ = deep_forward(x, cols, params, features, scales)
    return hs[-1]


def output_log_probs(h_top: np.ndarray, V: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-word log conditional probabilities given each row of a (rows, H)
    matrix of hidden states, under the output layer of weights `V` and
    biases `b`: the one output layer of training, the perplexity estimate
    and annotation.  Training and the perplexity estimate pass `V_out` and
    `b_out`; annotation passes views of their annotation rows, so that each
    word's log probability is given that the next word is an annotation
    word.  The logits and their log-softmax are computed in place, on row
    parts (`on_rows`).
    """
    log_probs = np.empty((len(h_top), len(b)))

    def logits_rows(rows):
        out = log_probs[rows]
        np.matmul(h_top[rows], V.T, out=out)
        out += b
        log_softmax(out, out=out)

    on_rows(logits_rows, log_probs)
    return log_probs


PERPLEXITY = "perplexity_estimate"  # the eval metric: losses of sampled splits


class Context(NamedTuple):
    """All that inference reads besides the arrays: the weights `omega` of
    the input histograms and the predicted tokens, and the `dropout_rate`
    whose keep probability scales the activations."""

    omega: np.ndarray
    dropout_rate: float


def represent(
    rows, params: Params, context: Context, restrict: str = "all-words"
) -> np.ndarray:
    """Top-layer states of the rows of a corpus, weighted by omega and
    scaled for the dropout rate of the `context`: one forward pass over the
    union of the rows' columns.  A deep model reads every word, whatever
    `restrict`."""
    cols, counts = rows.count_block()
    return deep_represent(counts, cols, rows.features, params, context.omega,
                          context.dropout_rate)


def predict_annotations(
    rows, params: Params, context: Context, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k annotation ids and probabilities of each row of a corpus given
    its visual words: the output softmax taken over the annotation block alone,
    a view of the only rows of V_out that are scored."""
    vocab = rows.vocabulary
    cols, counts = rows.count_block(vocab.visual_size)
    h_top = deep_represent(counts, cols, rows.features, params, context.omega,
                           context.dropout_rate)
    anno = slice(vocab.visual_size, None)
    probs = np.exp(output_log_probs(h_top, params.V_out[anno], params.b_out[anno]))
    anno_ids = np.arange(vocab.visual_size, vocab.size)
    order = top_order(anno_ids, probs, top_k)
    return anno_ids[order], np.take_along_axis(probs, order, axis=1)


def perplexity_losses(
    rows, params: Params, context: Context, samples: int, rng: np.random.Generator
) -> list[float]:
    """Each (nonempty) row's loss, averaged over `samples` splits drawn row
    by row; all the splits go through one forward pass over the union of
    their observed ids and one loss evaluation."""
    docs = [doc for i in range(len(rows)) for doc in [rows.row(i)] * samples]
    observed = [split_histogram(counts, rng) for _, counts in docs]
    cols, inputs = count_rows([(ids, seen) for (ids, _), seen in zip(docs, observed)])
    features = None if rows.features is None else np.repeat(rows.features, samples, axis=0)
    h_top = deep_represent(inputs, cols, features, params, context.omega, context.dropout_rate)
    losses = _generative_terms(h_top, docs, observed, context.omega, params)[0]
    return [float(np.mean(draws)) for draws in losses.reshape(len(rows), samples)]


def class_word_associations(params: Params, visual_size: int, class_index: int,
                            top_topics: int, top_words: int):
    """`docnade inspect` reads the class head's weights on a shallow model's
    word columns, which a deep model does not have."""
    raise ValueError("inspect requires a supervised shallow model")


def check_config(hidden_sizes, head: str, supervised: bool) -> None:
    if head != "softmax" and not supervised:
        raise ValueError(f"head {head!r} is only available for supdeepdocnade")


def tree_seed(seed: int) -> None:
    """The meta's tree seed: deep models have no word tree."""
    return None


def context(meta, vocab: JointVocabulary) -> Context:
    """The weights omega of the meta's annotation weight, and its dropout
    rate."""
    return Context(weight_vector(vocab, meta.anno_weight), meta.dropout_rate)


def array_shapes(meta) -> list:
    """The [name, shape] of each array of the meta's model, in file order:
    for each hidden layer n = 1, 2, ..., W{n} (H_n, H_{n-1}) with H_0 = Q and
    its bias c{n} (H_n,); then P (N_f, H_1), which maps the global features
    into the first pre-activation, only if N_f > 0; V_out (Q, H_N) and
    b_out (Q,) of the softmax over the vocabulary; and U (C, H_N) and d (C,)
    of the class head (C may be 0 for unsupervised models)."""
    sizes = [meta.vocab_size, *meta.hidden_sizes]
    shapes = []
    for n in range(1, len(sizes)):
        shapes += [[f"W{n}", [sizes[n], sizes[n - 1]]], [f"c{n}", [sizes[n]]]]
    if meta.n_features:
        shapes.append(["P", [meta.n_features, sizes[1]]])
    return shapes + [["V_out", [sizes[0], sizes[-1]]], ["b_out", [sizes[0]]],
                     ["U", [meta.n_classes, sizes[-1]]], ["d", [meta.n_classes]]]


def doc_data(corpus, context: Context):
    """The per-run document cache: the corpus itself, whose rows and feature
    matrix a step reads (the `context` plays no part in it)."""
    return corpus


def _draw_masks(sizes, keep: float, rng: np.random.Generator) -> list[np.ndarray]:
    return [(rng.random(h) < keep).astype(float) for h in sizes]


def batch_step(batch, params: Params, config, streams, cache):
    """Splits and masks drawn in batch order, then one batched step over the
    rows of the corpus `cache.docs`, weighted by omega of `cache.context`; a
    document with no split (an empty one) is skipped when its labels are
    None (an unsupervised run).

    Returns (documents kept, their losses, a one-element list of their
    summed gradient).
    """
    keep = 1.0 - config.dropout_rate
    kept, observed, gen_masks, sup_masks = [], [], [], []
    for doc_idx in batch:
        supervised = cache.labels[doc_idx] is not None
        seen = split_histogram(cache.docs.row(doc_idx)[1], streams["split"])
        if seen is None and not supervised:
            continue
        gen = sup = None
        if config.dropout_rate > 0:
            gen = _draw_masks(config.hidden_sizes, keep, streams["dropout"])
            if supervised:
                sup = _draw_masks(config.hidden_sizes, keep, streams["dropout"])
        kept.append(doc_idx)
        observed.append(seen)
        gen_masks.append(gen)
        sup_masks.append(sup)
    features = cache.docs.features
    losses, grads = hybrid_loss_gradients(
        [cache.docs.row(i) for i in kept], [cache.labels[i] for i in kept],
        None if features is None else features[kept], params, cache.unsup_weight,
        cache.context.omega, observed, gen_masks, sup_masks, head=config.head,
    )
    return kept, losses.tolist(), [grads]
