"""Independent slow-path oracles used by the unit and acceptance tests.

These deliberately avoid the production gradient/estimator code paths: the
estimator expectation enumerates the sampling distribution directly, the
per-token backprop oracle differentiates one output token at a time, and the
per-document deep oracle computes one document's update with dense
vectors and outer products, the way training worked before it was batched,
and the dense shallow oracle builds a full-size gradient with `np.add.at`,
the way shallow training worked before its gradients became sparse.
"""

import itertools
from math import comb

import numpy as np

from docnade import deep as deep_mod
from docnade import shallow as shallow_mod
from docnade import trainer as trainer_mod


def estimator_expectation(counts, params, omega=None, phi=None, features=None):
    """Exact expectation of the split estimator over its sampling distribution.

    Enumerates the split position d (uniform on {1..D}) and, conditional on
    d, every observed-side sub-multiset with its multivariate hypergeometric
    probability.
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    ids = np.flatnonzero(counts)
    expected = 0.0
    for d in range(1, total + 1):
        take = d - 1
        for combo in itertools.product(*(range(counts[i] + 1) for i in ids)):
            if sum(combo) != take:
                continue
            prob = np.prod([comb(int(counts[i]), c) for i, c in zip(ids, combo)]) / comb(
                total, take
            )
            observed = np.zeros_like(counts)
            for i, c in zip(ids, combo):
                observed[i] = c
            split = deep_mod.HistogramSplit(observed, counts - observed, d, total)
            x = deep_mod.prepare_histogram(observed, omega)
            hs, _ = deep_mod.deep_forward(x, params, features)
            loss, _ = deep_mod.generative_loss(
                hs[-1], split.output_hist, phi, d, total, params
            )
            expected += (1.0 / total) * prob * loss
    return expected


def per_token_generative_grads(x_in, output_hist, phi, params):
    """Backprop each predicted token separately through a one-layer network.

    Only valid for single-hidden-layer parameters without dropout or global
    features, with rescale factor 1 (d = 1 splits).
    """
    assert params.n_layers == 1
    W, c = params.layer_weights[0], params.layer_biases[0]
    pre = c + W @ x_in
    h = np.maximum(pre, 0.0)
    z = params.b_out + params.V_out @ h
    shifted = z - z.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    probs = np.exp(log_probs)

    grads = {name: np.zeros_like(arr) for name, arr in params.arrays()}
    loss = 0.0
    for word in np.flatnonzero(output_hist):
        weight = output_hist[word] * (phi[word] if phi is not None else 1.0)
        loss += weight * -log_probs[word]
        d_logits = weight * probs.copy()
        d_logits[word] -= weight
        grads["V_out"] += np.outer(d_logits, h)
        grads["b_out"] += d_logits
        dh = params.V_out.T @ d_logits
        dpre = dh * (pre > 0)
        grads["c1"] += dpre
        grads["W1"] += np.outer(dpre, x_in)
    return loss, grads


def softmax_shallow_conditional(W, c, V_out, b_out, context_counts):
    """Per-word conditional of a softmax-output single-layer model.

    Reference for the collapse of the deep generative loss at rho = 1,
    single layer, raw (unnormalized) histograms.
    """
    h = np.maximum(c + W @ context_counts.astype(float), 0.0)
    z = b_out + V_out @ h
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


def _log_softmax(z):
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


def _dense_forward(x, params, features, masks):
    hs, pres = [], []
    inp = x
    for n, (w, c) in enumerate(zip(params.layer_weights, params.layer_biases)):
        pre = c + w @ inp
        if n == 0 and features is not None:
            pre = pre + features @ params.P
        h = np.maximum(pre, 0.0)
        if masks is not None:
            h = h * masks[n]
        pres.append(pre)
        hs.append(h)
        inp = h
    return hs, pres


def _dense_supervised(h_top, labels, params, head):
    z = params.d + params.U @ h_top
    if head == "softmax":
        (label,) = labels
        log_post = _log_softmax(z)
        loss = -float(log_post[label])
        d_logits = np.exp(log_post)
        d_logits[label] -= 1.0
    else:
        target = np.zeros(params.n_classes)
        target[sorted(labels)] = 1.0
        loss = float((target * np.logaddexp(0.0, -z) + (1 - target) * np.logaddexp(0.0, z)).sum())
        d_logits = np.exp(-np.logaddexp(0.0, -z)) - target
    return loss, np.outer(d_logits, h_top), d_logits, params.U.T @ d_logits


def _dense_generative(h_top, split, phi, params):
    log_probs = _log_softmax(params.b_out + params.V_out @ h_top)
    hist = split.output_hist
    targets = hist * phi if phi is not None else hist.astype(float)
    factor = split.total_tokens / (split.total_tokens - split.d + 1)
    loss = factor * float(-(targets @ log_probs))
    d_logits = factor * (targets.sum() * np.exp(log_probs) - targets)
    return loss, np.outer(d_logits, h_top), d_logits, params.V_out.T @ d_logits


def _dense_backprop(d_top, x, features, hs, pres, masks, params, grads, weight=1.0):
    delta = d_top * weight
    for n in range(params.n_layers, 0, -1):
        if masks is not None:
            delta = delta * masks[n - 1]
        delta = delta * (pres[n - 1] > 0)
        grads[f"c{n}"] += delta
        below = hs[n - 2] if n > 1 else x
        grads[f"W{n}"] += np.outer(delta, below)
        if n > 1:
            delta = params.layer_weights[n - 1].T @ delta
        elif features is not None and params.P is not None:
            grads["P"] += np.outer(features, delta)


def dense_hybrid_loss_gradients(
    counts, labels, features, params, unsup_weight, omega, phi,
    split, gen_masks, sup_masks, head="softmax", normalize=True,
):
    """One document's hybrid loss and dense gradients, document by document:
    dense Q-length inputs, matrix-vector products and outer products."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays()}
    loss = 0.0
    if labels is not None:
        x_full = deep_mod.prepare_histogram(counts, omega, normalize)
        hs, pres = _dense_forward(x_full, params, features, sup_masks)
        sup, g_u, g_d, g_h = _dense_supervised(hs[-1], labels, params, head)
        loss += sup
        grads["U"] += g_u
        grads["d"] += g_d
        _dense_backprop(g_h, x_full, features, hs, pres, sup_masks, params, grads)
    if split is not None and unsup_weight != 0.0:
        x_in = deep_mod.prepare_histogram(split.input_hist, omega, normalize)
        hs, pres = _dense_forward(x_in, params, features, gen_masks)
        gen, g_v, g_b, g_h = _dense_generative(hs[-1], split, phi, params)
        loss += unsup_weight * gen
        grads["V_out"] += unsup_weight * g_v
        grads["b_out"] += unsup_weight * g_b
        _dense_backprop(g_h, x_in, features, hs, pres, gen_masks, params, grads,
                        weight=unsup_weight)
    return loss, grads


def dense_shallow_gradients(tokens, params, tree, unsup_weight, label=None):
    """One token ordering's shallow loss and dense gradients: every array
    full size, path terms scattered with `np.add.at`."""
    tokens = np.asarray(tokens, dtype=np.int64)
    n_tokens = len(tokens)
    grads = params.zero_grads()
    loss = 0.0

    pre = shallow_mod._preactivations(tokens, params)
    states = np.maximum(pre, 0.0)
    active = pre > 0

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

    # every tree-path entry, in token order and root first within a path
    nodes_tab, bits_tab, _ = tree.path_table()
    valid = nodes_tab[tokens] >= 0
    rows, bits = nodes_tab[tokens][valid], bits_tab[tokens][valid]
    pos = np.broadcast_to(np.arange(n_tokens)[:, None], valid.shape)[valid]
    act = params.b[rows] + np.einsum("ij,ij->i", params.V[rows], states[pos])
    signs = 2 * bits - 1
    loss -= unsup_weight * float(-np.logaddexp(0.0, -signs * act).sum())

    masked = np.zeros((n_tokens, params.n_hidden))
    if unsup_weight != 0.0:
        dt = unsup_weight * (np.exp(-np.logaddexp(0.0, -act)) - bits)
        np.add.at(grads["b"], rows, dt)
        np.add.at(grads["V"], rows, dt[:, None] * states[pos])
        dh = np.zeros((n_tokens, params.n_hidden))
        np.add.at(dh, pos, dt[:, None] * params.V[rows])
        masked = dh * active[:n_tokens]

    suffix = np.cumsum(masked[::-1], axis=0)[::-1]
    dact = dact_head + np.vstack([suffix[1:], np.zeros((1, params.n_hidden))])
    np.add.at(grads["W"].T, tokens, dact)
    grads["c"] = dact_head + masked.sum(axis=0)
    return loss, grads


def dense_shallow_epoch(corpus, avg, config, tree):
    """One shallow training epoch the way it ran before updates became
    sparse: dense per-document gradients summed in document order, a dense
    SGD step and a dense `polyak_update` after every step.  Draws the same
    orderings as `trainer.sgd_epoch` with fresh streams of `config.seed`."""
    streams = trainer_mod.RngStreams.from_seed(config.seed)
    supervised = config.is_supervised
    unsup_weight = config.unsup_weight if supervised else 1.0
    order = streams.shuffle.permutation(len(corpus.documents))
    for start in range(0, len(order), config.batch_size):
        total, n_docs = None, 0
        for doc_idx in order[start : start + config.batch_size]:
            doc = corpus.documents[doc_idx]
            tokens = doc.token_array()
            if len(tokens) == 0 and not supervised:
                continue
            if len(tokens):
                tokens = tokens[streams.shuffle.permutation(len(tokens))]
            label = next(iter(doc.labels)) if supervised else None
            _, grads = dense_shallow_gradients(tokens, avg.current, tree, unsup_weight, label)
            total = grads if total is None else {k: total[k] + grads[k] for k in total}
            n_docs += 1
        if n_docs == 0:
            continue
        if config.learning_rate != 0.0:
            for name, arr in avg.current.arrays():
                arr -= config.learning_rate / n_docs * total[name]
        trainer_mod.polyak_update(avg)
    return avg
