"""Independent slow-path oracles used by the unit and acceptance tests.

These deliberately avoid the production gradient/estimator code paths: the
estimator expectation enumerates the sampling distribution directly, the
per-token backprop oracle differentiates one output token at a time, and the
per-document deep oracle computes one document's update with dense
vectors and outer products, the way training worked before it was batched
(its Q-length count vectors, histograms and forward pass are the dense
reference forms of the deep family's (rows, columns) blocks, and
`document_hybrid_loss_gradients` runs the batched step on one document),
the dense shallow oracle builds a full-size gradient with `np.add.at`,
the way shallow training worked before its gradients became sparse, the
compacting shallow step renumbers the nodes and words of every block, the
way a one-block document trained before it kept its layout's numbering,
and the dense epochs apply every update densely and average every array
after every step, the way training worked before the average became lazy.  The
per-document inference functions represent, annotate and score one document
at a time, the way eval, annotate and retrieve ran before they were
chunked.  The linear classifier is criterion 09's "DocNADE features plus a
classifier" baseline.  The per-word tree walk, the exhaustive ordering loss
and the other per-item helpers at the end are the reference forms of
vectorized production code, with the operation counters the cost-scaling
tests read; the id and tree lookups last spell out the joint id layout and
the tree depths that the tests and the corpus generator name words by, and
a document's sorted ids, counts and tokens.  `Document`, `corpus_of` and
`documents` build a corpus from plain per-document records and read it
back as them.

Some functions here are adapters, not oracles: `token_layout`, `to_dense` and
the `dense_*docnade_gradients` wrappers run the production shallow gradient
on an explicit token ordering and return full-size arrays, so that the
finite-difference and oracle tests check the production arithmetic;
`dense_polyak_update` is the dense form of the average that
`trainer.polyak_update` keeps lazily.  `glorot_init` and `maybe_glorot` draw
one Glorot matrix at a time, the sequential reference of
`numerics.glorot_arrays`.  `serial_polyak_update`, `serial_generative_loss`
and `serial_output_log_probs` are the SGD step, the output layer and its
annotation form as they ran on one thread, the references of their row
parts (`numerics.on_rows`).
"""

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from docnade import deep as deep_mod
from docnade import shallow as shallow_mod
from docnade import trainer as trainer_mod
from docnade.corpus import Corpus, count_rows, weight_vector
from docnade.evaluate import RankedPrediction
from docnade.model_io import FAMILIES
from docnade.numerics import (
    along, glorot_bound, log_softmax, sigmoid, softmax_rows, supervised_loss,
)
from docnade.rng import training_streams
from docnade.wordtree import build_tree

DEEP_KINDS = tuple(kind for kind, (family, _) in FAMILIES.items() if family is deep_mod)


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform on [-glorot_bound(rows, cols), +glorot_bound(rows, cols)]."""
    if rows < 1 or cols < 1:
        raise ValueError("glorot_init needs at least a 1x1 matrix")
    bound = glorot_bound(rows, cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


def maybe_glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """`glorot_init`, or an empty matrix (drawing nothing) if a side is 0:
    the sequential draw that `numerics.glorot_arrays` equals byte for byte."""
    return glorot_init(rows, cols, rng) if rows and cols else np.zeros((rows, cols))


def to_dense(grads, params):
    """Full-size arrays of a gradient given as blocks (`numerics.along`),
    keyed and ordered like `params.arrays()`."""
    out = {name: np.zeros_like(arr) for name, arr in params.arrays()}
    for name, (axis, index, block) in grads.items():
        out[name][along(axis, index)] = block
    return out


def dense_polyak_update(avg):
    """averaged <- decay * averaged + (1 - decay) * current, in place: the
    dense form of the average that training keeps lazily
    (`trainer.polyak_update`).

    Computed in the fixed-point-exact form a += (1-decay) * (cur - a) so
    that an unchanged current array leaves its average bit-identical; decay
    0 copies."""
    for (_, cur), (_, a) in zip(avg.current.arrays(), avg.averaged.arrays()):
        if avg.decay == 0.0:
            a[...] = cur
        else:
            a += (1.0 - avg.decay) * (cur - a)
    return avg


def serial_polyak_update(lazy, grads, scale):
    """`trainer.polyak_update` on one thread: four passes over each block."""
    gain = lazy.ratio ** -lazy.steps if lazy.ratio != 0.0 else 0.0
    if gain > trainer_mod._MAX_GAP_SCALE:
        for gap in lazy.gaps.values():
            gap *= lazy.ratio ** lazy.steps
        lazy.steps, gain = 0, 1.0
    if scale != 0.0:
        for grad in grads:
            for name, (axis, idx, block) in grad.items():
                at = along(axis, idx)
                block *= scale
                lazy.current[name][at] -= block
                block *= gain
                lazy.gaps[name][at] += block
    lazy.steps += 1


def serial_generative_loss(h_top, targets, phi, d, total_tokens, params, weight=1.0):
    """`deep.generative_loss` on one thread, each pass over the whole batch,
    its gradients weighted afterwards."""
    logits = params.b_out + h_top @ params.V_out.T
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    ids, counts = count_rows(targets)
    weighted = counts * phi[ids] if phi is not None else counts.astype(float)
    factor = np.reshape(total_tokens / (total_tokens - np.asarray(d) + 1), (-1, 1))
    loss = factor[:, 0] * -np.einsum("ij,ij->i", weighted, log_probs[:, ids])
    d_logits = weighted.sum(axis=1, keepdims=True) * np.exp(log_probs)
    d_logits[:, ids] -= weighted
    d_logits *= factor
    grads = {"V_out": d_logits.T @ h_top, "b_out": weight * d_logits.sum(axis=0),
             "h": weight * (d_logits @ params.V_out)}
    grads["V_out"] *= weight
    return loss, grads


def serial_output_log_probs(h_top, params, words):
    """`deep.output_log_probs` over `words` on one thread: the log-softmax of
    the whole batch's logits on those words."""
    logits = params.b_out[words] + h_top @ params.V_out[words].T
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
            cols = np.flatnonzero(observed)
            x = deep_mod.prepare_histogram(observed[cols][None], cols, len(counts), omega)
            hs, _ = deep_mod.deep_forward(x, cols, params, features)
            (loss,), _ = deep_mod.generative_loss(
                hs[-1], [(ids, (counts - observed)[ids])], phi, d, total, params
            )
            expected += (1.0 / total) * prob * loss
    return expected


def per_token_generative_grads(x_in, output_hist, phi, params):
    """Backprop each predicted token separately through a one-layer network.

    Only valid for single-hidden-layer parameters without dropout or global
    features, with rescale factor 1 (d = 1 splits).
    """
    assert not hasattr(params, "W2")
    W, c = params.W1, params.c1
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


def dense_counts(doc, size):
    """A document's count vector over a vocabulary of `size` ids."""
    out = np.zeros(size, dtype=np.int64)
    for token_id, count in doc.counts.items():
        if token_id >= size:
            raise ValueError(f"token id {token_id} >= {size}")
        out[token_id] = count
    return out


def dense_histogram(counts, omega=None, normalize=True):
    """Weighted, optionally unit-variance-rescaled Q-length input histogram."""
    x = counts.astype(float)
    if omega is not None:
        if len(omega) != len(x):
            raise ValueError("weight vector length does not match histogram")
        x = x * omega
    if normalize:
        std = x.std()
        if std >= 1e-12:  # zero histograms pass through unscaled
            x = x / std
    return x


def deep_layers(params):
    """The (W{n}, c{n}) of each hidden layer of deep parameters, first layer first."""
    layers = itertools.takewhile(lambda n: hasattr(params, f"W{n}"), itertools.count(1))
    return [(getattr(params, f"W{n}"), getattr(params, f"c{n}")) for n in layers]


def dense_forward(x, params, features=None, masks=None, keep_scale=None):
    """Hidden stack of one Q-length input: matrix-vector products."""
    hs, pres = [], []
    inp = x
    for n, (w, c) in enumerate(deep_layers(params)):
        pre = c + w @ inp
        if n == 0 and features is not None:
            pre = pre + features @ params.P
        h = np.maximum(pre, 0.0)
        if masks is not None:
            h = h * masks[n]
        elif keep_scale is not None:
            h = h * keep_scale
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
        target = np.zeros(len(params.d))
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
    for n in range(len(deep_layers(params)), 0, -1):
        if masks is not None:
            delta = delta * masks[n - 1]
        delta = delta * (pres[n - 1] > 0)
        grads[f"c{n}"] += delta
        below = hs[n - 2] if n > 1 else x
        grads[f"W{n}"] += np.outer(delta, below)
        if n > 1:
            delta = getattr(params, f"W{n}").T @ delta
        elif features is not None and hasattr(params, "P"):
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
        x_full = dense_histogram(counts, omega, normalize)
        hs, pres = dense_forward(x_full, params, features, sup_masks)
        sup, g_u, g_d, g_h = _dense_supervised(hs[-1], labels, params, head)
        loss += sup
        grads["U"] += g_u
        grads["d"] += g_d
        _dense_backprop(g_h, x_full, features, hs, pres, sup_masks, params, grads)
    if split is not None and unsup_weight != 0.0:
        x_in = dense_histogram(split.input_hist, omega, normalize)
        hs, pres = dense_forward(x_in, params, features, gen_masks)
        gen, g_v, g_b, g_h = _dense_generative(hs[-1], split, phi, params)
        loss += unsup_weight * gen
        grads["V_out"] += unsup_weight * g_v
        grads["b_out"] += unsup_weight * g_b
        _dense_backprop(g_h, x_in, features, hs, pres, gen_masks, params, grads,
                        weight=unsup_weight)
    return loss, grads


def document_hybrid_loss_gradients(
    counts, labels, features, params, unsup_weight, omega,
    split, gen_masks, sup_masks, head="softmax",
):
    """`deep.hybrid_loss_gradients` for one document given as a Q-length
    count vector and a split of it: the loss and dense gradients."""
    losses, grads = deep_mod.hybrid_loss_gradients(
        [(np.arange(len(counts)), np.asarray(counts))], [labels],
        None if features is None else features[None], params,
        unsup_weight, omega, [split], [gen_masks], [sup_masks], head=head,
    )
    return float(losses[0]), to_dense(grads, params)


def token_layout(tokens, tree):
    """The layout of an explicit token ordering and its positions in it."""
    ids, seg, counts = np.unique(np.asarray(tokens, dtype=np.int64), return_inverse=True,
                                 return_counts=True)
    return shallow_mod.doc_layout(ids, counts, tree), seg


def dense_supdocnade_gradients(tokens, label, params, tree, unsup_weight):
    """`shallow.supdocnade_gradients` of one explicit token ordering, as
    dense arrays."""
    loss, grads = shallow_mod.supdocnade_gradients(*token_layout(tokens, tree), params,
                                                   unsup_weight, label)
    return loss, to_dense(grads, params)


def dense_docnade_gradients(tokens, params, tree):
    """`shallow.docnade_gradients` of one explicit token ordering, as dense
    arrays."""
    loss, grads = shallow_mod.docnade_gradients(*token_layout(tokens, tree), params)
    return loss, to_dense(grads, params)


def dense_shallow_gradients(tokens, params, tree, unsup_weight, label=None):
    """One token ordering's shallow loss and dense gradients: every array
    full size, path terms scattered with `np.add.at`."""
    tokens = np.asarray(tokens, dtype=np.int64)
    n_tokens = len(tokens)
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays()}
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
        dact_head = np.zeros(len(params.c))

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

    masked = np.zeros((n_tokens, len(params.c)))
    if unsup_weight != 0.0:
        dt = unsup_weight * (np.exp(-np.logaddexp(0.0, -act)) - bits)
        np.add.at(grads["b"], rows, dt)
        np.add.at(grads["V"], rows, dt[:, None] * states[pos])
        dh = np.zeros((n_tokens, len(params.c)))
        np.add.at(dh, pos, dt[:, None] * params.V[rows])
        masked = dh * active[:n_tokens]

    suffix = np.cumsum(masked[::-1], axis=0)[::-1]
    dact = dact_head + np.vstack([suffix[1:], np.zeros((1, len(params.c)))])
    np.add.at(grads["W"].T, tokens, dact)
    grads["c"] = dact_head + masked.sum(axis=0)
    return loss, grads


def compacting_supdocnade_gradients(layout, seg, params, unsup_weight, label=None):
    """`shallow.supdocnade_gradients` as it ran when every block, a
    document's only one included, compacted its own tree nodes and words
    (`shallow._compact`) and added its sums at scattered rows: the same
    blocks and loss, bit for bit."""
    tokens = layout.ids[seg]
    n_tokens, n_hidden = len(tokens), len(params.c)
    loss = 0.0

    pre = shallow_mod._preactivations(tokens, params)
    states = np.maximum(pre, 0.0)
    active = pre > 0

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

    blocks = shallow_mod._blocks(n_tokens)
    read = states[:n_tokens]
    masked = np.zeros((n_tokens, n_hidden))
    if len(layout.nodes):
        dV = np.zeros((len(layout.nodes), n_hidden))
        db = np.zeros(len(layout.nodes))
        for blk in blocks:
            slots, flips = layout.slots[seg[blk]], layout.flips[seg[blk]]
            v, margin, soft, log_lik = shallow_mod._path_entries(
                read[blk], layout.nodes[slots], flips, params)
            loss -= unsup_weight * log_lik
            if unsup_weight == 0.0:
                continue
            dt = np.exp(margin - soft)
            dt *= unsup_weight * flips
            masked[blk] = np.matmul(dt[:, None, :], v)[:, 0]
            cols, local = shallow_mod._compact(slots, len(layout.nodes))
            grid = np.zeros((len(dt), len(cols)))
            grid[np.arange(len(dt))[:, None], local] = dt
            dV[cols] += grid.T @ read[blk]
            db[cols] += grid.sum(axis=0)
        if unsup_weight != 0.0:
            masked *= active[:n_tokens]
            grads["V"] = (0, layout.nodes[:-1], dV[:-1])
            grads["b"] = (0, layout.nodes[:-1], db[:-1])

    dact = np.empty_like(masked)
    dact[-1] = 0.0
    np.cumsum(masked[:0:-1], axis=0, out=dact[-2::-1])
    dact += dact_head
    dW = np.zeros((len(layout.ids), n_hidden))
    for blk in blocks:
        words, local = shallow_mod._compact(seg[blk], len(dW))
        onehot = np.zeros((len(words), len(local)))
        onehot[local, np.arange(len(local))] = 1.0
        dW[words] += onehot @ dact[blk]
    grads["W"] = (1, layout.ids, dW.T)
    grads["c"] = (0, whole, dact_head + masked.sum(axis=0))
    return loss, grads


def joint_log_prob(tokens, label, params, tree):
    """log p(v, y) = log p(v) + log p(y | v) of a shallow model."""
    if not (0 <= label < len(params.d)):
        raise ValueError(f"label {label} out of range")
    tokens = np.asarray(tokens, dtype=np.int64)
    h_full = shallow_mod.hidden_states(tokens, params)[-1]
    log_post = _log_softmax(params.d + params.U @ h_full)
    return shallow_mod.doc_log_likelihood(tokens, params, tree) + float(log_post[label])


def dense_shallow_epoch(corpus, avg, config, tree):
    """One shallow training epoch the way it ran before updates became
    sparse: dense per-document gradients summed in document order, a dense
    SGD step and a `dense_polyak_update` after every step.  Draws the same
    orderings as `trainer.sgd_epoch` with fresh streams of `config.seed`."""
    streams = training_streams(config.seed)
    _, supervised = FAMILIES[config.model_kind]
    unsup_weight = config.unsup_weight if supervised else 1.0
    docs = documents(corpus)
    order = streams["shuffle"].permutation(len(docs))
    for start in range(0, len(order), config.batch_size):
        total, n_docs = None, 0
        for doc_idx in order[start : start + config.batch_size]:
            doc = docs[doc_idx]
            tokens = token_array(doc)
            if len(tokens) == 0 and not supervised:
                continue
            if len(tokens):
                tokens = tokens[streams["shuffle"].permutation(len(tokens))]
            label = next(iter(doc.labels)) if supervised else None
            _, grads = dense_shallow_gradients(tokens, avg.current, tree, unsup_weight, label)
            total = grads if total is None else {k: total[k] + grads[k] for k in total}
            n_docs += 1
        if n_docs == 0:
            continue
        if config.learning_rate != 0.0:
            for name, arr in avg.current.arrays():
                arr -= config.learning_rate / n_docs * total[name]
        dense_polyak_update(avg)
    return avg


def dense_deep_epoch(corpus, avg, config):
    """One deep training epoch the way it ran before the W1 average became
    lazy: per-document dense gradients (`dense_hybrid_loss_gradients`)
    summed in document order, a dense SGD step and a `dense_polyak_update`
    after every mini-batch.  Draws the same splits and dropout masks as
    `trainer.sgd_epoch` with fresh streams of `config.seed`."""
    streams = training_streams(config.seed)
    _, supervised = FAMILIES[config.model_kind]
    unsup_weight = config.unsup_weight if supervised else 1.0
    omega = weight_vector(corpus.vocabulary, config.anno_weight)
    keep = 1.0 - config.dropout_rate

    def masks():
        return [(streams["dropout"].random(h) < keep).astype(float) for h in config.hidden_sizes]

    docs = documents(corpus)
    order = streams["shuffle"].permutation(len(docs))
    for start in range(0, len(order), config.batch_size):
        total, n_docs = None, 0
        for doc_idx in order[start : start + config.batch_size]:
            doc = docs[doc_idx]
            counts = dense_counts(doc, corpus.vocabulary.size)
            split = deep_mod.split_histogram(counts, streams["split"])
            if split is None and not supervised:
                continue
            gen = sup = None
            if config.dropout_rate > 0:
                gen = masks()
                if supervised:
                    sup = masks()
            _, grads = dense_hybrid_loss_gradients(
                counts, doc.labels if supervised else None, doc.features, avg.current,
                unsup_weight, omega, omega, split, gen, sup, head=config.head,
            )
            total = grads if total is None else {k: total[k] + grads[k] for k in total}
            n_docs += 1
        if n_docs == 0:
            continue
        if config.learning_rate != 0.0:
            for name, arr in avg.current.arrays():
                arr -= config.learning_rate / n_docs * total[name]
        dense_polyak_update(avg)
    return avg


# ---------------------------------------------------------------------------
# Per-document inference
# ---------------------------------------------------------------------------


def represent(doc, params, vocab, restrict="all-words"):
    """Shallow representation relu(c + sum counts * W), one column at a time."""
    pre = params.c.copy()
    for token_id, count in doc.counts.items():
        if restrict == "visual-only" and is_annotation(vocab, token_id):
            continue
        pre += count * params.W[:, token_id]
    return np.maximum(pre, 0.0)


def words_log_prob(tree, h, words, V, b):
    """log p(w | h) of the candidate words for one hidden state, gathering
    every word's whole path."""
    nodes, bits, _ = tree.path_table()
    nodes, bits = nodes[words], bits[words]
    valid = nodes >= 0
    safe = np.where(valid, nodes, 0)
    act = b[safe] + V[safe] @ h
    signs = 2 * bits - 1
    terms = np.where(valid, -np.logaddexp(0.0, -signs * act), 0.0)
    return terms.sum(axis=1)


def visual_only(doc, vocab):
    """Copy of a document with its annotation counts removed."""
    kept = {i: c for i, c in doc.counts.items() if not is_annotation(vocab, i)}
    return Document(kept, doc.labels, doc.features)


def extract_representations(corpus, params, meta, restrict="all-words"):
    vocab = corpus.vocabulary
    if meta.kind in DEEP_KINDS:
        omega = weight_vector(vocab, meta.anno_weight)
        return np.array([
            _deep_represent(dense_counts(doc, vocab.size), doc.features, params, omega,
                            meta.dropout_rate)
            for doc in documents(corpus)
        ])
    return np.array([represent(doc, params, vocab, restrict) for doc in documents(corpus)])


def _deep_represent(counts, features, params, omega, dropout_rate):
    """Top-layer state of one document's weighted, rescaled histogram."""
    keep = 1.0 - dropout_rate if dropout_rate > 0.0 else None
    hs, _ = dense_forward(dense_histogram(counts, omega), params, features, keep_scale=keep)
    return hs[-1]


def annotation_ranking(doc, params, vocab, top_k, *, tree=None, meta_dropout=0.0, omega=None):
    """One document's annotation ranking: tree scores of the annotation
    leaves, or the full output softmax renormalized over the annotation
    block."""
    top_k = min(top_k, vocab.n_annotation)
    if tree is not None:
        h = represent(doc, params, vocab, restrict="visual-only")
        candidates = np.arange(vocab.visual_size, vocab.size, dtype=np.int64)
        log_probs = words_log_prob(tree, h, candidates, params.V, params.b)
        order = np.lexsort((candidates, -log_probs))[:top_k]
        return RankedPrediction(candidates[order], np.exp(log_probs[order]))
    counts = dense_counts(visual_only(doc, vocab), vocab.size)
    h_top = _deep_represent(counts, doc.features, params, omega, meta_dropout)
    log_probs = _log_softmax(params.b_out + params.V_out @ h_top)
    anno_ids = np.arange(vocab.visual_size, vocab.size)
    restricted = log_probs[anno_ids]
    log_norm = restricted.max() + np.log(np.exp(restricted - restricted.max()).sum())
    probs = np.exp(restricted - log_norm)
    order = np.lexsort((anno_ids, -probs))[:top_k]
    return RankedPrediction(anno_ids[order], probs[order])


def generate_text(corpus, params, meta, top_k):
    """(ids, scores) of every document's annotation ranking, one row each."""
    vocab = corpus.vocabulary
    tree = omega = None
    if meta.kind in DEEP_KINDS:
        omega = weight_vector(vocab, meta.anno_weight)
    else:
        tree = build_tree(meta.vocab_size, meta.tree_seed)
    ranked = [
        annotation_ranking(doc, params, vocab, top_k, tree=tree, meta_dropout=meta.dropout_rate,
                           omega=omega)
        for doc in documents(corpus)
    ]
    return np.array([r.ids for r in ranked]), np.array([r.scores for r in ranked])


def perplexity(corpus, params, meta, samples, rng):
    """Deep perplexity estimate with one dense forward pass and one loss per
    sampled split."""
    vocab = corpus.vocabulary
    omega = weight_vector(vocab, meta.anno_weight)
    keep = 1.0 - meta.dropout_rate if meta.dropout_rate > 0 else None
    total_loss, total_tokens = 0.0, 0
    for doc in documents(corpus):
        counts = dense_counts(doc, vocab.size)
        if counts.sum() == 0:
            continue
        draws = []
        for _ in range(samples):
            split = deep_mod.split_histogram(counts, rng)
            x = dense_histogram(split.input_hist, omega)
            hs, _ = dense_forward(x, params, doc.features, keep_scale=keep)
            draws.append(_dense_generative(hs[-1], split, omega, params)[0])
        total_loss += float(np.mean(draws))
        total_tokens += int(counts.sum())
    if total_tokens == 0:
        raise ValueError("corpus has no tokens")
    return float(np.exp(total_loss / total_tokens))


# ---------------------------------------------------------------------------
# Downstream linear classifier (stands in for the external SVM protocol)
# ---------------------------------------------------------------------------


@dataclass
class LinearClassifier:
    weights: np.ndarray  # (C, H)
    bias: np.ndarray  # (C,)
    kind: str  # softmax | sigmoid


def fit_linear_classifier(
    representations,
    labels,
    kind="softmax",
    *,
    n_classes=None,
    l2=1e-3,
    learning_rate=0.5,
    max_iter=2000,
    tol=1e-7,
):
    """Regularized maximum-likelihood linear classifier via gradient descent.

    `labels` is an int vector for the softmax kind, or a sequence of label
    sets for the one-vs-rest sigmoid kind.  Deterministic (zero init,
    full-batch descent, stops when the gradient infinity-norm drops below
    `tol`).  The bias is not regularized.
    """
    X = np.asarray(representations, dtype=float)
    n = X.shape[0]
    if kind == "softmax":
        y = np.asarray(labels, dtype=int)
        if len(np.unique(y)) < 2:
            raise ValueError("need at least two classes")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        target = np.zeros((n, n_classes))
        target[np.arange(n), y] = 1.0
    elif kind == "sigmoid":
        label_sets = [set(s) for s in labels]
        if n_classes is None:
            n_classes = max((max(s) for s in label_sets if s), default=-1) + 1
        if n_classes < 1 or all(not s for s in label_sets):
            raise ValueError("need at least one labeled item")
        target = np.zeros((n, n_classes))
        for i, s in enumerate(label_sets):
            target[i, sorted(s)] = 1.0
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")

    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    for _ in range(max_iter):
        z = X @ W.T + b
        probs = softmax_rows(z) if kind == "softmax" else sigmoid(z)
        delta = (probs - target) / n
        grad_W = delta.T @ X + l2 * W
        grad_b = delta.sum(axis=0)
        if max(np.abs(grad_W).max(), np.abs(grad_b).max()) < tol:
            break
        W -= learning_rate * grad_W
        b -= learning_rate * grad_b
    return LinearClassifier(W, b, kind)


def classifier_scores(clf, representations):
    z = np.asarray(representations) @ clf.weights.T + clf.bias
    return softmax_rows(z) if clf.kind == "softmax" else sigmoid(z)


def classify(clf, representations):
    return classifier_scores(clf, representations).argmax(axis=1)


# ---------------------------------------------------------------------------
# Per-item reference forms and operation counters
# ---------------------------------------------------------------------------


@dataclass
class OpCounter:
    """Instrumentation for cost-scaling assertions."""

    sigmoids: int = 0
    column_adds: int = 0


def counted_hidden_states(tokens, params, counter):
    """`shallow.hidden_states`, counting one column add per token."""
    counter.column_adds += len(tokens)
    return shallow_mod.hidden_states(tokens, params)


def path(tree, word):
    """Root-to-leaf internal node indices and left/right bits for `word`,
    walked up the heap layout one parent at a time."""
    node = int(tree.leaf_of_word[word])
    nodes, bits = [], []
    while node != 0:
        parent = (node - 1) // 2
        bits.append(node - 2 * parent - 1)  # left child is 2p+1
        nodes.append(parent)
        node = parent
    return (
        np.array(nodes[::-1], dtype=np.int64),
        np.array(bits[::-1], dtype=np.int64),
    )


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def word_log_prob(tree, h, word, V, b, counter=None):
    """log p(word | h) via the sigmoid factors along the word's tree path."""
    if V.shape != (tree.n_internal, len(h)) or b.shape != (tree.n_internal,):
        raise ValueError(
            f"tree parameter shapes {V.shape}/{b.shape} do not match "
            f"(T={tree.n_internal}, H={len(h)})"
        )
    nodes, bits = path(tree, word)
    if counter is not None:
        counter.sigmoids += len(nodes)
    if len(nodes) == 0:
        return 0.0
    act = b[nodes] + V[nodes] @ h
    signs = 2 * bits - 1  # probability of the observed bit
    return float(_log_sigmoid(signs * act).sum())


def tree_gradients(tree, h, word, V, b, scale):
    """Gradients of -scale * log p(word | h).

    Returns (nodes, dV_rows, db_entries, dh); only the rows/entries listed
    in `nodes` are nonzero.
    """
    nodes, bits = path(tree, word)
    if len(nodes) == 0:
        return nodes, np.zeros((0, len(h))), np.zeros(0), np.zeros(len(h))
    act = b[nodes] + V[nodes] @ h
    prob_right = np.exp(_log_sigmoid(act))
    dt = scale * (prob_right - bits)
    dV_rows = dt[:, None] * h[None, :]
    dh = V[nodes].T @ dt
    return nodes, dV_rows, dt.copy(), dh


def class_posterior(tokens, params):
    """softmax(d + U h) on the full-document hidden state."""
    if len(params.d) < 2:
        raise ValueError("class posterior needs at least 2 classes")
    tokens = np.asarray(tokens, dtype=np.int64)
    h_full = shallow_mod.hidden_states(tokens, params)[-1]
    return np.exp(log_softmax(params.d + params.U @ h_full))


def exhaustive_ordering_loss(counts, params, phi=None, omega=None, features=None, max_tokens=6):
    """Exact expectation over all orderings of the per-position weighted NLL.

    Oracle-scale only: enumerates every permutation of the token multiset
    and every position's conditional directly (no estimator machinery), so
    unbiasedness of the split estimator can be certified against it.
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total > max_tokens:
        raise ValueError(f"document too large for exhaustive enumeration ({total} tokens)")
    if total == 0:
        return 0.0
    tokens = np.repeat(np.flatnonzero(counts), counts[counts > 0])
    weights = phi if phi is not None else np.ones(len(counts))

    cond_cache = {}

    def conditionals(prefix_key):
        if prefix_key not in cond_cache:
            hs, _ = dense_forward(dense_histogram(np.array(prefix_key), omega), params, features)
            cond_cache[prefix_key] = _log_softmax(params.b_out + params.V_out @ hs[-1])
        return cond_cache[prefix_key]

    total_loss = 0.0
    n_orderings = 0
    for perm in itertools.permutations(tokens):
        prefix = np.zeros(len(counts), dtype=np.int64)
        for word in perm:
            log_probs = conditionals(tuple(prefix))
            total_loss += weights[word] * -float(log_probs[word])
            prefix[word] += 1
        n_orderings += 1
    return total_loss / n_orderings


def to_weighted_histogram(doc, omega):
    """Dense element-wise product counts * omega."""
    size = len(omega)
    out = np.zeros(size)
    for token_id, count in doc.counts.items():
        if token_id >= size:
            raise ValueError(
                f"token id {token_id} does not fit weight vector of length {size}"
            )
        out[token_id] = count * omega[token_id]
    return out


# ---------------------------------------------------------------------------
# Id and tree lookups
# ---------------------------------------------------------------------------


def visual_id(vocab, word, region):
    """Joint id of a visual word in a region: ids are region-major."""
    if not (0 <= word < vocab.n_visual):
        raise ValueError(f"visual word {word} out of range [0, {vocab.n_visual})")
    if not (0 <= region < vocab.n_regions):
        raise ValueError(f"region {region} out of range [0, {vocab.n_regions})")
    return region * vocab.n_visual + word


def visual_pair(vocab, token_id):
    """Inverse of visual_id: id -> (visual word, region)."""
    if not (0 <= token_id < vocab.visual_size):
        raise ValueError(f"id {token_id} is not a visual/region id")
    return token_id % vocab.n_visual, token_id // vocab.n_visual


def annotation_id(vocab, index):
    if not (0 <= index < vocab.n_annotation):
        raise ValueError(f"annotation index {index} out of range")
    return vocab.visual_size + index


def annotation_index(vocab, token_id):
    if not is_annotation(vocab, token_id):
        raise ValueError(f"id {token_id} is not an annotation id")
    return token_id - vocab.visual_size


def is_annotation(vocab, token_id):
    return vocab.visual_size <= token_id < vocab.size


def word_id(vocab, word):
    """Joint id of an annotation word given as a string."""
    try:
        return vocab.visual_size + vocab.annotation_words.index(word)
    except ValueError:
        raise KeyError(f"unknown annotation word {word!r}") from None


def path_length(tree, word):
    """Depth of a word's leaf: node i of the heap layout is at depth
    floor(log2(i + 1))."""
    return int(tree.leaf_of_word[word] + 1).bit_length() - 1


def id_counts(doc, limit=None):
    """A document's sorted distinct token ids (those below `limit` only, if
    given) and their counts."""
    ids = np.fromiter(doc.counts, np.int64, len(doc.counts))
    counts = np.fromiter(doc.counts.values(), np.int64, len(doc.counts))
    order = np.argsort(ids)
    ids, counts = ids[order], counts[order]
    end = len(ids) if limit is None else np.searchsorted(ids, limit)
    return ids[:end], counts[:end]


def token_array(doc):
    """A document's counts expanded into a sorted id sequence (one entry per
    token)."""
    return np.repeat(*id_counts(doc))


def total_tokens(doc):
    return sum(doc.counts.values())


# ---------------------------------------------------------------------------
# Documents as plain records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Document:
    """One document: counts maps joint id -> count, labels is a (possibly
    empty) set of class indices, features a length-N_f vector or None."""

    counts: dict = field(default_factory=dict)
    labels: frozenset = frozenset()
    features: np.ndarray | None = None


def corpus_of(vocab, docs, n_classes=None, n_features=None):
    """The corpus of a sequence of `Document`s, one row each; by default its
    class and feature counts are read off the documents."""
    docs = tuple(docs)
    if n_classes is None:
        n_classes = 1 + max((label for doc in docs for label in doc.labels), default=-1)
    if n_features is None:
        n_features = next((len(doc.features) for doc in docs if doc.features is not None), 0)
    index = np.arange(len(docs))
    entries = (np.repeat(index, [len(doc.counts) for doc in docs]),
               np.array([i for doc in docs for i in doc.counts], dtype=np.int64),
               np.array([c for doc in docs for c in doc.counts.values()], dtype=np.int64))
    labels = (np.repeat(index, [len(doc.labels) for doc in docs]),
              np.array([label for doc in docs for label in doc.labels], dtype=np.int64))
    return Corpus.from_entries(vocab, n_classes, n_features, len(docs), entries, labels,
                               [doc.features for doc in docs])


def documents(corpus):
    """The corpus rows as `Document`s."""
    return tuple(Document(
        dict(zip(*(a.tolist() for a in corpus.row(i)))), frozenset(corpus.row_labels(i).tolist()),
        None if corpus.features is None else corpus.features[i].copy(),
    ) for i in range(len(corpus)))
