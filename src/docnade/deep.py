"""Deep extensions trained with the ordering-split estimator.

One stochastic update splits a document's token multiset into an observed
part (fed through the network as a histogram) and a predicted part (scored
under a full-softmax output).  Sampling a split position d uniformly from
{1..D} and a uniformly random (d-1)-sub-multiset as the observed side makes
the rescaled loss

    (D / (D - d + 1)) * sum_{w in output} phi_w * -log softmax(...)[w]

an unbiased estimator of the expected negative log-likelihood over all token
orderings (`exhaustive_ordering_loss` certifies this on small instances).

Annotation ids can be up-weighted both in the input histogram and in the
per-token loss weights phi; input histograms are rescaled to unit variance.
The supervised head (softmax for single-label, sigmoid for multi-label)
conditions on the full document's histogram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import log_softmax, sigmoid

HEADS = ("softmax", "sigmoid")
_STD_GUARD = 1e-12


@dataclass
class DeepParams:
    """Weights of the deep model.

    layer_weights[n]: (H_{n+1}, H_n) with H_0 = Q; layer_biases[n]: (H_{n+1},).
    P maps global features into the first pre-activation (None if unused).
    V_out/b_out parameterize the softmax over the vocabulary; U/d the class
    head (C may be 0 for unsupervised models).
    """

    layer_weights: list[np.ndarray]
    layer_biases: list[np.ndarray]
    P: np.ndarray | None
    V_out: np.ndarray
    b_out: np.ndarray
    U: np.ndarray
    d: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.layer_weights)

    @property
    def vocab_size(self) -> int:
        return self.layer_weights[0].shape[1]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.layer_weights)

    @property
    def n_classes(self) -> int:
        return self.U.shape[0]

    @property
    def n_features(self) -> int:
        return 0 if self.P is None else self.P.shape[0]

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for n, (w, c) in enumerate(zip(self.layer_weights, self.layer_biases), start=1):
            out.append((f"W{n}", w))
            out.append((f"c{n}", c))
        if self.P is not None:
            out.append(("P", self.P))
        out.extend([("V_out", self.V_out), ("b_out", self.b_out), ("U", self.U), ("d", self.d)])
        return out

    def copy(self) -> "DeepParams":
        return DeepParams(
            [w.copy() for w in self.layer_weights],
            [c.copy() for c in self.layer_biases],
            None if self.P is None else self.P.copy(),
            self.V_out.copy(),
            self.b_out.copy(),
            self.U.copy(),
            self.d.copy(),
        )


@dataclass
class HistogramSplit:
    """One document split: observed counts, predicted counts, split position."""

    input_hist: np.ndarray  # unweighted observed counts, length Q
    output_hist: np.ndarray  # predicted counts, length Q, never all zero
    d: int  # observed token count + 1
    total_tokens: int


def split_histogram(counts: np.ndarray, rng: np.random.Generator) -> HistogramSplit | None:
    """Split a count vector into observed/predicted sides for one update.

    Draws d uniformly from {1..D} and then a uniformly random
    (d-1)-sub-multiset of the tokens (sequential hypergeometric draws per
    word), which matches the distribution of uniformly shuffled token
    prefixes exactly.

    Returns None for empty documents (the caller skips them).
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        return None
    input_hist = np.zeros_like(counts)
    d = int(rng.integers(1, total + 1))
    need = d - 1
    remaining = total
    for word in np.flatnonzero(counts):
        if need == 0:
            break
        have = int(counts[word])
        take = int(rng.hypergeometric(have, remaining - have, need))
        input_hist[word] = take
        need -= take
        remaining -= have
    output_hist = counts - input_hist
    return HistogramSplit(input_hist, output_hist, d, total)


def prepare_histogram(
    counts: np.ndarray, omega: np.ndarray | None = None, normalize: bool = True
) -> np.ndarray:
    """Weighted, optionally unit-variance-rescaled input histogram."""
    x = counts.astype(float)
    if omega is not None:
        if len(omega) != len(x):
            raise ValueError("weight vector length does not match histogram")
        x = x * omega
    if normalize:
        std = x.std()
        if std >= _STD_GUARD:  # zero histograms pass through unscaled
            x = x / std
    return x


def deep_forward(
    x: np.ndarray,
    params: DeepParams,
    features: np.ndarray | None = None,
    masks: list[np.ndarray] | None = None,
    keep_scale: float | None = None,
    cols: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Hidden stack h^(1)..h^(N); returns (activations, pre-activations).

    `x` is one input histogram, or a (rows, width) matrix of them; then
    `features` and the masks carry one row per input row too.  With `cols`,
    the inputs are zero outside those vocabulary columns and `x` holds only
    those columns, so the first layer reads W1[:, cols] alone.

    During training, per-layer binary dropout masks multiply the
    activations; at inference `keep_scale` multiplies them instead
    (weight-scaling rule).
    """
    width = params.vocab_size if cols is None else len(cols)
    if x.shape[-1] != width:
        raise ValueError(f"input length {x.shape[-1]} != vocabulary size {width}")
    if masks is not None and keep_scale is not None:
        raise ValueError("masks and keep_scale are mutually exclusive")
    hs, pres = [], []
    inp = x
    for n, (w, c) in enumerate(zip(params.layer_weights, params.layer_biases)):
        if n == 0 and cols is not None:
            w = w[:, cols]
        pre = c + (w @ inp if inp.ndim == 1 else inp @ w.T)
        if n == 0 and features is not None:
            if params.P is None:
                raise ValueError("model has no global-feature map")
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


def generative_loss(
    h_top: np.ndarray,
    output_hist: np.ndarray,
    phi: np.ndarray | None,
    d: int | np.ndarray,
    total_tokens: int | np.ndarray,
    params: DeepParams,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Rescaled weighted cross-entropy of the predicted-side histogram.

    One log-softmax over the vocabulary serves every predicted token, so the
    cost is O(Q * H) regardless of how many tokens are predicted.  Returns
    the loss and output-layer gradients {V_out, b_out, h} (h is the gradient
    w.r.t. h_top, to be backpropagated by the caller).

    For a (rows, H) matrix `h_top`, `output_hist` is (rows, Q) and `d` and
    `total_tokens` are per-row arrays: the softmax runs as one matrix
    product, the loss is per row and the V_out/b_out gradients are summed
    over the rows.
    """
    single = h_top.ndim == 1
    h = np.atleast_2d(h_top)
    hist = np.atleast_2d(output_hist)
    log_probs = log_softmax(params.b_out + h @ params.V_out.T)
    targets = hist * phi if phi is not None else hist.astype(float)
    factor = np.reshape(total_tokens / (total_tokens - np.asarray(d) + 1), (-1, 1))
    loss = factor[:, 0] * -np.einsum("ij,ij->i", targets, log_probs)
    d_logits = factor * (targets.sum(axis=1, keepdims=True) * np.exp(log_probs) - targets)
    grads = {"V_out": d_logits.T @ h, "b_out": d_logits.sum(axis=0), "h": d_logits @ params.V_out}
    if single:
        return float(loss[0]), {**grads, "h": grads["h"][0]}
    return loss, grads


def supervised_loss(
    h_top: np.ndarray,
    labels: frozenset[int] | set[int] | list[frozenset[int]],
    params: DeepParams,
    head: str,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Class-head loss and gradients {U, d, h}.

    softmax: -log p(y | h) for the single label y.
    sigmoid: per-class binary cross-entropy against the label set.

    For a (rows, H) matrix `h_top`, `labels` holds one label set per row, the
    loss is per row and the U/d gradients are summed over the rows.
    """
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    single = h_top.ndim == 1
    label_sets = [labels] if single else labels
    if head == "softmax" and any(len(label_set) != 1 for label_set in label_sets):
        raise ValueError("softmax head requires exactly one label")
    h = np.atleast_2d(h_top)
    z = params.d + h @ params.U.T
    target = np.zeros_like(z)
    for row, label_set in enumerate(label_sets):
        target[row, sorted(label_set)] = 1.0
    if head == "softmax":
        log_post = log_softmax(z)
        loss = -log_post[target == 1.0]
        d_logits = np.exp(log_post) - target
    else:
        # -t*log(sig(z)) - (1-t)*log(1-sig(z)), computed stably
        loss = (target * np.logaddexp(0.0, -z) + (1 - target) * np.logaddexp(0.0, z)).sum(axis=1)
        d_logits = sigmoid(z) - target
    grads = {"U": d_logits.T @ h, "d": d_logits.sum(axis=0), "h": d_logits @ params.U}
    if single:
        return float(loss[0]), {**grads, "h": grads["h"][0]}
    return loss, grads


def _sparse_inputs(
    raw: np.ndarray,
    cols: np.ndarray,
    vocab_size: int,
    omega: np.ndarray | None,
    normalize: bool = True,
) -> np.ndarray:
    """`prepare_histogram` for rows that are zero outside `cols`, given on
    those columns only.

    The unit-variance rescale is taken over all Q entries: the mean and the
    variance come from the kept columns plus Q - len(cols) zeros.
    """
    x = raw.astype(float)
    if omega is not None:
        x = x * omega[cols]
    if normalize:
        mean = x.sum(axis=1, keepdims=True) / vocab_size
        squares = ((x - mean) ** 2).sum(axis=1, keepdims=True)
        std = np.sqrt((squares + (vocab_size - len(cols)) * mean**2) / vocab_size)
        np.divide(x, std, out=x, where=std >= _STD_GUARD)  # zero rows pass through unscaled
    return x


def _stack_rows(rows: list, sizes) -> list[np.ndarray] | None:
    """Per-layer (rows, H_n) matrices from per-row lists of vectors; a None
    row stands for ones, and all-None rows for no matrices at all."""
    if all(row is None for row in rows):
        return None
    return [
        np.stack([np.ones(size) if row is None else row[n] for row in rows])
        for n, size in enumerate(sizes)
    ]


def batch_loss_gradients(
    counts: np.ndarray,
    labels: list[frozenset[int] | None],
    features: list[np.ndarray | None],
    params: DeepParams,
    unsup_weight: float,
    omega: np.ndarray | None,
    phi: np.ndarray | None,
    splits: list[HistogramSplit | None],
    gen_masks: list[list[np.ndarray] | None],
    sup_masks: list[list[np.ndarray] | None],
    head: str = "softmax",
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Deterministic core of one mini-batch update (stochasticity passed in).

    `counts` holds the batch's documents as (B, Q) count rows; the other
    list arguments hold one entry per document.  Each labelled document
    contributes a supervised row (its full histogram); each document with a
    split contributes a generative row (the split's observed side, scored
    against its predicted side and weighted by `unsup_weight`).  All rows
    go through the network together: the first layer reads only the union
    of the batch's nonzero columns, and every other layer, the class head
    and the output softmax run as matrix products over the rows.

    Returns (per-document losses, gradients summed over the batch, cols).
    grads["W1"] is the (H1, len(cols)) block of the W1 gradient on columns
    `cols`, outside which it is zero; every other gradient is dense.
    """
    cols = np.flatnonzero(counts.any(axis=0))
    sup = [i for i, label_set in enumerate(labels) if label_set is not None]
    gen = [i for i, split in enumerate(splits) if split is not None and unsup_weight != 0.0]
    n_sup = len(sup)
    grads = {
        name: np.zeros((len(arr), len(cols))) if name == "W1" else np.zeros_like(arr)
        for name, arr in params.arrays()
    }
    losses = np.zeros(len(counts))
    if not sup and not gen:
        return losses, grads, cols

    raw = np.stack([counts[i, cols] for i in sup] + [splits[i].input_hist[cols] for i in gen])
    x = _sparse_inputs(raw, cols, params.vocab_size, omega)
    row_features = [features[i] for i in sup + gen]
    feats = None
    if any(f is not None for f in row_features):  # a document without features adds 0 @ P
        feats = np.stack([np.zeros(params.n_features) if f is None else f for f in row_features])
    masks = _stack_rows([sup_masks[i] for i in sup] + [gen_masks[i] for i in gen],
                        params.hidden_sizes)
    hs, pres = deep_forward(x, params, feats, masks=masks, cols=cols)

    d_top = np.zeros_like(hs[-1])
    if sup:
        sup_loss, head_grads = supervised_loss(hs[-1][:n_sup], [labels[i] for i in sup],
                                               params, head)
        losses[sup] += sup_loss
        grads["U"], grads["d"] = head_grads["U"], head_grads["d"]
        d_top[:n_sup] = head_grads["h"]
    if gen:
        gen_loss, out_grads = generative_loss(
            hs[-1][n_sup:],
            np.stack([splits[i].output_hist for i in gen]),
            phi,
            np.array([splits[i].d for i in gen]),
            np.array([splits[i].total_tokens for i in gen]),
            params,
        )
        losses[gen] += unsup_weight * gen_loss
        grads["V_out"] = unsup_weight * out_grads["V_out"]
        grads["b_out"] = unsup_weight * out_grads["b_out"]
        d_top[n_sup:] = unsup_weight * out_grads["h"]

    delta = d_top
    for n in range(params.n_layers, 0, -1):
        if masks is not None:
            delta = delta * masks[n - 1]
        delta = delta * (pres[n - 1] > 0)
        grads[f"c{n}"] = delta.sum(axis=0)
        grads[f"W{n}"] = delta.T @ (hs[n - 2] if n > 1 else x)
        if n > 1:
            delta = delta @ params.layer_weights[n - 1]
        elif feats is not None:
            grads["P"] = feats.T @ delta
    return losses, grads, cols


def hybrid_loss_gradients(
    counts: np.ndarray,
    labels: frozenset[int] | None,
    features: np.ndarray | None,
    params: DeepParams,
    unsup_weight: float,
    omega: np.ndarray | None,
    phi: np.ndarray | None,
    split: HistogramSplit | None,
    gen_masks: list[np.ndarray] | None,
    sup_masks: list[np.ndarray] | None,
    head: str = "softmax",
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and dense gradients of one document's update: the batch-of-one
    case of `batch_loss_gradients`.

    The supervised term conditions on the full document histogram; the
    generative term on the split's observed side, scored against its
    predicted side and weighted by `unsup_weight`.  Gradients of both paths
    accumulate into shared layer parameters.
    """
    losses, grads, cols = batch_loss_gradients(
        np.asarray(counts)[None], [labels], [features], params, unsup_weight, omega, phi,
        [split], [gen_masks], [sup_masks], head=head,
    )
    w1 = np.zeros_like(params.layer_weights[0])
    w1[:, cols] = grads["W1"]
    grads["W1"] = w1
    return float(losses[0]), grads


def deep_represent(
    counts: np.ndarray,
    features: np.ndarray | None,
    params: DeepParams,
    omega: np.ndarray | None,
    dropout_rate: float = 0.0,
) -> np.ndarray:
    """Top-layer representation of the full (weighted, rescaled) histogram."""
    x = prepare_histogram(np.asarray(counts), omega)
    keep = 1.0 - dropout_rate if dropout_rate > 0.0 else None
    hs, _ = deep_forward(x, params, features, keep_scale=keep)
    return hs[-1]


def output_log_probs(h_top: np.ndarray, params: DeepParams) -> np.ndarray:
    """Per-word log conditional probabilities given a hidden state."""
    return log_softmax(params.b_out + params.V_out @ h_top)


def exhaustive_ordering_loss(
    counts: np.ndarray,
    params: DeepParams,
    phi: np.ndarray | None = None,
    omega: np.ndarray | None = None,
    features: np.ndarray | None = None,
    max_tokens: int = 6,
) -> float:
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

    cond_cache: dict[tuple, np.ndarray] = {}

    def conditionals(prefix_key: tuple) -> np.ndarray:
        if prefix_key not in cond_cache:
            x = prepare_histogram(np.array(prefix_key), omega)
            hs, _ = deep_forward(x, params, features)
            cond_cache[prefix_key] = output_log_probs(hs[-1], params)
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
