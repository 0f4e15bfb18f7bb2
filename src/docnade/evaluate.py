"""Metrics, downstream linear classification, retrieval and inspection.

Pure functions over frozen parameters: classification accuracy, top-K
annotation F-measure, average precision / MAP, held-out perplexity, cosine
retrieval, text generation from the visual modality, and per-class
topic/word association inspection.  `evaluation_metrics` assembles the
metric report for a model's kind; this module is where the inference
commands branch on `meta.kind`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import deep as deep_mod
from . import shallow as shallow_mod
from .corpus import (
    Corpus,
    JointVocabulary,
    MultimodalDocument,
    build_vocabulary,
    weight_vector,
)
from .model_io import DEEP_KINDS, SUPERVISED_KINDS, ModelMeta
from .numerics import sigmoid, softmax_rows
from .rng import named_stream
from .wordtree import WordTree, build_tree

logger = logging.getLogger(__name__)


def extract_representations(corpus: Corpus, params, meta, restrict: str = "all-words") -> np.ndarray:
    """Document-representation matrix (n_docs, H) for downstream classifiers.

    Deep models use the full weighted histogram with inference-time dropout
    scaling; shallow models sum embedding columns.  `restrict` selects the
    visual-only protocol for shallow class prediction.
    """
    vocab = corpus.vocabulary
    if meta.kind in DEEP_KINDS:
        omega = weight_vector(vocab, meta.anno_weight).omega
        return np.array([
            deep_mod.deep_represent(
                doc.dense_counts(vocab.size), doc.features, params, omega,
                dropout_rate=meta.dropout_rate,
            )
            for doc in corpus.documents
        ])
    return np.array([
        shallow_mod.represent(doc, params, vocab, restrict)
        for doc in corpus.documents
    ])


@dataclass
class RankedPrediction:
    """Ids ordered by non-increasing score; ties break toward the smaller id."""

    ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        assert len(self.ids) == len(self.scores)


def _rank(ids: np.ndarray, scores: np.ndarray, top_k: int | None = None) -> RankedPrediction:
    order = np.lexsort((ids, -scores))
    if top_k is not None:
        order = order[:top_k]
    return RankedPrediction(ids[order], scores[order])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def f_measure(predicted: set, ground_truth: set) -> float:
    """Harmonic mean of set precision and recall; 0 on empty intersection."""
    truth = set(ground_truth)
    if not truth:
        raise ValueError("ground truth is empty after deduplication")
    predicted = set(predicted)
    if not predicted:
        return 0.0
    hits = len(predicted & truth)
    if hits == 0:
        return 0.0
    precision = hits / len(predicted)
    recall = hits / len(truth)
    return 2 * precision * recall / (precision + recall)


def mean_f_measure(pairs) -> tuple[float, int]:
    """Average F over (predicted, truth) pairs, skipping empty truths.

    Returns (mean, number of skipped documents).
    """
    values, skipped = [], 0
    for predicted, truth in pairs:
        if not set(truth):
            skipped += 1
            continue
        values.append(f_measure(predicted, truth))
    if skipped:
        logger.info("f-measure: excluded %d documents with empty ground truth", skipped)
    return (float(np.mean(values)) if values else 0.0), skipped


def accuracy(predicted_labels, true_labels) -> float:
    predicted_labels = np.asarray(predicted_labels)
    true_labels = np.asarray(true_labels)
    if predicted_labels.shape != true_labels.shape:
        raise ValueError("label vectors differ in length")
    return float(np.mean(predicted_labels == true_labels))


def average_precision(scores, relevant) -> float:
    """Mean of precision-at-rank over the relevant items, in score order.

    Plain discrete estimator of the area under the precision-recall curve;
    no interpolation.  Score ties break toward the smaller index.
    """
    scores = np.asarray(scores, dtype=float)
    relevant = np.asarray(relevant, dtype=bool)
    if not relevant.any():
        raise ValueError("no relevant items")
    order = np.lexsort((np.arange(len(scores)), -scores))
    hits = relevant[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    precision_at = cum_hits / ranks
    return float(precision_at[hits].mean())


def pr_curve(scores, relevant) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) points at every rank, in descending-score order."""
    scores = np.asarray(scores, dtype=float)
    relevant = np.asarray(relevant, dtype=bool)
    if not relevant.any():
        raise ValueError("no relevant items")
    order = np.lexsort((np.arange(len(scores)), -scores))
    hits = np.cumsum(relevant[order])
    ranks = np.arange(1, len(scores) + 1)
    return hits / relevant.sum(), hits / ranks


def write_pr_curves(directory, score_matrix: np.ndarray, relevance: np.ndarray) -> list[str]:
    """Two-column `recall precision` text files, one per class with relevant
    items; returns the written paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for class_idx in range(np.asarray(score_matrix).shape[1]):
        rel = np.asarray(relevance, dtype=bool)[:, class_idx]
        if not rel.any():
            continue
        recall, precision = pr_curve(np.asarray(score_matrix)[:, class_idx], rel)
        path = os.path.join(directory, f"pr_class_{class_idx:03d}.txt")
        with open(path, "w") as fh:
            for r, p in zip(recall, precision):
                fh.write(f"{r:.10f} {p:.10f}\n")
        written.append(path)
    return written


def mean_average_precision(score_matrix: np.ndarray, relevance: np.ndarray) -> tuple[float, int]:
    """Mean AP across classes (columns); classes without relevant items are
    excluded and counted in the second return value."""
    score_matrix = np.asarray(score_matrix, dtype=float)
    relevance = np.asarray(relevance, dtype=bool)
    values, skipped = [], 0
    for class_idx in range(score_matrix.shape[1]):
        rel = relevance[:, class_idx]
        if not rel.any():
            skipped += 1
            continue
        values.append(average_precision(score_matrix[:, class_idx], rel))
    if skipped:
        logger.info("MAP: excluded %d classes with no relevant items", skipped)
    if not values:
        raise ValueError("no class has relevant items")
    return float(np.mean(values)), skipped


def perplexity(
    corpus: Corpus,
    params: shallow_mod.ShallowParams,
    tree: WordTree,
    orderings_per_doc: int = 1,
    *,
    rng: np.random.Generator,
) -> float:
    """exp(-(sum of per-document mean log-likelihoods) / total token count).

    Each document's log-likelihood is averaged over `orderings_per_doc`
    sampled token orderings.
    """
    total_log_prob = 0.0
    total_tokens = 0
    for doc in corpus.documents:
        tokens = doc.token_array()
        if len(tokens) == 0:
            continue
        samples = []
        for _ in range(orderings_per_doc):
            ordering = tokens[rng.permutation(len(tokens))]
            samples.append(shallow_mod.doc_log_likelihood(ordering, params, tree))
        total_log_prob += float(np.mean(samples))
        total_tokens += len(tokens)
    if total_tokens == 0:
        raise ValueError("corpus has no tokens")
    return float(np.exp(-total_log_prob / total_tokens))


# ---------------------------------------------------------------------------
# Downstream linear classifier (stands in for the external SVM protocol)
# ---------------------------------------------------------------------------


@dataclass
class LinearClassifier:
    weights: np.ndarray  # (C, H)
    bias: np.ndarray  # (C,)
    kind: str  # softmax | sigmoid


def fit_linear_classifier(
    representations: np.ndarray,
    labels,
    kind: str = "softmax",
    *,
    n_classes: int | None = None,
    l2: float = 1e-3,
    learning_rate: float = 0.5,
    max_iter: int = 2000,
    tol: float = 1e-7,
) -> LinearClassifier:
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


def classifier_scores(clf: LinearClassifier, representations: np.ndarray) -> np.ndarray:
    z = np.asarray(representations) @ clf.weights.T + clf.bias
    return softmax_rows(z) if clf.kind == "softmax" else sigmoid(z)


def classify(clf: LinearClassifier, representations: np.ndarray) -> np.ndarray:
    return classifier_scores(clf, representations).argmax(axis=1)


# ---------------------------------------------------------------------------
# Retrieval, generation, inspection
# ---------------------------------------------------------------------------


def cosine_retrieve(
    query: np.ndarray, collection: np.ndarray, top_k: int
) -> RankedPrediction:
    """Top-k collection indices by cosine similarity to the query.

    Zero vectors have similarity 0 to everything.  If top_k exceeds the
    collection size the full ranking is returned (and logged).
    """
    collection = np.atleast_2d(np.asarray(collection, dtype=float))
    if top_k > len(collection):
        logger.info(
            "retrieval: top_k=%d exceeds collection size %d; returning full ranking",
            top_k, len(collection),
        )
        top_k = len(collection)
    query = np.asarray(query, dtype=float)
    denom = np.linalg.norm(query) * np.linalg.norm(collection, axis=1)
    sims = np.zeros(len(collection))
    valid = denom > 0
    sims[valid] = (collection[valid] @ query) / denom[valid]
    return _rank(np.arange(len(collection)), sims, top_k)


def generate_text(
    doc: MultimodalDocument,
    params,
    vocab: JointVocabulary,
    top_k: int,
    *,
    tree: WordTree | None = None,
    meta_dropout: float = 0.0,
    omega: np.ndarray | None = None,
) -> RankedPrediction:
    """Rank annotation words by next-word probability given the visual words.

    Shallow models, which come with their word `tree`, delegate to the
    tree-based annotation prediction; deep models renormalize the softmax
    output over the annotation block.
    """
    if vocab.n_annotation == 0:
        raise ValueError("vocabulary has no annotation words")
    top_k = min(top_k, vocab.n_annotation)
    if tree is not None:
        ids, probs = shallow_mod.predict_annotations(doc, params, tree, vocab, top_k)
        return RankedPrediction(ids, probs)
    counts = doc.visual_only(vocab).dense_counts(vocab.size)
    h_top = deep_mod.deep_represent(
        counts, doc.features, params, omega, dropout_rate=meta_dropout
    )
    log_probs = deep_mod.output_log_probs(h_top, params)
    anno_ids = np.arange(vocab.visual_size, vocab.size)
    restricted = log_probs[anno_ids]
    log_norm = restricted.max() + np.log(np.exp(restricted - restricted.max()).sum())
    return _rank(anno_ids, np.exp(restricted - log_norm), top_k)


def class_word_associations(
    params: shallow_mod.ShallowParams,
    vocab: JointVocabulary,
    class_index: int,
    top_topics: int,
    top_words: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Most-associated (topics, visual ids, annotation ids) for a class.

    Topics are the hidden units with the largest class-head weight for the
    class; their embedding rows are averaged into a per-word score.
    """
    if top_topics > params.n_hidden:
        raise ValueError(f"top_topics={top_topics} exceeds hidden size {params.n_hidden}")
    if not (0 <= class_index < params.n_classes):
        raise ValueError(f"class index {class_index} out of range")
    column = params.U[class_index]
    topics = np.lexsort((np.arange(len(column)), -column))[:top_topics]
    word_scores = params.W[topics].mean(axis=0)

    visual_ids = np.arange(vocab.visual_size)
    anno_ids = np.arange(vocab.visual_size, vocab.size)
    top_visual = _rank(visual_ids, word_scores[visual_ids], min(top_words, len(visual_ids))).ids
    top_anno = _rank(anno_ids, word_scores[anno_ids], min(top_words, len(anno_ids))).ids
    return topics, top_visual, top_anno


# ---------------------------------------------------------------------------
# Reports of the inference commands
# ---------------------------------------------------------------------------


# Report metrics a model selection minimizes; every other metric is maximized.
LOWER_IS_BETTER = ("perplexity", "perplexity_estimate")


def class_scores(corpus: Corpus, params, meta: ModelMeta) -> np.ndarray:
    """Per-document class confidences from the model's own head.

    Shallow models predict from visual words only (annotations are withheld
    at test time); deep models condition on the full document.
    """
    reps = extract_representations(corpus, params, meta, restrict="visual-only")
    logits = reps @ params.U.T + params.d
    return sigmoid(logits) if meta.head == "sigmoid" else softmax_rows(logits)


def annotation_predictions(corpus: Corpus, params, meta: ModelMeta, top_k: int):
    """Yields (document, its top-K annotation words ranked from its visual
    words); the word tree or the annotation weights are built once."""
    vocab = corpus.vocabulary
    tree = omega = None
    if meta.kind in DEEP_KINDS:
        omega = weight_vector(vocab, meta.anno_weight).omega
    else:
        tree = build_tree(meta.vocab_size, meta.tree_seed)
    for doc in corpus.documents:
        yield doc, generate_text(
            doc, params, vocab, top_k, tree=tree, meta_dropout=meta.dropout_rate, omega=omega
        )


def perplexity_estimate(
    corpus: Corpus, params, meta: ModelMeta, samples: int, rng: np.random.Generator
) -> float:
    """Per-token perplexity of a deep model from the losses of `samples`
    sampled splits per document."""
    vocab = corpus.vocabulary
    omega = weight_vector(vocab, meta.anno_weight).omega
    keep = 1.0 - meta.dropout_rate if meta.dropout_rate > 0 else None
    total_loss, total_tokens = 0.0, 0
    for doc in corpus.documents:
        counts = doc.dense_counts(vocab.size)
        if counts.sum() == 0:
            continue
        draws = []
        for _ in range(samples):
            split = deep_mod.split_histogram(counts, rng)
            x = deep_mod.prepare_histogram(split.input_hist, omega)
            hs, _ = deep_mod.deep_forward(x, params, doc.features, keep_scale=keep)
            loss, _ = deep_mod.generative_loss(
                hs[-1], split.output_hist, omega, split.d, split.total_tokens, params
            )
            draws.append(loss)
        total_loss += float(np.mean(draws))
        total_tokens += int(counts.sum())
    if total_tokens == 0:
        raise ValueError("corpus has no tokens")
    return float(np.exp(total_loss / total_tokens))


def evaluation_metrics(
    corpus: Corpus,
    params,
    meta: ModelMeta,
    *,
    top_k: int = 5,
    orderings: int = 1,
    eval_seed: int = 0,
    curves_dir=None,
) -> list[tuple[str, float]]:
    """The (metric, value) report of `docnade eval` for the model's kind.

    Unsupervised models: perplexity (deep ones: its sampled-split estimate)
    over `orderings` samples per document.  Supervised models: accuracy, or
    MAP for a sigmoid head (with PR curves to `curves_dir`), then top-K
    annotation F-measure.  The first entry is what a grid search selects on.
    """
    if meta.kind not in SUPERVISED_KINDS:
        rng = named_stream(eval_seed, "eval")
        if meta.kind in DEEP_KINDS:
            return [("perplexity_estimate",
                     perplexity_estimate(corpus, params, meta, orderings, rng))]
        tree = build_tree(meta.vocab_size, meta.tree_seed)
        return [("perplexity", perplexity(corpus, params, tree, orderings, rng=rng))]

    metrics: list[tuple[str, float]] = []
    scores = class_scores(corpus, params, meta)
    if meta.head == "sigmoid":
        relevance = np.zeros(scores.shape, dtype=bool)
        for i, doc in enumerate(corpus.documents):
            relevance[i, sorted(doc.labels)] = True
        mean_ap, skipped = mean_average_precision(scores, relevance)
        metrics.append(("map", mean_ap))
        if skipped:
            metrics.append(("map_classes_excluded", float(skipped)))
        if curves_dir is not None:
            write_pr_curves(curves_dir, scores, relevance)
    else:
        labeled = [i for i, doc in enumerate(corpus.documents) if doc.labels]
        predicted = scores.argmax(axis=1)[labeled]
        truth = np.array([next(iter(corpus.documents[i].labels)) for i in labeled])
        metrics.append(("accuracy", accuracy(predicted, truth)))

    vocab = corpus.vocabulary
    if vocab.n_annotation > 0:
        pairs = []
        for doc, ranked in annotation_predictions(corpus, params, meta, top_k):
            truth = {i for i in doc.counts if vocab.is_annotation(i)}
            pairs.append((set(int(i) for i in ranked.ids), truth))
        mean_f, skipped = mean_f_measure(pairs)
        metrics.append((f"f_measure_top{top_k}", mean_f))
        if skipped:
            metrics.append(("f_measure_docs_excluded", float(skipped)))
    return metrics


def class_report(
    params, meta: ModelMeta, class_index: int, top_topics: int, top_words: int
) -> dict:
    """The `docnade inspect` record of a supervised shallow model: the
    topics and the visual and annotation words most associated with a class."""
    if meta.kind != "supdocnade":
        raise ValueError("inspect requires a supervised shallow model")
    vocab = build_vocabulary(
        meta.n_visual, meta.n_regions, [f"anno{i}" for i in range(meta.n_annotation)]
    )
    topics, visual_ids, anno_ids = class_word_associations(
        params, vocab, class_index, top_topics, top_words
    )
    return {
        "class": class_index,
        "topics": [int(t) for t in topics],
        "visual_words": [int(i) for i in visual_ids],
        "annotation_words": [int(i) for i in anno_ids],
    }
