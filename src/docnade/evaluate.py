"""Metrics, retrieval, annotation and inspection.

Pure functions over frozen parameters: classification accuracy, top-K
annotation F-measure, average precision / MAP, held-out perplexity, cosine
retrieval, text generation from the visual modality, and per-class
topic/word association inspection.  `evaluation_metrics` assembles the
metric report for a model's kind.

Every inference entry takes (corpus, params, meta), looks the kind up once
in `model_io.FAMILIES`, builds the family's context (the word tree, or
omega and the dropout rate) and has its family module (`shallow` or
`deep`) score the rows of a chunk of `CHUNK_DOCS` documents at a time:
representations, annotation scores and perplexity losses, with a few matrix
products per chunk for the deep models.  Besides the (n_docs, H) or
(n_docs, K) result, working memory is bounded by the chunk and not by the
corpus.  `docnade inspect` reports the family's class-word associations.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, build_vocabulary
from .model_io import ModelMeta
from .numerics import one_blas_thread, sigmoid, softmax_rows, top_order
from .rng import named_stream

logger = logging.getLogger(__name__)


# Documents per inference chunk.  At Q = 3,000 and H = 100 a chunk's
# activations and annotation scores take a few MB.
CHUNK_DOCS = 64


def _chunks(corpus: Corpus, size: int) -> Iterator[Corpus]:
    """Consecutive runs of at most `size` rows of the corpus, each copied
    only when the one before it has been used."""
    for start in range(0, len(corpus), size):
        yield corpus.take(slice(start, start + size))


@one_blas_thread()
def extract_representations(
    corpus: Corpus, params, meta: ModelMeta, restrict: str = "all-words"
) -> np.ndarray:
    """Document-representation matrix (n_docs, H) for downstream classifiers,
    from the model family's `represent`; `restrict` selects the visual-only
    protocol for shallow class prediction (deep models read every word).
    """
    family = meta.family[0]
    context = family.context(meta, corpus.vocabulary)
    parts = [family.represent(rows, params, context, restrict)
             for rows in _chunks(corpus, CHUNK_DOCS)]
    return np.vstack([np.empty((0, meta.hidden_sizes[-1]))] + parts)


@dataclass
class RankedPrediction:
    """Ids ordered by non-increasing score; ties break toward the smaller id."""

    ids: np.ndarray
    scores: np.ndarray


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


def _ranking(scores, relevant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(relevance, hits so far, precision) at each rank, in non-increasing
    score order with ties toward the smaller index; ValueError if no item
    is relevant."""
    scores = np.asarray(scores, dtype=float)
    relevant = np.asarray(relevant, dtype=bool)
    if not relevant.any():
        raise ValueError("no relevant items")
    hits = relevant[top_order(np.arange(len(scores)), scores)]
    cum_hits = np.cumsum(hits)
    return hits, cum_hits, cum_hits / np.arange(1, len(scores) + 1)


def average_precision(scores, relevant) -> float:
    """Mean of precision-at-rank over the relevant items, in score order.

    Plain discrete estimator of the area under the precision-recall curve;
    no interpolation.  Score ties break toward the smaller index.
    """
    hits, _, precision = _ranking(scores, relevant)
    return float(precision[hits].mean())


def pr_curve(scores, relevant) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) points at every rank, in descending-score order."""
    hits, cum_hits, precision = _ranking(scores, relevant)
    return cum_hits / hits.sum(), precision


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


@one_blas_thread()
def perplexity(
    corpus: Corpus, params, meta: ModelMeta, samples: int, rng: np.random.Generator
) -> float:
    """Per-token perplexity exp(sum of per-document losses / total token
    count), each loss the family's `perplexity_losses` averaged over
    `samples` draws: the exact log-likelihoods of sampled token orderings
    (shallow models) or the losses of sampled splits (deep models), the
    documents scored a chunk at a time in corpus order."""
    family = meta.family[0]
    context = family.context(meta, corpus.vocabulary)
    total_loss, total_tokens = 0.0, 0
    for chunk in _chunks(corpus, max(1, CHUNK_DOCS // samples)):
        totals = np.diff(np.cumsum(np.append(0, chunk.counts))[chunk.indptr])
        if not totals.any():
            continue
        for loss in family.perplexity_losses(chunk.take(np.flatnonzero(totals)), params,
                                             context, samples, rng):
            total_loss += loss
        total_tokens += int(totals.sum())
    if total_tokens == 0:
        raise ValueError("corpus has no tokens")
    return float(np.exp(total_loss / total_tokens))


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
    order = top_order(np.arange(len(collection)), sims, top_k)
    return RankedPrediction(order, sims[order])


@one_blas_thread()
def generate_text(
    corpus: Corpus, params, meta: ModelMeta, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The annotation words of each document ranked by next-word probability
    given its visual words, from the family's `predict_annotations`: (ids,
    probabilities), both (n_docs, K) with K = min(top_k, annotation words),
    each row in non-increasing probability with ties toward the smaller id.
    """
    vocab = corpus.vocabulary
    if vocab.n_annotation == 0:
        raise ValueError("vocabulary has no annotation words")
    top_k = min(top_k, vocab.n_annotation)
    family = meta.family[0]
    context = family.context(meta, vocab)
    parts = [family.predict_annotations(rows, params, context, top_k)
             for rows in _chunks(corpus, CHUNK_DOCS)]
    empty = (np.empty((0, top_k), dtype=np.int64), np.empty((0, top_k)))
    ids, scores = (np.vstack(arrays) for arrays in zip(empty, *parts))
    return ids, scores


# ---------------------------------------------------------------------------
# Reports of the inference commands
# ---------------------------------------------------------------------------


# Report metrics a model selection minimizes; every other metric is maximized.
LOWER_IS_BETTER = ("perplexity", "perplexity_estimate")


@one_blas_thread()
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
    over `orderings` samples per document; they have no class scores, so
    `curves_dir` is an error.  Supervised models: accuracy, or MAP for a
    sigmoid head, then top-K annotation F-measure; `curves_dir` receives
    each class's one-vs-rest PR curve of the documents the first metric
    scores.  The first entry is what a grid search selects on.
    """
    if not len(corpus):
        raise ValueError("corpus has no documents to evaluate")
    family, supervised = meta.family
    if not supervised:
        if curves_dir is not None:
            raise ValueError("--curves needs a supervised model: an unsupervised model "
                             "has no class scores")
        rng = named_stream(eval_seed, "eval")
        return [(family.PERPLEXITY, perplexity(corpus, params, meta, orderings, rng))]

    metrics: list[tuple[str, float]] = []
    # class confidences from the model's own head: a shallow model reads the
    # visual words only (annotations are withheld at test time), a deep one
    # the full document
    reps = extract_representations(corpus, params, meta, restrict="visual-only")
    logits = reps @ params.U.T + params.d
    if meta.head == "sigmoid":
        scores = sigmoid(logits)
        relevance = np.zeros(scores.shape, dtype=bool)
        rows = np.repeat(np.arange(len(corpus)), np.diff(corpus.label_ptr))
        relevance[rows, corpus.labels] = True
        mean_ap, skipped = mean_average_precision(scores, relevance)
        metrics.append(("map", mean_ap))
        if skipped:
            metrics.append(("map_classes_excluded", float(skipped)))
    else:
        labeled = np.flatnonzero(np.diff(corpus.label_ptr))
        if not len(labeled):
            raise ValueError("no document has a label to score accuracy on")
        scores = softmax_rows(logits)[labeled]
        truth = corpus.labels[corpus.label_ptr[labeled]]  # a document's smallest label
        metrics.append(("accuracy", accuracy(scores.argmax(axis=1), truth)))
        relevance = np.zeros(scores.shape, dtype=bool)
        relevance[np.arange(len(truth)), truth] = True
    if curves_dir is not None:
        write_pr_curves(curves_dir, scores, relevance)

    vocab = corpus.vocabulary
    if vocab.n_annotation > 0:
        pairs = []
        for i, predicted in enumerate(generate_text(corpus, params, meta, top_k)[0].tolist()):
            ids = corpus.row(i)[0]
            pairs.append((set(predicted), set(ids[ids >= vocab.visual_size].tolist())))
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
    family, supervised = meta.family
    if not supervised:
        raise ValueError("inspect requires a supervised shallow model")
    vocab = build_vocabulary(
        meta.n_visual, meta.n_regions, [f"anno{i}" for i in range(meta.n_annotation)]
    )
    topics, visual_ids, anno_ids = family.class_word_associations(
        params, vocab, class_index, top_topics, top_words
    )
    return {
        "class": class_index,
        "topics": [int(t) for t in topics],
        "visual_words": [int(i) for i in visual_ids],
        "annotation_words": [int(i) for i in anno_ids],
    }
