"""Synthetic multimodal corpus generator with a known Bayes-optimal rate.

Each class owns a disjoint block of visual ids that receives `signal` of the
per-token probability mass (the rest is uniform background), and emits a
fixed set of class-specific annotation words.  Because the generator is
known, the Bayes classification accuracy on any generated sample can be
computed exactly from the per-class multinomials.
"""

import numpy as np

from docnade.corpus import Corpus, MultimodalDocument, build_vocabulary
from oracles import annotation_id


def make_generator_probs(n_classes, visual_size, signal):
    """Per-class token distributions over the visual block."""
    block = visual_size // n_classes
    probs = np.full((n_classes, visual_size), (1.0 - signal) / visual_size)
    for k in range(n_classes):
        probs[k, k * block : (k + 1) * block] += signal / block
    return probs


def make_corpus(
    seed,
    n_classes=8,
    n_visual=20,
    n_regions=8,
    anno_per_class=5,
    docs_per_class=100,
    doc_len=40,
    signal=0.5,
    n_features=0,
    with_annotations=True,
    labeled=True,
):
    """Generate one corpus draw; returns (corpus, class_probs)."""
    rng = np.random.default_rng(seed)
    words = [f"c{k}w{j}" for k in range(n_classes) for j in range(anno_per_class)]
    vocab = build_vocabulary(n_visual, n_regions, words if with_annotations else ())
    visual_size = vocab.visual_size
    probs = make_generator_probs(n_classes, visual_size, signal)

    docs = []
    for k in range(n_classes):
        for _ in range(docs_per_class):
            counts_vec = rng.multinomial(doc_len, probs[k])
            counts = {int(i): int(c) for i, c in enumerate(counts_vec) if c}
            if with_annotations:
                for j in range(anno_per_class):
                    counts[annotation_id(vocab, k * anno_per_class + j)] = 1
            features = rng.normal(size=n_features) if n_features else None
            docs.append(
                MultimodalDocument(
                    counts,
                    frozenset([k]) if labeled else frozenset(),
                    features,
                )
            )
    order = np.random.default_rng(seed + 991).permutation(len(docs))
    docs = tuple(docs[i] for i in order)
    return Corpus.from_documents(vocab, docs, n_classes, n_features), probs


def bayes_predictions(corpus, class_probs):
    """Maximum-likelihood class under the true generator (uniform prior),
    from visual words only."""
    vocab = corpus.vocabulary
    log_probs = np.log(class_probs)
    preds = []
    for doc in corpus.documents:
        score = np.zeros(class_probs.shape[0])
        for token_id, count in doc.counts.items():
            if token_id < vocab.visual_size:
                score += count * log_probs[:, token_id]
        preds.append(int(score.argmax()))
    return np.array(preds)


def bayes_accuracy(corpus, class_probs):
    preds = bayes_predictions(corpus, class_probs)
    truth = np.array([next(iter(doc.labels)) for doc in corpus.documents])
    return float(np.mean(preds == truth))
