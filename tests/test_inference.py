"""Chunked inference against the per-document oracles.

Eval, annotate and retrieve run a chunk of documents at a time; the oracles
in oracles.py run one document at a time, the way inference worked before
it was chunked.  Metrics must agree within 1e-12 relative and rankings must
be identical, for every model kind, both class heads, with features and
dropout, and across chunk boundaries: a corpus whose size is not a multiple
of the chunk size, a last chunk of one document, empty documents and a chunk
whose documents are all empty.
"""

import numpy as np
import pytest

import oracles
from conftest import random_deep_params, random_shallow_params
from docnade import deep as deep_mod
from docnade import evaluate, shallow
from docnade.corpus import Corpus, MultimodalDocument, build_vocabulary
from docnade.model_io import DEEP_KINDS, ModelMeta
from docnade.numerics import top_order
from docnade.rng import named_stream
from docnade.wordtree import build_tree, words_log_prob

RTOL = 1e-12
CHUNK = 3  # with 10 documents: chunks of 3, 3, 3 and 1
EMPTY = (3, 4, 5, 8)  # the second chunk holds only empty documents
N_CLASSES = 3


def _corpus(rng, n_docs=10, n_features=0):
    vocab = build_vocabulary(6, 3, [f"a{i}" for i in range(7)])
    docs = []
    for i in range(n_docs):
        if i in EMPTY:
            counts = {}
        elif i == 9:  # annotation words only: empty under the visual-only protocol
            counts = {oracles.annotation_id(vocab, 2): 1, oracles.annotation_id(vocab, 5): 3}
        elif i == 6:  # one token
            counts = {4: 1}
        else:
            ids = rng.choice(vocab.size, int(rng.integers(2, 8)), replace=False)
            counts = {int(k): int(rng.integers(1, 4)) for k in ids}
        labels = frozenset({i % N_CLASSES} | ({2} if i % 4 == 1 else set()))
        features = rng.normal(size=n_features) if n_features else None
        docs.append(MultimodalDocument(counts, labels, features))
    return Corpus.from_documents(vocab, tuple(docs), N_CLASSES, n_features)


_MODELS = [
    # kind, head, n_features, dropout
    ("docnade", "softmax", 0, 0.0),
    ("supdocnade", "softmax", 0, 0.0),
    ("deepdocnade", "softmax", 0, 0.5),
    ("supdeepdocnade", "softmax", 4, 0.0),
    ("supdeepdocnade", "sigmoid", 4, 0.5),
]


def _models(kinds=None):
    """A parametrize mark over the models of `kinds` (all by default)."""
    chosen = [m for m in _MODELS if kinds is None or m[0] in kinds]
    ids = [f"{kind}-{head}-f{nf}-p{p}" for kind, head, nf, p in chosen]
    return pytest.mark.parametrize("model", chosen, ids=ids)


def _model(rng, corpus, kind, head, n_features, dropout):
    vocab = corpus.vocabulary
    deep = kind in DEEP_KINDS
    hidden = (6, 5) if deep else (5,)
    meta = ModelMeta(
        kind=kind, head=head, n_visual=vocab.n_visual, n_regions=vocab.n_regions,
        n_annotation=vocab.n_annotation, n_classes=N_CLASSES, n_features=n_features,
        hidden_sizes=hidden, tree_seed=None if deep else 4, anno_weight=3.0,
        dropout_rate=dropout,
    )
    if deep:
        params = random_deep_params(rng, vocab.size, hidden, N_CLASSES, n_features)
    else:
        params = random_shallow_params(rng, vocab.size, hidden[0], N_CLASSES)
    return params, meta


@pytest.fixture
def instance(model, rng, monkeypatch):
    monkeypatch.setattr(evaluate, "CHUNK_DOCS", CHUNK)
    corpus = _corpus(rng, n_features=model[2])
    params, meta = _model(rng, corpus, *model)
    return corpus, params, meta


def _assert_rankings_equal(got, expected):
    assert len(got) == len(expected)
    for ranked, reference in zip(got, expected):
        assert ranked.ids.tolist() == reference.ids.tolist()
        np.testing.assert_allclose(ranked.scores, reference.scores, rtol=RTOL, atol=0)


class TestAgainstPerDocumentOracles:
    @_models()
    @pytest.mark.parametrize("restrict", ["all-words", "visual-only"])
    def test_representations(self, instance, restrict):
        corpus, params, meta = instance
        got = evaluate.extract_representations(corpus, params, meta, restrict)
        expected = oracles.extract_representations(corpus, params, meta, restrict)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)

    @_models()
    def test_annotation_rankings(self, instance):
        corpus, params, meta = instance
        n_anno = corpus.vocabulary.n_annotation
        for top_k in (1, 4, n_anno):
            got = list(evaluate.annotation_predictions(corpus, params, meta, top_k))
            expected = list(oracles.annotation_predictions(corpus, params, meta, top_k))
            assert [i for i, _ in got] == list(range(len(corpus)))
            _assert_rankings_equal([r for _, r in got], [r for _, r in expected])

    @_models()
    def test_retrieval_rankings(self, instance):
        # Documents whose representations are collinear (a ReLU layer of 5 units
        # often leaves two documents on one ray) tie exactly in cosine
        # similarity; the last bit then decides their order, so only such
        # exact ties of the oracle may come out permuted.
        corpus, params, meta = instance
        reps = evaluate.extract_representations(corpus, params, meta)
        oracle_reps = oracles.extract_representations(corpus, params, meta)
        for query in range(len(corpus)):
            got = evaluate.cosine_retrieve(reps[query], reps, len(corpus))
            expected = evaluate.cosine_retrieve(oracle_reps[query], oracle_reps, len(corpus))
            np.testing.assert_allclose(got.scores, expected.scores, rtol=RTOL, atol=1e-15)
            for score in np.unique(expected.scores):
                tied = expected.scores == score
                assert set(got.ids[tied].tolist()) == set(expected.ids[tied].tolist())

    # docnade's report is the shallow perplexity, which runs one ordering at a
    # time in both paths
    @_models(("supdocnade", "deepdocnade", "supdeepdocnade"))
    @pytest.mark.parametrize("orderings", [1, 2, 4])
    def test_evaluation_metrics(self, instance, monkeypatch, orderings):
        corpus, params, meta = instance
        got = evaluate.evaluation_metrics(corpus, params, meta, top_k=2, orderings=orderings,
                                          eval_seed=5)
        for name in ("extract_representations", "annotation_predictions",
                     "perplexity_estimate"):
            monkeypatch.setattr(evaluate, name, getattr(oracles, name))
        expected = evaluate.evaluation_metrics(corpus, params, meta, top_k=2,
                                               orderings=orderings, eval_seed=5)
        assert [name for name, _ in got] == [name for name, _ in expected]
        np.testing.assert_allclose([v for _, v in got], [v for _, v in expected],
                                   rtol=RTOL, atol=0)

    @_models(DEEP_KINDS)
    def test_perplexity_estimate_draws_the_oracle_splits(self, instance):
        corpus, params, meta = instance
        got = evaluate.perplexity_estimate(corpus, params, meta, 3, named_stream(1, "eval"))
        expected = oracles.perplexity_estimate(corpus, params, meta, 3, named_stream(1, "eval"))
        assert got == pytest.approx(expected, rel=RTOL, abs=0)


def test_corpus_longer_than_two_chunks(rng):
    corpus = _corpus(rng, n_docs=2 * evaluate.CHUNK_DOCS + 5)
    for kind, head, n_features, dropout in (_MODELS[1], _MODELS[2]):
        params, meta = _model(rng, corpus, kind, head, n_features, dropout)
        got = evaluate.extract_representations(corpus, params, meta, "visual-only")
        expected = oracles.extract_representations(corpus, params, meta, "visual-only")
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)
        _assert_rankings_equal(
            [r for _, r in evaluate.annotation_predictions(corpus, params, meta, 3)],
            [r for _, r in oracles.annotation_predictions(corpus, params, meta, 3)],
        )


@_models()
def test_empty_corpus_representations_have_hidden_width(rng, model):
    corpus = _corpus(rng, n_docs=0, n_features=model[2])
    params, meta = _model(rng, corpus, *model)
    reps = evaluate.extract_representations(corpus, params, meta)
    assert reps.shape == (0, meta.hidden_sizes[-1])
    assert list(evaluate.annotation_predictions(corpus, params, meta, 2)) == []
    with pytest.raises(ValueError, match="corpus has no documents"):
        evaluate.evaluation_metrics(corpus, params, meta)


class TestOneRowCases:
    def test_words_log_prob_rows_match_single_states(self, rng):
        tree = build_tree(23, 2)
        V, b = rng.normal(size=(22, 4)), rng.normal(size=22)
        states, words = rng.normal(size=(5, 4)), np.arange(9, 23)
        batch = words_log_prob(tree, states, words, V, b)
        assert batch.shape == (5, len(words))
        for row, h in zip(batch, states):
            np.testing.assert_allclose(row, words_log_prob(tree, h, words, V, b),
                                       rtol=RTOL, atol=0)
            np.testing.assert_allclose(row, oracles.words_log_prob(tree, h, words, V, b),
                                       rtol=RTOL, atol=0)

    def test_represent_and_annotate_a_sequence(self, rng):
        corpus = _corpus(rng)
        vocab = corpus.vocabulary
        params = random_shallow_params(rng, vocab.size, 5, N_CLASSES)
        tree = build_tree(vocab.size, 4)
        reps = shallow.represent(corpus, params, vocab, "visual-only")
        ids, probs = shallow.predict_annotations(corpus, params, tree, vocab, 3)
        assert reps.shape == (len(corpus), 5) and ids.shape == probs.shape == (len(corpus), 3)
        for i in range(len(corpus)):
            np.testing.assert_allclose(
                reps[i], shallow.represent(corpus.take([i]), params, vocab, "visual-only")[0],
                rtol=RTOL, atol=0,
            )
            (one_ids,), (one_probs,) = shallow.predict_annotations(corpus.take([i]), params, tree,
                                                                   vocab, 3)
            assert ids[i].tolist() == one_ids.tolist()
            np.testing.assert_allclose(probs[i], one_probs, rtol=RTOL, atol=0)

    def test_generate_text_single_document_is_the_one_row_case(self, rng):
        corpus = _corpus(rng, n_features=4)
        params, meta = _model(rng, corpus, "supdeepdocnade", "sigmoid", 4, 0.5)
        omega = np.ones(corpus.vocabulary.size)
        batch = evaluate.generate_text(corpus, params, corpus.vocabulary, 3,
                                       family=deep_mod, context=omega, dropout_rate=0.5)
        singles = [evaluate.generate_text(corpus.take([i]), params, corpus.vocabulary, 3,
                                          family=deep_mod, context=omega, dropout_rate=0.5)[0]
                   for i in range(len(corpus))]
        _assert_rankings_equal(batch, singles)


def test_top_order_matches_a_full_lexsort(rng):
    # the partial sort must reproduce the full sort's prefix, ties (toward the
    # smaller id, ids in any order), NaN and infinite scores included
    for trial in range(300):
        n, width = int(rng.integers(1, 5)), int(rng.integers(1, 20))
        if trial % 2:
            scores = rng.integers(0, 3, (n, width)).astype(float)
        else:
            scores = rng.normal(size=(n, width))
        scores[rng.random((n, width)) < 0.1 * (trial % 3)] = np.nan
        scores[rng.random((n, width)) < 0.1 * (trial % 4 == 0)] = np.inf
        ids = rng.permutation(50)[:width]
        full = np.lexsort((np.broadcast_to(ids, scores.shape), -scores))
        for top_k in [None] + list(range(width + 2)):
            assert np.array_equal(top_order(ids, scores, top_k), full[:, :top_k])
            assert np.array_equal(top_order(ids, scores[0], top_k), full[0, :top_k])
