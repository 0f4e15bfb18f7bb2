"""Chunked inference against the per-document oracles.

Eval, annotate and retrieve run a chunk of documents at a time; the oracles
in oracles.py run one document at a time, the way inference worked before
it was chunked.  Metrics must agree within 1e-12 relative and rankings must
be identical, for every model kind, both class heads, with features and
dropout, and across chunk boundaries: a corpus whose size is not a multiple
of the chunk size, a last chunk of one document, empty documents and a chunk
whose documents are all empty.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import random_deep_params, random_shallow_params
from docnade import evaluate, shallow
from docnade.corpus import Corpus, build_vocabulary
from docnade.model_io import ModelMeta
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
        docs.append(oracles.Document(counts, labels, features))
    return oracles.corpus_of(vocab, tuple(docs), N_CLASSES, n_features)


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
    deep = kind in oracles.DEEP_KINDS
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
    assert len(got[0]) == len(expected[0])
    assert got[0].tolist() == expected[0].tolist()
    np.testing.assert_allclose(got[1], expected[1], rtol=RTOL, atol=0)


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
            got = evaluate.generate_text(corpus, params, meta, top_k)
            expected = oracles.generate_text(corpus, params, meta, top_k)
            assert len(got[0]) == len(corpus)
            _assert_rankings_equal(got, expected)

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
        for name in ("extract_representations", "generate_text", "perplexity"):
            monkeypatch.setattr(evaluate, name, getattr(oracles, name))
        expected = evaluate.evaluation_metrics(corpus, params, meta, top_k=2,
                                               orderings=orderings, eval_seed=5)
        assert [name for name, _ in got] == [name for name, _ in expected]
        np.testing.assert_allclose([v for _, v in got], [v for _, v in expected],
                                   rtol=RTOL, atol=0)

    @_models(oracles.DEEP_KINDS)
    def test_perplexity_estimate_draws_the_oracle_splits(self, instance):
        corpus, params, meta = instance
        got = evaluate.perplexity(corpus, params, meta, 3, named_stream(1, "eval"))
        expected = oracles.perplexity(corpus, params, meta, 3, named_stream(1, "eval"))
        assert got == pytest.approx(expected, rel=RTOL, abs=0)


def test_corpus_longer_than_two_chunks(rng):
    corpus = _corpus(rng, n_docs=2 * evaluate.CHUNK_DOCS + 5)
    for kind, head, n_features, dropout in (_MODELS[1], _MODELS[2]):
        params, meta = _model(rng, corpus, kind, head, n_features, dropout)
        got = evaluate.extract_representations(corpus, params, meta, "visual-only")
        expected = oracles.extract_representations(corpus, params, meta, "visual-only")
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)
        _assert_rankings_equal(
            evaluate.generate_text(corpus, params, meta, 3),
            oracles.generate_text(corpus, params, meta, 3),
        )


@pytest.mark.parametrize("name", ["represent", "predict_annotations"])
@_models(["supdocnade", "supdeepdocnade"])
def test_chunks_are_taken_as_they_are_used(instance, monkeypatch, name):
    # each chunk's rows are copied just before the family reads them, so
    # inference never holds a copy of the whole corpus
    corpus, params, meta = instance
    family, events = meta.family[0], []

    def record(event, function):
        def call(*args, **kwargs):
            events.append(event)
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(Corpus, "take", record("take", Corpus.take))
    monkeypatch.setattr(family, name, record(name, getattr(family, name)))
    if name == "represent":
        evaluate.extract_representations(corpus, params, meta)
    else:
        evaluate.generate_text(corpus, params, meta, 2)
    assert events == ["take", name] * 4


@_models()
def test_empty_corpus_representations_have_hidden_width(rng, model):
    corpus = _corpus(rng, n_docs=0, n_features=model[2])
    params, meta = _model(rng, corpus, *model)
    reps = evaluate.extract_representations(corpus, params, meta)
    assert reps.shape == (0, meta.hidden_sizes[-1])
    assert [a.shape for a in evaluate.generate_text(corpus, params, meta, 2)] == [(0, 2)] * 2
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
        reps = shallow.represent(corpus, params, tree, "visual-only")
        ids, probs = shallow.predict_annotations(corpus, params, tree, 3)
        assert reps.shape == (len(corpus), 5) and ids.shape == probs.shape == (len(corpus), 3)
        for i in range(len(corpus)):
            np.testing.assert_allclose(
                reps[i], shallow.represent(corpus.take([i]), params, tree, "visual-only")[0],
                rtol=RTOL, atol=0,
            )
            (one_ids,), (one_probs,) = shallow.predict_annotations(corpus.take([i]), params, tree,
                                                                   3)
            assert ids[i].tolist() == one_ids.tolist()
            np.testing.assert_allclose(probs[i], one_probs, rtol=RTOL, atol=0)

    def test_generate_text_single_document_is_the_one_row_case(self, rng):
        corpus = _corpus(rng, n_features=4)
        params, meta = _model(rng, corpus, "supdeepdocnade", "sigmoid", 4, 0.5)
        meta = replace(meta, anno_weight=1.0)  # omega all ones
        batch = evaluate.generate_text(corpus, params, meta, 3)
        singles = [evaluate.generate_text(corpus.take([i]), params, meta, 3)
                   for i in range(len(corpus))]
        _assert_rankings_equal(batch, [np.vstack(arrays) for arrays in zip(*singles)])


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


@_models()
def test_unknown_restriction_is_refused_by_both_families(instance):
    corpus, params, meta = instance
    with pytest.raises(ValueError, match="unknown restriction 'bogus'"):
        evaluate.extract_representations(corpus, params, meta, restrict="bogus")


@pytest.mark.parametrize("kind, n_features, corpus_sizes, message", [
    # P would be skipped, and the representations change silently
    ("supdeepdocnade", 4, (6, 3, 7), "feature length N_f: model has 4, corpus has 0"),
    # the annotation ids would land in the model's visual block
    ("supdocnade", 0, (6, 3, 3), "vocabulary size Q: model has 25, corpus has 21"),
    # ids past the model's W
    ("supdocnade", 0, (6, 3, 11), "vocabulary size Q: model has 25, corpus has 29"),
    ("supdocnade", 0, (5, 3, 10),
     "visual block n_visual x n_regions: model has 18, corpus has 15"),
], ids=["features-dropped", "smaller-q", "larger-q", "same-q-other-visual-block"])
def test_inference_entries_refuse_a_corpus_of_other_sizes(rng, kind, n_features, corpus_sizes,
                                                          message):
    params, meta = _model(rng, _corpus(rng, n_features=n_features), kind, "softmax",
                          n_features, 0.0)
    n_visual, n_regions, n_annotation = corpus_sizes
    vocab = build_vocabulary(n_visual, n_regions, [f"a{i}" for i in range(n_annotation)])
    corpus = oracles.corpus_of(vocab, [
        oracles.Document({int(k): 1 for k in rng.choice(vocab.size, 3, replace=False)},
                         frozenset({i % N_CLASSES}))
        for i in range(6)], N_CLASSES, 0)
    entries = [
        lambda: evaluate.evaluation_metrics(corpus, params, meta, top_k=2),
        lambda: evaluate.extract_representations(corpus, params, meta),
        lambda: evaluate.generate_text(corpus, params, meta, 2),
        lambda: evaluate.perplexity(corpus, params, meta, 1, named_stream(0, "eval")),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match=f"model/corpus mismatch on {message}$"):
            entry()
