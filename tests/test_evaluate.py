import numpy as np
import pytest
import scipy.optimize

from conftest import (
    random_deep_params,
    random_shallow_params,
    zero_deep_params,
    zero_shallow_params,
)
from docnade import deep, evaluate, shallow
from docnade.corpus import build_vocabulary
from docnade.model_io import ModelMeta
from docnade.wordtree import build_tree
from oracles import (
    Document,
    classifier_scores,
    classify,
    corpus_of,
    dense_counts,
    fit_linear_classifier,
    token_array,
    visual_only,
)


class TestFMeasure:
    def test_perfect_prediction(self):
        for size in (1, 3, 10):
            items = set(range(size))
            assert evaluate.f_measure(items, items) == 1.0

    def test_disjoint_is_zero(self):
        assert evaluate.f_measure({1, 2}, {3, 4}) == 0.0

    def test_worked_example(self):
        # |P|=5, |G|=3, overlap 2: precision 0.4, recall 2/3, F = 0.5
        predicted = {0, 1, 2, 3, 4}
        truth = {0, 1, 10}
        assert evaluate.f_measure(predicted, truth) == pytest.approx(0.5)

    def test_symmetric_for_equal_sizes(self, rng):
        for _ in range(20):
            p = set(rng.choice(20, 5, replace=False).tolist())
            g = set(rng.choice(20, 5, replace=False).tolist())
            assert evaluate.f_measure(p, g) == pytest.approx(evaluate.f_measure(g, p))

    def test_empty_truth_raises(self):
        with pytest.raises(ValueError):
            evaluate.f_measure({1}, set())

    def test_mean_excludes_empty_truths(self):
        pairs = [({1}, {1}), ({1}, set()), ({2}, {3})]
        mean, skipped = evaluate.mean_f_measure(pairs)
        assert skipped == 1
        assert mean == pytest.approx(0.5)


class TestAveragePrecision:
    def test_all_relevant_first(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        relevant = [1, 1, 0, 0]
        assert evaluate.average_precision(scores, relevant) == 1.0

    def test_relevant_ranked_second(self):
        assert evaluate.average_precision([0.9, 0.1], [0, 1]) == 0.5

    def test_matches_pr_point_list(self, rng):
        # independent recomputation: walk the explicit PR point list and sum
        # precision * recall increments
        for _ in range(50):
            scores = rng.random(20)
            relevant = rng.random(20) < 0.4
            if not relevant.any():
                continue
            got = evaluate.average_precision(scores, relevant)
            order = np.lexsort((np.arange(20), -scores))
            rel_sorted = relevant[order]
            n_rel = rel_sorted.sum()
            expected, hits, prev_recall = 0.0, 0, 0.0
            for rank, is_rel in enumerate(rel_sorted, start=1):
                hits += is_rel
                recall = hits / n_rel
                expected += (recall - prev_recall) * (hits / rank)
                prev_recall = recall
            assert got == pytest.approx(expected, abs=1e-10)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.random(15)
        relevant = rng.random(15) < 0.5
        relevant[0] = True
        base = evaluate.average_precision(scores, relevant)
        assert evaluate.average_precision(np.exp(scores), relevant) == pytest.approx(base)
        assert evaluate.average_precision(3 * scores + 7, relevant) == pytest.approx(base)

    def test_no_relevant_raises(self):
        with pytest.raises(ValueError):
            evaluate.average_precision([0.1, 0.2], [0, 0])

    def test_mean_ap_excludes_empty_classes(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.6]])
        relevance = np.array([[True, False], [False, False]])
        mean_ap, skipped = evaluate.mean_average_precision(scores, relevance)
        assert skipped == 1
        assert mean_ap == 1.0

    def test_report_counts_the_classes_map_excludes(self, rng):
        vocab = build_vocabulary(2, 2, ["a"])
        meta = ModelMeta(kind="supdeepdocnade", head="sigmoid", n_visual=2, n_regions=2,
                         n_annotation=1, n_classes=3, n_features=0, hidden_sizes=(3,))
        params = random_deep_params(rng, vocab.size, (3,), 3)
        docs = [Document({0: 1, 4: 1}, frozenset({0})), Document({1: 2}, frozenset({1}))]
        metrics = dict(evaluate.evaluation_metrics(corpus_of(vocab, docs, n_classes=3), params,
                                                   meta, top_k=1))
        assert metrics["map_classes_excluded"] == 1.0  # class 2 has no document

    def test_pr_curve_consistent_with_ap(self, rng):
        scores = rng.random(30)
        relevant = rng.random(30) < 0.3
        relevant[5] = True
        recall, precision = evaluate.pr_curve(scores, relevant)
        assert recall[-1] == 1.0
        assert np.all(np.diff(recall) >= 0)
        area = np.sum(np.diff(np.r_[0.0, recall]) * precision)
        assert area == pytest.approx(evaluate.average_precision(scores, relevant))

    def test_write_pr_curves(self, tmp_path, rng):
        scores = rng.random((10, 3))
        relevance = np.zeros((10, 3), dtype=bool)
        relevance[:4, 0] = True
        relevance[2:5, 2] = True  # class 1 has no relevant items
        paths = evaluate.write_pr_curves(tmp_path, scores, relevance)
        assert [p.endswith(("000.txt", "002.txt")) for p in paths] == [True, True]
        rows = [line.split() for line in open(paths[0])]
        assert len(rows) == 10 and all(len(r) == 2 for r in rows)
        recall, precision = evaluate.pr_curve(scores[:, 0], relevance[:, 0])
        assert float(rows[0][0]) == pytest.approx(recall[0])
        assert float(rows[0][1]) == pytest.approx(precision[0])


class TestAccuracy:
    def test_cases(self):
        assert evaluate.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert evaluate.accuracy([1, 2], [3, 4]) == 0.0
        assert evaluate.accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate.accuracy([1], [1, 2])


def _corpus_of(vocab, count_dicts, n_classes=2):
    docs = tuple(Document(c) for c in count_dicts)
    return corpus_of(vocab, docs, n_classes)


DEEP = "deepdocnade"


def _meta(vocab, hidden, kind="docnade", tree_seed=0):
    """The meta of a model of `kind` on `vocab` with these hidden sizes, the
    tree seed of a shallow kind."""
    return ModelMeta(kind=kind, head="softmax", n_visual=vocab.n_visual,
                     n_regions=vocab.n_regions, n_annotation=vocab.n_annotation, n_classes=2,
                     n_features=0, hidden_sizes=tuple(np.atleast_1d(hidden).tolist()),
                     tree_seed=None if kind == DEEP else tree_seed)


class TestPerplexity:
    def test_zero_params_equals_vocab_size(self, rng):
        vocab = build_vocabulary(3, 2, ["a", "b"])
        params = zero_shallow_params(vocab.size, 4, 2)
        corpus = _corpus_of(vocab, [{0: 2, 5: 1}, {7: 4}, {1: 1}])
        got = evaluate.perplexity(corpus, params, _meta(vocab, 4), 2, rng)
        assert got == pytest.approx(vocab.size, abs=1e-9)

    def test_single_token_uniform_binary(self, rng):
        vocab = build_vocabulary(1, 2)  # Q = 2
        params = zero_shallow_params(2, 3, 2)
        corpus = _corpus_of(vocab, [{0: 1}])
        assert evaluate.perplexity(corpus, params, _meta(vocab, 3), 1, rng) == pytest.approx(2.0)

    def test_matches_aggregation_oracle(self, rng):
        # single-word documents make every ordering identical, so the
        # aggregate can be recomputed directly from doc_log_likelihood
        vocab = build_vocabulary(2, 2)
        params = random_shallow_params(rng, vocab.size, 3, 2)
        tree = build_tree(vocab.size, 1)
        counts = [{0: 3}, {2: 1}, {3: 5}]
        corpus = _corpus_of(vocab, counts)
        got = evaluate.perplexity(corpus, params, _meta(vocab, 3, tree_seed=1), 3, rng)
        total_ll = sum(
            shallow.doc_log_likelihood(token_array(Document(c)), params, tree)
            for c in counts
        )
        total_tokens = sum(sum(c.values()) for c in counts)
        assert got == pytest.approx(np.exp(-total_ll / total_tokens), abs=1e-10)

    def test_empty_docs_skipped(self, rng):
        vocab = build_vocabulary(2, 2)
        params = zero_shallow_params(vocab.size, 3, 2)
        corpus = _corpus_of(vocab, [{}, {0: 1}])
        assert evaluate.perplexity(corpus, params, _meta(vocab, 3), 1, rng) == pytest.approx(4.0)


class TestLinearClassifier:
    def test_separable_blobs(self, rng):
        X = np.vstack([rng.normal(-3, 0.3, (30, 4)), rng.normal(3, 0.3, (30, 4))])
        y = np.array([0] * 30 + [1] * 30)
        clf = fit_linear_classifier(X, y)
        assert evaluate.accuracy(classify(clf, X), y) == 1.0

    def test_zero_representations_predict_prior(self):
        X = np.zeros((12, 3))
        y = np.array([0] * 9 + [1] * 3)
        clf = fit_linear_classifier(X, y, max_iter=8000)
        probs = classifier_scores(clf, X)
        assert np.allclose(probs[0], [0.75, 0.25], atol=1e-3)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_linear_classifier(np.zeros((5, 2)), [1, 1, 1, 1, 1])

    def test_agreement_with_reference_fit(self, rng):
        # independently coded reference: scipy minimizes the same regularized
        # cross-entropy; predictions must agree on all but at most 1 of 100
        n, dim, n_classes, l2 = 100, 3, 3, 1e-3
        centers = rng.normal(0, 2.0, (n_classes, dim))
        y = rng.integers(0, n_classes, n)
        X = centers[y] + rng.normal(0, 1.2, (n, dim))
        clf = fit_linear_classifier(X, y, l2=l2, max_iter=20000, tol=1e-10)

        target = np.zeros((n, n_classes))
        target[np.arange(n), y] = 1.0

        def objective(theta):
            W = theta[: n_classes * dim].reshape(n_classes, dim)
            b = theta[n_classes * dim :]
            z = X @ W.T + b
            z = z - z.max(axis=1, keepdims=True)
            log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -np.mean((target * log_probs).sum(axis=1)) + 0.5 * l2 * (W ** 2).sum()

        result = scipy.optimize.minimize(
            objective, np.zeros(n_classes * dim + n_classes), method="L-BFGS-B"
        )
        W_ref = result.x[: n_classes * dim].reshape(n_classes, dim)
        b_ref = result.x[n_classes * dim :]
        ref_preds = (X @ W_ref.T + b_ref).argmax(axis=1)
        ours = classify(clf, X)
        assert np.sum(ours != ref_preds) <= 1

    def test_sigmoid_kind_multilabel(self, rng):
        X = np.vstack([rng.normal(-2, 0.4, (20, 3)), rng.normal(2, 0.4, (20, 3))])
        labels = [{0}] * 20 + [{1}] * 20
        clf = fit_linear_classifier(X, labels, kind="sigmoid", n_classes=2)
        scores = classifier_scores(clf, X)
        assert (scores[:20, 0] > 0.5).all()
        assert (scores[20:, 1] > 0.5).all()


class TestCosineRetrieve:
    def test_query_in_collection_is_first(self, rng):
        collection = rng.normal(size=(10, 4))
        ranked = evaluate.cosine_retrieve(collection[3], collection, 5)
        assert ranked.ids[0] == 3
        assert ranked.scores[0] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        collection = np.array([[1.0, 0.0], [0.0, 1.0]])
        ranked = evaluate.cosine_retrieve(np.array([1.0, 0.0]), collection, 2)
        assert ranked.scores.tolist() == pytest.approx([1.0, 0.0])

    def test_matches_brute_force(self, rng):
        collection = rng.normal(size=(20, 5))
        query = rng.normal(size=5)
        ranked = evaluate.cosine_retrieve(query, collection, 20)
        sims = [
            (float(v @ query / (np.linalg.norm(v) * np.linalg.norm(query))), i)
            for i, v in enumerate(collection)
        ]
        brute = [i for s, i in sorted(sims, key=lambda t: (-t[0], t[1]))]
        assert ranked.ids.tolist() == brute

    def test_scale_invariance(self, rng):
        collection = rng.normal(size=(12, 4))
        query = rng.normal(size=4)
        base = evaluate.cosine_retrieve(query, collection, 12).ids.tolist()
        scaled = collection.copy()
        scaled[4] *= 100.0
        scaled[7] *= 0.01
        assert evaluate.cosine_retrieve(query, scaled, 12).ids.tolist() == base

    def test_zero_vector_rule(self, rng):
        collection = np.vstack([np.zeros(3), rng.normal(size=(3, 3))])
        ranked = evaluate.cosine_retrieve(np.zeros(3), collection, 4)
        assert np.array_equal(ranked.scores, np.zeros(4))

    def test_k_larger_than_collection_returns_full(self, rng):
        collection = rng.normal(size=(4, 3))
        ranked = evaluate.cosine_retrieve(collection[0], collection, 10)
        assert len(ranked.ids) == 4


class TestGenerateText:
    def _vocab(self):
        return build_vocabulary(2, 2, ["a", "b", "c"])

    def test_single_annotation_always_returned(self, rng):
        vocab = build_vocabulary(2, 2, ["only"])
        params = random_deep_params(rng, vocab.size, (3,), 2)
        doc = Document({0: 1})
        (ids,), _ = evaluate.generate_text(corpus_of(vocab, [doc]), params, _meta(vocab, 3, DEEP),
                                           1)
        assert ids.tolist() == [4]

    def test_zero_params_smallest_ids(self):
        vocab = self._vocab()
        params = zero_deep_params(vocab.size, (3,), 2)
        (ids,), (scores,) = evaluate.generate_text(corpus_of(vocab, [Document({0: 2})]), params,
                                                   _meta(vocab, 3, DEEP), 2)
        assert ids.tolist() == [4, 5]
        assert np.allclose(scores, 1 / 3)

    def test_matches_restricted_softmax(self, rng):
        vocab = self._vocab()
        params = random_deep_params(rng, vocab.size, (4,), 2)
        doc = Document({0: 2, 3: 1, 5: 9})  # annotation id 5 must be ignored
        (ids,), (scores,) = evaluate.generate_text(corpus_of(vocab, [doc]), params,
                                                   _meta(vocab, 4, DEEP), 3)
        counts = dense_counts(visual_only(doc, vocab), vocab.size)
        h = deep.deep_represent(counts[None], np.arange(vocab.size), None, params, None)[0]
        logits = params.b_out + params.V_out @ h
        anno = logits[vocab.visual_size :]
        probs = np.exp(anno - anno.max())
        probs /= probs.sum()
        order = np.lexsort((np.arange(3), -probs))
        assert ids.tolist() == [vocab.visual_size + int(i) for i in order]
        assert np.allclose(scores, probs[order], atol=1e-12)

    def test_restricted_probabilities_sum_to_one(self, rng):
        vocab = self._vocab()
        params = random_deep_params(rng, vocab.size, (4, 3), 2)
        _, (scores,) = evaluate.generate_text(
            corpus_of(vocab, [Document({1: 3})]), params, _meta(vocab, (4, 3), DEEP),
            vocab.n_annotation,
        )
        assert abs(scores.sum() - 1.0) < 1e-10

    def test_shallow_model_delegates_to_tree_prediction(self, rng):
        vocab = self._vocab()
        params = random_shallow_params(rng, vocab.size, 3, 2)
        tree = build_tree(vocab.size, 3)
        doc = Document({0: 1})
        (ranked_ids,), (scores,) = evaluate.generate_text(corpus_of(vocab, [doc]), params,
                                                          _meta(vocab, 3, tree_seed=3), 2)
        (ids,), (probs,) = shallow.predict_annotations(corpus_of(vocab, [doc]), params, tree, 2)
        assert ranked_ids.tolist() == ids.tolist()
        assert np.array_equal(scores, probs)

    def test_no_annotations_rejected(self, rng):
        vocab = build_vocabulary(2, 2)
        params = random_deep_params(rng, vocab.size, (3,), 2)
        with pytest.raises(ValueError, match="annotation"):
            evaluate.generate_text(corpus_of(vocab, [Document({})]), params,
                                   _meta(vocab, 3, DEEP), 1)


class TestClassWordAssociations:
    def test_single_topic_selected_regardless_of_weights(self, rng):
        vocab = build_vocabulary(2, 2, ["a"])
        params = random_shallow_params(rng, vocab.size, 1, 3)
        topics, _, _ = shallow.class_word_associations(params, vocab.visual_size, 0, 1, 2)
        assert topics.tolist() == [0]

    def test_one_hot_class_weights(self, rng):
        vocab = build_vocabulary(2, 2, ["a"])
        params = random_shallow_params(rng, vocab.size, 6, 3)
        params.U[:] = 0.0
        params.U[1, 4] = 5.0
        topics, _, _ = shallow.class_word_associations(params, vocab.visual_size, 1, 3, 2)
        assert topics[0] == 4

    def test_matches_brute_force_sort(self, rng):
        vocab = build_vocabulary(3, 2, ["a", "b", "c"])
        params = random_shallow_params(rng, vocab.size, 5, 4)
        class_index, top_topics, top_words = 2, 3, 4
        topics, visual, anno = shallow.class_word_associations(
            params, vocab.visual_size, class_index, top_topics, top_words
        )
        expected_topics = sorted(range(5), key=lambda t: (-params.U[class_index, t], t))[:3]
        assert topics.tolist() == expected_topics
        score = params.W[expected_topics].mean(axis=0)
        expected_visual = sorted(range(6), key=lambda w: (-score[w], w))[:4]
        expected_anno = sorted(range(6, 9), key=lambda w: (-score[w], w))[:4]
        assert visual.tolist() == expected_visual
        assert anno.tolist() == expected_anno[: len(anno)]

    def test_too_many_topics_rejected(self, rng):
        vocab = build_vocabulary(2, 2, ["a"])
        params = random_shallow_params(rng, vocab.size, 3, 2)
        with pytest.raises(ValueError, match="top_topics"):
            shallow.class_word_associations(params, vocab.visual_size, 0, 5, 2)
