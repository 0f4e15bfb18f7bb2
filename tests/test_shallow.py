import itertools

import numpy as np
import pytest

from conftest import (
    fd_gradient,
    max_rel_error,
    random_shallow_params,
    shallow_instance_off_kink,
    zero_shallow_params,
)
from docnade import shallow
from docnade.corpus import build_vocabulary
from docnade.wordtree import build_tree
from oracles import (
    Document,
    OpCounter,
    annotation_id,
    class_posterior,
    compacting_supdocnade_gradients,
    corpus_of,
    counted_hidden_states,
    dense_docnade_gradients,
    dense_shallow_gradients,
    dense_supdocnade_gradients,
    joint_log_prob,
    token_array,
    token_layout,
    word_id,
    word_log_prob,
)


def naive_hidden_states(tokens, params):
    """Recompute every prefix sum from scratch: the O(H * D^2) oracle."""
    states = []
    for i in range(len(tokens) + 1):
        pre = params.c.copy()
        for token in tokens[:i]:
            pre = pre + params.W[:, token]
        states.append(np.maximum(pre, 0.0))
    return np.array(states)


class TestHiddenStates:
    def test_empty_document(self, rng):
        params = random_shallow_params(rng, 5, 3, 2)
        states = shallow.hidden_states(np.empty(0, dtype=int), params)
        assert states.shape == (1, 3)
        assert np.array_equal(states[0], np.maximum(params.c, 0))

    def test_single_token_zero_bias(self, rng):
        params = random_shallow_params(rng, 5, 3, 2)
        params.c[:] = 0.0
        states = shallow.hidden_states(np.array([2]), params)
        assert np.allclose(states[1], np.maximum(params.W[:, 2], 0.0))

    def test_incremental_matches_naive(self, rng):
        params = random_shallow_params(rng, 7, 4, 2)
        tokens = rng.integers(0, 7, 50)
        fast = shallow.hidden_states(tokens, params)
        slow = naive_hidden_states(tokens, params)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_cost_counter_is_linear(self, rng):
        params = random_shallow_params(rng, 5, 3, 2)
        for length in (0, 1, 10, 200):
            counter = OpCounter()
            counted_hidden_states(rng.integers(0, 5, length), params, counter)
            assert counter.column_adds == length


class TestLogLikelihood:
    def test_empty_document_is_zero(self, rng):
        params = random_shallow_params(rng, 4, 3, 2)
        tree = build_tree(4, 0)
        assert shallow.doc_log_likelihood(np.empty(0, dtype=int), params, tree) == 0.0

    def test_zero_params_uniform(self):
        params = zero_shallow_params(4, 3, 2)
        tree = build_tree(4, 0)
        tokens = np.array([0, 3, 1])
        expected = 3 * np.log(0.25)
        assert shallow.doc_log_likelihood(tokens, params, tree) == pytest.approx(expected)

    def test_matches_per_position_evaluation(self, rng):
        params = random_shallow_params(rng, 5, 3, 2)
        tree = build_tree(5, 1)
        tokens = rng.integers(0, 5, 4)
        states = shallow.hidden_states(tokens, params)
        expected = sum(
            word_log_prob(tree, states[i], int(tokens[i]), params.V, params.b)
            for i in range(len(tokens))
        )
        got = shallow.doc_log_likelihood(tokens, params, tree)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_distribution_sums_to_one(self, rng, length):
        vocab_size = 3
        params = random_shallow_params(rng, vocab_size, 3, 2)
        tree = build_tree(vocab_size, 2)
        total = sum(
            np.exp(shallow.doc_log_likelihood(np.array(seq), params, tree))
            for seq in itertools.product(range(vocab_size), repeat=length)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestClassPosterior:
    def test_uniform(self):
        params = zero_shallow_params(4, 3, 8)
        post = class_posterior(np.array([1, 2]), params)
        assert np.allclose(post, 1.0 / 8)

    def test_log2_bias_closed_form(self):
        for n_classes in (3, 8):
            params = zero_shallow_params(4, 3, n_classes)
            params.d[0] = np.log(2.0)
            post = class_posterior(np.array([0]), params)
            assert post[0] == pytest.approx(2.0 / (n_classes + 1))

    def test_sums_to_one(self, rng):
        params = random_shallow_params(rng, 5, 4, 6)
        post = class_posterior(rng.integers(0, 5, 7), params)
        assert abs(post.sum() - 1.0) < 1e-12


class TestJointLogProb:
    def test_empty_doc_uniform_head(self, rng):
        params = random_shallow_params(rng, 4, 3, 5)
        params.U[:] = 0.0
        params.d[:] = 0.0
        tree = build_tree(4, 0)
        got = joint_log_prob(np.empty(0, dtype=int), 2, params, tree)
        assert got == pytest.approx(np.log(1 / 5))

    def test_decomposition(self, rng):
        params = random_shallow_params(rng, 5, 3, 4)
        tree = build_tree(5, 3)
        tokens = rng.integers(0, 5, 6)
        for label in range(4):
            expected = shallow.doc_log_likelihood(tokens, params, tree) + np.log(
                class_posterior(tokens, params)[label]
            )
            assert joint_log_prob(tokens, label, params, tree) == pytest.approx(expected)

    def test_joint_normalizes_over_labels_and_sequences(self, rng):
        vocab_size, n_classes, length = 3, 2, 2
        params = random_shallow_params(rng, vocab_size, 3, n_classes)
        tree = build_tree(vocab_size, 1)
        total = sum(
            np.exp(joint_log_prob(np.array(seq), y, params, tree))
            for seq in itertools.product(range(vocab_size), repeat=length)
            for y in range(n_classes)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestGradients:
    def test_lambda_zero_kills_tree_gradients(self, rng):
        tree, params, tokens = shallow_instance_off_kink(rng, 6, 4, 3, 5)
        _, grads = dense_supdocnade_gradients(tokens, 1, params, tree, 0.0)
        assert np.all(grads["V"] == 0)
        assert np.all(grads["b"] == 0)
        # the class head still reaches W and c
        assert np.any(grads["W"] != 0)

    def test_empty_doc_is_logistic_regression(self, rng):
        params = random_shallow_params(rng, 4, 3, 5)
        tree = build_tree(4, 0)
        label = 3
        loss, grads = dense_supdocnade_gradients(np.empty(0, dtype=int), label, params, tree, 0.8)
        h = np.maximum(params.c, 0.0)
        z = params.d + params.U @ h
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        expected_d = probs.copy()
        expected_d[label] -= 1.0
        assert loss == pytest.approx(-np.log(probs[label]))
        assert np.allclose(grads["d"], expected_d)
        assert np.allclose(grads["U"], np.outer(expected_d, h))
        assert np.allclose(grads["c"], (params.U.T @ expected_d) * (params.c > 0))
        assert np.all(grads["W"] == 0)

    def test_loss_matches_objective(self, rng):
        tree, params, tokens = shallow_instance_off_kink(rng, 6, 4, 3, 5)
        lam = 0.7
        loss, _ = dense_supdocnade_gradients(tokens, 2, params, tree, lam)
        expected = -np.log(class_posterior(tokens, params)[2]) - lam * (
            shallow.doc_log_likelihood(tokens, params, tree)
        )
        assert loss == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_finite_differences(self, rng, lam):
        worst = 0.0
        for _ in range(10):
            vocab_size = int(rng.integers(3, 9))
            hidden = int(rng.integers(2, 7))
            n_classes = int(rng.integers(2, 5))
            length = int(rng.integers(0, 7))
            tree, params, tokens = shallow_instance_off_kink(
                rng, vocab_size, hidden, n_classes, length
            )
            label = int(rng.integers(n_classes))
            _, grads = dense_supdocnade_gradients(tokens, label, params, tree, lam)

            def loss():
                post = class_posterior(tokens, params)
                return -np.log(post[label]) - lam * shallow.doc_log_likelihood(
                    tokens, params, tree
                )

            for name, arr in params.arrays():
                worst = max(worst, max_rel_error(grads[name], fd_gradient(loss, arr)))
        assert worst <= 1e-4

    def test_unsupervised_gradients(self, rng):
        tree, params, tokens = shallow_instance_off_kink(rng, 5, 3, 2, 4)
        loss, grads = dense_docnade_gradients(tokens, params, tree)
        assert loss == pytest.approx(-shallow.doc_log_likelihood(tokens, params, tree))
        assert np.all(grads["U"] == 0) and np.all(grads["d"] == 0)

        def loss_fn():
            return -shallow.doc_log_likelihood(tokens, params, tree)

        for name in ("W", "c", "V", "b"):
            arr = dict(params.arrays())[name]
            assert max_rel_error(grads[name], fd_gradient(loss_fn, arr)) <= 1e-4


def assert_matches_dense_oracle(tokens, params, tree, lam, label=None):
    """The layout step's loss and gradients within 1e-12 relative of the
    dense `np.add.at` oracle."""
    if label is None:
        loss, grads = dense_docnade_gradients(tokens, params, tree)
    else:
        loss, grads = dense_supdocnade_gradients(tokens, label, params, tree, lam)
    want_loss, want = dense_shallow_gradients(tokens, params, tree, lam, label)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-300)
    for name, arr in want.items():
        atol = 1e-12 * np.abs(arr).max() if arr.size else 0.0
        assert grads[name].shape == arr.shape, name
        assert np.allclose(grads[name], arr, rtol=0.0, atol=atol), name


class TestLayoutStep:
    """The step over a document's cached layout (unique path nodes, token
    blocks, dense products) against the dense per-entry oracle."""

    @pytest.mark.parametrize("supervised,lam", [(False, 1.0), (True, 0.0), (True, 0.4),
                                                (True, 1.0)])
    def test_edge_documents(self, rng, supervised, lam):
        label = 1 if supervised else None
        cases = [
            (1, [0, 0, 0]),  # Q = 1: no tree
            (2, [1, 0, 1, 1]),  # Q = 2: depth 1, no padding
            (7, [4]),  # one token
            (7, [5] * 9),  # one word repeated
            (11, rng.integers(0, 11, 30)),  # paths of two lengths (padding)
        ]
        if supervised:
            cases.append((7, []))  # empty supervised document
        for vocab_size, tokens in cases:
            tree = build_tree(vocab_size, 3)
            params = random_shallow_params(rng, vocab_size, 5, 3)
            assert_matches_dense_oracle(np.array(tokens, dtype=np.int64), params, tree, lam,
                                        label)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_documents_longer_than_a_block(self, rng, lam):
        vocab_size = 300
        tree = build_tree(vocab_size, 4)
        params = random_shallow_params(rng, vocab_size, 6, 3, scale=0.3)
        for length in (shallow.BLOCK_TOKENS + 1, 2 * shallow.BLOCK_TOKENS + 17):
            # a small word pool, so that blocks share words and tree nodes
            tokens = rng.integers(0, 40, length)
            assert len(tokens) > shallow.BLOCK_TOKENS
            assert_matches_dense_oracle(tokens, params, tree, lam, label=2)
            assert_matches_dense_oracle(tokens, params, tree, 1.0)

    @pytest.mark.parametrize("length", [45, 150])
    @pytest.mark.parametrize("lam,label", [(0.0, 2), (0.7, 2), (1.0, 2), (1.0, None)])
    def test_benchmark_depth(self, length, lam, label):
        """At Q = 3,000 (paths of 11 and 12 nodes) and H = 100, with the
        column-major W of training, for one block and for several."""
        rng = np.random.default_rng(length)
        vocab_size = 3000
        tree = build_tree(vocab_size, 5)
        assert tree.max_path_length == 12
        params = random_shallow_params(rng, vocab_size, 100, 10, scale=0.1)
        params.W = np.asfortranarray(params.W)
        tokens = rng.integers(0, vocab_size, length)
        assert_matches_dense_oracle(tokens, params, tree, lam, label)

    def test_log_likelihood_over_blocks_matches_per_position(self, rng):
        tree = build_tree(50, 6)
        params = random_shallow_params(rng, 50, 4, 2, scale=0.5)
        tokens = rng.integers(0, 50, 3 * shallow.BLOCK_TOKENS - 5)
        states = shallow.hidden_states(tokens, params)
        expected = sum(word_log_prob(tree, states[i], int(t), params.V, params.b)
                       for i, t in enumerate(tokens))
        got = shallow.doc_log_likelihood(tokens, params, tree)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_layout_of_a_document(self):
        tree = build_tree(11, 2)
        ids, counts = np.array([1, 4, 9]), np.array([2, 1, 3])
        layout = shallow.doc_layout(ids, counts, tree)
        nodes_tab, bits_tab, lengths = tree.path_table()
        real = layout.nodes[:-1]
        assert np.array_equal(real, np.unique(nodes_tab[ids][nodes_tab[ids] >= 0]))
        assert layout.nodes[-1] == real[-1]  # the padding column's row
        assert np.array_equal(layout.word_of_token, [0, 0, 1, 2, 2, 2])
        for j, word in enumerate(ids):
            n = lengths[word]
            assert np.array_equal(real[layout.slots[j, :n]], nodes_tab[word, :n])
            assert np.all(layout.slots[j, n:] == len(real))
            assert np.array_equal(layout.flips[j, :n], 1 - 2 * bits_tab[word, :n])
            assert np.all(layout.flips[j, n:] == 0)
        assert layout.slots.dtype == np.int32 and layout.nodes.dtype == np.int32

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, rng, label):
        tree = build_tree(7, 3)
        params = random_shallow_params(rng, 7, 5, 3)
        layout, seg = token_layout(np.array([4, 1, 4]), tree)
        with pytest.raises(ValueError, match=f"label {label} out of range"):
            shallow.supdocnade_gradients(layout, seg, params, 1.0, label)

    def test_step_memory_is_bounded_by_the_block(self):
        """One step on a 5,000-token document at Q = 20,000 and H = 100
        allocates no more than the (tokens x depth x H) float grid of the
        per-entry formulation it replaced."""
        import tracemalloc

        rng = np.random.default_rng(0)
        vocab_size, hidden, n_tokens = 20_000, 100, 5_000
        tree = build_tree(vocab_size, 0)
        params = random_shallow_params(rng, vocab_size, hidden, 2, scale=0.05)
        tokens = rng.integers(0, vocab_size, n_tokens)
        layout, seg = token_layout(tokens, tree)
        grid_bytes = n_tokens * tree.max_path_length * hidden * 8
        tracemalloc.start()
        try:
            loss, grads = shallow.supdocnade_gradients(layout, seg, params, 1.0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss)
        assert len(grads["V"][1]) > 10 * tree.max_path_length * shallow.BLOCK_TOKENS
        assert peak <= grid_bytes, f"peak {peak / 1e6:.1f} MB > grid {grid_bytes / 1e6:.1f} MB"


class TestOneBlockNumbering:
    """A document of one block keeps its layout's numbering: compacting the
    block gives back every node column the slots use and every word, each
    under its own index, so the step (which then skips `_compact`) equals
    the compacting step bit for bit."""

    @staticmethod
    def documents(rng):
        """(Q, tokens) of 1, 2, 63 and 64 tokens, drawn and one word repeated."""
        for vocab_size, length in itertools.product((2, 3, 5, 240), (1, 2, 63, 64)):
            yield vocab_size, rng.integers(0, vocab_size, length)
            for word in (0, vocab_size - 1):
                yield vocab_size, np.full(length, word)

    def test_compacting_one_block_is_the_layout_numbering(self, rng):
        padded = set()
        for vocab_size, tokens in self.documents(rng):
            layout, seg = token_layout(tokens, build_tree(vocab_size, 3))
            padded.add(layout.n_cols == len(layout.nodes))
            cols, local = shallow._compact(layout.slots[seg], len(layout.nodes))
            assert np.array_equal(cols, np.arange(layout.n_cols))
            assert np.array_equal(local, layout.slots[seg])
            words, local = shallow._compact(seg, len(layout.ids))
            assert np.array_equal(words, np.arange(len(layout.ids)))
            assert np.array_equal(local, seg)
        assert padded == {False, True}  # layouts with and without a padding column

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("label", [None, 1])
    def test_step_equals_the_compacting_step(self, rng, lam, label):
        cases = [*self.documents(rng), (240, rng.integers(0, 240, 2 * shallow.BLOCK_TOKENS + 9))]
        for vocab_size, tokens in cases:
            layout, seg = token_layout(tokens, build_tree(vocab_size, 3))
            params = random_shallow_params(rng, vocab_size, 5, 3, scale=0.5)
            loss, grads = shallow.supdocnade_gradients(layout, seg, params, lam, label)
            want_loss, want = compacting_supdocnade_gradients(layout, seg, params, lam, label)
            assert loss == want_loss
            assert grads.keys() == want.keys()
            for name, (axis, index, block) in want.items():
                got_axis, got_index, got_block = grads[name]
                assert got_axis == axis, name
                assert (got_index == index if isinstance(index, slice)
                        else np.array_equal(got_index, index)), name
                assert np.array_equal(got_block, block), name


class TestRepresent:
    def _vocab(self):
        return build_vocabulary(3, 2, ["a", "b"])

    def test_empty_doc(self, rng):
        vocab = self._vocab()
        params = random_shallow_params(rng, vocab.size, 4, 2)
        rep = shallow.represent(corpus_of(vocab, [Document({})]), params, None)[0]
        assert np.array_equal(rep, np.maximum(params.c, 0))

    def test_matches_hidden_state_of_any_ordering(self, rng):
        vocab = self._vocab()
        params = random_shallow_params(rng, vocab.size, 4, 2)
        doc = Document({0: 2, 5: 1, 7: 3})
        rep = shallow.represent(corpus_of(vocab, [doc]), params, None)[0]
        tokens = token_array(doc)
        for _ in range(5):
            ordering = tokens[rng.permutation(len(tokens))]
            last = shallow.hidden_states(ordering, params)[-1]
            assert np.allclose(rep, last, atol=1e-12)

    def test_permutation_invariance_is_exact(self, rng):
        vocab = self._vocab()
        params = random_shallow_params(rng, vocab.size, 4, 2)
        doc = Document({1: 2, 6: 1})
        assert np.array_equal(
            shallow.represent(corpus_of(vocab, [doc]), params, None),
            shallow.represent(corpus_of(vocab, [doc]), params, None),
        )

    def test_visual_only_ignores_annotations(self, rng):
        vocab = self._vocab()
        params = random_shallow_params(rng, vocab.size, 4, 2)
        anno_only = Document({6: 2, 7: 1})
        rows = corpus_of(vocab, [anno_only])
        rep = shallow.represent(rows, params, None, restrict="visual-only")[0]
        assert np.array_equal(rep, np.maximum(params.c, 0))


class TestPredictAnnotations:
    def test_single_annotation_word(self, rng):
        vocab = build_vocabulary(3, 2, ["only"])
        params = random_shallow_params(rng, vocab.size, 3, 2)
        tree = build_tree(vocab.size, 5)
        (ids,), (probs,) = shallow.predict_annotations(
            corpus_of(vocab, [Document({0: 1})]), params, tree, top_k=1
        )
        assert ids.tolist() == [word_id(vocab, "only")]

    def test_zero_params_tie_break(self):
        # perfect tree (Q=8): all leaves at equal depth, so zero parameters
        # tie every annotation word and the smallest ids win
        vocab = build_vocabulary(2, 2, ["a", "b", "c", "d"])
        params = zero_shallow_params(vocab.size, 3, 2)
        tree = build_tree(vocab.size, 1)
        (ids,), (probs,) = shallow.predict_annotations(
            corpus_of(vocab, [Document({0: 1})]), params, tree, top_k=3
        )
        assert ids.tolist() == [4, 5, 6]
        assert np.allclose(probs, 1 / 8)

    def test_matches_exhaustive_ranking(self, rng):
        vocab = build_vocabulary(4, 2, ["a", "b", "c", "d", "e"])
        params = random_shallow_params(rng, vocab.size, 4, 2)
        tree = build_tree(vocab.size, 7)
        doc = Document({0: 2, 3: 1})
        (ids,), (probs,) = shallow.predict_annotations(corpus_of(vocab, [doc]), params, tree,
                                                       top_k=5)
        h = shallow.represent(corpus_of(vocab, [doc]), params, tree, restrict="visual-only")[0]
        brute = sorted(
            (
                (-np.exp(word_log_prob(tree, h, annotation_id(vocab, i), params.V, params.b)),
                 annotation_id(vocab, i))
                for i in range(5)
            ),
        )
        assert [w for _, w in brute] == ids.tolist()
        assert np.allclose([-p for p, _ in brute], probs, atol=1e-14)

    def test_annotation_counts_in_doc_are_ignored(self, rng):
        vocab = build_vocabulary(3, 2, ["a", "b"])
        params = random_shallow_params(rng, vocab.size, 3, 2)
        tree = build_tree(vocab.size, 2)
        with_anno = Document({0: 1, 6: 5})
        without = Document({0: 1})
        a = shallow.predict_annotations(corpus_of(vocab, [with_anno]), params, tree, 2)
        b = shallow.predict_annotations(corpus_of(vocab, [without]), params, tree, 2)
        assert a[0].tolist() == b[0].tolist()
        assert np.array_equal(a[1], b[1])

    def test_k_too_large(self, rng):
        vocab = build_vocabulary(3, 2, ["a"])
        params = random_shallow_params(rng, vocab.size, 3, 2)
        tree = build_tree(vocab.size, 2)
        with pytest.raises(ValueError, match="top_k"):
            shallow.predict_annotations(corpus_of(vocab, [Document({})]), params, tree, 2)
