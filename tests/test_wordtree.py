import numpy as np
import pytest

from conftest import fd_gradient, max_rel_error
from docnade.wordtree import build_tree, words_log_prob
from oracles import OpCounter, path, path_length, tree_gradients, word_log_prob


class TestShape:
    def test_two_leaves(self):
        tree = build_tree(2, seed=0)
        assert tree.n_internal == 1
        for w in range(2):
            nodes, bits = path(tree, w)
            assert len(nodes) == len(bits) == 1
            assert nodes[0] == 0  # root

    def test_perfect_tree(self):
        tree = build_tree(8, seed=1)
        assert tree.n_internal == 7
        assert all(path_length(tree, w) == 3 for w in range(8))

    def test_five_leaves(self):
        # complete tree over 5 leaves: 4 internal nodes, depths in {2, 3}
        tree = build_tree(5, seed=2)
        assert tree.n_internal == 4
        lengths = {path_length(tree, w) for w in range(5)}
        assert lengths == {2, 3}
        assert max(lengths) == int(np.ceil(np.log2(5)))

    def test_single_leaf(self):
        tree = build_tree(1, seed=0)
        assert tree.n_internal == 0
        nodes, bits = path(tree, 0)
        assert len(nodes) == 0

    def test_zero_leaves_rejected(self):
        with pytest.raises(ValueError):
            build_tree(0, seed=0)

    def test_paths_start_at_root_and_match_bits(self):
        tree = build_tree(13, seed=5)
        for w in range(13):
            nodes, bits = path(tree, w)
            assert len(nodes) == len(bits)
            assert nodes[0] == 0
            # walking the recorded bits from the root reaches the word's leaf
            node = 0
            for bit in bits:
                node = 2 * node + 1 + bit
            assert node == tree.leaf_of_word[w]

    def test_leaf_assignment_bijective(self):
        tree = build_tree(17, seed=9)
        leaves = set(int(x) for x in tree.leaf_of_word)
        assert leaves == set(range(16, 33))

    def test_deterministic_and_seed_sensitive(self):
        a = build_tree(32, seed=4)
        b = build_tree(32, seed=4)
        c = build_tree(32, seed=5)
        assert np.array_equal(a.leaf_of_word, b.leaf_of_word)
        assert not np.array_equal(a.leaf_of_word, c.leaf_of_word)

    def test_path_table_matches_single_paths(self):
        for size in (1, 2, 3, 4, 7, 8, 9, 11, 255, 256, 257, 2_960):
            for seed in (0, 3):
                tree = build_tree(size, seed=seed)
                nodes_tab, bits_tab, lengths = tree.path_table()
                assert nodes_tab.shape == bits_tab.shape == (size, max(tree.max_path_length, 1))
                assert nodes_tab.dtype == bits_tab.dtype == lengths.dtype == np.int64
                for w in range(size):
                    nodes, bits = path(tree, w)
                    assert lengths[w] == len(nodes)
                    assert np.array_equal(nodes_tab[w, : len(nodes)], nodes)
                    assert np.array_equal(bits_tab[w, : len(bits)], bits)
                    assert (nodes_tab[w, len(nodes) :] == -1).all()
                    assert (bits_tab[w, len(bits) :] == 0).all()


class TestLogProb:
    def test_zero_params_uniform_q4(self):
        tree = build_tree(4, seed=0)
        V, b, h = np.zeros((3, 2)), np.zeros(3), np.zeros(2)
        for w in range(4):
            assert word_log_prob(tree, h, w, V, b) == pytest.approx(np.log(0.25))

    def test_zero_params_q2(self):
        tree = build_tree(2, seed=0)
        V, b, h = np.zeros((1, 3)), np.zeros(1), np.ones(3)
        assert word_log_prob(tree, h, 0, V, b) == pytest.approx(np.log(0.5))

    def test_normalization_random(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            Q = int(rng.integers(2, 40))
            H = int(rng.integers(1, 6))
            tree = build_tree(Q, seed=trial)
            V = rng.normal(size=(Q - 1, H))
            b = rng.normal(size=Q - 1)
            h = rng.normal(size=H)
            total = np.exp(words_log_prob(tree, h, np.arange(Q), V, b)).sum()
            assert abs(total - 1.0) < 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        tree = build_tree(6, seed=1)
        V, b, h = rng.normal(size=(5, 3)), rng.normal(size=5), rng.normal(size=3)
        batch = words_log_prob(tree, h, np.arange(6), V, b)
        single = [word_log_prob(tree, h, w, V, b) for w in range(6)]
        assert np.allclose(batch, single, atol=1e-14)

    def test_dimension_mismatch(self):
        tree = build_tree(4, seed=0)
        with pytest.raises(ValueError):
            word_log_prob(tree, np.zeros(2), 0, np.zeros((5, 2)), np.zeros(5))

    def test_sigmoid_counter(self):
        counter = OpCounter()
        for Q in (2, 16, 50, 1024):
            tree = build_tree(Q, seed=0)
            V, b, h = np.zeros((Q - 1, 2)), np.zeros(Q - 1), np.zeros(2)
            for w in (0, Q // 2, Q - 1):
                counter.sigmoids = 0
                word_log_prob(tree, h, w, V, b, counter=counter)
                assert counter.sigmoids <= int(np.ceil(np.log2(Q)))


class TestGradients:
    def test_zero_scale(self, rng):
        tree = build_tree(6, seed=0)
        V, b, h = rng.normal(size=(5, 3)), rng.normal(size=5), rng.normal(size=3)
        nodes, dV, db, dh = tree_gradients(tree, h, 2, V, b, scale=0.0)
        assert np.all(dV == 0) and np.all(db == 0) and np.all(dh == 0)

    def test_zero_params_bias_gradient(self):
        # at V=0, b=0 every sigmoid is 1/2, so db = scale * (1/2 - bit)
        tree = build_tree(8, seed=1)
        V, b, h = np.zeros((7, 4)), np.zeros(7), np.ones(4)
        scale = 1.7
        for w in range(8):
            _, bits = path(tree, w)
            _, _, db, _ = tree_gradients(tree, h, w, V, b, scale)
            assert np.allclose(db, scale * (0.5 - bits))

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(100):
            Q = int(rng.integers(2, 10))
            H = int(rng.integers(1, 5))
            tree = build_tree(Q, seed=trial)
            V = rng.uniform(-1, 1, (Q - 1, H))
            b = rng.uniform(-1, 1, Q - 1)
            h = rng.uniform(-1, 1, H)
            w = int(rng.integers(Q))
            scale = float(rng.uniform(0.1, 2.0))
            nodes, dV_rows, db_entries, dh = tree_gradients(tree, h, w, V, b, scale)
            dV = np.zeros_like(V)
            db = np.zeros_like(b)
            np.add.at(dV, nodes, dV_rows)
            np.add.at(db, nodes, db_entries)

            def loss():
                return -scale * word_log_prob(tree, h, w, V, b)

            worst = max(
                worst,
                max_rel_error(dV, fd_gradient(loss, V, step=1e-5), floor=1e-4),
                max_rel_error(db, fd_gradient(loss, b, step=1e-5), floor=1e-4),
                max_rel_error(dh, fd_gradient(loss, h, step=1e-5), floor=1e-4),
            )
        assert worst <= 1e-5

    def test_only_path_rows_touched(self, rng):
        tree = build_tree(9, seed=2)
        V, b, h = rng.normal(size=(8, 3)), rng.normal(size=8), rng.normal(size=3)
        nodes, dV_rows, db_entries, _ = tree_gradients(tree, h, 4, V, b, 1.0)
        assert len(nodes) == path_length(tree, 4)
        assert dV_rows.shape == (len(nodes), 3)
        assert db_entries.shape == (len(nodes),)
