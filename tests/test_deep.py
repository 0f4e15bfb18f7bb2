import tracemalloc

import numpy as np
import pytest
import scipy.stats

from conftest import (
    fd_gradient,
    init_sized,
    max_rel_error,
    random_deep_params,
    random_shallow_params,
    zero_deep_params,
)
from docnade import deep, shallow, trainer
from docnade.rng import training_streams
from docnade.trainer import TrainConfig
from gen import make_corpus
from oracles import (
    corpus_of,
    dense_counts,
    dense_forward,
    dense_histogram,
    dense_hybrid_loss_gradients,
    document_hybrid_loss_gradients,
    estimator_expectation,
    exhaustive_ordering_loss,
    per_token_generative_grads,
    softmax_shallow_conditional,
    to_dense,
)


class TestSplitHistogram:
    def test_single_token_forced(self, rng):
        counts = np.array([1, 0, 0])
        split = deep.split_histogram(counts, rng)
        assert split.d == 1
        assert split.input_hist.sum() == 0
        assert np.array_equal(split.output_hist, counts)

    def test_two_of_same_word(self):
        # d=2 must put one token on each side
        rng = np.random.default_rng(0)
        counts = np.array([2, 0])
        seen_d2 = False
        for _ in range(50):
            split = deep.split_histogram(counts, rng)
            if split.d == 2:
                assert split.input_hist.tolist() == [1, 0]
                assert split.output_hist.tolist() == [1, 0]
                seen_d2 = True
        assert seen_d2

    def test_empty_document_signals_skip(self, rng):
        assert deep.split_histogram(np.zeros(4, dtype=int), rng) is None

    def test_conservation_and_nonempty_output(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            counts = rng.integers(0, 4, size=6)
            if counts.sum() == 0:
                continue
            split = deep.split_histogram(counts, rng)
            assert np.array_equal(split.input_hist + split.output_hist, counts)
            assert split.output_hist.sum() >= 1
            assert split.input_hist.min() >= 0
            assert split.d == split.input_hist.sum() + 1
            assert split.total_tokens == counts.sum()

    def test_prefix_distribution_matches_ordering_prefixes(self):
        # doc {a:2, b:1}: exact prefix distribution over (d, observed side)
        # derived by enumerating all 3! orderings and all split positions:
        #   (1, {})   -> 1/3        (2, {a}) -> 2/9       (2, {b}) -> 1/9
        #   (3, {aa}) -> 1/9        (3, {ab}) -> 2/9
        rng = np.random.default_rng(99)
        counts = np.array([2, 1])
        outcomes = {
            (1, 0, 0): 1 / 3,
            (2, 1, 0): 2 / 9,
            (2, 0, 1): 1 / 9,
            (3, 2, 0): 1 / 9,
            (3, 1, 1): 2 / 9,
        }
        observed = dict.fromkeys(outcomes, 0)
        n_samples = 100_000
        for _ in range(n_samples):
            split = deep.split_histogram(counts, rng)
            key = (split.d, int(split.input_hist[0]), int(split.input_hist[1]))
            observed[key] += 1
        expected = np.array([outcomes[k] * n_samples for k in outcomes])
        got = np.array([observed[k] for k in outcomes])
        assert got.sum() == n_samples  # no other outcome is possible
        result = scipy.stats.chisquare(got, expected)
        assert result.pvalue > 0.01


class TestPrepareHistogram:
    def test_weighting_then_unit_variance(self):
        counts = np.array([2, 0, 1, 0])
        omega = np.array([1.0, 1.0, 3.0, 3.0])
        x = deep.prepare_histogram(counts[None], np.arange(4), 4, omega)[0]
        weighted = counts * omega
        assert np.allclose(x, weighted / weighted.std())
        assert x.std() == pytest.approx(1.0)

    def test_zero_histogram_guard(self):
        x = deep.prepare_histogram(np.zeros((1, 4), dtype=int), np.arange(4), 4, None)[0]
        assert np.array_equal(x, np.zeros(4))

    def test_normalize_off(self):
        counts = np.array([5, 1])
        assert np.array_equal(dense_histogram(counts, normalize=False), [5.0, 1.0])


class TestDeepForward:
    def test_all_zero(self):
        params = zero_deep_params(4, (3, 2), 2)
        hs, _ = deep.deep_forward(np.zeros((1, 4)), np.arange(4), params)
        assert all(np.array_equal(h, np.zeros_like(h)) for h in hs)

    def test_single_layer_matches_shallow_represent(self, rng):
        from docnade.corpus import build_vocabulary
        from oracles import Document

        vocab = build_vocabulary(3, 2, ["a", "b"])
        sparams = random_shallow_params(rng, vocab.size, 4, 2)
        dparams = zero_deep_params(vocab.size, (4,), 2)
        dparams.W1 = sparams.W.copy()
        dparams.c1 = sparams.c.copy()
        doc = Document({0: 2, 6: 1})
        counts = dense_counts(doc, vocab.size)
        hs, _ = deep.deep_forward(counts.astype(float)[None], np.arange(vocab.size), dparams)
        assert np.allclose(hs[0], shallow.represent(corpus_of(vocab, [doc]), sparams, None))

    def test_zero_feature_map_is_noop(self, rng):
        params = random_deep_params(rng, 5, (4, 3), 2, n_features=3)
        params.P[:] = 0.0
        x = rng.random(5)
        with_f, _ = deep.deep_forward(x[None], np.arange(5), params,
                                      features=rng.normal(size=(1, 3)))
        without, _ = deep.deep_forward(x[None], np.arange(5), params)
        assert np.allclose(with_f[-1], without[-1])

    def test_dimension_mismatch(self, rng):
        params = random_deep_params(rng, 5, (4,), 2)
        with pytest.raises(ValueError):
            deep.deep_forward(np.zeros((1, 7)), np.arange(5), params)

    def test_fixed_mask_is_deterministic(self, rng):
        params = random_deep_params(rng, 4, (3, 3), 2)
        masks = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
        x = rng.random(4)
        a, b = ([h[0] for h in deep.deep_forward(x[None], np.arange(4), params, scales=masks)[0]]
                for _ in range(2))
        assert np.array_equal(a[-1], b[-1])
        assert np.all(a[0][1] == 0.0)


class TestGenerativeLoss:
    def test_rescale_factor(self, rng):
        params = random_deep_params(rng, 6, (3,), 2)
        h = rng.random(3)
        out = np.zeros(6, dtype=int)
        out[2] = 1
        (base,), _ = deep.generative_loss(h[None], [(np.arange(6), out)], None, d=1,
                                          total_tokens=1, params=params)
        (scaled,), _ = deep.generative_loss(h[None], [(np.arange(6), out)], None, d=2,
                                            total_tokens=5, params=params)
        assert scaled == pytest.approx((5 / 4) * base)

    def test_uniform_loss_is_log_q(self):
        vocab_size = 7
        params = zero_deep_params(vocab_size, (3,), 2)
        out = np.zeros(vocab_size, dtype=int)
        out[4] = 1
        (loss,), _ = deep.generative_loss(np.zeros((1, 3)), [(np.arange(vocab_size), out)],
                                          None, 1, 1, params)
        assert loss == pytest.approx(np.log(vocab_size))

    def test_rho_one_weights_change_nothing(self, rng):
        # weighting with phi = 1 must be bit-identical to no weighting
        params = random_deep_params(rng, 6, (4,), 2)
        h = rng.random(4)
        out = rng.integers(0, 3, 6)
        out[0] += 1
        targets = [(np.arange(6), out)]
        plain = deep.generative_loss(h[None], targets, None, 2, int(out.sum()) + 1, params)
        ones = deep.generative_loss(h[None], targets, np.ones(6), 2, int(out.sum()) + 1, params)
        assert plain[0] == ones[0]
        for key in plain[1]:
            assert np.array_equal(plain[1][key], ones[1][key])

    def test_softmax_normalization(self, rng):
        params = random_deep_params(rng, 40, (5,), 2)
        log_probs = deep.output_log_probs(rng.normal(size=(1, 5)), params.V_out, params.b_out)
        assert abs(np.exp(log_probs).sum() - 1.0) < 1e-10

    def test_output_gradients_finite_difference(self, rng):
        params = random_deep_params(rng, 5, (3,), 2)
        h = rng.random(3)
        out = np.array([1, 0, 2, 0, 1])
        phi = np.array([1.0, 1.0, 1.0, 2.5, 2.5])
        targets = [(np.arange(5), out)]
        _, grads = deep.generative_loss(h[None], targets, phi, 2, 5, params)

        def loss():
            return deep.generative_loss(h[None], targets, phi, 2, 5, params)[0][0]

        assert max_rel_error(grads["V_out"], fd_gradient(loss, params.V_out)) <= 1e-4
        assert max_rel_error(grads["b_out"], fd_gradient(loss, params.b_out)) <= 1e-4


class TestSupervisedLoss:
    def test_sigmoid_zero_params(self):
        params = zero_deep_params(4, (3,), 38)
        for labels in (frozenset(), frozenset({0, 5}), frozenset(range(38))):
            (loss,), _ = deep.supervised_loss(np.zeros((1, 3)), [labels], params, "sigmoid")
            assert loss == pytest.approx(38 * np.log(2))

    def test_softmax_zero_params(self):
        params = zero_deep_params(4, (3,), 8)
        (loss,), _ = deep.supervised_loss(np.zeros((1, 3)), [frozenset({3})], params, "softmax")
        assert loss == pytest.approx(np.log(8))

    def test_softmax_requires_single_label(self, rng):
        params = random_deep_params(rng, 4, (3,), 5)
        with pytest.raises(ValueError, match="exactly one label"):
            deep.supervised_loss(np.zeros((1, 3)), [frozenset({0, 1})], params, "softmax")
        with pytest.raises(ValueError, match="exactly one label"):
            deep.supervised_loss(np.zeros((1, 3)), [frozenset()], params, "softmax")

    @pytest.mark.parametrize("label", [-1, 5])
    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    def test_label_out_of_range(self, rng, head, label):
        params = random_deep_params(rng, 4, (3,), 5)
        with pytest.raises(ValueError, match=f"label {label} out of range"):
            deep.supervised_loss(np.zeros((2, 3)), [frozenset({0}), frozenset({label})], params,
                                 head)

    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    def test_finite_differences(self, rng, head):
        params = random_deep_params(rng, 4, (3,), 5)
        h = rng.random(3)
        labels = frozenset({2}) if head == "softmax" else frozenset({0, 3})
        _, grads = deep.supervised_loss(h[None], [labels], params, head)

        def loss():
            return deep.supervised_loss(h[None], [labels], params, head)[0][0]

        assert max_rel_error(grads["U"], fd_gradient(loss, params.U)) <= 1e-4
        assert max_rel_error(grads["d"], fd_gradient(loss, params.d)) <= 1e-4


def _off_kink_deep_instance(rng, vocab_size, sizes, n_classes, n_features, counts, split, omega, features):
    """Draw parameters until every pre-activation on both passes clears the kink."""
    while True:
        params = random_deep_params(rng, vocab_size, sizes, n_classes, n_features)
        margins = []
        for raw in (counts, split.input_hist):
            x = dense_histogram(raw, omega)
            _, pres = dense_forward(x, params, features)
            margins.append(min(np.abs(p).min() for p in pres))
        if min(margins) > 1e-3:
            return params


class TestHybridGradients:
    def test_lambda_zero_kills_output_gradients(self, rng):
        counts = np.array([2, 1, 0, 1])
        split = deep.split_histogram(counts, rng)
        params = random_deep_params(rng, 4, (3,), 2)
        _, grads = document_hybrid_loss_gradients(
            counts, frozenset({1}), None, params, 0.0, None, split, None, None
        )
        assert np.all(grads["V_out"] == 0)
        assert np.all(grads["b_out"] == 0)
        assert np.any(grads["U"] != 0)

    def test_per_token_backprop_oracle(self, rng):
        # full-document split (d=1): generative gradients must match a slow
        # implementation that backprops every output token separately
        vocab_size = 6
        counts = np.array([2, 0, 1, 3, 0, 1])
        total = int(counts.sum())
        split = deep.HistogramSplit(np.zeros_like(counts), counts, 1, total)
        phi = np.ones(vocab_size)
        phi[4:] = 2.0
        params = random_deep_params(rng, vocab_size, (4,), 2)
        x_in = dense_histogram(split.input_hist, None)
        loss, grads = document_hybrid_loss_gradients(
            counts, None, None, params, 1.0, phi, split, None, None
        )
        slow_loss, slow = per_token_generative_grads(x_in, counts, phi, params)
        assert loss == pytest.approx(slow_loss, rel=1e-12)
        for name in ("W1", "c1", "V_out", "b_out"):
            assert np.allclose(grads[name], slow[name], atol=1e-12), name

    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    @pytest.mark.parametrize("sizes", [(4,), (5, 4), (4, 3, 3)])
    @pytest.mark.parametrize("n_features", [0, 2])
    def test_finite_differences_frozen_stochasticity(self, rng, head, sizes, n_features):
        vocab_size, n_classes = 6, 3
        counts = rng.integers(0, 3, vocab_size)
        counts[0] += 1
        omega = np.ones(vocab_size)
        omega[4:] = 2.0
        features = rng.uniform(-1, 1, n_features) if n_features else None
        labels = frozenset({1}) if head == "softmax" else frozenset({0, 2})
        split = deep.split_histogram(counts, rng)
        keep = 0.6
        gen_masks = [(rng.random(h) < keep).astype(float) for h in sizes]
        sup_masks = [(rng.random(h) < keep).astype(float) for h in sizes]
        lam = 0.7
        params = _off_kink_deep_instance(
            rng, vocab_size, sizes, n_classes, n_features, counts, split, omega, features
        )
        _, grads = document_hybrid_loss_gradients(
            counts, labels, features, params, lam, omega,
            split, gen_masks, sup_masks, head=head,
        )

        def loss():
            value, _ = document_hybrid_loss_gradients(
                counts, labels, features, params, lam, omega,
                split, gen_masks, sup_masks, head=head,
            )
            return value

        for name, arr in params.arrays():
            assert max_rel_error(grads[name], fd_gradient(loss, arr)) <= 1e-4, name


class TestExhaustiveOrderingLoss:
    def test_single_token_closed_form(self, rng):
        vocab_size = 4
        params = random_deep_params(rng, vocab_size, (3,), 2)
        counts = np.array([0, 1, 0, 0])
        phi = np.array([1.0, 2.0, 1.0, 1.0])
        cols = np.arange(vocab_size)
        x = deep.prepare_histogram(np.zeros((1, vocab_size), dtype=np.int64), cols, vocab_size, None)
        hs, _ = deep.deep_forward(x, cols, params)
        expected = phi[1] * -deep.output_log_probs(hs[-1], params.V_out, params.b_out)[0, 1]
        got = exhaustive_ordering_loss(counts, params, phi=phi)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_duplicate_tokens_single_ordering(self, rng):
        params = random_deep_params(rng, 3, (2,), 2)
        counts = np.array([2, 0, 0])
        # both permutations of {a,a} are identical, so the expectation equals
        # the per-ordering value; compute one ordering by hand
        cols = np.arange(3)
        x0 = deep.prepare_histogram(np.array([[0, 0, 0]]), cols, 3, None)
        h0, _ = deep.deep_forward(x0, cols, params)
        term1 = -deep.output_log_probs(h0[-1], params.V_out, params.b_out)[0, 0]
        x1 = deep.prepare_histogram(np.array([[1, 0, 0]]), cols, 3, None)
        h1, _ = deep.deep_forward(x1, cols, params)
        term2 = -deep.output_log_probs(h1[-1], params.V_out, params.b_out)[0, 0]
        got = exhaustive_ordering_loss(counts, params)
        assert got == pytest.approx(term1 + term2, abs=1e-12)

    def test_estimator_expectation_matches(self, rng):
        for _ in range(5):
            vocab_size = int(rng.integers(3, 6))
            n_layers = int(rng.integers(1, 3))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_layers))
            counts = rng.multinomial(int(rng.integers(1, 5)), np.ones(vocab_size) / vocab_size)
            rho = float(rng.choice([1.0, 3.0]))
            omega = np.ones(vocab_size)
            omega[vocab_size // 2 :] = rho
            params = random_deep_params(rng, vocab_size, sizes, 2)
            exact = exhaustive_ordering_loss(counts, params, phi=omega, omega=omega)
            expected = estimator_expectation(counts, params, omega=omega, phi=omega)
            assert exact == pytest.approx(expected, abs=1e-10)

    def test_size_guard(self, rng):
        params = random_deep_params(rng, 3, (2,), 2)
        with pytest.raises(ValueError, match="too large"):
            exhaustive_ordering_loss(np.array([5, 3, 0]), params)


class TestDeepRepresent:
    def test_empty_doc_zero_biases(self):
        params = zero_deep_params(4, (3, 2), 2)
        rep = deep.deep_represent(np.zeros((1, 4), dtype=int), np.arange(4), None, params, None)[0]
        assert np.array_equal(rep, np.zeros(2))

    def test_equals_forward_on_same_histogram(self, rng):
        params = random_deep_params(rng, 5, (4, 3), 2)
        counts = np.array([2, 0, 1, 1, 0])
        omega = np.ones(5)
        cols = np.arange(5)
        rep = deep.deep_represent(counts[None], cols, None, params, omega)
        hs, _ = deep.deep_forward(deep.prepare_histogram(counts[None], cols, 5, omega), cols, params)
        assert np.array_equal(rep, hs[-1])

    def test_inference_dropout_scaling(self, rng):
        params = random_deep_params(rng, 5, (4,), 2)
        counts = np.array([1, 1, 0, 0, 2])
        cols = np.arange(5)
        full = deep.deep_represent(counts[None], cols, None, params, None, dropout_rate=0.0)
        scaled = deep.deep_represent(counts[None], cols, None, params, None, dropout_rate=0.5)
        assert np.allclose(scaled, 0.5 * full)


class TestCollapseToSoftmaxShallow:
    def test_single_layer_rho_one_matches_softmax_reference(self, rng):
        # with one hidden layer, rho=1, no features and raw histograms, the
        # per-token generative loss is the softmax-output shallow conditional
        vocab_size, hidden = 5, 3
        params = random_deep_params(rng, vocab_size, (hidden,), 2)
        context = np.array([1, 0, 2, 0, 0])
        target = 3
        ref = softmax_shallow_conditional(
            params.W1, params.c1,
            params.V_out, params.b_out, context,
        )
        out = np.zeros(vocab_size, dtype=int)
        out[target] = 1
        hs, _ = deep.deep_forward(
            dense_histogram(context, normalize=False)[None], np.arange(vocab_size), params
        )
        total = int(context.sum()) + 1
        (loss,), _ = deep.generative_loss(
            hs[-1], [(np.arange(vocab_size), out)], None, d=total, total_tokens=total,
            params=params,
        )
        factor = total / (total - total + 1)  # lone predicted token at position d
        assert loss / factor == pytest.approx(-ref[target], abs=1e-12)


# Fixed from float64: the batched step sums in another order than the
# per-document dense oracle, nothing else.
LOSS_RTOL = 1e-12
GRAD_ATOL = 1e-12  # times the largest entry of the gradient


def _batch_instance(rng, supervised, head, n_features, dropout, empty_doc=False):
    vocab_size, sizes, n_classes, batch = 30, (6, 5), 3, 5
    counts = np.zeros((batch, vocab_size), dtype=np.int64)
    for row in range(batch):
        ids = rng.choice(vocab_size, size=int(rng.integers(1, 6)), replace=False)
        counts[row, ids] = rng.integers(1, 4, size=len(ids))
    if empty_doc:
        counts[2] = 0
    omega = np.ones(vocab_size)
    omega[24:] = 3.0
    params = random_deep_params(rng, vocab_size, sizes, n_classes, n_features)

    def draw_masks():
        return [(rng.random(h) < 1.0 - dropout).astype(float) for h in sizes]

    splits, gen_masks, sup_masks, labels, features = [], [], [], [], []
    for row in range(batch):
        splits.append(deep.split_histogram(counts[row], rng))
        gen_masks.append(draw_masks() if dropout else None)
        sup_masks.append(draw_masks() if dropout and supervised else None)
        if not supervised:
            labels.append(None)
        elif head == "softmax":
            labels.append(frozenset({int(rng.integers(n_classes))}))
        else:
            labels.append(frozenset(np.flatnonzero(rng.random(n_classes) < 0.5).tolist()))
        features.append(rng.uniform(-1, 1, n_features) if n_features else None)
    return counts, labels, features, params, omega, splits, gen_masks, sup_masks


def _check_batch_against_oracle(instance, unsup_weight, head):
    counts, labels, features, params, omega, splits, gen_masks, sup_masks = instance
    losses, grads = deep.hybrid_loss_gradients(
        [(np.arange(counts.shape[1]), row) for row in counts], labels,
        None if features[0] is None else np.stack(features), params, unsup_weight, omega,
        splits, gen_masks, sup_masks, head=head,
    )
    expected = {name: np.zeros_like(arr) for name, arr in params.arrays()}
    for row in range(len(counts)):
        loss, doc_grads = dense_hybrid_loss_gradients(
            counts[row], labels[row], features[row], params, unsup_weight, omega, omega,
            splits[row], gen_masks[row], sup_masks[row], head=head,
        )
        assert losses[row] == pytest.approx(loss, rel=LOSS_RTOL, abs=0.0)
        for name in expected:
            expected[name] += doc_grads[name]
    cols = grads["W1"][1]
    assert np.array_equal(cols, np.flatnonzero(counts.any(axis=0)))
    assert not np.any(expected["W1"][:, np.setdiff1d(np.arange(counts.shape[1]), cols)])
    got = to_dense(grads, params)
    for name, want in expected.items():
        atol = GRAD_ATOL * np.abs(want).max()
        assert np.allclose(got[name], want, rtol=0.0, atol=atol), name


class TestBatchedStep:
    @pytest.mark.parametrize("kind", ["deepdocnade", "supdeepdocnade"])
    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    @pytest.mark.parametrize("n_features", [0, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_matches_per_document_oracle(self, rng, kind, head, n_features, dropout):
        supervised = kind == "supdeepdocnade"
        instance = _batch_instance(rng, supervised, head, n_features, dropout)
        _check_batch_against_oracle(instance, 0.7 if supervised else 1.0, head)

    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    def test_empty_document_in_supervised_batch(self, rng, head):
        instance = _batch_instance(rng, True, head, 2, 0.3, empty_doc=True)
        assert instance[5][2] is None  # the empty document has no split
        _check_batch_against_oracle(instance, 0.7, head)

    def test_zero_unsup_weight(self, rng):
        instance = _batch_instance(rng, True, "sigmoid", 2, 0.3)
        _check_batch_against_oracle(instance, 0.0, "sigmoid")

    def test_none_among_masks_is_an_error(self, rng):
        # with dropout every document draws masks, so a None is not ones
        counts, labels, _, params, omega, splits, gen_masks, sup_masks = _batch_instance(
            rng, False, "softmax", 0, 0.3)
        gen_masks[1] = None
        with pytest.raises(TypeError):
            deep.hybrid_loss_gradients(
                [(np.arange(counts.shape[1]), row) for row in counts], labels, None, params,
                1.0, omega, splits, gen_masks, sup_masks,
            )

    def test_rescale_from_nonzeros_matches_dense(self, rng):
        counts = np.array([[0, 3, 0, 1, 0, 0, 2], [0, 0, 0, 0, 0, 0, 0]])
        omega = np.array([1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0])
        cols = np.array([1, 3, 5, 6])
        x = deep.prepare_histogram(counts[:, cols], cols, 7, omega)
        for row in range(2):
            dense = dense_histogram(counts[row], omega)
            assert np.allclose(x[row], dense[cols], rtol=1e-14, atol=0.0)


class TestStepBlocks:
    """A step emits a gradient block only for the arrays its rows reach, and
    builds no placeholder or (rows, Q) target along the way."""

    def _block_names(self, kind, unsup_weight):
        corpus, _ = make_corpus(5, n_classes=3, n_visual=6, n_regions=2, anno_per_class=2,
                                docs_per_class=3, doc_len=8)
        config = TrainConfig(model_kind=kind, hidden_sizes=(5, 4),
                             unsup_weight=unsup_weight, batch_size=4, seed=2)
        params = init_sized(corpus.vocabulary.size, corpus.n_classes, 0, config,
                            np.random.default_rng(2))
        cache = trainer._doc_cache(corpus, config)
        kept, _, (grads,) = deep.batch_step([0, 1, 2, 3], params, config,
                                            training_streams(2), cache)
        assert kept == [0, 1, 2, 3]
        return set(grads)

    def test_unsupervised_step_has_no_class_head_block(self):
        names = self._block_names("deepdocnade", 1.0)
        assert names == {"W1", "c1", "W2", "c2", "V_out", "b_out"}

    def test_zero_unsup_weight_has_no_output_layer_block(self):
        names = self._block_names("supdeepdocnade", 0.0)
        assert names == {"W1", "c1", "W2", "c2", "U", "d"}

    def test_peak_memory_at_large_vocabulary(self):
        # Q = 20,000 and hidden 128,128: the returned gradient is 24 MiB,
        # 19.5 of them V_out's block; the bound leaves room for the (rows, Q)
        # softmax working set, not for a placeholder gradient per array and
        # a scaled copy of V_out's block besides
        vocab_size, n_docs, n_classes, n_features = 20_000, 32, 10, 8
        rng = np.random.default_rng(7)
        config = TrainConfig(model_kind="supdeepdocnade", hidden_sizes=(128, 128))
        params = init_sized(vocab_size, n_classes, n_features, config, rng)
        docs, splits, labels, features = [], [], [], []
        for _ in range(n_docs):
            ids = np.sort(rng.choice(vocab_size, size=150, replace=False))
            counts = rng.integers(1, 4, size=150)
            docs.append((ids, counts))
            splits.append(deep.split_histogram(counts, rng))
            labels.append(frozenset(np.flatnonzero(rng.random(n_classes) < 0.3).tolist()))
            features.append(rng.normal(size=n_features))
        omega = np.ones(vocab_size)
        features, nones = np.array(features), [None] * n_docs
        tracemalloc.start()
        try:
            deep.hybrid_loss_gradients(docs, labels, features, params, 0.5, omega,
                                       splits, nones, nones, head="sigmoid")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20
