"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Training-based criteria use the synthetic generator in gen.py, whose
Bayes-optimal rates are computed from the known class-conditional
distributions.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np

from conftest import (
    fd_gradient,
    max_rel_error,
    random_deep_params,
    random_shallow_params,
    shallow_instance_off_kink,
    sized_meta,
)
from docnade import deep, evaluate, shallow
from docnade.cli import main as cli_main
from docnade.corpus import build_vocabulary
from docnade.model_io import load_model, save_model
from docnade.trainer import TrainConfig, train_model
from docnade.wordtree import build_tree, words_log_prob
from gen import bayes_accuracy, make_corpus, write_corpus
from oracles import (
    Document,
    OpCounter,
    annotation_id,
    class_posterior,
    classify,
    corpus_of,
    dense_forward,
    dense_histogram,
    dense_supdocnade_gradients,
    document_hybrid_loss_gradients,
    documents,
    estimator_expectation,
    exhaustive_ordering_loss,
    fit_linear_classifier,
    is_annotation,
    path_length,
    token_array,
    word_log_prob,
)


def report(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def params_equal(a, b):
    return all(
        np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays())
    )


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_tree_normalization():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        vocab_size = int(rng.integers(2, 257))
        hidden = int(rng.integers(1, 9))
        tree = build_tree(vocab_size, trial)
        V = rng.normal(size=(vocab_size - 1, hidden))
        b = rng.normal(size=vocab_size - 1)
        h = rng.normal(size=hidden)
        total = np.exp(words_log_prob(tree, h, np.arange(vocab_size), V, b)).sum()
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"sum p(w|h) off by at most {worst:.2e} over 100 instances in {elapsed:.2f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_shallow_gradient_exactness():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    lambdas = [0.0, 0.3, 1.0]
    for trial in range(100):
        lam = lambdas[trial % 3]
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
    elapsed = time.perf_counter() - started
    report(2, worst <= 1e-4 and elapsed < 10.0,
           f"max relative error {worst:.2e} over 100 instances in {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_deep_gradient_exactness():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst = 0.0
    vocab_size, n_classes = 6, 3
    for depth, head, n_features in itertools.product(
        (1, 2, 3), ("softmax", "sigmoid"), (0, 2)
    ):
        sizes = tuple(int(rng.integers(3, 6)) for _ in range(depth))
        counts = rng.integers(0, 3, vocab_size)
        counts[0] += 1
        omega = np.ones(vocab_size)
        omega[4:] = 2.0
        features = rng.uniform(-1, 1, n_features) if n_features else None
        labels = frozenset({1}) if head == "softmax" else frozenset({0, 2})
        split = deep.split_histogram(counts, rng)
        gen_masks = [(rng.random(h) < 0.6).astype(float) for h in sizes]
        sup_masks = [(rng.random(h) < 0.6).astype(float) for h in sizes]
        lam = 0.7
        while True:
            params = random_deep_params(rng, vocab_size, sizes, n_classes, n_features)
            margins = []
            for raw in (counts, split.input_hist):
                x = dense_histogram(raw, omega)
                _, pres = dense_forward(x, params, features)
                margins.append(min(np.abs(p).min() for p in pres))
            if min(margins) > 1e-3:
                break
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
            worst = max(worst, max_rel_error(grads[name], fd_gradient(loss, arr)))
    elapsed = time.perf_counter() - started
    report(3, worst <= 1e-4 and elapsed < 30.0,
           f"max relative error {worst:.2e} over 12 configurations in {elapsed:.1f}s")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_estimator_unbiasedness():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        vocab_size = int(rng.integers(3, 6))
        depth = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(depth))
        total = int(rng.integers(1, 5))
        counts = rng.multinomial(total, np.ones(vocab_size) / vocab_size)
        rho = 1.0 if trial % 2 == 0 else 3.0
        omega = np.ones(vocab_size)
        omega[vocab_size // 2 :] = rho
        params = random_deep_params(rng, vocab_size, sizes, 2)
        exact = exhaustive_ordering_loss(counts, params, phi=omega, omega=omega)
        expected = estimator_expectation(counts, params, omega=omega, phi=omega)
        worst = max(worst, abs(exact - expected))
    elapsed = time.perf_counter() - started
    report(4, worst < 1e-8 and elapsed < 10.0,
           f"max |E[estimator] - exhaustive| = {worst:.2e} over 20 instances in {elapsed:.1f}s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_distribution_validity():
    rng = np.random.default_rng(505)
    vocab_size = 3
    worst = 0.0
    for _ in range(5):
        params = random_shallow_params(rng, vocab_size, 4, 2)
        tree = build_tree(vocab_size, int(rng.integers(100)))
        for length in range(4):
            total = sum(
                np.exp(shallow.doc_log_likelihood(np.array(seq, dtype=int), params, tree))
                for seq in itertools.product(range(vocab_size), repeat=length)
            )
            worst = max(worst, abs(total - 1.0))
    report(5, worst < 1e-8,
           f"sequence-probability sums off by at most {worst:.2e} for lengths 0..3")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_incremental_hidden_states():
    rng = np.random.default_rng(606)
    worst = 0.0
    for length in (1, 10, 50, 200):
        params = random_shallow_params(rng, 12, 6, 2)
        tokens = rng.integers(0, 12, length)
        fast = shallow.hidden_states(tokens, params)
        slow = []
        for i in range(length + 1):
            pre = params.c.copy()
            for token in tokens[:i]:
                pre = pre + params.W[:, token]
            slow.append(np.maximum(pre, 0.0))
        worst = max(worst, float(np.max(np.abs(fast - np.array(slow)))))
    report(6, worst < 1e-12,
           f"incremental vs naive hidden states differ by at most {worst:.2e} up to D=200")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_rho_one_reduction():
    rng = np.random.default_rng(707)
    identical = True
    for _ in range(10):
        vocab_size = 8
        counts = rng.integers(0, 3, vocab_size)  # mixed visual + annotation ids
        counts[1] += 1
        params = random_deep_params(rng, vocab_size, (4,), 3)
        split = deep.split_histogram(counts, rng)
        ones = np.ones(vocab_size)
        labels = frozenset({1})
        weighted = document_hybrid_loss_gradients(
            counts, labels, None, params, 0.8, ones, split, None, None
        )
        plain = document_hybrid_loss_gradients(
            counts, labels, None, params, 0.8, None, split, None, None
        )
        identical &= weighted[0] == plain[0]
        for name in weighted[1]:
            identical &= bool(np.array_equal(weighted[1][name], plain[1][name]))
    report(7, identical, "rho=1 weighting is bit-identical to the unweighted path")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_tree_cost_scaling():
    rng = np.random.default_rng(808)
    ok = True
    details = []
    for vocab_size in (2, 16, 1024):
        tree = build_tree(vocab_size, 0)
        V = np.zeros((vocab_size - 1, 3))
        b = np.zeros(vocab_size - 1)
        h = np.zeros(3)
        budget = int(np.ceil(np.log2(vocab_size)))
        seen = 0
        for word in rng.integers(0, vocab_size, 20):
            counter = OpCounter()
            word_log_prob(tree, h, int(word), V, b, counter=counter)
            seen = max(seen, counter.sigmoids)
            ok &= counter.sigmoids <= budget
        details.append(f"Q={vocab_size}:{seen}<={budget}")
    # million-leaf tree: structure only, no parameters are materialized
    big = 10**6
    tree = build_tree(big, 1)
    budget = int(np.ceil(np.log2(big)))
    longest = max(path_length(tree, int(w)) for w in rng.integers(0, big, 1000))
    ok &= longest <= budget
    details.append(f"Q=1e6:{longest}<={budget}")
    report(8, ok, "sigmoid evaluations per conditional: " + ", ".join(details))


# -- 9 ----------------------------------------------------------------------


def _supervised_accuracy(params, corpus):
    vocab = corpus.vocabulary
    reps = np.array([
        shallow.represent(corpus_of(vocab, [doc]), params, None, "visual-only")[0]
        for doc in documents(corpus)
    ])
    predicted = (reps @ params.U.T + params.d).argmax(axis=1)
    truth = np.array([next(iter(doc.labels)) for doc in documents(corpus)])
    return float(np.mean(predicted == truth))


def test_criterion_09_synthetic_classification():
    started = time.perf_counter()
    signal, doc_len = 0.35, 30
    train, probs = make_corpus(100, docs_per_class=100, doc_len=doc_len, signal=signal)
    test, _ = make_corpus(200, docs_per_class=100, doc_len=doc_len, signal=signal)
    vocab = train.vocabulary
    assert vocab.size == 200 and len(train) == 800 and len(test) == 800

    bayes = bayes_accuracy(test, probs)
    assert bayes >= 0.97, f"generator Bayes accuracy {bayes:.4f} below 0.97"

    # (a) one supervised run must reach 0.90 test accuracy
    config = TrainConfig(
        model_kind="supdocnade", hidden_sizes=(50,), learning_rate=0.05,
        unsup_weight=0.1, epochs=10, seed=0, averaging_decay=0.99,
    )
    result = train_model(train, config)
    acc_single = _supervised_accuracy(result.averaged, test)

    # (b) cross-validated lambda > 0 vs unsupervised features + classifier
    truth_train = np.array([next(iter(doc.labels)) for doc in documents(train)])
    truth_test = np.array([next(iter(doc.labels)) for doc in documents(test)])
    sup_scores, unsup_scores = [], []
    for seed in range(5):
        sub = corpus_of(vocab, documents(train)[:600], train.n_classes)
        val = corpus_of(vocab, documents(train)[600:], train.n_classes)
        best = None
        for lam in (0.1, 1.0):
            cv_config = TrainConfig(
                model_kind="supdocnade", hidden_sizes=(50,), learning_rate=0.05,
                unsup_weight=lam, epochs=6, seed=seed, averaging_decay=0.99,
            )
            cv_result = train_model(sub, cv_config)
            score = _supervised_accuracy(cv_result.averaged, val)
            if best is None or score > best[0]:
                best = (score, lam)
        chosen = TrainConfig(
            model_kind="supdocnade", hidden_sizes=(50,), learning_rate=0.05,
            unsup_weight=best[1], epochs=10, seed=seed, averaging_decay=0.99,
        )
        sup_result = train_model(train, chosen)
        sup_scores.append(_supervised_accuracy(sup_result.averaged, test))

        unsup_config = TrainConfig(
            model_kind="docnade", hidden_sizes=(50,), learning_rate=0.01,
            epochs=10, seed=seed, averaging_decay=0.99,
        )
        unsup_result = train_model(train, unsup_config)
        reps_train = np.array([
            shallow.represent(corpus_of(vocab, [d]), unsup_result.averaged, None, "visual-only")[0]
            for d in documents(train)
        ])
        reps_test = np.array([
            shallow.represent(corpus_of(vocab, [d]), unsup_result.averaged, None, "visual-only")[0]
            for d in documents(test)
        ])
        clf = fit_linear_classifier(reps_train, truth_train)
        unsup_scores.append(
            evaluate.accuracy(classify(clf, reps_test), truth_test)
        )

    elapsed = time.perf_counter() - started
    ok = acc_single >= 0.90 and np.mean(sup_scores) >= np.mean(unsup_scores) and elapsed < 300
    report(9, ok,
           f"bayes={bayes:.3f} single-run acc={acc_single:.3f}, "
           f"mean supervised={np.mean(sup_scores):.3f} >= "
           f"mean unsupervised+classifier={np.mean(unsup_scores):.3f} "
           f"over 5 seeds in {elapsed:.0f}s")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_synthetic_annotation():
    started = time.perf_counter()
    train, _ = make_corpus(300, docs_per_class=50, doc_len=30, signal=0.5)
    test, _ = make_corpus(301, docs_per_class=50, doc_len=30, signal=0.5)
    vocab = train.vocabulary

    # generator claim behind the Bayes F = 1.0 optimum: each document carries
    # exactly its class's 5 annotation words
    for doc in documents(test):
        label = next(iter(doc.labels))
        expected = {annotation_id(vocab, label * 5 + j) for j in range(5)}
        truth = {i for i in doc.counts if is_annotation(vocab, i)}
        assert truth == expected

    config = TrainConfig(
        model_kind="supdocnade", hidden_sizes=(50,), learning_rate=0.01,
        unsup_weight=1.0, epochs=12, seed=0, averaging_decay=0.99,
    )
    result = train_model(train, config)
    tree = build_tree(result.meta.vocab_size, result.meta.tree_seed)
    pairs = []
    for doc in documents(test):
        (ids,), _ = shallow.predict_annotations(corpus_of(vocab, [doc]), result.averaged, tree, 5)
        truth = {i for i in doc.counts if is_annotation(vocab, i)}
        pairs.append((set(int(i) for i in ids), truth))
    mean_f, skipped = evaluate.mean_f_measure(pairs)
    elapsed = time.perf_counter() - started
    report(10, mean_f >= 0.8 and skipped == 0 and elapsed < 300,
           f"top-5 F-measure {mean_f:.3f} (Bayes optimum 1.0) in {elapsed:.0f}s")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_training_monotonicity():
    started = time.perf_counter()
    corpus, _ = make_corpus(
        400, n_classes=8, n_visual=10, n_regions=4, anno_per_class=2,
        docs_per_class=25, doc_len=25, signal=0.5,
    )
    settings = {
        "docnade": dict(hidden_sizes=(16,), learning_rate=0.01),
        "supdocnade": dict(hidden_sizes=(16,), learning_rate=0.02, unsup_weight=0.5),
        "deepdocnade": dict(hidden_sizes=(24, 16), learning_rate=0.1),
        "supdeepdocnade": dict(hidden_sizes=(24, 16), learning_rate=0.1, unsup_weight=1.0),
    }
    ok = True
    outcomes = []
    for kind, overrides in settings.items():
        for seed in range(3):
            config = TrainConfig(model_kind=kind, epochs=20, seed=seed,
                                 averaging_decay=0.9, **overrides)
            result = train_model(corpus, config)
            first, last = result.stats[0].mean_loss, result.stats[-1].mean_loss
            ok &= last < first
            outcomes.append(f"{kind}/s{seed}:{first:.0f}->{last:.0f}")
    elapsed = time.perf_counter() - started
    report(11, ok, f"epoch-20 < epoch-1 loss for all kinds x 3 seeds ({elapsed:.0f}s)")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_determinism_and_persistence(tmp_path):
    corpus, _ = make_corpus(
        12, n_classes=3, n_visual=5, n_regions=2, anno_per_class=2,
        docs_per_class=6, doc_len=12, signal=0.6,
    )
    corpus_path = tmp_path / "c.corpus"
    write_corpus(corpus, corpus_path)

    # identical manifest => byte-identical model file
    flags = [
        "train", "--corpus", str(corpus_path), "--model", "supdocnade",
        "--hidden", "8", "--lambda", "0.5", "--lr", "0.1", "--epochs", "3",
        "--seed", "4",
    ]
    model_bytes = []
    for out in ("runA", "runB"):
        assert cli_main(flags + ["--out", str(tmp_path / out)]) == 0
        run_dir = next((tmp_path / out).iterdir())
        model_bytes.append((run_dir / "model.bin").read_bytes())
    bytes_equal = model_bytes[0] == model_bytes[1]

    # save -> load -> eval reproduces metrics exactly
    config = TrainConfig(model_kind="supdocnade", hidden_sizes=(8,), learning_rate=0.1,
                         unsup_weight=0.5, epochs=3, seed=4)
    result = train_model(corpus, config)
    before = _supervised_accuracy(result.averaged, corpus)
    ppl_before = evaluate.perplexity(corpus, result.averaged, result.meta, 1,
                                     np.random.default_rng(0))
    model_path = tmp_path / "model.bin"
    save_model(model_path, result.averaged, result.meta)
    loaded, meta = load_model(model_path)
    after = _supervised_accuracy(loaded, corpus)
    ppl_after = evaluate.perplexity(corpus, loaded, meta, 1, np.random.default_rng(0))
    metrics_equal = before == after and ppl_before == ppl_after

    # checkpoint-resume equals the uninterrupted run
    ckpt_dir = tmp_path / "ckpts"
    os.makedirs(ckpt_dir)
    config6 = TrainConfig(model_kind="supdocnade", hidden_sizes=(8,), learning_rate=0.1,
                          unsup_weight=0.5, epochs=6, seed=4)
    full = train_model(corpus, config6, checkpoint_dir=ckpt_dir)
    resumed = train_model(corpus, config6, resume=ckpt_dir / "epoch_0003.ckpt")
    resume_equal = params_equal(full.params, resumed.params) and params_equal(
        full.averaged, resumed.averaged
    )

    report(12, bytes_equal and metrics_equal and resume_equal,
           f"byte-identical rerun={bytes_equal}, save/load metrics equal={metrics_equal}, "
           f"resume equals uninterrupted={resume_equal}")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_metric_oracles():
    rng = np.random.default_rng(1313)
    ok = True

    # f_measure vs direct set arithmetic (exact)
    for _ in range(50):
        predicted = set(rng.choice(30, rng.integers(1, 8), replace=False).tolist())
        truth = set(rng.choice(30, rng.integers(1, 8), replace=False).tolist())
        hits = len(predicted & truth)
        if hits == 0:
            expected = 0.0
        else:
            p, r = hits / len(predicted), hits / len(truth)
            expected = 2 * p * r / (p + r)
        ok &= evaluate.f_measure(predicted, truth) == expected

    # average precision vs explicit PR point list (1e-10)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        scores = rng.random(n)
        relevant = rng.random(n) < 0.4
        if not relevant.any():
            relevant[int(rng.integers(n))] = True
        got = evaluate.average_precision(scores, relevant)
        order = np.lexsort((np.arange(n), -scores))
        rel_sorted = relevant[order]
        hits, prev_recall, area = 0, 0.0, 0.0
        n_rel = rel_sorted.sum()
        for rank, is_rel in enumerate(rel_sorted, start=1):
            hits += is_rel
            recall = hits / n_rel
            area += (recall - prev_recall) * (hits / rank)
            prev_recall = recall
        ok &= abs(got - area) < 1e-10

    # cosine retrieval vs brute-force pairwise sort (exact ranking)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        collection = rng.normal(size=(n, 4))
        query = rng.normal(size=4)
        ranked = evaluate.cosine_retrieve(query, collection, n)
        sims = []
        for i, vec in enumerate(collection):
            denom = np.linalg.norm(vec) * np.linalg.norm(query)
            sims.append((-(vec @ query / denom) if denom > 0 else 0.0, i))
        brute = [i for _, i in sorted(sims)]
        ok &= ranked.ids.tolist() == brute

    # perplexity vs independent aggregation of per-document likelihoods
    # (single-word documents make the sampled ordering irrelevant)
    for trial in range(50):
        vocab = build_vocabulary(int(rng.integers(2, 5)), 2)
        params = random_shallow_params(rng, vocab.size, 3, 2)
        tree = build_tree(vocab.size, trial)
        count_dicts = [
            {int(rng.integers(vocab.size)): int(rng.integers(1, 5))}
            for _ in range(int(rng.integers(1, 5)))
        ]
        corpus = corpus_of(vocab, tuple(Document(c) for c in count_dicts), 2)
        meta = replace(sized_meta(vocab.size, 2, 0, (3,)), tree_seed=trial)
        got = evaluate.perplexity(corpus, params, meta, 2, np.random.default_rng(trial))
        total_ll = sum(
            shallow.doc_log_likelihood(token_array(Document(c)), params, tree)
            for c in count_dicts
        )
        total_tokens = sum(sum(c.values()) for c in count_dicts)
        ok &= abs(got - np.exp(-total_ll / total_tokens)) < 1e-10

    report(13, ok, "f_measure, average_precision, cosine_retrieve, perplexity "
                   "all match their brute-force oracles on 50 random cases")
