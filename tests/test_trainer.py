import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import init_sized, sized_meta
from docnade import deep, numerics, shallow, trainer
from docnade.corpus import build_vocabulary, weight_vector
from docnade.deep import split_histogram
from docnade.model_io import load_checkpoint, load_model, save_model
from docnade.numerics import call_all
from docnade.rng import named_stream, training_streams
from docnade.trainer import (
    TrainConfig,
    TrainingDivergedError,
    init_averaged,
    init_params,
    train_model,
)
from docnade.wordtree import build_tree
from gen import make_corpus
from oracles import (
    DEEP_KINDS,
    Document,
    corpus_of,
    dense_counts,
    dense_deep_epoch,
    dense_hybrid_loss_gradients,
    dense_polyak_update,
    dense_shallow_epoch,
    documents,
    glorot_init,
    maybe_glorot,
)


def params_equal(a, b):
    return all(
        np.array_equal(arr_a, arr_b)
        for (_, arr_a), (_, arr_b) in zip(a.arrays(), b.arrays())
    )


def small_corpus(seed=0, **kwargs):
    defaults = dict(
        n_classes=4, n_visual=6, n_regions=2, anno_per_class=2,
        docs_per_class=10, doc_len=12, signal=0.6,
    )
    defaults.update(kwargs)
    corpus, _ = make_corpus(seed, **defaults)
    return corpus


class TestGlorotInit:
    def test_square_bound_is_one(self, rng):
        out = glorot_init(3, 3, rng)
        assert np.abs(out).max() <= 1.0

    def test_one_by_five_bound_is_one(self, rng):
        out = glorot_init(1, 5, rng)
        assert np.abs(out).max() <= 1.0

    def test_large_draw_statistics(self):
        rng = np.random.default_rng(0)
        n = 2048
        out = glorot_init(n, n, rng)
        bound = np.sqrt(6.0) / np.sqrt(2 * n)
        assert out.min() >= -bound and out.max() <= bound
        # mean of n^2 iid uniform(-bound, bound): std = bound / sqrt(3 n^2)
        sigma = bound / np.sqrt(3 * n * n)
        assert abs(out.mean()) < 3 * sigma

    def test_degenerate_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            glorot_init(0, 3, rng)


def _glorot_shapes(family, vocab_size, n_classes, n_features, hidden_sizes):
    """Each (rows, cols) that `init_params` draws for `family`, in draw order."""
    if family is shallow:
        (hidden,) = hidden_sizes
        return [(hidden, vocab_size), (vocab_size - 1, hidden), (n_classes, hidden)]
    sizes = (vocab_size, *hidden_sizes)
    return [*((sizes[i + 1], sizes[i]) for i in range(len(hidden_sizes))),
            (n_features, hidden_sizes[0]), (vocab_size, hidden_sizes[-1]),
            (n_classes, hidden_sizes[-1])]


class TestConcurrentInit:
    """`init_params` draws both families' arrays on two threads, each from its
    own advanced copy of the init stream; the bytes and the stream's state
    afterwards are those of a sequential `maybe_glorot` loop."""

    @pytest.mark.parametrize("family, hidden_sizes, n_features, n_classes", [
        (shallow, (5,), 0, 3),
        (shallow, (5,), 0, 0),
        (deep, (5,), 0, 3),
        (deep, (5,), 4, 3),
        (deep, (5,), 4, 0),
        (deep, (5, 4, 3), 0, 3),
        (deep, (5, 4, 3), 4, 3),
        (deep, (5, 4, 3), 4, 0),
    ])
    def test_init_equals_sequential_draws(self, family, hidden_sizes, n_features, n_classes):
        vocab_size = 23
        rng = named_stream(7, "init")
        kind = "supdocnade" if family is shallow else "supdeepdocnade"
        params = init_params(sized_meta(vocab_size, n_classes, n_features, hidden_sizes, kind),
                             rng)
        if family is shallow:
            drawn = [params.W, params.V, params.U]
        else:
            P = params.P if n_features else np.zeros((0, hidden_sizes[0]))
            drawn = [*(getattr(params, f"W{n}") for n in range(1, len(hidden_sizes) + 1)), P,
                     params.V_out, params.U]

        sequential = named_stream(7, "init")
        expected = [maybe_glorot(rows, cols, sequential) for rows, cols
                    in _glorot_shapes(family, vocab_size, n_classes, n_features, hidden_sizes)]
        assert len(drawn) == len(expected)
        for got, want in zip(drawn, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == sequential.bit_generator.state
        assert rng.random() == sequential.random()


class TestCallAll:
    def test_failure_is_raised_after_every_call_ends(self):
        ended = []

        def fail():
            raise OSError("first")

        def slow():
            time.sleep(0.05)
            ended.append(True)
            return 2

        threads = threading.active_count()
        with pytest.raises(OSError, match="first"):
            call_all([fail, slow])
        assert ended == [True] and threading.active_count() == threads
        assert call_all([lambda: 1, slow, lambda: 3]) == [1, 2, 3]

    def test_first_call_runs_on_the_calling_thread(self):
        caller = threading.get_ident()
        assert call_all([threading.get_ident, lambda: 2]) == [caller, 2]

    @pytest.mark.parametrize("threads, n_calls", [(2, 1), (1, 3)])
    def test_one_call_or_one_thread_starts_no_thread(self, monkeypatch, threads, n_calls):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(numerics, "THREADS", threads)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert call_all([threading.get_ident] * n_calls) == [threading.get_ident()] * n_calls


class TestPolyak:
    def _pair(self, rng, decay):
        params = init_sized(5, 2, 0, TrainConfig(model_kind="docnade", hidden_sizes=(3,)),
                            rng)
        return init_averaged(params, decay)

    def test_decay_zero_copies_current(self, rng):
        avg = self._pair(rng, 0.0)
        avg.current.W += 1.0
        dense_polyak_update(avg)
        assert params_equal(avg.current, avg.averaged)

    def test_fixed_point_is_exact(self, rng):
        avg = self._pair(rng, 0.999)
        before = avg.current.copy()
        for _ in range(50):
            dense_polyak_update(avg)
        assert params_equal(avg.averaged, before)
        assert params_equal(avg.current, before)

    def test_geometric_contraction(self, rng):
        avg = self._pair(rng, 0.5)
        avg.current.W += 2.0
        gaps = []
        for _ in range(4):
            dense_polyak_update(avg)
            gaps.append(np.abs(avg.averaged.W - avg.current.W).max())
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert np.allclose(ratios, 0.5)

    def test_two_step_hand_recursion(self):
        # decay 0.5, current values 0 then 1: averaged ends at 0.5
        params = init_sized(
            3, 0, 0, TrainConfig(model_kind="docnade", hidden_sizes=(2,)),
            np.random.default_rng(0),
        )
        for _, arr in params.arrays():
            arr[:] = 0.0
        avg = init_averaged(params, 0.5)
        dense_polyak_update(avg)
        for _, arr in avg.current.arrays():
            arr[:] = 1.0
        dense_polyak_update(avg)
        for _, arr in avg.averaged.arrays():
            assert np.allclose(arr, 0.5)

    def test_never_mutates_current(self, rng):
        avg = self._pair(rng, 0.9)
        avg.current.W += 3.0
        snapshot = avg.current.copy()
        dense_polyak_update(avg)
        assert params_equal(avg.current, snapshot)


class TestLazyAverageStep:
    def test_step_scales_blocks_in_place(self):
        # a whole-array V_out block at Q = 20,000, H = 128 is 19.5 MiB; the
        # step applies it without a scaled copy
        import tracemalloc

        config = TrainConfig(model_kind="deepdocnade", hidden_sizes=(128,))
        params = init_sized(20_000, 0, 0, config, named_stream(0, "init"))
        lazy = trainer._LazyAverage(init_averaged(params, 0.9))
        block = np.random.default_rng(0).normal(size=params.V_out.shape)
        expected = params.V_out - 0.01 * block
        tracemalloc.start()
        try:
            trainer.polyak_update(lazy, [{"V_out": (0, slice(None), block)}], 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes / 100
        assert np.array_equal(params.V_out, expected)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        bad = [
            dict(model_kind="nope"),
            dict(learning_rate=-1),
            dict(dropout_rate=1.0),
            dict(averaging_decay=1.0),
            dict(batch_size=0),
            dict(head="sigmoid", model_kind="supdocnade"),
            dict(model_kind="docnade", hidden_sizes=(4, 4)),
            dict(hidden_sizes=()),
            dict(unsup_weight=-0.5),
        ]
        for overrides in bad:
            with pytest.raises(ValueError):
                TrainConfig(**overrides).validate()

    def test_accepts_defaults(self):
        TrainConfig().validate()
        TrainConfig(model_kind="supdeepdocnade", hidden_sizes=(8, 8), head="sigmoid").validate()


class TestSgdTraining:
    def test_zero_learning_rate_is_noop(self):
        corpus = small_corpus()
        config = TrainConfig(
            model_kind="supdocnade", hidden_sizes=(8,), learning_rate=0.0,
            epochs=2, seed=3, averaging_decay=0.9,
        )
        expected_init = init_sized(
            corpus.vocabulary.size, corpus.n_classes, 0, config, named_stream(3, "init")
        )
        result = train_model(corpus, config)
        assert params_equal(result.params, expected_init)
        assert params_equal(result.averaged, expected_init)
        assert len(result.stats) == 2
        assert all(np.isfinite(s.mean_loss) for s in result.stats)

    @pytest.mark.parametrize("kind,sizes", [
        ("docnade", (8,)), ("supdocnade", (8,)),
        ("deepdocnade", (8, 6)), ("supdeepdocnade", (8, 6)),
    ])
    def test_deterministic_across_runs(self, kind, sizes):
        corpus = small_corpus(docs_per_class=3)
        config = TrainConfig(
            model_kind=kind, hidden_sizes=sizes, learning_rate=0.05,
            epochs=2, seed=11, dropout_rate=0.3 if kind.endswith("deepdocnade") else 0.0,
        )
        a = train_model(corpus, config)
        b = train_model(corpus, config)
        assert params_equal(a.params, b.params)
        assert params_equal(a.averaged, b.averaged)
        assert [s.mean_loss for s in a.stats] == [s.mean_loss for s in b.stats]

    def test_single_doc_corpus_determinism(self):
        vocab = build_vocabulary(4, 2, ["x"])
        doc = Document({0: 2, 8: 1}, frozenset({0}))
        corpus = corpus_of(vocab, (doc,), n_classes=2)
        config = TrainConfig(model_kind="supdocnade", hidden_sizes=(4,),
                             learning_rate=0.1, epochs=3, seed=5)
        a = train_model(corpus, config)
        b = train_model(corpus, config)
        assert params_equal(a.params, b.params)

    def test_training_reduces_nll(self):
        corpus = small_corpus(docs_per_class=25, doc_len=20)
        config = TrainConfig(
            model_kind="docnade", hidden_sizes=(16,), learning_rate=0.1,
            epochs=20, seed=1, averaging_decay=0.0,
        )
        result = train_model(corpus, config)
        assert result.stats[-1].mean_loss < result.stats[0].mean_loss

    def test_divergence_reports_document(self):
        corpus = small_corpus(docs_per_class=5)
        config = TrainConfig(model_kind="docnade", hidden_sizes=(8,),
                             learning_rate=0.01, epochs=1, seed=0)
        params = init_sized(corpus.vocabulary.size, corpus.n_classes, 0,
                            config, named_stream(0, "init"))
        params.W[0, 0] = np.nan  # poisoned state: first touched doc must be named
        avg = init_averaged(params, 0.0)
        streams = training_streams(0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="document"):
                trainer.sgd_epoch(corpus, avg, config, streams,
                                  trainer._doc_cache(corpus, config))

    def test_empty_documents_skipped_in_unsupervised_mode(self):
        vocab = build_vocabulary(3, 2, ["x"])
        docs = (
            Document({0: 1}),
            Document({}),
            Document({1: 2}),
        )
        corpus = corpus_of(vocab, docs, n_classes=1)
        config = TrainConfig(model_kind="docnade", hidden_sizes=(4,),
                             learning_rate=0.01, epochs=1, seed=0)
        result = train_model(corpus, config)
        assert result.stats[0].n_documents == 2
        assert result.stats[0].n_skipped == 1

    def test_deep_batch_skips_an_empty_document(self):
        vocab = build_vocabulary(3, 2, ["x"])
        docs = (Document({0: 1}), Document({}), Document({1: 2}))
        config = TrainConfig(model_kind="deepdocnade", hidden_sizes=(4,), learning_rate=0.01,
                             epochs=1, batch_size=3, seed=0)
        result = train_model(corpus_of(vocab, docs, n_classes=1), config)
        assert result.stats[0].n_documents == 2
        assert result.stats[0].n_skipped == 1

    def test_epoch_log_lines(self, tmp_path):
        corpus = small_corpus(docs_per_class=2)
        log = tmp_path / "train.log"
        config = TrainConfig(model_kind="docnade", hidden_sizes=(4,),
                             learning_rate=0.01, epochs=3, seed=0)
        train_model(corpus, config, log_file=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            epoch, loss, wall = line.split("\t")
            assert int(epoch) == i
            assert np.isfinite(float(loss))
            assert float(wall) >= 0


class TestCheckpointResume:
    @pytest.mark.parametrize("kind,sizes", [("supdocnade", (6,)), ("supdeepdocnade", (6, 5))])
    def test_resume_equals_uninterrupted(self, tmp_path, kind, sizes):
        corpus = small_corpus(docs_per_class=4)
        config = TrainConfig(
            model_kind=kind, hidden_sizes=sizes, learning_rate=0.05, epochs=6,
            seed=2, dropout_rate=0.2 if kind == "supdeepdocnade" else 0.0,
        )
        full = train_model(corpus, config, checkpoint_dir=tmp_path)
        resumed = train_model(corpus, config, resume=tmp_path / "epoch_0003.ckpt")
        assert params_equal(full.params, resumed.params)
        assert params_equal(full.averaged, resumed.averaged)

    def test_resume_equals_uninterrupted_over_long_documents(self, tmp_path):
        """Documents longer than one token block of the cached layout."""
        corpus = small_corpus(docs_per_class=1, doc_len=shallow.BLOCK_TOKENS + 30)
        config = TrainConfig(model_kind="docnade", hidden_sizes=(5,), learning_rate=0.02,
                             epochs=4, seed=6, averaging_decay=0.7)
        full = train_model(corpus, config, checkpoint_dir=tmp_path)
        resumed = train_model(corpus, config, resume=tmp_path / "epoch_0002.ckpt")
        assert params_equal(full.params, resumed.params)
        assert params_equal(full.averaged, resumed.averaged)

    @pytest.mark.parametrize("kind,sizes,extra", [
        ("supdocnade", (6,), {}),
        ("supdeepdocnade", (6, 5), dict(dropout_rate=0.2, batch_size=3)),
    ], ids=["supdocnade", "supdeepdocnade"])
    def test_resume_across_the_pretraining_boundary(self, tmp_path, kind, sizes, extra):
        """Resuming from any checkpoint of either stage of a pretrained run
        gives the uninterrupted run's arrays and model file bytes."""
        labeled = small_corpus(docs_per_class=4)
        unlabeled = small_corpus(2, docs_per_class=4, labeled=False)
        config = TrainConfig(model_kind=kind, hidden_sizes=sizes, learning_rate=0.05, epochs=3,
                             pretrain_epochs=3, seed=2, **extra)

        def run(path, **kwargs):
            return train_model(labeled, config, pretrain=unlabeled,
                               write_model=partial(save_model, path), **kwargs)

        full = run(tmp_path / "full.bin", checkpoint_dir=tmp_path / "ckpt")
        checkpoints = sorted((tmp_path / "ckpt").glob("**/epoch_*.ckpt"))
        assert len(checkpoints) == 6
        for index, ckpt in enumerate(checkpoints):
            resumed = run(tmp_path / f"resumed{index}.bin", resume=ckpt)
            assert params_equal(full.params, resumed.params), ckpt
            assert params_equal(full.averaged, resumed.averaged), ckpt
            assert ((tmp_path / f"resumed{index}.bin").read_bytes()
                    == (tmp_path / "full.bin").read_bytes()), ckpt
        with pytest.raises(ValueError, match="checkpoint.*kind"):
            train_model(labeled, config, resume=tmp_path / "ckpt" / "pretrain" / "epoch_0002.ckpt")

    def test_resume_past_the_stage_epochs_is_refused(self, tmp_path):
        corpus = small_corpus(docs_per_class=4)
        config = TrainConfig(model_kind="supdocnade", hidden_sizes=(6,), learning_rate=0.05,
                             epochs=6, seed=2)
        train_model(corpus, config, checkpoint_dir=tmp_path)
        short = replace(config, epochs=3)
        with pytest.raises(ValueError, match="epoch 5, past the 3 epochs"):
            train_model(corpus, short, resume=tmp_path / "epoch_0005.ckpt")
        # the stage's last checkpoint trains nothing more and gives its arrays
        resumed = train_model(corpus, short, resume=tmp_path / "epoch_0003.ckpt")
        full = train_model(corpus, short)
        assert resumed.stats == []
        assert params_equal(full.params, resumed.params)
        assert params_equal(full.averaged, resumed.averaged)

    @pytest.mark.parametrize("kind,sizes,changed,field", [
        ("docnade", (4,), dict(hidden_sizes=(5,)), "hidden_sizes"),
        # another seed lays out another word tree, which the V rows do not fit
        ("docnade", (4,), dict(seed=7), "tree_seed"),
        ("supdeepdocnade", (4, 3), dict(anno_weight=2.0), "anno_weight"),
    ], ids=["hidden_sizes", "tree_seed", "anno_weight"])
    def test_checkpoint_mismatch_detected(self, tmp_path, kind, sizes, changed, field):
        corpus = small_corpus(docs_per_class=2)
        config = TrainConfig(model_kind=kind, hidden_sizes=sizes, epochs=1, seed=0)
        train_model(corpus, config, checkpoint_dir=tmp_path)
        other = TrainConfig(**{**vars(config), "epochs": 2, **changed})
        with pytest.raises(ValueError, match=f"checkpoint.*{field}"):
            train_model(corpus, other, resume=tmp_path / "epoch_0001.ckpt")


class TestPretrainFinetune:
    def test_vocabulary_mismatch_rejected(self):
        a = small_corpus(0)
        b, _ = make_corpus(0, n_classes=4, n_visual=5, n_regions=2, anno_per_class=2,
                           docs_per_class=2, doc_len=5)
        config = TrainConfig(model_kind="supdocnade", hidden_sizes=(4,), epochs=1)
        with pytest.raises(ValueError, match="vocabular"):
            train_model(a, config, pretrain=b)

    @pytest.mark.parametrize("kind,sizes", [("docnade", (4,)), ("deepdocnade", (4, 3))])
    def test_unsupervised_kind_rejected(self, kind, sizes):
        corpus = small_corpus(docs_per_class=2)
        config = TrainConfig(model_kind=kind, hidden_sizes=sizes, epochs=1, pretrain_epochs=1)
        with pytest.raises(ValueError, match=f"supervised model kind, not '{kind}'"):
            train_model(corpus, config, pretrain=corpus)

    def test_zero_pretraining_epochs_starts_from_init(self):
        corpus = small_corpus(docs_per_class=3)
        config = TrainConfig(
            model_kind="supdeepdocnade", hidden_sizes=(6,), learning_rate=0.0,
            epochs=0, pretrain_epochs=0, seed=4,
        )
        result = train_model(corpus, config, pretrain=corpus)
        # lr=0 and no epochs anywhere: body weights equal the fresh
        # unsupervised init, head weights equal the fine-tune head init
        pre_config = TrainConfig(model_kind="deepdocnade", hidden_sizes=(6,), seed=4)
        fresh = init_sized(corpus.vocabulary.size, corpus.n_classes, 0,
                           pre_config, named_stream(4, "init"))
        assert np.array_equal(result.params.W1, fresh.W1)
        assert np.array_equal(result.params.V_out, fresh.V_out)
        head = maybe_glorot(corpus.n_classes, 6, named_stream(4, "init_finetune"))
        assert np.array_equal(result.params.U, head)
        assert np.array_equal(result.params.d, np.zeros(corpus.n_classes))

    def test_pretraining_helps_first_finetune_epoch(self):
        labeled = small_corpus(1, docs_per_class=8)
        unlabeled = small_corpus(2, docs_per_class=25, labeled=False)
        losses_pre, losses_scratch = [], []
        for seed in range(5):
            base = dict(
                model_kind="supdeepdocnade", hidden_sizes=(12,), learning_rate=0.05,
                epochs=1, seed=seed, unsup_weight=1.0,
            )
            with_pre = train_model(
                labeled, TrainConfig(**base, pretrain_epochs=5), pretrain=unlabeled
            )
            without = train_model(
                labeled, TrainConfig(**base, pretrain_epochs=0), pretrain=unlabeled
            )
            losses_pre.append(with_pre.stats[0].mean_loss)
            losses_scratch.append(without.stats[0].mean_loss)
        assert np.mean(losses_pre) < np.mean(losses_scratch)

    def test_checkpoints_written_per_epoch(self, tmp_path):
        corpus = small_corpus(docs_per_class=2)
        config = TrainConfig(model_kind="supdocnade", hidden_sizes=(4,),
                             epochs=2, pretrain_epochs=2, seed=0)
        train_model(corpus, config, pretrain=corpus, checkpoint_dir=tmp_path)
        assert (tmp_path / "pretrain" / "epoch_0002.ckpt").exists()
        assert (tmp_path / "epoch_0002.ckpt").exists()


class TestWordMajorW:
    """The shallow W stays column-major, each word's column one contiguous
    run, through every path that makes or replaces it."""

    CONFIG = dict(model_kind="supdocnade", hidden_sizes=(4,), epochs=1, seed=2)

    @staticmethod
    def _assert_word_major(*params):
        for p in params:
            assert p.W.shape[0] > 1 and p.W.flags.f_contiguous

    def test_init_and_copy(self, rng):
        params = init_params(sized_meta(21, 3, 0, (4,), "supdocnade"), rng)
        self._assert_word_major(params, params.copy())

    def test_one_epoch(self):
        corpus = small_corpus(docs_per_class=2)
        config = TrainConfig(**self.CONFIG)
        avg = init_averaged(init_sized(corpus.vocabulary.size, corpus.n_classes, 0, config,
                                       named_stream(2, "init")), 0.9)
        trainer.sgd_epoch(corpus, avg, config, training_streams(2),
                          trainer._doc_cache(corpus, config))
        self._assert_word_major(avg.current, avg.averaged)

    def test_loaded_model_and_checkpoint(self, tmp_path):
        result = train_model(small_corpus(docs_per_class=2), TrainConfig(**self.CONFIG),
                             checkpoint_dir=tmp_path)
        save_model(tmp_path / "model.bin", result.averaged, result.meta)
        params, averaged, *_ = load_checkpoint(tmp_path / "epoch_0001.ckpt")
        self._assert_word_major(load_model(tmp_path / "model.bin")[0], params, averaged)

    def test_pretrain_then_finetune(self):
        corpus = small_corpus(docs_per_class=2)
        result = train_model(corpus, TrainConfig(**self.CONFIG, pretrain_epochs=1),
                             pretrain=corpus)
        self._assert_word_major(result.params, result.averaged)


class TestBatchedDeepStep:
    BATCH = 4

    def _setup(self, seed=7):
        corpus = small_corpus(docs_per_class=1, doc_len=3, n_visual=10, n_features=2)
        config = TrainConfig(
            model_kind="supdeepdocnade", hidden_sizes=(6, 5), learning_rate=0.1,
            unsup_weight=0.6, anno_weight=3.0, dropout_rate=0.3, head="sigmoid",
            epochs=1, batch_size=self.BATCH, seed=seed,
        )
        params = init_sized(corpus.vocabulary.size, corpus.n_classes, corpus.n_features,
                            config, named_stream(seed, "init"))
        return corpus, config, params

    def test_one_step_equals_oracle_sum(self):
        corpus, config, params = self._setup()
        assert len(corpus) == self.BATCH  # one mini-batch per epoch
        before = params.copy()
        avg = init_averaged(params, 0.5)
        trainer.sgd_epoch(corpus, avg, config, training_streams(config.seed),
                          trainer._doc_cache(corpus, config))

        # replay the step's random draws and sum the per-document oracle
        streams = training_streams(config.seed)
        omega = weight_vector(corpus.vocabulary, config.anno_weight)
        size = corpus.vocabulary.size
        expected = {name: np.zeros_like(arr) for name, arr in before.arrays()}
        present = np.zeros(size, dtype=bool)
        for doc_idx in streams["shuffle"].permutation(len(corpus)):
            doc = documents(corpus)[doc_idx]
            counts = dense_counts(doc, size)
            present |= counts > 0
            split = split_histogram(counts, streams["split"])
            keep = 1.0 - config.dropout_rate
            masks = [[(streams["dropout"].random(h) < keep).astype(float)
                      for h in config.hidden_sizes] for _ in range(2)]
            _, grads = dense_hybrid_loss_gradients(
                counts, doc.labels, doc.features, before, config.unsup_weight, omega, omega,
                split, masks[0], masks[1], head=config.head,
            )
            for name in expected:
                expected[name] += grads[name]

        scale = config.learning_rate / self.BATCH
        for (name, start), (_, after) in zip(before.arrays(), avg.current.arrays()):
            step = scale * expected[name]
            atol = 1e-12 * np.abs(step).max()
            assert np.allclose(after, start - step, rtol=0.0, atol=atol), name
        assert not present.all()
        assert np.array_equal(avg.current.W1[:, ~present],
                              before.W1[:, ~present])

    def test_divergence_names_first_nonfinite_document_in_batch(self):
        corpus, config, params = self._setup()
        streams = training_streams(config.seed)
        order = named_stream(config.seed, "shuffle").permutation(len(corpus))
        # poison W1 on a word only the second document of the batch holds; a
        # finite value, so that the other documents' zero inputs stay finite
        first = set(documents(corpus)[order[0]].counts)
        second = documents(corpus)[order[1]].counts
        word = next(w for w in second if w not in first)
        params.W1[:, word] = 1e308
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                trainer.sgd_epoch(corpus, init_averaged(params, 0.0), config, streams,
                                  trainer._doc_cache(corpus, config))
        assert info.value.doc_index == int(order[1])


def assert_close_to(got, want, rel=1e-12):
    """Every array of `got` within rel * max|want array| of `want`."""
    for (name, a), (_, b) in zip(got.arrays(), want.arrays()):
        atol = rel * np.abs(b).max() if b.size else 0.0
        assert np.allclose(a, b, rtol=0.0, atol=atol), name


class TestSparseShallowStep:
    """The sparse SGD step and lazy average against the dense oracle epoch;
    `TestSparseDeepStep` runs the same cases on a deep configuration."""

    BATCH = 4
    SETTINGS = dict(model_kind="supdocnade", hidden_sizes=(6,))
    N_FEATURES = 0

    def _corpus(self, docs_per_class=1, doc_len=3):
        return small_corpus(docs_per_class=docs_per_class, doc_len=doc_len, n_visual=10,
                            n_features=self.N_FEATURES)

    def _setup(self, seed=5, decay=0.5, corpus=None, **overrides):
        corpus = corpus or self._corpus()
        settings = dict(
            self.SETTINGS, learning_rate=0.1, unsup_weight=0.6, epochs=1,
            batch_size=self.BATCH, seed=seed, averaging_decay=decay,
        )
        settings.update(overrides)
        config = TrainConfig(**settings)
        params = init_sized(corpus.vocabulary.size, corpus.n_classes, corpus.n_features,
                            config, named_stream(seed, "init"))
        deep = config.model_kind in DEEP_KINDS
        tree = None if deep else build_tree(corpus.vocabulary.size, seed)
        return corpus, config, init_averaged(params, decay), tree

    def _epoch(self, corpus, avg, config, tree):
        trainer.sgd_epoch(corpus, avg, config, training_streams(config.seed),
                          trainer._doc_cache(corpus, config))
        return avg

    def _oracle_epoch(self, corpus, avg, config, tree):
        return dense_shallow_epoch(corpus, avg, config, tree)

    def _untouched(self, corpus, tree):
        """(array name, axis, mask along it) of the entries no step touches,
        and the words of the corpus."""
        words = sorted({w for doc in documents(corpus) for w in doc.counts})
        nodes_tab, _, _ = tree.path_table()
        on_path = np.zeros(tree.n_internal, dtype=bool)
        on_path[nodes_tab[words][nodes_tab[words] >= 0]] = True
        assert not on_path.all()
        return [("W", 1, self._absent(corpus, words)), ("V", 0, ~on_path), ("b", 0, ~on_path)]

    @staticmethod
    def _absent(corpus, words):
        absent = np.ones(corpus.vocabulary.size, dtype=bool)
        absent[words] = False
        assert absent.any()
        return absent

    def test_one_step_equals_oracle_sum(self):
        corpus, config, avg, tree = self._setup()
        assert len(corpus) == self.BATCH  # one mini-batch per epoch
        before = avg.current.copy()
        oracle = self._oracle_epoch(corpus, init_averaged(before.copy(), 0.5), config, tree)
        self._epoch(corpus, avg, config, tree)
        for (name, start), (_, after), (_, want) in zip(
            before.arrays(), avg.current.arrays(), oracle.current.arrays()
        ):
            atol = 1e-12 * np.abs(want - start).max()
            assert np.allclose(after, want, rtol=0.0, atol=atol), name

    def test_untouched_entries_are_bit_identical(self):
        corpus, config, avg, tree = self._setup()
        before = dict(avg.current.copy().arrays())
        self._epoch(corpus, avg, config, tree)
        untouched = self._untouched(corpus, tree)
        for params in (avg.current, avg.averaged):
            arrays = dict(params.arrays())
            for name, axis, mask in untouched:
                assert np.array_equal(np.compress(mask, arrays[name], axis),
                                      np.compress(mask, before[name], axis)), name
        name, axis, mask = untouched[0]
        assert not np.array_equal(np.compress(~mask, dict(avg.current.arrays())[name], axis),
                                  np.compress(~mask, before[name], axis))

    # at lambda 0 some arrays get no gradient (shallow V and b, the deep
    # output layer), and their averages must still decay every step
    @pytest.mark.parametrize("batch_size,unsup_weight", [(1, 0.6), (3, 0.6), (3, 0.0)],
                             ids=["1", "3", "3-lambda0"])
    def test_lazy_average_equals_dense_oracle(self, batch_size, unsup_weight):
        corpus, config, avg, tree = self._setup(
            seed=8, decay=0.8, corpus=self._corpus(docs_per_class=3, doc_len=8),
            learning_rate=0.05, batch_size=batch_size, unsup_weight=unsup_weight,
        )
        # a start whose average differs from the current parameters
        for n, (_, arr) in enumerate(avg.averaged.arrays()):
            arr += 0.5 if n % 2 == 0 else -0.25
        oracle = trainer.AveragedParams(avg.current.copy(), avg.averaged.copy(), 0.8)
        self._epoch(corpus, avg, config, tree)
        self._oracle_epoch(corpus, oracle, config, tree)
        assert_close_to(avg.current, oracle.current)
        assert_close_to(avg.averaged, oracle.averaged)

    def test_lazy_average_refolds_in_long_epochs(self):
        # at decay 1e-4 the gap scale r**-t passes its bound every 5 steps, and
        # without refolding it would overflow a float within the epoch
        decay = 1e-4
        corpus, config, avg, tree = self._setup(
            seed=3, decay=decay, corpus=self._corpus(docs_per_class=25, doc_len=4),
            learning_rate=0.05, batch_size=1,
        )
        assert len(corpus) * -np.log10(decay) > np.log10(np.finfo(float).max)
        for n, (_, arr) in enumerate(avg.averaged.arrays()):
            arr += 0.5 if n % 2 == 0 else -0.25
        oracle = trainer.AveragedParams(avg.current.copy(), avg.averaged.copy(), decay)
        self._epoch(corpus, avg, config, tree)
        self._oracle_epoch(corpus, oracle, config, tree)
        assert_close_to(avg.current, oracle.current)
        assert_close_to(avg.averaged, oracle.averaged)

    def test_decay_zero_copies_current_exactly(self):
        corpus, config, avg, tree = self._setup(decay=0.0, batch_size=2)
        for _, arr in avg.averaged.arrays():  # every entry is copied, touched or not
            arr += 1.0
        self._epoch(corpus, avg, config, tree)
        assert params_equal(avg.averaged, avg.current)

    def test_fixed_point_is_exact(self):
        corpus, config, avg, tree = self._setup(decay=0.9, learning_rate=0.0, batch_size=1)
        before = avg.current.copy()
        self._epoch(corpus, avg, config, tree)
        assert params_equal(avg.current, before)
        assert params_equal(avg.averaged, before)

    def test_checkpoint_holds_the_flushed_average(self, tmp_path):
        corpus, config, avg, tree = self._setup(
            seed=4, decay=0.7, corpus=self._corpus(docs_per_class=3, doc_len=8),
            learning_rate=0.05, batch_size=1, head="softmax",
            model_kind=self.SETTINGS["model_kind"].removeprefix("sup"),
        )
        result = train_model(corpus, config, checkpoint_dir=tmp_path)
        _, averaged, _, epoch, _ = load_checkpoint(tmp_path / "epoch_0001.ckpt")
        assert epoch == 1
        assert params_equal(averaged, result.averaged)
        oracle = self._oracle_epoch(corpus, avg, config, tree)
        assert_close_to(averaged, oracle.averaged)


class TestSparseDeepStep(TestSparseShallowStep):
    """Deep mini-batches update W1 only on the batch's columns and average it
    lazily; the oracle applies and averages every array after every batch."""

    SETTINGS = dict(model_kind="supdeepdocnade", hidden_sizes=(6, 5), head="sigmoid",
                    dropout_rate=0.3, anno_weight=3.0)
    N_FEATURES = 3

    def _oracle_epoch(self, corpus, avg, config, tree):
        return dense_deep_epoch(corpus, avg, config)

    def _untouched(self, corpus, tree):
        words = sorted({w for doc in documents(corpus) for w in doc.counts})
        return [("W1", 1, self._absent(corpus, words))]


class TestLayoutEpoch:
    """Shallow epochs over the cached document layouts, on edge-case
    documents, against the dense epoch oracle."""

    @staticmethod
    def _corpus(vocab, token_lists):
        docs = tuple(
            Document({int(w): int(c) for w, c in zip(*np.unique(t, return_counts=True))},
                               frozenset({i % 2}))
            for i, t in enumerate(token_lists)
        )
        return corpus_of(vocab, docs, n_classes=2)

    def _check(self, corpus, kind, batch_size):
        config = TrainConfig(model_kind=kind, hidden_sizes=(5,), learning_rate=0.05,
                             unsup_weight=0.6, epochs=1, batch_size=batch_size, seed=9,
                             averaging_decay=0.8)
        params = init_sized(corpus.vocabulary.size, corpus.n_classes, 0, config,
                            named_stream(9, "init"))
        tree = build_tree(corpus.vocabulary.size, 9)
        avg = init_averaged(params, 0.8)
        for n, (_, arr) in enumerate(avg.averaged.arrays()):
            arr += 0.25 if n % 2 else -0.5
        oracle = trainer.AveragedParams(avg.current.copy(), avg.averaged.copy(), 0.8)
        trainer.sgd_epoch(corpus, avg, config, training_streams(9),
                          trainer._doc_cache(corpus, config))
        dense_shallow_epoch(corpus, oracle, config, tree)
        assert_close_to(avg.current, oracle.current)
        assert_close_to(avg.averaged, oracle.averaged)

    @pytest.mark.parametrize("kind", ["docnade", "supdocnade"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_edge_documents(self, kind, batch_size):
        rng = np.random.default_rng(5)
        vocab = build_vocabulary(9, 2, ["a", "b", "c"])  # Q = 21: paths of two lengths
        token_lists = [
            [4],  # one token
            [7] * 6,  # one word repeated
            [],  # empty: skipped when unsupervised, head-only when supervised
            rng.integers(0, vocab.size, shallow.BLOCK_TOKENS + 9),  # longer than a block
            rng.integers(0, vocab.size, 12),
        ]
        self._check(self._corpus(vocab, token_lists), kind, batch_size)

    @pytest.mark.parametrize("kind", ["docnade", "supdocnade"])
    @pytest.mark.parametrize("n_visual,words", [(1, ()), (1, ("a",))])
    def test_one_and_two_word_vocabularies(self, kind, n_visual, words):
        vocab = build_vocabulary(n_visual, 1, words)  # Q = 1 (no tree) and Q = 2
        token_lists = [[0, 0, 0], [vocab.size - 1], [0] * 5]
        self._check(self._corpus(vocab, token_lists), kind, 2)
