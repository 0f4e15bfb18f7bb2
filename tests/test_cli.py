import hashlib
import json
import os
import struct
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import init_sized, random_shallow_params
from docnade.cli import main
from docnade.corpus import build_vocabulary, parse_corpus
from docnade.model_io import MAGIC, ModelMeta, load_checkpoint, load_model, save_model
from docnade.rng import named_stream
from docnade.trainer import TrainConfig
from gen import make_corpus, write_corpus
from oracles import Document, corpus_of, documents


@pytest.fixture
def corpus_path(tmp_path):
    corpus, _ = make_corpus(
        7, n_classes=3, n_visual=5, n_regions=2, anno_per_class=2,
        docs_per_class=8, doc_len=12, signal=0.7,
    )
    path = tmp_path / "train.corpus"
    write_corpus(corpus, path)
    return path


def _file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _train(corpus_path, out_dir, *extra):
    args = [
        "train", "--corpus", str(corpus_path), "--out", str(out_dir),
        "--model", "supdocnade", "--hidden", "8", "--lambda", "0.5",
        "--lr", "0.1", "--epochs", "4", "--seed", "3", "--avg-decay", "0.0",
        *extra,
    ]
    assert main(args) == 0
    runs = [d for d in os.listdir(out_dir) if d.startswith("run-")]
    assert len(runs) == 1
    return os.path.join(out_dir, runs[0])


class TestTrain:
    def test_writes_artifacts(self, tmp_path, corpus_path):
        run_dir = _train(corpus_path, tmp_path / "runs")
        assert os.path.exists(os.path.join(run_dir, "manifest.json"))
        assert os.path.exists(os.path.join(run_dir, "model.bin"))
        assert os.path.exists(os.path.join(run_dir, "train.log"))
        assert os.path.exists(os.path.join(run_dir, "checkpoints", "epoch_0004.ckpt"))
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["config"]["model_kind"] == "supdocnade"

    def test_rerun_is_byte_identical(self, tmp_path, corpus_path):
        run_a = _train(corpus_path, tmp_path / "a")
        run_b = _train(corpus_path, tmp_path / "b")
        assert _file_hash(os.path.join(run_a, "model.bin")) == _file_hash(
            os.path.join(run_b, "model.bin")
        )

    @pytest.mark.parametrize("flags", [
        ["--model", "supdocnade", "--hidden", "8"],
        ["--model", "supdeepdocnade", "--hidden", "6,5", "--batch-size", "3", "--dropout", "0.2"],
    ], ids=["shallow", "deep"])
    def test_rerun_into_one_run_dir_writes_new_files(self, tmp_path, corpus_path, flags):
        """A rerun into the same run dir gives the same bytes; once the corpus
        changes, a reader of the old model file or last checkpoint, and a hard
        link to the old model file, keep the old, complete bytes."""
        out = tmp_path / "runs"
        args = ["train", "--corpus", str(corpus_path), "--out", str(out), "--epochs", "3",
                "--seed", "3", "--lr", "0.1", *flags]

        def artifacts():
            (run_dir,) = out.iterdir()
            return run_dir, {str(path.relative_to(run_dir)): path.read_bytes()
                             for path in sorted(run_dir.rglob("*"))
                             if path.is_file() and path.name != "train.log"}

        assert main(args) == 0
        run_dir, first = artifacts()
        assert {"manifest.json", "model.bin", "checkpoints/epoch_0003.ckpt"} <= first.keys()
        assert main(args) == 0
        assert artifacts() == (run_dir, first)

        model = run_dir / "model.bin"
        os.link(model, tmp_path / "linked.bin")
        changed, _ = make_corpus(8, n_classes=3, n_visual=5, n_regions=2, anno_per_class=2,
                                 docs_per_class=8, doc_len=12, signal=0.7)
        write_corpus(changed, corpus_path)
        with open(model, "rb") as model_fh, open(run_dir / "checkpoints/epoch_0003.ckpt",
                                                  "rb") as last_fh:
            assert main(args) == 0
            assert model.read_bytes() != first["model.bin"]
            assert model_fh.read() == first["model.bin"]
            assert last_fh.read() == first["checkpoints/epoch_0003.ckpt"]
        assert (tmp_path / "linked.bin").read_bytes() == first["model.bin"]
        assert os.stat(model).st_nlink == 1

    def test_zero_learning_rate_returns_initialization(self, tmp_path, corpus_path):
        out = tmp_path / "runs"
        args = [
            "train", "--corpus", str(corpus_path), "--out", str(out),
            "--model", "supdocnade", "--hidden", "8", "--lr", "0",
            "--epochs", "3", "--seed", "11",
        ]
        assert main(args) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        params, meta = load_model(os.path.join(run_dir, "model.bin"))
        corpus = parse_corpus(corpus_path)
        config = TrainConfig(model_kind="supdocnade", hidden_sizes=(8,), seed=11)
        expected = init_sized(
            corpus.vocabulary.size, corpus.n_classes, 0, config, named_stream(11, "init")
        )
        for (name, a), (_, b) in zip(params.arrays(), expected.arrays()):
            assert np.array_equal(a, b), name

    def test_does_not_mutate_corpus(self, tmp_path, corpus_path):
        before = _file_hash(corpus_path)
        header_before = _file_hash(str(corpus_path) + ".header.json")
        _train(corpus_path, tmp_path / "runs")
        assert _file_hash(corpus_path) == before
        assert _file_hash(str(corpus_path) + ".header.json") == header_before

    def test_regions_flag_validated(self, tmp_path, corpus_path):
        code = main([
            "train", "--corpus", str(corpus_path), "--out", str(tmp_path / "r"),
            "--model", "docnade", "--regions", "9", "--epochs", "1",
        ])
        assert code == 3

    def test_unset_flags_take_the_train_config_defaults(self, tmp_path, corpus_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)  # where the default --out, runs, is made
        assert main(["train", "--corpus", str(corpus_path), "--model", "supdocnade",
                     "--epochs", "1"]) == 0
        (run,) = os.listdir(tmp_path / "runs")
        manifest = json.load(open(tmp_path / "runs" / run / "manifest.json"))
        expected = asdict(replace(TrainConfig(), model_kind="supdocnade", epochs=1))
        assert manifest["config"] == json.loads(json.dumps(expected))

    def test_non_finite_loss_exits_4(self, tmp_path, capsys):
        vocab = build_vocabulary(3, 2, ["a"])
        docs = tuple(Document({i: 2, 6: 1}, frozenset({i % 2})) for i in range(3))
        path = tmp_path / "three.corpus"
        write_corpus(corpus_of(vocab, docs, n_classes=2), path)
        # the step's overflow warns first, which ci/tier1.sh makes an error
        with np.errstate(all="ignore"):
            code = main(["train", "--corpus", str(path), "--out", str(tmp_path / "runs"),
                         "--model", "supdocnade", "--lr", "1e300", "--epochs", "1"])
        assert code == 4
        assert "numeric failure: non-finite loss nan at document" in capsys.readouterr().err

    def test_layers_replicate_the_hidden_size(self, tmp_path, corpus_path):
        run_dir = _train(corpus_path, tmp_path / "runs", "--model", "supdeepdocnade",
                         "--layers", "2", "--hidden", "8", "--epochs", "1")
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["config"]["hidden_sizes"] == [8, 8]
        assert load_model(os.path.join(run_dir, "model.bin"))[1].hidden_sizes == (8, 8)


class TestFinalWrites:
    """The last checkpoint and model.bin are written on two threads: a failure
    of either is the run's data error, raised once both writes have ended."""

    @pytest.mark.parametrize("target, other", [
        ("checkpoints/epoch_0001.ckpt", "model.bin"),
        ("model.bin", "checkpoints/epoch_0001.ckpt"),
    ])
    def test_failed_final_write_exits_3_naming_the_path(self, tmp_path, corpus_path, capsys,
                                                        target, other):
        out = tmp_path / "runs"
        args = ["train", "--corpus", str(corpus_path), "--out", str(out),
                "--model", "supdocnade", "--hidden", "4", "--epochs", "1"]
        assert main(args) == 0
        run_dir = out / os.listdir(out)[0]
        other_hash = _file_hash(run_dir / other)
        os.remove(run_dir / target)
        os.mkdir(run_dir / target)
        capsys.readouterr()
        threads = threading.active_count()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(run_dir / target) in err
        assert "Traceback" not in err
        assert threading.active_count() == threads
        assert _file_hash(run_dir / other) == other_hash  # the other write completed


def _unlabeled_path(tmp_path):
    """A corpus with the `corpus_path` vocabulary and no labels."""
    corpus, _ = make_corpus(
        8, n_classes=3, n_visual=5, n_regions=2, anno_per_class=2,
        docs_per_class=4, doc_len=12, signal=0.7, labeled=False,
    )
    path = tmp_path / "unlabeled.corpus"
    write_corpus(corpus, path)
    return path


class TestPretrain:
    def test_sigmoid_head_recipe_pretrains_and_keeps_its_head(self, tmp_path, corpus_path):
        out = tmp_path / "runs"
        assert main([
            "train", "--corpus", str(corpus_path), "--out", str(out),
            "--model", "supdeepdocnade", "--head", "sigmoid", "--hidden", "6",
            "--epochs", "1", "--pretrain-corpus", str(_unlabeled_path(tmp_path)),
            "--pretrain-epochs", "1",
        ]) == 0
        _, meta = load_model(os.path.join(out, os.listdir(out)[0], "model.bin"))
        assert (meta.kind, meta.head) == ("supdeepdocnade", "sigmoid")


    def test_inputs_are_read_before_the_run_dir_is_touched(self, tmp_path, corpus_path, capsys):
        out, unlabeled = tmp_path / "runs", tmp_path / "unlabeled.corpus"
        args = ["train", "--corpus", str(corpus_path), "--out", str(out), "--model",
                "supdocnade", "--hidden", "4", "--epochs", "1", "--pretrain-corpus",
                str(unlabeled), "--pretrain-epochs", "1"]
        assert main(args) == 3  # a missing pretraining corpus leaves no run dir
        assert "corpus file not found" in capsys.readouterr().err and not out.exists()
        assert _unlabeled_path(tmp_path) == unlabeled and main(args) == 0
        log = out / os.listdir(out)[0] / "train.log"
        before = log.read_bytes()
        os.rename(unlabeled, tmp_path / "moved.corpus")
        assert main(args) == 3  # a rerun whose pretraining corpus has moved keeps its log
        assert log.read_bytes() == before
        dims = dict(n_classes=3, n_regions=2, anno_per_class=2, docs_per_class=4, doc_len=12,
                    labeled=False)
        for changed, message in [(dict(n_visual=6), "vocabularies"),
                                 (dict(n_visual=5, n_features=2), "feature length")]:
            write_corpus(make_corpus(8, **dims, **changed)[0], unlabeled)
            capsys.readouterr()
            assert main(args) == 3  # so does one whose pretraining corpus has changed
            assert message in capsys.readouterr().err and log.read_bytes() == before
        # a document without one label under the softmax head leaves no run dir
        docs = list(documents(parse_corpus(corpus_path)))
        docs[5] = Document(docs[5].counts, frozenset({0, 2}), docs[5].features)
        write_corpus(corpus_of(parse_corpus(corpus_path).vocabulary, docs, 3), corpus_path)
        _unlabeled_path(tmp_path)
        fresh = tmp_path / "fresh"
        assert main([*args[:4], str(fresh), *args[5:]]) == 3
        assert "needs exactly one label" in capsys.readouterr().err and not fresh.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("model", ["docnade", "supdocnade", "deepdocnade"])
    def test_sigmoid_head_rejected_before_work(self, tmp_path, model):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "train", "--corpus", str(tmp_path / "missing.corpus"),
                "--model", model, "--head", "sigmoid",
            ])
        assert excinfo.value.code == 2
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("model", ["docnade", "deepdocnade"])
    def test_pretraining_an_unsupervised_kind_rejected(self, tmp_path, corpus_path, capsys,
                                                       model):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "runs"),
                  "--model", model, "--pretrain-corpus", str(_unlabeled_path(tmp_path)),
                  "--pretrain-epochs", "1"])
        assert excinfo.value.code == 2
        assert "supervised model kind" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    def test_multi_layer_shallow_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "train", "--corpus", str(tmp_path / "m.corpus"),
                "--model", "supdocnade", "--hidden", "8,8",
            ])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestEval:
    def test_overfit_small_corpus(self, tmp_path, capsys):
        corpus, _ = make_corpus(
            5, n_classes=2, n_visual=5, n_regions=2, anno_per_class=2,
            docs_per_class=10, doc_len=15, signal=0.8,
        )
        path = tmp_path / "tiny.corpus"
        write_corpus(corpus, path)
        out = tmp_path / "runs"
        assert main([
            "train", "--corpus", str(path), "--out", str(out),
            "--model", "supdocnade", "--hidden", "16", "--lambda", "0.2",
            "--lr", "0.15", "--epochs", "25", "--seed", "1", "--avg-decay", "0.0",
        ]) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        model = os.path.join(run_dir, "model.bin")
        capsys.readouterr()
        assert main(["eval", "--model", model, "--corpus", str(path),
                     "--split", "train"]) == 0
        report = capsys.readouterr().out
        accuracy = float([l for l in report.splitlines() if l.startswith("accuracy")][0].split()[-1])
        assert accuracy >= 0.95

    def test_eval_twice_identical_and_writes_records(self, tmp_path, corpus_path, capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        model = os.path.join(run_dir, "model.bin")
        records = tmp_path / "report.jsonl"
        capsys.readouterr()
        assert main(["eval", "--model", model, "--corpus", str(corpus_path),
                     "--out", str(records)]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--model", model, "--corpus", str(corpus_path),
                     "--out", str(records)]) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = [json.loads(l) for l in open(records)]
        assert all({"metric", "split", "value"} <= set(r) for r in lines)

    def test_missing_model_clean_error(self, tmp_path, corpus_path, capsys):
        code = main(["eval", "--model", str(tmp_path / "nope.bin"),
                     "--corpus", str(corpus_path)])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_dimension_mismatch_names_quantity(self, tmp_path, corpus_path, capsys):
        other, _ = make_corpus(1, n_classes=3, n_visual=4, n_regions=2,
                               anno_per_class=2, docs_per_class=2, doc_len=5)
        other_path = tmp_path / "other.corpus"
        write_corpus(other, other_path)
        run_dir = _train(corpus_path, tmp_path / "runs")
        code = main(["eval", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(other_path)])
        assert code == 3
        assert "mismatch on vocabulary size Q" in capsys.readouterr().err

    def test_manifest_that_disagrees_with_meta_exits_3(self, tmp_path, corpus_path, capsys):
        """W's manifest shape swapped keeps the byte count, so the file reads
        to the end; every command that loads it still exits 3."""
        model = os.path.join(_train(corpus_path, tmp_path / "runs"), "model.bin")
        data = open(model, "rb").read()
        start = len(MAGIC) + 12
        (size,) = struct.unpack("<Q", data[start - 8 : start])
        header = json.loads(data[start : start + size])
        assert header["manifest"][0][0] == "W"
        header["manifest"][0][1].reverse()
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(model, "wb") as fh:
            fh.write(data[: start - 8] + struct.pack("<Q", len(header_bytes)) + header_bytes
                     + data[start + size :])
        for command in (["eval"], ["annotate"], ["retrieve", "--query", "0"]):
            capsys.readouterr()
            assert main([*command, "--model", model, "--corpus", str(corpus_path)]) == 3
            assert "'W'" in capsys.readouterr().err

    def test_multilabel_sigmoid_eval_reports_map_and_curves(self, tmp_path, capsys):
        import numpy as _np

        rng = _np.random.default_rng(0)
        vocab = build_vocabulary(6, 2, ["a", "b"])
        docs = []
        for i in range(24):
            labels = frozenset({i % 3} | ({2} if i % 4 == 0 else set()))
            ids = rng.choice(vocab.size, 4, replace=False)
            docs.append(Document(
                {int(k): int(rng.integers(1, 4)) for k in ids}, labels
            ))
        corpus = corpus_of(vocab, tuple(docs), n_classes=3)
        path = tmp_path / "ml.corpus"
        write_corpus(corpus, path)
        out = tmp_path / "runs"
        assert main([
            "train", "--corpus", str(path), "--out", str(out),
            "--model", "supdeepdocnade", "--head", "sigmoid", "--hidden", "8",
            "--lambda", "0.5", "--anno-weight", "3", "--dropout", "0.5",
            "--lr", "0.05", "--epochs", "2", "--seed", "0",
        ]) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        curves = tmp_path / "curves"
        capsys.readouterr()
        assert main(["eval", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(path), "--curves", str(curves)]) == 0
        assert "map" in capsys.readouterr().out
        files = sorted(os.listdir(curves))
        assert files == ["pr_class_000.txt", "pr_class_001.txt", "pr_class_002.txt"]
        rows = [line.split() for line in open(curves / files[0])]
        assert all(len(r) == 2 for r in rows)

    def test_softmax_eval_writes_one_vs_rest_curves(self, tmp_path, corpus_path, capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        curves = tmp_path / "curves"
        capsys.readouterr()
        assert main(["eval", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(corpus_path), "--curves", str(curves)]) == 0
        assert "accuracy" in capsys.readouterr().out
        corpus = parse_corpus(corpus_path)
        assert sorted(os.listdir(curves)) == [f"pr_class_{c:03d}.txt"
                                              for c in range(corpus.n_classes)]
        for c in range(corpus.n_classes):
            points = np.loadtxt(curves / f"pr_class_{c:03d}.txt")
            # one point per labelled document; recall ends at 1 and the last
            # precision is the class's share of the documents
            assert points.shape == (len(corpus), 2)
            share = np.mean(corpus.labels == c)
            assert points[-1] == pytest.approx([1.0, share], abs=1e-10)

    def test_curves_of_an_unsupervised_model_is_a_data_error(self, tmp_path, corpus_path,
                                                             capsys):
        out = tmp_path / "runs"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--model", "docnade", "--hidden", "4", "--epochs", "1"]) == 0
        curves = tmp_path / "curves"
        capsys.readouterr()
        code = main(["eval", "--model", os.path.join(out, os.listdir(out)[0], "model.bin"),
                     "--corpus", str(corpus_path), "--curves", str(curves)])
        assert code == 3
        captured = capsys.readouterr()
        assert "--curves" in captured.err
        assert captured.out == ""
        assert not curves.exists()

    def test_accuracy_without_labelled_documents_is_a_data_error(self, tmp_path, corpus_path,
                                                                 capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        capsys.readouterr()
        code = main(["eval", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(_unlabeled_path(tmp_path))])
        assert code == 3
        captured = capsys.readouterr()
        assert "no document has a label" in captured.err
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("kind,flags", [
        ("supdocnade", ["--hidden", "8"]),
        ("supdeepdocnade", ["--hidden", "6,5", "--batch-size", "3"]),
    ], ids=["supdocnade", "supdeepdocnade"])
    def test_empty_corpus_is_a_data_error(self, tmp_path, corpus_path, capsys, kind, flags):
        out = tmp_path / "runs"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out), "--model", kind,
                     "--epochs", "1", "--seed", "0", *flags]) == 0
        model = os.path.join(out, os.listdir(out)[0], "model.bin")
        full = parse_corpus(corpus_path)
        empty = tmp_path / "empty.corpus"
        write_corpus(corpus_of(full.vocabulary, (), full.n_classes, full.n_features),
                     empty)
        capsys.readouterr()
        assert main(["eval", "--model", model, "--corpus", str(empty)]) == 3
        assert "corpus has no documents" in capsys.readouterr().err
        # annotate writes one record per document: none, and succeeds
        assert main(["annotate", "--model", model, "--corpus", str(empty)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["retrieve", "--model", model, "--corpus", str(empty), "--query", "0"]) == 3
        assert "corpus size 0" in capsys.readouterr().err

    def test_unsupervised_eval_reports_perplexity(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "runs"
        assert main([
            "train", "--corpus", str(corpus_path), "--out", str(out),
            "--model", "docnade", "--hidden", "8", "--lr", "0.05",
            "--epochs", "2", "--seed", "0",
        ]) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        capsys.readouterr()
        assert main(["eval", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(corpus_path)]) == 0
        assert "perplexity" in capsys.readouterr().out


class TestMissingCorpus:
    """Every corpus flag reports a missing file by its own path."""

    @pytest.mark.parametrize("flag", ["train --pretrain-corpus", "grid --corpus", "grid --val"])
    def test_names_the_missing_file(self, tmp_path, corpus_path, capsys, flag):
        missing, present = str(tmp_path / "missing.corpus"), str(corpus_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambda": [0.5]}))
        common = ["--out", str(tmp_path / "out"), "--model", "supdocnade", "--hidden", "4",
                  "--epochs", "1"]
        args = {
            "train --pretrain-corpus": ["train", "--corpus", present, "--pretrain-corpus",
                                        missing, "--pretrain-epochs", "1"],
            "grid --corpus": ["grid", "--grid", str(grid), "--corpus", missing,
                              "--val", present],
            "grid --val": ["grid", "--grid", str(grid), "--corpus", present, "--val", missing],
        }[flag]
        assert main(args + common) == 3
        assert f"corpus file not found: {missing}" in capsys.readouterr().err


class TestAnnotateRetrieveInspect:
    def test_annotate_emits_k_ids_per_document(self, tmp_path, corpus_path, capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        capsys.readouterr()
        assert main(["annotate", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(corpus_path), "--k", "5"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        corpus = parse_corpus(corpus_path)
        assert len(lines) == len(corpus)
        assert all(len(r["annotations"]) == 5 for r in lines)

    def test_retrieve_returns_query_first(self, tmp_path, corpus_path, capsys):
        # an untrained model keeps the representations in general position;
        # trained toy models can collapse same-class docs onto one ray, where
        # the tie legitimately breaks toward the smaller document id
        run_dir = _train(corpus_path, tmp_path / "runs", "--lr", "0")
        capsys.readouterr()
        assert main(["retrieve", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(corpus_path), "--query", "4", "--k", "3"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["rank"] == 1 and lines[0]["doc"] == 4
        assert lines[0]["score"] == pytest.approx(1.0)

    def test_retrieve_checks_the_query_before_representing(self, tmp_path, corpus_path,
                                                            capsys, monkeypatch):
        from docnade import evaluate

        run_dir = _train(corpus_path, tmp_path / "runs")

        def fail(*args, **kwargs):
            raise AssertionError("representations computed for an invalid query")

        monkeypatch.setattr(evaluate, "extract_representations", fail)
        capsys.readouterr()
        size = len(parse_corpus(corpus_path))
        for query in (size, -1):
            assert main(["retrieve", "--model", os.path.join(run_dir, "model.bin"),
                         "--corpus", str(corpus_path), "--query", str(query)]) == 3
            assert f"out of range (corpus size {size})" in capsys.readouterr().err

    def test_inspect_one_hot_topic(self, tmp_path, capsys, rng):
        meta = ModelMeta(
            kind="supdocnade", head="softmax", n_visual=3, n_regions=2,
            n_annotation=2, n_classes=3, n_features=0, hidden_sizes=(5,), tree_seed=0,
        )
        params = random_shallow_params(rng, meta.vocab_size, 5, 3)
        params.U[:] = 0.0
        params.U[1, 2] = 9.0
        path = tmp_path / "crafted.bin"
        save_model(path, params, meta)
        assert main(["inspect", "--model", str(path), "--class-index", "1",
                     "--topics", "1", "--words", "3"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["topics"] == [2]
        assert len(record["visual_words"]) == 3

    @pytest.mark.parametrize("class_index", [3, 99, -1])
    def test_inspect_class_index_out_of_range(self, tmp_path, capsys, rng, class_index):
        meta = ModelMeta(
            kind="supdocnade", head="softmax", n_visual=3, n_regions=2,
            n_annotation=2, n_classes=3, n_features=0, hidden_sizes=(5,), tree_seed=0,
        )
        path = tmp_path / "crafted.bin"
        save_model(path, random_shallow_params(rng, meta.vocab_size, 5, 3), meta)
        assert main(["inspect", "--model", str(path), "--class-index", str(class_index)]) == 3
        assert f"class index {class_index} out of range" in capsys.readouterr().err

    def test_inspect_rejects_deep_models(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "runs"
        assert main([
            "train", "--corpus", str(corpus_path), "--out", str(out),
            "--model", "deepdocnade", "--hidden", "6", "--epochs", "1",
        ]) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        code = main(["inspect", "--model", os.path.join(run_dir, "model.bin"),
                     "--class-index", "0"])
        assert code == 3

    @pytest.mark.parametrize("kind", ["docnade", "supdeepdocnade"])
    def test_inspect_rejects_unsupervised_shallow_and_deep_models(self, tmp_path, corpus_path,
                                                                 capsys, kind):
        out = tmp_path / "runs"
        assert main([
            "train", "--corpus", str(corpus_path), "--out", str(out),
            "--model", kind, "--hidden", "6", "--epochs", "1",
        ]) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        capsys.readouterr()
        code = main(["inspect", "--model", os.path.join(run_dir, "model.bin"),
                     "--class-index", "0"])
        assert code == 3
        assert "inspect requires a supervised shallow model" in capsys.readouterr().err


class TestGrid:
    def _write_val(self, tmp_path):
        corpus, _ = make_corpus(
            21, n_classes=3, n_visual=5, n_regions=2, anno_per_class=2,
            docs_per_class=5, doc_len=12, signal=0.7,
        )
        path = tmp_path / "val.corpus"
        write_corpus(corpus, path)
        return path

    def test_single_point_grid_equals_train_eval(self, tmp_path, corpus_path, capsys):
        val_path = self._write_val(tmp_path)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"lambda": [0.5]}))
        out = tmp_path / "grid-out"
        assert main([
            "grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
            "--val", str(val_path), "--out", str(out), "--model", "supdocnade",
            "--hidden", "8", "--lr", "0.1", "--epochs", "4", "--seed", "3",
            "--avg-decay", "0.0",
        ]) == 0
        best = json.load(open(out / "best_manifest.json"))
        assert best["selected"] == {"lambda": 0.5}
        assert best["metric"] == "accuracy"

        # the same configuration trained and evaluated directly gives the
        # same validation accuracy
        run_dir = _train(corpus_path, tmp_path / "direct")
        capsys.readouterr()
        assert main(["eval", "--model", os.path.join(run_dir, "model.bin"),
                     "--corpus", str(val_path), "--split", "val"]) == 0
        report = capsys.readouterr().out
        acc = float([l for l in report.splitlines() if l.startswith("accuracy")][0].split()[-1])
        assert best["value"] == pytest.approx(acc, abs=1e-6)  # table prints 6 decimals

    def test_selection_maximizes_validation_metric(self, tmp_path, corpus_path, capsys):
        val_path = self._write_val(tmp_path)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"lambda": [0.0, 0.5], "lr": [0.1]}))
        out = tmp_path / "grid-out"
        capsys.readouterr()
        assert main([
            "grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
            "--val", str(val_path), "--out", str(out), "--model", "supdocnade",
            "--hidden", "8", "--epochs", "3", "--seed", "3", "--avg-decay", "0.0",
        ]) == 0
        stdout = capsys.readouterr().out
        values = [float(l.rsplit("=", 1)[1]) for l in stdout.splitlines()
                  if l.startswith("grid point")]
        best = json.load(open(out / "best_manifest.json"))
        assert best["value"] == max(values)

    def test_grid_rerun_deterministic(self, tmp_path, corpus_path):
        val_path = self._write_val(tmp_path)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"lambda": [0.0, 0.3]}))
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert main([
                "grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
                "--val", str(val_path), "--out", str(out), "--model", "supdocnade",
                "--hidden", "6", "--epochs", "2", "--seed", "5",
            ]) == 0
            outs.append(json.load(open(out / "best_manifest.json")))
        assert outs[0] == outs[1]

    def test_empty_grid_rejected(self, tmp_path, corpus_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text("{}")
        code = main([
            "grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
            "--val", str(corpus_path), "--out", str(tmp_path / "g"),
        ])
        assert code == 3

    @pytest.mark.parametrize("spec", [
        '[{"lr": [0.1]}]', '{"lr": 0.1}', '{"lr": null}', '{"lr": [null]}',
        '{"lr": [0.1, NaN]}', '{"hidden": [4], "seed": [0, null]}',
        '{"epochs": [1.5]}', '{"batch-size": [2.7]}', '{"lr": [true]}', '{"seed": ["7"]}',
        '{"seed": [0, -1]}', '{"hidden": [8.0]}', '{"hidden": ["8,x"]}', '{"hidden": [true]}',
        '{"colour": [1]}', '{"lr": [0.01, -0.5]}', '{"dropout": [1.5]}',
    ])
    def test_malformed_grid_is_a_data_error_before_any_work(self, tmp_path, corpus_path, spec,
                                                             capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(spec)
        code = main([
            "grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
            "--val", str(corpus_path), "--out", str(tmp_path / "g"),
        ])
        assert code == 3
        assert not os.path.exists(tmp_path / "g")
        if '"hidden": [' in spec:
            assert "malformed grid point {'hidden': " in capsys.readouterr().err
        if "colour" in spec:
            assert "unknown grid key 'colour'" in capsys.readouterr().err
        # a value out of its field's range names its point
        points = {'{"seed": [0, -1]}': "{'seed': -1}", '{"lr": [0.01, -0.5]}': "{'lr': -0.5}",
                  '{"dropout": [1.5]}': "{'dropout': 1.5}"}
        if spec in points:
            assert f"malformed grid point {points[spec]}: " in capsys.readouterr().err

    def test_hidden_values_follow_layers(self, tmp_path, corpus_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"hidden": [8]}))
        out = tmp_path / "grid-out"
        assert main(["grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
                     "--val", str(corpus_path), "--out", str(out), "--model", "supdeepdocnade",
                     "--layers", "2", "--epochs", "1"]) == 0
        assert json.load(open(out / "best_manifest.json"))["config"]["hidden_sizes"] == [8, 8]

    def _grid_exits_3_before_any_work(self, tmp_path, corpus, val, *flags):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"lr": [0.01, 0.05]}))
        code = main(["grid", "--grid", str(grid_file), "--corpus", str(corpus),
                     "--val", str(val), "--out", str(tmp_path / "g"), "--epochs", "1", *flags])
        assert code == 3
        assert not os.path.exists(tmp_path / "g")

    def test_regions_checked_before_any_work(self, tmp_path, corpus_path, capsys):
        self._grid_exits_3_before_any_work(tmp_path, corpus_path, corpus_path,
                                           "--model", "docnade", "--regions", "9")
        assert "--regions 9 disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("n_visual", [6, 3], ids=["larger", "smaller"])
    @pytest.mark.parametrize("kind,hidden", [
        ("docnade", "6"), ("supdocnade", "6"), ("deepdocnade", "6,5"), ("supdeepdocnade", "6,5"),
    ])
    def test_val_vocabulary_checked_before_any_work(self, tmp_path, corpus_path, capsys, kind,
                                                    hidden, n_visual):
        val, _ = make_corpus(21, n_classes=3, n_visual=n_visual, n_regions=2, anno_per_class=2,
                             docs_per_class=5, doc_len=12, signal=0.7)
        write_corpus(val, tmp_path / "val.corpus")
        self._grid_exits_3_before_any_work(tmp_path, corpus_path, tmp_path / "val.corpus",
                                           "--model", kind, "--hidden", hidden)
        assert "mismatch on vocabulary size Q" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flags,docs,message", [
        ("supdocnade", [], "none", "corpus has no documents to evaluate"),
        ("supdocnade", [], "unlabelled", "no document has a label to score accuracy on"),
        ("supdeepdocnade", ["--head", "sigmoid"], "unlabelled", "no class has relevant items"),
        ("docnade", [], "tokenless", "corpus has no tokens"),
    ], ids=["no-documents", "softmax-unlabelled", "sigmoid-unlabelled", "no-tokens"])
    def test_val_corpus_scored_before_any_work(self, tmp_path, corpus_path, capsys, kind, flags,
                                                docs, message):
        corpus = parse_corpus(corpus_path)
        val = {"none": [], "unlabelled": [Document(doc.counts) for doc in documents(corpus)],
               "tokenless": [Document({}, doc.labels) for doc in documents(corpus)]}[docs]
        path = tmp_path / "val.corpus"
        write_corpus(corpus_of(corpus.vocabulary, val, corpus.n_classes), path)
        self._grid_exits_3_before_any_work(tmp_path, corpus_path, path, "--model", kind,
                                           "--hidden", "4", *flags)
        assert message in capsys.readouterr().err

    def test_training_labels_checked_before_any_work(self, tmp_path, corpus_path, capsys):
        corpus = parse_corpus(corpus_path)
        docs = list(documents(corpus))
        docs[5] = Document(docs[5].counts, frozenset({0, 2}), docs[5].features)
        path = tmp_path / "odd.corpus"
        write_corpus(corpus_of(corpus.vocabulary, docs, corpus.n_classes), path)
        self._grid_exits_3_before_any_work(tmp_path, path, corpus_path,
                                           "--model", "supdeepdocnade", "--hidden", "4")
        assert "document 5 needs exactly one label" in capsys.readouterr().err


class TestMissingFeatures:
    @pytest.mark.parametrize("format", ["text-sparse", "record-lines"])
    def test_empty_features_field_is_a_data_error(self, tmp_path, capsys, format):
        vocab = build_vocabulary(3, 2, ["a"])
        docs = tuple(
            Document({0: 2, 6: 1}, frozenset({i}), np.array([0.5, -1.0]))
            for i in range(2)
        )
        path = tmp_path / "c.corpus"
        write_corpus(corpus_of(vocab, docs, n_classes=2, n_features=2), path, format)
        lines = path.read_text().splitlines()
        if format == "text-sparse":
            lines[1] = lines[1].rsplit("|", 1)[0] + "|"
        else:
            record = json.loads(lines[1])
            record["features"] = []
            lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "train", "--corpus", str(path), "--format", format, "--out", str(tmp_path / "r"),
            "--model", "supdeepdocnade", "--hidden", "4", "--epochs", "1",
        ])
        assert code == 3
        assert "missing feature vector" in capsys.readouterr().err


_MALFORMED = {
    "eval-k": ["eval", "--k", "-2"],
    "eval-orderings": ["eval", "--orderings", "0"],
    "annotate-k": ["annotate", "--k", "-2"],
    "retrieve-k": ["retrieve", "--query", "0", "--k", "-2"],
    "inspect-topics": ["inspect", "--class-index", "0", "--topics", "0"],
    "inspect-words": ["inspect", "--class-index", "0", "--words", "-1"],
    "train-workers": ["train", "--workers", "0"],
    "train-epochs": ["train", "--epochs", "-1"],
    "train-hidden": ["train", "--hidden", "0"],
    "train-layers-disagree": ["train", "--model", "supdeepdocnade", "--layers", "3",
                              "--hidden", "8,6"],
    "train-shallow-layers": ["train", "--model", "docnade", "--layers", "2"],
    "train-batch-size": ["train", "--batch-size", "0"],
    "train-lr-nan": ["train", "--lr", "nan"],
    "train-lambda-nan": ["train", "--model", "supdocnade", "--lambda", "nan"],
    "train-anno-weight-nan": ["train", "--model", "docnade", "--anno-weight", "nan"],
    "train-anno-weight-inf": ["train", "--model", "deepdocnade", "--anno-weight", "inf"],
    "train-seed": ["train", "--seed", "-1"],
    "train-pretrain-epochs-alone": ["train", "--model", "supdocnade", "--pretrain-epochs", "1"],
    "eval-eval-seed": ["eval", "--eval-seed", "-1"],
    "grid-k": ["grid", "--grid", "g.json", "--val", "v.corpus", "--k", "0"],
    "grid-seed": ["grid", "--grid", "g.json", "--val", "v.corpus", "--seed", "-1"],
    "grid-eval-seed": ["grid", "--grid", "g.json", "--val", "v.corpus", "--eval-seed", "-1"],
}


class TestMalformedValues:
    @pytest.mark.parametrize("argv", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_usage_error_before_any_work(self, tmp_path, argv):
        command, flags = argv[0], argv[1:]
        paths = ["--model", str(tmp_path / "missing.bin")]
        if command != "inspect":
            paths += ["--corpus", str(tmp_path / "missing.corpus")]
        if command in ("train", "grid"):
            paths = ["--corpus", str(tmp_path / "missing.corpus"), "--out", str(tmp_path / "r")]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *paths, *flags])
        assert excinfo.value.code == 2
        assert not os.path.exists(tmp_path / "r")

    def test_workers_flag_is_ignored(self, tmp_path, corpus_path):
        run_a = _train(corpus_path, tmp_path / "a", "--workers", "1")
        run_b = _train(corpus_path, tmp_path / "b", "--workers", "3")
        assert os.path.basename(run_a) == os.path.basename(run_b)
        assert _file_hash(os.path.join(run_a, "model.bin")) == _file_hash(
            os.path.join(run_b, "model.bin")
        )
        assert "workers" not in json.load(open(os.path.join(run_a, "manifest.json")))["config"]

    def test_truncated_model_is_a_data_error(self, tmp_path, corpus_path, capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        data = open(os.path.join(run_dir, "model.bin"), "rb").read()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(data[: len(data) // 2])
        code = main(["eval", "--model", str(cut), "--corpus", str(corpus_path)])
        assert code == 3
        assert "truncated" in capsys.readouterr().err

    def test_blob_longer_than_its_manifest_is_a_data_error(self, tmp_path, corpus_path, capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        data = open(os.path.join(run_dir, "model.bin"), "rb").read()
        at = len(MAGIC) + 12 + struct.unpack_from("<Q", data, len(MAGIC) + 4)[0]
        (blob_len,) = struct.unpack_from("<Q", data, at)  # the blob's length prefix
        longer = tmp_path / "longer.bin"
        longer.write_bytes(data[:at] + struct.pack("<Q", blob_len + 8) + data[at + 8:] + bytes(8))
        capsys.readouterr()
        assert main(["eval", "--model", str(longer), "--corpus", str(corpus_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"error: {longer}: blob 0 is {blob_len + 8} bytes" in err

    @pytest.mark.parametrize("command", [["eval"], ["annotate"], ["retrieve", "--query", "0"]],
                             ids=["eval", "annotate", "retrieve"])
    def test_checkpoint_is_not_a_model(self, tmp_path, corpus_path, capsys, command):
        ckpt = os.path.join(_train(corpus_path, tmp_path / "runs"), "checkpoints",
                            "epoch_0003.ckpt")
        capsys.readouterr()
        assert main([*command, "--model", ckpt, "--corpus", str(corpus_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"{ckpt}: a checkpoint, not a model file" in err

    @pytest.mark.parametrize("doctor,message", [
        (lambda meta: {k: v for k, v in meta.items() if k != "kind"}, "missing fields ['kind']"),
        (lambda meta: {**meta, "colour": "red"}, "unknown fields ['colour']"),
        (lambda meta: sorted(meta), "model meta is not an object"),
        (lambda meta: {**meta, "kind": "lda"}, "unknown model kind 'lda'"),
        (lambda meta: {**meta, "hidden_sizes": "ab"}, "malformed fields ['hidden_sizes']"),
        (lambda meta: {**meta, "n_visual": "x"}, "malformed fields ['n_visual']"),
    ], ids=["missing-field", "unknown-field", "not-an-object", "unknown-kind",
            "hidden-sizes-string", "n-visual-string"])
    def test_malformed_model_meta_is_a_data_error(self, tmp_path, corpus_path, capsys,
                                                  doctor, message):
        _eval_doctored_header(tmp_path, corpus_path, capsys,
                              lambda header: {**header, "meta": doctor(header["meta"])}, message)

    @pytest.mark.parametrize("doctor,message", [
        (lambda header: [header], "container header is not an object"),
        (lambda header: {**header, "manifest": {"W": [8, 3]}}, "model manifest is not a list"),
        (lambda header: {}, "model meta is not an object"),
        (lambda header: {"meta": header["meta"]}, "model manifest is not a list"),
    ], ids=["header-array", "manifest-not-a-list", "header-empty", "no-manifest"])
    def test_malformed_model_header_is_a_data_error(self, tmp_path, corpus_path, capsys,
                                                    doctor, message):
        _eval_doctored_header(tmp_path, corpus_path, capsys, doctor, message)


def _doctor_container(source, path, doctor):
    """Writes to `path` the container file `source` with its header put
    through `doctor`."""
    data = open(source, "rb").read()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<Q", data[start : start + 8])
    header = json.loads(data[start + 8 : start + 8 + length])
    doctored = json.dumps(doctor(header)).encode()
    path.write_bytes(data[:start] + struct.pack("<Q", len(doctored)) + doctored
                     + data[start + 8 + length :])


def _eval_doctored_header(tmp_path, corpus_path, capsys, doctor, message):
    """`eval` of a trained model whose container header went through
    `doctor` exits 3 with `message`."""
    run_dir = _train(corpus_path, tmp_path / "runs")
    path = tmp_path / "doctored.bin"
    _doctor_container(os.path.join(run_dir, "model.bin"), path, doctor)
    capsys.readouterr()
    code = main(["eval", "--model", str(path), "--corpus", str(corpus_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and str(path) in err


# Model metas of a known kind and of well-typed fields that the kind cannot
# have: the kind trained, the change to its meta and the field the error names.
_IMPOSSIBLE_METAS = {
    "shallow-tree-seed-null": ("supdocnade", {"tree_seed": None}, "tree_seed"),
    "shallow-tree-seed-negative": ("supdocnade", {"tree_seed": -1}, "tree_seed"),
    "deep-tree-seed-int": ("supdeepdocnade", {"tree_seed": 3}, "tree_seed"),
    "shallow-sigmoid-head": ("supdocnade", {"head": "sigmoid"}, "head"),
    "shallow-two-layers": ("supdocnade", {"hidden_sizes": [8, 8]}, "hidden_sizes"),
    "unknown-head": ("supdocnade", {"head": "tanh"}, "head"),
    "deep-dropout-3": ("supdeepdocnade", {"dropout_rate": 3.0}, "dropout_rate"),
}


class TestImpossibleMeta:
    @pytest.mark.parametrize("kind,change,field", list(_IMPOSSIBLE_METAS.values()),
                             ids=list(_IMPOSSIBLE_METAS))
    def test_model_and_checkpoint_are_data_errors_naming_the_field(
        self, tmp_path, corpus_path, capsys, kind, change, field
    ):
        hidden = "8,6" if kind == "supdeepdocnade" else "8"
        run_dir = _train(corpus_path, tmp_path / "runs", "--model", kind, "--hidden", hidden)
        model, ckpt = tmp_path / "doctored.bin", tmp_path / "doctored.ckpt"
        doctor = lambda header: {**header, "meta": {**header["meta"], **change}}  # noqa: E731
        _doctor_container(os.path.join(run_dir, "model.bin"), model, doctor)
        _doctor_container(os.path.join(run_dir, "checkpoints", "epoch_0004.ckpt"), ckpt, doctor)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--corpus", str(corpus_path)]) == 3
        err = capsys.readouterr().err
        assert str(model) in err and field in err and "Traceback" not in err
        with pytest.raises(ValueError, match=field) as info:
            load_checkpoint(ckpt)
        assert str(ckpt) in str(info.value)


class TestInvalidJson:
    """A JSON file that does not decode is a data error naming its path."""

    def test_corpus_header(self, tmp_path, corpus_path, capsys):
        header_path = tmp_path / (corpus_path.name + ".header.json")
        header_path.write_text('{"n_visual": 5,')
        assert main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "r")]) == 3
        assert str(header_path) in capsys.readouterr().err

    def test_grid_file(self, tmp_path, corpus_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('{"lr": [0.1,')
        assert main(["grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
                     "--val", str(corpus_path), "--out", str(tmp_path / "g")]) == 3
        assert str(grid_file) in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "g")

    def test_model_header_byte_flipped(self, tmp_path, corpus_path, capsys):
        run_dir = _train(corpus_path, tmp_path / "runs")
        data = bytearray(open(os.path.join(run_dir, "model.bin"), "rb").read())
        data[25] = 0xFF  # inside the JSON header, which starts at byte 20
        model = tmp_path / "flipped.bin"
        model.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--corpus", str(corpus_path)]) == 3
        err = capsys.readouterr().err
        assert str(model) in err and "Traceback" not in err


# Corpus headers that load as JSON but break the format: the change to the
# written header and the field the error names.
_BAD_HEADERS = {
    "not-an-object": ([3, 2], "JSON object"),
    "n_visual-string": ({"n_visual": "2"}, "'n_visual'"),
    "n_visual-float": ({"n_visual": 2.0}, "'n_visual'"),
    "n_visual-bool": ({"n_visual": True}, "'n_visual'"),
    "n_regions-zero": ({"n_regions": 0}, "'n_regions'"),
    "n_annotation-string": ({"n_annotation": "1"}, "'n_annotation'"),
    "C-string": ({"C": "2"}, "'C'"),
    "N_f-string": ({"N_f": "0"}, "'N_f'"),
    "N_f-null": ({"N_f": None}, "'N_f'"),
    "N_f-negative": ({"N_f": -1}, "'N_f'"),
    "annotation_words-int": ({"annotation_words": 5}, "'annotation_words'"),
    "annotation_words-string": ({"n_annotation": 1, "annotation_words": "a"},
                                "'annotation_words'"),
    "annotation_words-duplicate": ({"n_annotation": 2, "annotation_words": ["a", "a"]},
                                   "'annotation_words'"),
    "annotation_words-short": ({"n_annotation": 2, "annotation_words": ["a"]},
                               "'annotation_words'"),
}


class TestMalformedHeader:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("change,field", list(_BAD_HEADERS.values()), ids=list(_BAD_HEADERS))
    def test_data_error_names_the_field(self, tmp_path, corpus_path, capsys, rng, command,
                                        change, field):
        header_path = tmp_path / (corpus_path.name + ".header.json")
        header = json.loads(header_path.read_text())
        header_path.write_text(json.dumps(change if isinstance(change, list)
                                          else {**header, **change}))
        if command == "train":
            argv = ["train", "--out", str(tmp_path / "runs"), "--epochs", "1"]
        else:
            meta = ModelMeta(kind="docnade", head="softmax", n_visual=5, n_regions=2,
                             n_annotation=6, n_classes=3, n_features=0, hidden_sizes=(4,),
                             tree_seed=0)
            model = tmp_path / "model.bin"
            save_model(model, random_shallow_params(rng, meta.vocab_size, 4, 3), meta)
            argv = ["eval", "--model", str(model)]
        assert main([*argv, "--corpus", str(corpus_path)]) == 3
        err = capsys.readouterr().err
        assert str(header_path) in err and field in err
        assert not os.path.exists(tmp_path / "runs")


class TestLabelCounts:
    @pytest.mark.parametrize("kind,flags,labels", [
        ("supdocnade", ["--hidden", "4"], frozenset()),
        ("supdeepdocnade", ["--hidden", "4", "--head", "softmax"], frozenset({0, 2})),
    ], ids=["supdocnade-unlabelled", "supdeepdocnade-softmax-multi-label"])
    def test_document_without_one_label_is_a_data_error(self, tmp_path, corpus_path, capsys,
                                                        kind, flags, labels):
        corpus = parse_corpus(corpus_path)
        docs = list(documents(corpus))
        docs[5] = Document(docs[5].counts, labels, docs[5].features)
        path = tmp_path / "odd.corpus"
        write_corpus(corpus_of(corpus.vocabulary, docs, corpus.n_classes), path)
        code = main(["train", "--corpus", str(path), "--out", str(tmp_path / "runs"),
                     "--model", kind, "--epochs", "1", *flags])
        assert code == 3
        assert "document 5 needs exactly one label" in capsys.readouterr().err


# (model kind, training flags, metric a grid search over it selects on)
_KINDS = [
    ("docnade", ["--hidden", "6"], "perplexity"),
    ("supdocnade", ["--hidden", "6", "--lambda", "0.5"], "accuracy"),
    ("deepdocnade", ["--hidden", "6,5", "--batch-size", "3", "--anno-weight", "3"],
     "perplexity_estimate"),
    ("supdeepdocnade", ["--hidden", "6,5", "--head", "sigmoid", "--dropout", "0.5",
                        "--batch-size", "3", "--anno-weight", "3"], "map"),
]


class TestEvaluationMetrics:
    @pytest.mark.parametrize("kind,flags,_", _KINDS, ids=[k[0] for k in _KINDS])
    def test_library_report_equals_eval_output(self, tmp_path, corpus_path, capsys,
                                               kind, flags, _):
        from docnade.evaluate import evaluation_metrics

        out = tmp_path / "runs"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out), "--model", kind,
                     "--epochs", "2", "--seed", "2", "--lr", "0.05", *flags]) == 0
        model = os.path.join(out, os.listdir(out)[0], "model.bin")
        report = tmp_path / "report.jsonl"
        assert main(["eval", "--model", model, "--corpus", str(corpus_path), "--out",
                     str(report), "--k", "3", "--orderings", "2", "--eval-seed", "4"]) == 0
        written = [(r["metric"], r["value"]) for r in map(json.loads, open(report))]
        params, meta = load_model(model)
        metrics = evaluation_metrics(parse_corpus(corpus_path), params, meta,
                                     top_k=3, orderings=2, eval_seed=4)
        assert metrics == written

    @pytest.mark.parametrize("kind,flags,metric", _KINDS, ids=[k[0] for k in _KINDS])
    def test_grid_selects_on_the_kind_metric(self, tmp_path, corpus_path, kind, flags, metric):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"lr": [0.01, 0.05]}))
        out = tmp_path / "grid-out"
        assert main(["grid", "--grid", str(grid_file), "--corpus", str(corpus_path),
                     "--val", str(corpus_path), "--out", str(out), "--model", kind,
                     "--epochs", "1", "--seed", "2", *flags]) == 0
        assert json.load(open(out / "best_manifest.json"))["metric"] == metric


class TestCountOverflow:
    """A count that does not fit in int64 is a data error naming its line and
    field, in both formats, not an OverflowError."""

    @pytest.mark.parametrize("format", ["text-sparse", "record-lines"])
    def test_count_beyond_int64_exits_3(self, tmp_path, corpus_path, capsys, format):
        model = os.path.join(_train(corpus_path, tmp_path / "runs"), "model.bin")
        corpus = parse_corpus(corpus_path)
        path = tmp_path / "big.corpus"
        write_corpus(corpus, path, format)
        lines = path.read_text().splitlines()
        if format == "text-sparse":
            parts = lines[1].split("|")
            parts[1] += " 4:99999999999999999999"
            lines[1] = "|".join(parts)
            field = "VISUAL"
        else:
            record = json.loads(lines[1])
            record["visual"].append([4, 99999999999999999999])
            lines[1] = json.dumps(record)
            field = "visual"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model", model, "--corpus", str(path), "--format", format]) == 3
        err = capsys.readouterr().err
        assert f"line 2: {field} count" in err and "exceeds int64" in err


class TestNotUtf8:
    """A corpus byte that is not UTF-8 is a data error naming the file and
    its line, in both formats."""

    @pytest.mark.parametrize("format", ["text-sparse", "record-lines"])
    def test_exits_3_naming_file_and_line(self, tmp_path, corpus_path, capsys, format):
        path = tmp_path / "latin.corpus"
        write_corpus(parse_corpus(corpus_path), path, format)
        lines = path.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        assert main(["train", "--corpus", str(path), "--format", format,
                     "--out", str(tmp_path / "runs")]) == 3
        assert f"error: {path}: line 2: not UTF-8 text" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")


class TestCommandsReadRows:
    """train, eval, annotate and retrieve run on a corpus with features, for
    every model kind."""

    @pytest.mark.parametrize("kind,flags", [
        ("supdocnade", ["--hidden", "8"]),
        ("supdeepdocnade", ["--hidden", "6,5", "--batch-size", "3", "--head", "sigmoid"]),
        ("docnade", ["--hidden", "8"]),
        ("deepdocnade", ["--hidden", "6"]),
    ])
    def test_train_eval_annotate_retrieve(self, tmp_path, capsys, kind, flags):
        corpus, _ = make_corpus(5, n_classes=3, n_visual=5, n_regions=2, anno_per_class=2,
                                docs_per_class=6, doc_len=10, n_features=3)
        path = tmp_path / "train.corpus"
        write_corpus(corpus, path)
        out = tmp_path / "runs"
        assert main(["train", "--corpus", str(path), "--out", str(out), "--model", kind,
                     "--epochs", "1", "--seed", "0", *flags]) == 0
        model = os.path.join(out, os.listdir(out)[0], "model.bin")
        for command in (["eval", "--orderings", "2"], ["annotate"], ["retrieve", "--query", "1"]):
            assert main([*command, "--model", model, "--corpus", str(path)]) == 0
