"""The deep step's bulk passes on row parts (`numerics.on_rows`): the same
bytes as on one thread, whatever the thread counts, and no thread or
exception left behind."""

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from docnade import deep, numerics
from docnade.numerics import PART_MIN, Params
from docnade.trainer import AveragedParams, TrainConfig, _LazyAverage, polyak_update, train_model
from gen import make_corpus
from oracles import serial_generative_loss, serial_output_log_probs, serial_polyak_update

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(params=[None, (1, 2), (4, 7)], ids=["default", "threads-1", "threads-4-parts-7"])
def threads(request, monkeypatch):
    """Every case runs with the default pool, with a pool of one thread, and
    with more threads than cores over more (and uneven) row parts."""
    if request.param is not None:
        monkeypatch.setattr(numerics, "THREADS", request.param[0])
        monkeypatch.setattr(numerics, "ROW_PARTS", request.param[1])


def _averaged(rng, decay=0.9):
    """Matrices above PART_MIN in both memory orders, a vector above it and
    a small matrix below it."""
    arrays = {"C": rng.normal(size=(1100, 1000)),
              "F": np.asfortranarray(rng.normal(size=(1100, 1000))),
              "small": rng.normal(size=(20, 30)),
              "v": rng.normal(size=70_000)}
    averaged = {name: arr + rng.normal(size=arr.shape) for name, arr in arrays.items()}
    averaged["F"] = np.asfortranarray(averaged["F"])
    return AveragedParams(Params(arrays), Params(averaged), decay)


def _copy(avg):
    return AveragedParams(avg.current.copy(), avg.averaged.copy(), avg.decay)


def _same(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].flags.f_contiguous == b[name].flags.f_contiguous, name
        assert a[name].tobytes(order="A") == b[name].tobytes(order="A"), name


def _grads(rng, shapes):
    """A step's blocks: whole arrays, rows (axis 0) and columns (axis 1)."""
    rows = np.sort(rng.choice(shapes["C"][0], 100, replace=False))
    cols = np.sort(rng.choice(shapes["C"][1], 300, replace=False))
    return [
        {"C": (0, slice(None), rng.normal(size=shapes["C"])),
         "F": (1, cols, rng.normal(size=(shapes["F"][0], len(cols)))),
         "small": (0, slice(None), rng.normal(size=shapes["small"])),
         "v": (0, slice(None), rng.normal(size=shapes["v"]))},
        {"C": (1, cols, rng.normal(size=(shapes["C"][0], len(cols)))),
         "F": (0, rows, rng.normal(size=(len(rows), shapes["F"][1])))},
        {"C": (0, rows, rng.normal(size=(len(rows), shapes["C"][1]))),
         "F": (0, slice(None), rng.normal(size=shapes["F"])),
         "v": (0, np.arange(0, 70_000, 1), rng.normal(size=70_000))},
    ]


class TestPartsEqualWhole:
    def test_polyak_update(self, rng, threads):
        avg = _averaged(rng)
        shapes = {name: arr.shape for name, arr in avg.current.arrays()}
        parts, whole = _LazyAverage(_copy(avg)), _LazyAverage(_copy(avg))
        for step in range(3):
            grads = _grads(np.random.default_rng(step), shapes)
            polyak_update(parts, grads, 0.05)
            serial_polyak_update(whole, _grads(np.random.default_rng(step), shapes), 0.05)
            _same(parts.current, whole.current)
            _same(parts.gaps, whole.gaps)

    @pytest.mark.parametrize("q, hidden, rows, weight", [
        (20_000, 128, 32, 1.0), (20_000, 128, 32, 12.0),
        # 2 and 3 rows reach PART_MIN at this Q but run whole: a part of one
        # row would be a matrix-vector product
        (40_000, 16, 2, 1.0), (40_000, 16, 3, 12.0), (40_000, 16, 4, 1.0),
        (40_000, 16, 5, 12.0), (40_000, 16, 15, 1.0)])
    def test_generative_loss(self, rng, threads, q, hidden, rows, weight):
        params = Params({"V_out": rng.normal(scale=0.1, size=(q, hidden)),
                         "b_out": rng.normal(scale=0.1, size=q)})
        h_top = np.maximum(rng.normal(size=(rows, hidden)), 0.0)
        targets = []
        for _ in range(rows):
            ids = np.sort(rng.choice(q, 40, replace=False))
            targets.append((ids, rng.integers(1, 4, size=40)))
        phi = np.where(np.arange(q) < q - 2_000, 1.0, 12.0)
        d = rng.integers(1, 60, size=rows)
        total = np.full(rows, 120)
        loss, grads = deep.generative_loss(h_top, targets, phi, d, total, params, weight)
        ref_loss, ref_grads = serial_generative_loss(h_top, targets, phi, d, total, params,
                                                     weight)
        assert loss.tobytes() == ref_loss.tobytes()
        _same(grads, ref_grads)

    @pytest.mark.parametrize("rows", [2, 3, 4, 5, 64])
    def test_output_log_probs_over_words(self, rng, threads, rows):
        q, hidden = 40_000, 16
        params = Params({"V_out": rng.normal(scale=0.1, size=(q, hidden)),
                         "b_out": rng.normal(scale=0.1, size=q)})
        h_top = np.maximum(rng.normal(size=(rows, hidden)), 0.0)
        scattered = np.sort(rng.choice(q, 33_000, replace=False))
        assert len(scattered) * rows >= PART_MIN
        log_probs = deep.output_log_probs(h_top, params.V_out[scattered], params.b_out[scattered])
        assert log_probs.tobytes() == serial_output_log_probs(h_top, params, scattered).tobytes()
        # annotation's form: views of a trailing block of rows
        trailing = slice(q - 33_000, None)
        log_probs = deep.output_log_probs(h_top, params.V_out[trailing], params.b_out[trailing])
        expected = serial_output_log_probs(h_top, params, np.arange(q)[trailing])
        assert log_probs.tobytes() == expected.tobytes()


class PartError(Exception):
    pass


class TestThreadHygiene:
    def test_deep_training_leaves_no_thread(self):
        corpus, _ = make_corpus(2, n_classes=3, n_visual=300, n_regions=2, anno_per_class=2,
                                docs_per_class=4, doc_len=30)
        config = TrainConfig(model_kind="supdeepdocnade", hidden_sizes=(256, 256), epochs=2,
                             batch_size=4, dropout_rate=0.5, seed=1)
        assert corpus.vocabulary.size * 256 >= PART_MIN  # V_out goes on row parts
        before = threading.active_count()
        train_model(corpus, config)
        assert threading.active_count() == before

    def test_polyak_update_raises_a_part_exception(self, rng):
        avg = _averaged(rng)
        lazy = _LazyAverage(_copy(avg))
        bad = rng.normal(size=(300, 999))  # does not broadcast against C's rows
        before = threading.active_count()
        with pytest.raises(ValueError, match="broadcast"):
            polyak_update(lazy, [{"C": (0, slice(None), bad)}], 0.1)
        assert threading.active_count() == before

    def test_generative_loss_raises_a_part_exception(self, rng, monkeypatch):
        def fail(z, out=None):
            raise PartError("in a row part")

        monkeypatch.setattr(deep, "log_softmax", fail)
        q = 4_000
        params = Params({"V_out": rng.normal(size=(q, 8)), "b_out": np.zeros(q)})
        before = threading.active_count()
        with pytest.raises(PartError, match="in a row part"):
            deep.generative_loss(rng.normal(size=(32, 8)), [(np.array([1]), np.array([2]))] * 32,
                                 None, np.ones(32), np.full(32, 2), params)
        assert threading.active_count() == before

    def test_tier1_turns_thread_exceptions_into_errors(self):
        script = (ROOT / "ci" / "tier1.sh").read_text()
        assert "-W error::pytest.PytestUnhandledThreadExceptionWarning" in script


def test_blas_thread_count_changes_no_byte(tmp_path):
    """A deep model trained under 1, 2 or the default number of BLAS
    threads is one file: training sets BLAS to one thread."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpora
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    vocab, world_rng = corpora.Vocab(240, 4, 2000, 8, 16), np.random.default_rng(5)
    lines = corpora.World(vocab, world_rng).draw(world_rng, 64, 40, 5, True)
    corpus = tmp_path / "train.txt"
    corpora.write_corpus(str(corpus), vocab, lines)
    hashes = {}
    for setting in ("1", "2", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        out = tmp_path / f"runs-{setting}"
        subprocess.run(
            [sys.executable, "-m", "docnade.cli", "train", "--corpus", str(corpus),
             "--model", "supdeepdocnade", "--hidden", "128,128", "--batch-size", "32",
             "--head", "sigmoid", "--dropout", "0.5", "--epochs", "1", "--seed", "3",
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        (model,) = out.glob("run-*/model.bin")
        hashes[setting] = hashlib.sha256(model.read_bytes()).hexdigest()
    assert len(set(hashes.values())) == 1, hashes
