import json
import struct

import numpy as np
import pytest

from conftest import random_deep_params, random_shallow_params
from docnade.model_io import (
    FORMAT_VERSION,
    MAGIC,
    ModelMeta,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from docnade.numerics import Params
from docnade.trainer import RngStreams, TrainConfig, train_model
from docnade.wordtree import build_tree
from gen import make_corpus


def _shallow_meta(hidden=4):
    return ModelMeta(
        kind="supdocnade", head="softmax", n_visual=3, n_regions=2, n_annotation=2,
        n_classes=3, n_features=0, hidden_sizes=(hidden,), tree_seed=7,
    )


def _deep_meta(sizes=(4, 3)):
    return ModelMeta(
        kind="supdeepdocnade", head="sigmoid", n_visual=3, n_regions=2, n_annotation=2,
        n_classes=3, n_features=2, hidden_sizes=sizes,
        anno_weight=12.0, dropout_rate=0.5,
    )


class TestModelRoundTrip:
    def test_shallow(self, tmp_path, rng):
        meta = _shallow_meta()
        params = random_shallow_params(rng, meta.vocab_size, 4, 3)
        path = tmp_path / "model.bin"
        save_model(path, params, meta)
        loaded, loaded_meta = load_model(path)
        assert loaded_meta == meta
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b), name

    def test_deep_with_features(self, tmp_path, rng):
        meta = _deep_meta()
        params = random_deep_params(rng, meta.vocab_size, (4, 3), 3, n_features=2)
        path = tmp_path / "model.bin"
        save_model(path, params, meta)
        loaded, loaded_meta = load_model(path)
        assert loaded_meta.anno_weight == 12.0
        assert loaded_meta.dropout_rate == 0.5
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b), name

    def test_loaded_arrays_are_writable(self, tmp_path, rng):
        meta = _shallow_meta()
        params = random_shallow_params(rng, meta.vocab_size, 4, 3)
        save_model(tmp_path / "m.bin", params, meta)
        loaded, _ = load_model(tmp_path / "m.bin")
        loaded.W[0, 0] = 5.0  # must not raise

    def test_tree_reconstructs_from_seed(self, tmp_path, rng):
        meta = _shallow_meta()
        params = random_shallow_params(rng, meta.vocab_size, 4, 3)
        save_model(tmp_path / "m.bin", params, meta)
        _, loaded_meta = load_model(tmp_path / "m.bin")
        original = build_tree(meta.vocab_size, meta.tree_seed)
        rebuilt = build_tree(loaded_meta.vocab_size, loaded_meta.tree_seed)
        assert np.array_equal(original.leaf_of_word, rebuilt.leaf_of_word)

    def test_save_is_byte_deterministic(self, tmp_path, rng):
        meta = _shallow_meta()
        params = random_shallow_params(rng, meta.vocab_size, 4, 3)
        save_model(tmp_path / "a.bin", params, meta)
        save_model(tmp_path / "b.bin", params, meta)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODELFILE")
        with pytest.raises(ValueError, match="magic"):
            load_model(path)


class TestCheckpointRoundTrip:
    def test_full_state(self, tmp_path, rng):
        meta = _deep_meta(sizes=(4,))
        params = random_deep_params(rng, meta.vocab_size, (4,), 3, n_features=2)
        averaged = params.copy()
        averaged.V_out += 1.0
        states = RngStreams.from_seed(1).states()
        path = tmp_path / "epoch_0002.ckpt"
        save_checkpoint(path, params, averaged, meta, epoch=2, rng_states=states)
        p2, a2, m2, epoch, s2 = load_checkpoint(path)
        assert epoch == 2
        assert m2 == meta
        assert s2 == states
        assert np.array_equal(p2.V_out + 1.0, a2.V_out)

    def test_restored_rng_continues_identically(self, tmp_path, rng):
        meta = _shallow_meta()
        params = random_shallow_params(rng, meta.vocab_size, 4, 3)
        gen = np.random.default_rng(33)
        gen.random(10)
        state = gen.bit_generator.state
        expected = gen.random(5)
        save_checkpoint(tmp_path / "c.ckpt", params, params.copy(), meta, 1,
                        {**RngStreams.from_seed(0).states(), "shuffle": state})
        _, _, _, _, states = load_checkpoint(tmp_path / "c.ckpt")
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = states["shuffle"]
        assert np.array_equal(fresh.random(5), expected)


class TestLoadSaveRoundTrip:
    """A trained model file and checkpoint, loaded and saved again, keep
    every byte: the arrays come back in the file order that `array_shapes`
    declares, W's memory order does not show in the file, and the meta and
    the training state re-encode as they were."""

    @pytest.mark.parametrize("kind,hidden", [
        ("docnade", (5,)), ("supdocnade", (5,)),
        ("deepdocnade", (5, 4)), ("supdeepdocnade", (5, 4)),
    ])
    def test_model_and_checkpoint(self, tmp_path, kind, hidden):
        corpus, _ = make_corpus(3, n_classes=2, n_visual=4, n_regions=2, anno_per_class=2,
                                docs_per_class=4, doc_len=6, n_features=2)
        config = TrainConfig(model_kind=kind, hidden_sizes=hidden, learning_rate=0.05,
                             epochs=2, seed=1)
        train_model(corpus, config, checkpoint_dir=tmp_path,
                    write_model=lambda averaged, meta: save_model(tmp_path / "m.bin",
                                                                  averaged, meta))
        params, meta = load_model(tmp_path / "m.bin")
        save_model(tmp_path / "again.bin", params, meta)
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "m.bin").read_bytes()
        ckpt = tmp_path / "epoch_0002.ckpt"
        save_checkpoint(tmp_path / "again.ckpt", *load_checkpoint(ckpt))
        assert (tmp_path / "again.ckpt").read_bytes() == ckpt.read_bytes()


def _reference_container(header, array_blocks):
    """Container bytes built the original way: every array through
    tobytes(), each block joined into one blob before writing."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [MAGIC, struct.pack("<I", FORMAT_VERSION),
           struct.pack("<Q", len(header_bytes)), header_bytes]
    for arrays in array_blocks:
        blob = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
        out += [struct.pack("<Q", len(blob)), blob]
    return b"".join(out)


def _random_params(rng, deep):
    if deep:
        meta = _deep_meta()
        return random_deep_params(rng, meta.vocab_size, (4, 3), 3, n_features=2), meta
    meta = _shallow_meta()
    return random_shallow_params(rng, meta.vocab_size, 4, 3), meta


class TestContainerBytes:
    @pytest.mark.parametrize("deep", [False, True])
    def test_model_bytes_match_joined_blob(self, tmp_path, rng, deep):
        params, meta = _random_params(rng, deep)
        save_model(tmp_path / "m.bin", params, meta)
        manifest = [[name, list(arr.shape)] for name, arr in params.arrays()]
        header = {"meta": meta.to_json(), "manifest": manifest}
        expected = _reference_container(header, [params.arrays()])
        assert (tmp_path / "m.bin").read_bytes() == expected

    @pytest.mark.parametrize("deep", [False, True])
    def test_checkpoint_bytes_match_joined_blob(self, tmp_path, rng, deep):
        params, meta = _random_params(rng, deep)
        averaged = params.copy()
        for _, arr in averaged.arrays():
            arr *= 0.5
        states = {"shuffle": np.random.default_rng(1).bit_generator.state}
        save_checkpoint(tmp_path / "c.ckpt", params, averaged, meta, 3, states)
        manifest = [[name, list(arr.shape)] for name, arr in params.arrays()]
        header = {"meta": meta.to_json(), "manifest": manifest,
                  "state": {"epoch": 3, "rng_states": states}}
        expected = _reference_container(header, [params.arrays(), averaged.arrays()])
        assert (tmp_path / "c.ckpt").read_bytes() == expected


    def test_column_major_w_writes_row_major_bytes(self, tmp_path, rng):
        params, meta = _random_params(rng, False)
        fortran = Params({**dict(params.arrays()), "W": np.asfortranarray(params.W)})
        c_order = Params({**dict(params.arrays()), "W": np.ascontiguousarray(params.W)})
        assert fortran.W.flags.f_contiguous and not fortran.W.flags.c_contiguous
        states = {"shuffle": np.random.default_rng(1).bit_generator.state}
        for name, p in (("f", fortran), ("c", c_order)):
            save_model(tmp_path / f"{name}.bin", p, meta)
            save_checkpoint(tmp_path / f"{name}.ckpt", p, p.copy(), meta, 2, states)
        for suffix in ("bin", "ckpt"):
            written = (tmp_path / f"f.{suffix}").read_bytes()
            assert written == (tmp_path / f"c.{suffix}").read_bytes()

    def test_column_major_w_is_written_without_a_whole_copy(self, tmp_path):
        """Writing a column-major W at Q = 2,960 and H = 100 allocates less
        than one W."""
        import tracemalloc

        meta = ModelMeta(
            kind="docnade", head="softmax", n_visual=90, n_regions=32, n_annotation=80,
            n_classes=0, n_features=0, hidden_sizes=(100,), tree_seed=1,
        )
        params = random_shallow_params(np.random.default_rng(0), meta.vocab_size, 100, 0)
        params.W = np.asfortranarray(params.W)
        tracemalloc.start()
        try:
            save_model(tmp_path / "m.bin", params, meta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert meta.vocab_size == 2960
        assert peak < params.W.nbytes, f"peak {peak} B >= W {params.W.nbytes} B"


class TestManifestMatchesMeta:
    """A manifest that differs from the one `save_model` writes for the
    file's meta fails to load with ValueError naming the first array that
    differs, though its byte counts may add up."""

    STATES = RngStreams.from_seed(1).states()

    def _assert_rejected(self, tmp_path, meta, arrays, name):
        manifest = [[key, list(arr.shape)] for key, arr in arrays]
        header = {"meta": meta.to_json(), "manifest": manifest}
        (tmp_path / "m.bin").write_bytes(_reference_container(header, [arrays]))
        header["state"] = {"epoch": 1, "rng_states": self.STATES}
        (tmp_path / "c.ckpt").write_bytes(_reference_container(header, [arrays, arrays]))
        with pytest.raises(ValueError, match=f"'{name}'"):
            load_model(tmp_path / "m.bin")
        with pytest.raises(ValueError, match=f"'{name}'"):
            load_checkpoint(tmp_path / "c.ckpt")

    @pytest.mark.parametrize("deep", [False, True])
    def test_swapped_shape(self, tmp_path, rng, deep):
        params, meta = _random_params(rng, deep)
        (name, first), *rest = params.arrays()
        self._assert_rejected(tmp_path, meta, [(name, first.T), *rest], name)

    @pytest.mark.parametrize("deep,name", [(False, "d"), (True, "P")])
    def test_missing_array(self, tmp_path, rng, deep, name):
        params, meta = _random_params(rng, deep)
        arrays = [(key, arr) for key, arr in params.arrays() if key != name]
        self._assert_rejected(tmp_path, meta, arrays, name)

    @pytest.mark.parametrize("deep", [False, True])
    def test_extra_array(self, tmp_path, rng, deep):
        params, meta = _random_params(rng, deep)
        self._assert_rejected(tmp_path, meta, params.arrays() + [("Z", np.zeros(2))], "Z")


class TestCheckpointState:
    GOOD_STATES = RngStreams.from_seed(1).states()

    @pytest.mark.parametrize("state", [
        None,  # no state entry
        [2, GOOD_STATES],
        {"epoch": "x", "rng_states": GOOD_STATES},
        {"epoch": -1, "rng_states": GOOD_STATES},
        {"epoch": 1.0, "rng_states": GOOD_STATES},
        {"epoch": True, "rng_states": GOOD_STATES},
        {"rng_states": GOOD_STATES},
        {"epoch": 1, "rng_states": []},
        {"epoch": 1},
        {"epoch": 1, "rng_states": {"shuffle": GOOD_STATES["shuffle"]}},
        {"epoch": 1, "rng_states": {**GOOD_STATES, "init": GOOD_STATES["split"]}},
    ], ids=["no-state", "array", "epoch-string", "epoch-negative", "epoch-float", "epoch-bool",
            "no-epoch", "rng-array", "no-rng", "rng-one-stream", "rng-extra-stream"])
    def test_malformed_state_is_a_value_error(self, tmp_path, rng, state):
        meta = _shallow_meta(hidden=2)
        params = random_shallow_params(rng, meta.vocab_size, 2, 3)
        manifest = [[name, list(arr.shape)] for name, arr in params.arrays()]
        header = {"meta": meta.to_json(), "manifest": manifest}
        if state is not None:
            header["state"] = state
        path = tmp_path / "c.ckpt"
        path.write_bytes(_reference_container(header, [params.arrays(), params.arrays()]))
        with pytest.raises(ValueError, match="malformed training state"):
            load_checkpoint(path)


class TestFileKind:
    """Only a checkpoint's header has a training state: each loader refuses
    the other kind, naming the file."""

    def test_model_file_is_not_a_checkpoint(self, tmp_path, rng):
        meta = _shallow_meta(hidden=2)
        save_model(tmp_path / "m.bin", random_shallow_params(rng, meta.vocab_size, 2, 3), meta)
        with pytest.raises(ValueError, match="m.bin: .*a model file, not a checkpoint"):
            load_checkpoint(tmp_path / "m.bin")

    def test_checkpoint_is_not_a_model_file(self, tmp_path, rng):
        meta = _shallow_meta(hidden=2)
        params = random_shallow_params(rng, meta.vocab_size, 2, 3)
        save_checkpoint(tmp_path / "c.ckpt", params, params.copy(), meta, 1,
                        RngStreams.from_seed(1).states())
        with pytest.raises(ValueError, match="c.ckpt: a checkpoint, not a model file"):
            load_model(tmp_path / "c.ckpt")


class TestTruncatedFiles:
    """A file cut at any byte offset fails to load with ValueError."""

    def _assert_every_cut_rejected(self, path, load):
        data = path.read_bytes()
        cut = path.parent / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load(cut)

    def test_model(self, tmp_path, rng):
        meta = _shallow_meta(hidden=2)
        save_model(tmp_path / "m.bin", random_shallow_params(rng, meta.vocab_size, 2, 3), meta)
        self._assert_every_cut_rejected(tmp_path / "m.bin", load_model)

    def test_checkpoint(self, tmp_path, rng):
        meta = _shallow_meta(hidden=2)
        params = random_shallow_params(rng, meta.vocab_size, 2, 3)
        states = {"shuffle": np.random.default_rng(1).bit_generator.state}
        save_checkpoint(tmp_path / "c.ckpt", params, params.copy(), meta, 1, states)
        self._assert_every_cut_rejected(tmp_path / "c.ckpt", load_checkpoint)

    def test_corrupt_length_prefix(self, tmp_path, rng):
        meta = _shallow_meta(hidden=2)
        save_model(tmp_path / "m.bin", random_shallow_params(rng, meta.vocab_size, 2, 3), meta)
        data = bytearray((tmp_path / "m.bin").read_bytes())
        data[len(MAGIC) + 4 : len(MAGIC) + 12] = struct.pack("<Q", 2**62)
        (tmp_path / "m.bin").write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated"):
            load_model(tmp_path / "m.bin")
