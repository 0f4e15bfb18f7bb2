import json
import struct

import numpy as np
import pytest

from conftest import random_deep_params, random_shallow_params
from docnade.model_io import (
    FORMAT_VERSION,
    MAGIC,
    ModelMeta,
    export_text,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from docnade.wordtree import build_tree


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
        states = {"shuffle": np.random.default_rng(1).bit_generator.state}
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
                        {"shuffle": state})
        _, _, _, _, states = load_checkpoint(tmp_path / "c.ckpt")
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = states["shuffle"]
        assert np.array_equal(fresh.random(5), expected)


class TestTextExport:
    def test_contains_every_array(self, tmp_path, rng):
        meta = _shallow_meta()
        params = random_shallow_params(rng, meta.vocab_size, 4, 3)
        path = tmp_path / "model.txt"
        export_text(path, params, meta)
        text = path.read_text()
        for name, _ in params.arrays():
            assert f"# array {name} " in text
        # values survive a parse through repr round-trip
        w_line = text.splitlines()[2]
        assert float(w_line.split()[0]) == params.W[0, 0]


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


class TestContainerBytes:
    def _params(self, rng, deep):
        if deep:
            meta = _deep_meta()
            return random_deep_params(rng, meta.vocab_size, (4, 3), 3, n_features=2), meta
        meta = _shallow_meta()
        return random_shallow_params(rng, meta.vocab_size, 4, 3), meta

    @pytest.mark.parametrize("deep", [False, True])
    def test_model_bytes_match_joined_blob(self, tmp_path, rng, deep):
        params, meta = self._params(rng, deep)
        save_model(tmp_path / "m.bin", params, meta)
        manifest = [[name, list(arr.shape)] for name, arr in params.arrays()]
        header = {"meta": meta.to_json(), "manifest": manifest}
        expected = _reference_container(header, [params.arrays()])
        assert (tmp_path / "m.bin").read_bytes() == expected

    @pytest.mark.parametrize("deep", [False, True])
    def test_checkpoint_bytes_match_joined_blob(self, tmp_path, rng, deep):
        params, meta = self._params(rng, deep)
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
