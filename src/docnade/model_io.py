"""Versioned binary container for model parameters and training checkpoints.

Layout: an 8-byte magic string, a little-endian uint32 format version, a
length-prefixed JSON header (dimensions, model kind, tree seed, array
manifest), then the parameter arrays concatenated as little-endian float64
in the order declared by the manifest.  Checkpoints append a second array
block (the running parameter average) and a training-state record (epoch and
RNG stream states).  A file cut short anywhere fails to load with ValueError.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .deep import DeepParams
from .shallow import ShallowParams

MAGIC = b"DOCNADE1"
FORMAT_VERSION = 1

MODEL_KINDS = ("docnade", "supdocnade", "deepdocnade", "supdeepdocnade")
DEEP_KINDS = ("deepdocnade", "supdeepdocnade")
SUPERVISED_KINDS = ("supdocnade", "supdeepdocnade")


@dataclass
class ModelMeta:
    """Everything beyond the raw arrays needed to use a model."""

    kind: str
    head: str
    n_visual: int
    n_regions: int
    n_annotation: int
    n_classes: int
    n_features: int
    hidden_sizes: tuple[int, ...]
    tree_seed: int | None = None  # shallow models only
    anno_weight: float = 1.0
    dropout_rate: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return self.n_visual * self.n_regions + self.n_annotation

    def to_json(self) -> dict:
        out = asdict(self)
        out["hidden_sizes"] = list(self.hidden_sizes)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ModelMeta":
        data = dict(data)
        data["hidden_sizes"] = tuple(data["hidden_sizes"])
        return cls(**data)


def _manifest(arrays: list[tuple[str, np.ndarray]]) -> list:
    return [[name, list(arr.shape)] for name, arr in arrays]


def _unpack_arrays(manifest: list, blob: bytes) -> dict[str, np.ndarray]:
    out = {}
    offset = 0
    for name, shape in manifest:
        n = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        out[name] = arr.astype(np.float64)  # own, writable copy
        offset += n * 8
    return out


def _params_from_arrays(meta: ModelMeta, arrays: dict[str, np.ndarray]):
    if meta.kind not in DEEP_KINDS:
        return ShallowParams(
            arrays["W"], arrays["c"], arrays["V"], arrays["b"], arrays["U"], arrays["d"]
        )
    layers = len(meta.hidden_sizes)
    return DeepParams(
        [arrays[f"W{n}"] for n in range(1, layers + 1)],
        [arrays[f"c{n}"] for n in range(1, layers + 1)],
        arrays.get("P"),
        arrays["V_out"],
        arrays["b_out"],
        arrays["U"],
        arrays["d"],
    )


def _write_container(path, header: dict, blocks: list[list[tuple[str, np.ndarray]]]) -> None:
    """Each block of arrays is written as one length-prefixed blob: the
    arrays as little-endian float64, concatenated in order, each written
    straight from its own buffer."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arrays in blocks:
            fh.write(struct.pack("<Q", 8 * sum(arr.size for _, arr in arrays)))
            for _, arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def _read_exact(fh, size: int, path, what: str) -> bytes:
    # checked before reading, so a corrupt length never allocates more than the file holds
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated container ({what} cut short)")
    return fh.read(size)


def _read_container(path, n_blobs: int) -> tuple[dict, list[bytes]]:
    """The header and the first `n_blobs` blobs; ValueError if any is cut
    short or missing."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a model container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header length"))
        header = json.loads(_read_exact(fh, header_len, path, "header").decode("utf-8"))
        blobs = []
        for n in range(n_blobs):
            (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, f"blob {n} length"))
            blobs.append(_read_exact(fh, blob_len, path, f"blob {n}"))
    return header, blobs


def save_model(path, params, meta: ModelMeta) -> None:
    arrays = params.arrays()
    header = {"meta": meta.to_json(), "manifest": _manifest(arrays)}
    _write_container(path, header, [arrays])


def load_model(path) -> tuple[Any, ModelMeta]:
    header, blobs = _read_container(path, 1)
    meta = ModelMeta.from_json(header["meta"])
    arrays = _unpack_arrays(header["manifest"], blobs[0])
    return _params_from_arrays(meta, arrays), meta


def save_checkpoint(path, params, averaged, meta: ModelMeta, epoch: int, rng_states: dict) -> None:
    arrays = params.arrays()
    header = {
        "meta": meta.to_json(),
        "manifest": _manifest(arrays),
        "state": {"epoch": epoch, "rng_states": rng_states},
    }
    _write_container(path, header, [arrays, averaged.arrays()])


def load_checkpoint(path) -> tuple[Any, Any, ModelMeta, int, dict]:
    header, blobs = _read_container(path, 2)
    meta = ModelMeta.from_json(header["meta"])
    params = _params_from_arrays(meta, _unpack_arrays(header["manifest"], blobs[0]))
    averaged = _params_from_arrays(meta, _unpack_arrays(header["manifest"], blobs[1]))
    state = header["state"]
    return params, averaged, meta, state["epoch"], state["rng_states"]
