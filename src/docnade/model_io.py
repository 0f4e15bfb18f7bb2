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
from dataclasses import asdict, dataclass, field, fields
from types import ModuleType
from typing import Any

import numpy as np

from . import deep, shallow
from .corpus import is_json_int

MAGIC = b"DOCNADE1"
FORMAT_VERSION = 1

# Model kind -> (its family module, whether it trains the supervised term):
# the one lookup training, inference and loading make, so that no other code
# branches on the kind.  Both family modules expose the same names: `init`,
# `check_config`, `tree_seed`, `context`, `params_from_arrays`, `doc_data`,
# `batch_step`, `represent`, `predict_annotations`, `perplexity_losses` and
# `PERPLEXITY`.
FAMILIES = {
    "docnade": (shallow, False),
    "supdocnade": (shallow, True),
    "deepdocnade": (deep, False),
    "supdeepdocnade": (deep, True),
}
MODEL_KINDS = tuple(FAMILIES)
DEEP_KINDS = tuple(kind for kind, (family, _) in FAMILIES.items() if family is deep)


def _is_count(value) -> bool:
    return is_json_int(value) and value >= 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The check each meta field's JSON value must pass, besides the kind.
_META_CHECKS = {
    **dict.fromkeys(("n_visual", "n_regions", "n_annotation", "n_classes", "n_features"),
                    _is_count),
    "hidden_sizes": lambda sizes: (isinstance(sizes, list) and len(sizes) > 0
                                   and all(_is_count(h) and h > 0 for h in sizes)),
    "head": lambda head: head in deep.HEADS,
    "tree_seed": lambda seed: seed is None or is_json_int(seed),
    "anno_weight": _is_number,
    "dropout_rate": _is_number,
    "extra": lambda extra: isinstance(extra, dict),
}


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

    @property
    def family(self) -> tuple[ModuleType, bool]:
        """The kind's (family module, supervised) in `FAMILIES`."""
        return FAMILIES[self.kind]

    def to_json(self) -> dict:
        out = asdict(self)
        out["hidden_sizes"] = list(self.hidden_sizes)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ModelMeta":
        """ValueError unless `data` holds exactly the fields `to_json` writes,
        a known model kind and values of the fields' types."""
        if not isinstance(data, dict):
            raise ValueError("model meta is not an object")
        names = {f.name for f in fields(cls)}
        if data.keys() != names:
            missing, unknown = sorted(names - data.keys()), sorted(data.keys() - names)
            raise ValueError(f"model meta: missing fields {missing}, unknown fields {unknown}")
        if data["kind"] not in MODEL_KINDS:
            raise ValueError(f"model meta: unknown model kind {data['kind']!r}")
        malformed = [name for name, check in _META_CHECKS.items() if not check(data[name])]
        if malformed:
            raise ValueError(f"model meta: malformed fields {malformed}")
        data = dict(data)
        data["hidden_sizes"] = tuple(data["hidden_sizes"])
        return cls(**data)


def _manifest(arrays: list[tuple[str, np.ndarray]]) -> list:
    return [[name, list(arr.shape)] for name, arr in arrays]


def _unpack_arrays(manifest: list, blob: bytes) -> dict[str, np.ndarray]:
    if not isinstance(manifest, list) or not all(
        isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
        and isinstance(entry[1], list) and all(map(_is_count, entry[1]))
        for entry in manifest
    ):
        raise ValueError("model manifest is not a list of [name, shape] entries")
    out = {}
    offset = 0
    for name, shape in manifest:
        n = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        out[name] = arr.astype(np.float64)  # own, writable copy
        offset += n * 8
    return out


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
        if not isinstance(header, dict):
            raise ValueError(f"{path}: container header is not an object")
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
    return meta.family[0].params_from_arrays(meta, arrays), meta


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
    family = meta.family[0]
    params, averaged = (family.params_from_arrays(meta, _unpack_arrays(header["manifest"], blob))
                        for blob in blobs)
    state = header.get("state")
    if not (isinstance(state, dict) and _is_count(state.get("epoch"))
            and isinstance(state.get("rng_states"), dict)
            and state["rng_states"].keys() == {"shuffle", "split", "dropout"}):
        raise ValueError(f"{path}: malformed training state")
    return params, averaged, meta, state["epoch"], state["rng_states"]
