"""Versioned binary container for model parameters and training checkpoints.

Layout: an 8-byte magic string, a little-endian uint32 format version, a
length-prefixed JSON header (dimensions, model kind, tree seed, array
manifest), then the parameter arrays concatenated as little-endian float64
in the order declared by the manifest.  Checkpoints append a second array
block (the running parameter average) and a training-state record (epoch and
RNG stream states) to the header, which tells the two kinds apart: each
loader refuses the other kind.  A file cut short anywhere fails to load with
ValueError.

Each write makes a new file: the old entry at the path is unlinked first,
not truncated.  On ext4 (whose `auto_da_alloc` is on by default), a file
truncated and rewritten is forced to disk when it is closed, and the next
truncate waits for that; an unlinked file's dirty pages are dropped instead.
A rerun into one run dir rewrites every file: at the `train-deep-q20k`
shape, the two final writes of a training call took 26-45 ms instead of
90-100 ms on a 2-core VM's ext4 root (`tools/write_cost.py`).  A reader
holding the old file open, or a hard link to it, keeps the old, complete
bytes, and a symlink at the path is replaced by a regular file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from types import ModuleType
from typing import Any

import numpy as np

from . import deep, shallow
from .corpus import is_json_int
from .numerics import HEADS, Params
from .rng import TRAINING_STREAMS, training_streams

MAGIC = b"DOCNADE1"
FORMAT_VERSION = 1

# Model kind -> (its family module, whether it trains the supervised term):
# the one lookup training, inference and loading make, so that no other code
# branches on the kind.  Both family modules expose `array_shapes` (the one
# declaration of a model's arrays), `check_config`, `tree_seed`,
# `context(meta, vocab)` (all that inference reads besides the arrays: the
# word tree, or omega and the dropout rate), `doc_data`, `batch_step`,
# `represent(rows, params, context, restrict)`,
# `predict_annotations(rows, params, context, top_k)`,
# `perplexity_losses(rows, params, context, samples, rng)`,
# `class_word_associations` and `PERPLEXITY`; the shallow one also
# `params_from_arrays` (see `params_of`).
FAMILIES = {
    "docnade": (shallow, False),
    "supdocnade": (shallow, True),
    "deepdocnade": (deep, False),
    "supdeepdocnade": (deep, True),
}
MODEL_KINDS = tuple(FAMILIES)


def _is_count(value) -> bool:
    return is_json_int(value) and value >= 0


def _has_int_fields(stream_state) -> bool:
    """Whether a PCG64 stream state's state, inc, has_uint32 and uinteger are
    JSON integers: numpy's setter would take 1.5 or true for 1 silently."""
    pcg = stream_state.get("state") if isinstance(stream_state, dict) else None
    return isinstance(pcg, dict) and all(map(is_json_int, (
        pcg.get("state"), pcg.get("inc"), stream_state.get("has_uint32"),
        stream_state.get("uinteger"))))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The type each meta field's JSON value must have, besides the kind;
# `check_settings` checks the head and the ranges.
_META_CHECKS = {
    **dict.fromkeys(("n_visual", "n_regions", "n_annotation", "n_classes", "n_features"),
                    _is_count),
    "hidden_sizes": lambda sizes: isinstance(sizes, list) and all(map(_is_count, sizes)),
    "tree_seed": lambda seed: seed is None or _is_count(seed),
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
        values of the fields' types and settings a model of their kind can
        have (`check_settings`, and its family's tree seed)."""
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
        meta = cls(**{**data, "hidden_sizes": tuple(data["hidden_sizes"])})
        check_settings(meta.family, meta)
        # the family's tree seed of a run seeded with it (or 0): itself, or None
        if meta.family[0].tree_seed(meta.tree_seed or 0) != meta.tree_seed:
            raise ValueError(f"tree_seed {meta.tree_seed!r} is not one of the model kind")
        return meta


def check_settings(family: tuple[ModuleType, bool], settings) -> None:
    """ValueError, naming the field, unless a model of `family` can have the
    head, hidden sizes, annotation weight and dropout rate of `settings`."""
    if settings.head not in HEADS:
        raise ValueError(f"unknown head {settings.head!r}")
    if not settings.hidden_sizes or any(h < 1 for h in settings.hidden_sizes):
        raise ValueError("hidden_sizes must be positive")
    # written so that NaN fails each comparison
    if not 0 <= settings.anno_weight < np.inf:
        raise ValueError("anno_weight must be finite and >= 0")
    if not 0 <= settings.dropout_rate < 1:
        raise ValueError("dropout_rate must be in [0, 1)")
    module, supervised = family
    module.check_config(settings.hidden_sizes, settings.head, supervised)


def params_of(meta: ModelMeta, arrays: dict[str, np.ndarray]) -> Params:
    """The meta's model of its arrays by name, in file order: the family's
    `params_from_arrays` (the shallow column-major W), else `Params`."""
    return getattr(meta.family[0], "params_from_arrays", Params)(arrays)


def _manifest(arrays: list[tuple[str, np.ndarray]]) -> list:
    return [[name, list(arr.shape)] for name, arr in arrays]


def _read_params(path, checkpoint: bool) -> tuple[ModelMeta, dict, list]:
    """The meta, the header and the parameters of each blob of a checkpoint
    or a model file; ValueError unless the manifest is, array for array, the
    one `save_model` writes for the meta (a check that draws no random
    numbers)."""
    header, blobs = _read_container(path, checkpoint)
    try:
        meta = ModelMeta.from_json(header.get("meta"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    manifest, shapes = header.get("manifest"), meta.family[0].array_shapes(meta)
    if not isinstance(manifest, list):
        raise ValueError(f"{path}: model manifest is not a list of [name, shape] entries")
    for got, want in itertools.zip_longest(manifest, shapes):
        if got != want:
            raise ValueError(f"{path}: manifest entry {got} differs from the meta's {want}")
    params = []
    for blob in blobs:
        arrays, offset = {}, 0
        for name, shape in shapes:
            n = int(np.prod(shape, dtype=np.int64))
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
            arrays[name] = arr.astype(np.float64)  # own, writable copy
            offset += n * 8
        params.append(params_of(meta, arrays))
    return meta, header, params


def _write_container(path, header: dict, blocks: list[list[tuple[str, np.ndarray]]]) -> None:
    """Each block of arrays is written as one length-prefixed blob: the
    arrays as little-endian float64, concatenated in order, each written
    straight from its own buffer or, if it is not C-contiguous (the
    column-major shallow W), 16 rows at a time: no write copies a whole
    array, and 16 rows read each 64-byte line of a column-major array once
    (one row at a time was measured 3x slower)."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)  # a new file, not a truncated one (see the module docstring)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arrays in blocks:
            fh.write(struct.pack("<Q", 8 * sum(arr.size for _, arr in arrays)))
            for _, arr in arrays:
                parts = ([arr] if arr.flags.c_contiguous
                         else (arr[i : i + 16] for i in range(0, len(arr), 16)))
                for part in parts:
                    fh.write(np.ascontiguousarray(part, dtype="<f8").data)


def _read_exact(fh, size: int, path, what: str) -> bytes:
    # checked before reading, so a corrupt length never allocates more than the file holds
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated container ({what} cut short)")
    return fh.read(size)


def _read_container(path, checkpoint: bool) -> tuple[dict, list[bytes]]:
    """The header and the blobs of a checkpoint (two: the current and the
    averaged parameters) or a model file (one); ValueError if the header's
    training state says that the file is of the other kind, or a blob is
    cut short or missing."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a model container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header length"))
        try:
            header = json.loads(_read_exact(fh, header_len, path, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: container header is not UTF-8 JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: container header is not an object")
        if ("state" in header) != checkpoint:  # only a checkpoint has a training state
            raise ValueError(f"{path}: " + (
                "malformed training state: none in the header, so a model file, not a checkpoint"
                if checkpoint else
                "a checkpoint, not a model file (the header has a training state)"
            ))
        blobs = []
        for n in range(2 if checkpoint else 1):
            (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, f"blob {n} length"))
            blobs.append(_read_exact(fh, blob_len, path, f"blob {n}"))
    return header, blobs


def save_model(path, params, meta: ModelMeta) -> None:
    arrays = params.arrays()
    header = {"meta": meta.to_json(), "manifest": _manifest(arrays)}
    _write_container(path, header, [arrays])


def load_model(path) -> tuple[Any, ModelMeta]:
    meta, _, (params,) = _read_params(path, checkpoint=False)
    return params, meta


def save_checkpoint(path, params, averaged, meta: ModelMeta, epoch: int, rng_states: dict) -> None:
    arrays = params.arrays()
    header = {
        "meta": meta.to_json(),
        "manifest": _manifest(arrays),
        "state": {"epoch": epoch, "rng_states": rng_states},
    }
    _write_container(path, header, [arrays, averaged.arrays()])


def load_checkpoint(path) -> tuple[Any, Any, ModelMeta, int, dict]:
    meta, header, (params, averaged) = _read_params(path, checkpoint=True)
    state = header.get("state")
    if not (isinstance(state, dict) and _is_count(state.get("epoch"))
            and isinstance(state.get("rng_states"), dict)
            and state["rng_states"].keys() == set(TRAINING_STREAMS)
            and all(map(_has_int_fields, state["rng_states"].values()))):
        raise ValueError(f"{path}: malformed training state")
    try:  # each state set on a fresh stream, as a resume does
        training_streams(0, state["rng_states"])
    except (TypeError, ValueError, KeyError, OverflowError):  # numpy's PCG64 refused one
        raise ValueError(f"{path}: malformed training state") from None
    return params, averaged, meta, state["epoch"], state["rng_states"]
