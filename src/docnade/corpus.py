"""Multimodal bag-of-words corpora: joint vocabulary, documents, file formats.

A document is a sparse nonnegative count vector over a single joint id space
that covers every (visual word, region) pair plus every annotation word.
Ids are assigned row-major over regions:

    id(visual_word, region) = region * n_visual + visual_word

and annotation words occupy the trailing block [n_visual * n_regions, Q).

Two on-disk formats are supported and parse to identical corpora:

* ``text-sparse``: one document per line, four ``|``-separated fields
  ``LABELS | VISUAL | ANNOTATIONS | FEATURES``.  LABELS is space-separated
  class indices (may be empty), VISUAL is ``id:count`` pairs over
  visual/region ids, ANNOTATIONS is annotation ids or ``id:count`` pairs,
  FEATURES is space-separated decimal reals.  Lines starting with ``#`` are
  comments.
* ``record-lines``: one JSON object per line with fields ``labels``,
  ``visual``, ``annotations``, ``features``.

Either format is accompanied by a JSON sidecar header at
``<path>.header.json`` declaring ``n_visual``, ``n_regions``,
``n_annotation``, ``C`` and ``N_f`` (and optionally the annotation word
strings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMATS = ("text-sparse", "record-lines")


class CorpusFormatError(ValueError):
    """A corpus file, header or record does not conform to its format."""


@dataclass(frozen=True)
class JointVocabulary:
    """Bijective indexing of visual-word/region pairs and annotation words.

    Ids [0, n_visual * n_regions) are visual/region pairs, ids
    [n_visual * n_regions, size) are annotation words.
    """

    n_visual: int
    n_regions: int
    annotation_words: tuple[str, ...] = ()

    @property
    def n_annotation(self) -> int:
        return len(self.annotation_words)

    @property
    def visual_size(self) -> int:
        return self.n_visual * self.n_regions

    @property
    def size(self) -> int:
        """Total vocabulary size Q."""
        return self.visual_size + self.n_annotation

    def visual_id(self, word: int, region: int) -> int:
        if not (0 <= word < self.n_visual):
            raise ValueError(f"visual word {word} out of range [0, {self.n_visual})")
        if not (0 <= region < self.n_regions):
            raise ValueError(f"region {region} out of range [0, {self.n_regions})")
        return region * self.n_visual + word

    def visual_pair(self, token_id: int) -> tuple[int, int]:
        """Inverse of visual_id: id -> (visual word, region)."""
        if not (0 <= token_id < self.visual_size):
            raise ValueError(f"id {token_id} is not a visual/region id")
        return token_id % self.n_visual, token_id // self.n_visual

    def annotation_id(self, index: int) -> int:
        if not (0 <= index < self.n_annotation):
            raise ValueError(f"annotation index {index} out of range")
        return self.visual_size + index

    def annotation_index(self, token_id: int) -> int:
        if not self.is_annotation(token_id):
            raise ValueError(f"id {token_id} is not an annotation id")
        return token_id - self.visual_size

    def word_id(self, word: str) -> int:
        """Joint id of an annotation word given as a string."""
        try:
            return self.visual_size + self.annotation_words.index(word)
        except ValueError:
            raise KeyError(f"unknown annotation word {word!r}") from None

    def is_annotation(self, token_id: int) -> bool:
        return self.visual_size <= token_id < self.size

    def dims(self) -> dict:
        return {
            "n_visual": self.n_visual,
            "n_regions": self.n_regions,
            "n_annotation": self.n_annotation,
        }


def build_vocabulary(
    n_visual: int, n_regions: int, annotation_words=()
) -> JointVocabulary:
    """Build the joint id space over visual/region pairs plus annotations."""
    if n_visual < 1:
        raise ValueError("n_visual must be >= 1")
    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    words = tuple(str(w) for w in annotation_words)
    seen = set()
    for w in words:
        if w in seen:
            raise ValueError(f"duplicate annotation word {w!r}")
        seen.add(w)
    return JointVocabulary(n_visual, n_regions, words)


@dataclass(frozen=True)
class MultimodalDocument:
    """Sparse token counts over a joint vocabulary, labels and features.

    counts maps joint id -> positive count.  labels is a (possibly empty)
    set of class indices; single-label corpora use singletons.  features
    is an optional global feature vector of length N_f.
    """

    counts: dict[int, int] = field(default_factory=dict)
    labels: frozenset[int] = frozenset()
    features: np.ndarray | None = None

    @property
    def total_tokens(self) -> int:
        return sum(self.counts.values())

    def validate(self, vocab: JointVocabulary, n_classes: int, n_features: int) -> None:
        for token_id, count in self.counts.items():
            if not (0 <= token_id < vocab.size):
                raise ValueError(f"token id {token_id} >= vocabulary size {vocab.size}")
            if count < 0:
                raise ValueError(f"negative count {count} for id {token_id}")
        for label in self.labels:
            if not (0 <= label < n_classes):
                raise ValueError(f"label {label} out of range [0, {n_classes})")
        if self.features is None:
            if n_features > 0:
                raise ValueError(f"missing feature vector, expected {n_features} values")
        elif len(self.features) != n_features:
            raise ValueError(
                f"feature vector has length {len(self.features)}, expected {n_features}"
            )
        elif not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite global feature value")

    def token_array(self) -> np.ndarray:
        """Expand counts into a sorted id sequence (one entry per token)."""
        if not self.counts:
            return np.empty(0, dtype=np.int64)
        ids = np.array(sorted(self.counts), dtype=np.int64)
        reps = np.array([self.counts[int(i)] for i in ids])
        return np.repeat(ids, reps)

    def dense_counts(self, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=np.int64)
        for token_id, count in self.counts.items():
            if token_id >= size:
                raise ValueError(f"token id {token_id} >= {size}")
            out[token_id] = count
        return out

    def visual_only(self, vocab: JointVocabulary) -> "MultimodalDocument":
        """Copy with annotation counts removed."""
        kept = {i: c for i, c in self.counts.items() if not vocab.is_annotation(i)}
        return MultimodalDocument(kept, self.labels, self.features)


@dataclass(frozen=True)
class Corpus:
    vocabulary: JointVocabulary
    documents: tuple[MultimodalDocument, ...]
    n_classes: int
    n_features: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def validate(self) -> None:
        for i, doc in enumerate(self.documents):
            try:
                doc.validate(self.vocabulary, self.n_classes, self.n_features)
            except ValueError as exc:
                raise ValueError(f"document {i}: {exc}") from exc


@dataclass(frozen=True)
class WeightVector:
    """Per-id histogram weights: 1 for visual ids, rho for annotation ids."""

    omega: np.ndarray
    rho: float


def weight_vector(vocab: JointVocabulary, rho: float) -> WeightVector:
    if rho < 0:
        raise ValueError("rho must be >= 0")
    omega = np.ones(vocab.size)
    omega[vocab.visual_size :] = rho
    return WeightVector(omega, float(rho))


def to_weighted_histogram(doc: MultimodalDocument, weights: WeightVector) -> np.ndarray:
    """Dense element-wise product counts * omega."""
    size = len(weights.omega)
    out = np.zeros(size)
    for token_id, count in doc.counts.items():
        if token_id >= size:
            raise ValueError(
                f"token id {token_id} does not fit weight vector of length {size}"
            )
        out[token_id] = count * weights.omega[token_id]
    return out


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _header_path(path) -> Path:
    return Path(str(path) + ".header.json")


def _parse_id_count(entry: str, line_no: int, field_name: str) -> tuple[int, int]:
    token, sep, count_s = entry.partition(":")
    try:
        token_id = int(token)
        count = int(count_s) if sep else 1
    except ValueError:
        raise CorpusFormatError(
            f"line {line_no}: malformed {field_name} entry {entry!r}"
        ) from None
    if count < 0:
        raise CorpusFormatError(
            f"line {line_no}: negative count in {field_name} entry {entry!r}"
        )
    return token_id, count


def _check_id(token_id: int, low: int, high: int, line_no: int, field_name: str) -> None:
    if not (low <= token_id < high):
        raise CorpusFormatError(
            f"line {line_no}: {field_name} id {token_id} outside [{low}, {high})"
        )


def read_header(path) -> dict:
    header_file = _header_path(path)
    if not header_file.exists():
        raise CorpusFormatError(f"missing corpus header {header_file}")
    with open(header_file) as fh:
        header = json.load(fh)
    for key in ("n_visual", "n_regions", "n_annotation", "C", "N_f"):
        if key not in header:
            raise CorpusFormatError(f"header {header_file} missing field {key!r}")
    return header


def _vocab_from_header(header: dict) -> JointVocabulary:
    words = header.get("annotation_words")
    if words is None:
        words = [f"anno{i}" for i in range(header["n_annotation"])]
    if len(words) != header["n_annotation"]:
        raise CorpusFormatError(
            "header declares n_annotation="
            f"{header['n_annotation']} but lists {len(words)} annotation words"
        )
    return build_vocabulary(header["n_visual"], header["n_regions"], words)


def parse_corpus(path, format: str = "text-sparse") -> Corpus:
    """Parse a corpus file plus its sidecar header into a Corpus."""
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    header = read_header(path)
    vocab = _vocab_from_header(header)
    n_classes, n_features = header["C"], header["N_f"]

    docs = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if format == "text-sparse":
                doc = _parse_text_sparse_line(line, line_no, vocab)
            else:
                doc = _parse_record_line(line, line_no, vocab)
            docs.append(doc)

    corpus = Corpus(vocab, tuple(docs), n_classes, n_features)
    corpus.validate()
    return corpus


def _parse_text_sparse_line(line: str, line_no: int, vocab: JointVocabulary) -> MultimodalDocument:
    parts = line.split("|")
    if len(parts) != 4:
        raise CorpusFormatError(
            f"line {line_no}: expected 4 '|'-separated fields, got {len(parts)}"
        )
    labels_s, visual_s, anno_s, feat_s = (p.strip() for p in parts)

    try:
        labels = frozenset(int(tok) for tok in labels_s.split())
    except ValueError:
        raise CorpusFormatError(f"line {line_no}: malformed LABELS field") from None

    counts: dict[int, int] = {}
    for entry in visual_s.split():
        token_id, count = _parse_id_count(entry, line_no, "VISUAL")
        _check_id(token_id, 0, vocab.visual_size, line_no, "VISUAL")
        counts[token_id] = counts.get(token_id, 0) + count
    for entry in anno_s.split():
        token_id, count = _parse_id_count(entry, line_no, "ANNOTATIONS")
        _check_id(token_id, vocab.visual_size, vocab.size, line_no, "ANNOTATIONS")
        counts[token_id] = counts.get(token_id, 0) + count
    counts = {i: c for i, c in counts.items() if c > 0}

    features = None
    if feat_s:
        try:
            features = np.array([float(tok) for tok in feat_s.split()])
        except ValueError:
            raise CorpusFormatError(f"line {line_no}: malformed FEATURES field") from None
    return MultimodalDocument(counts, labels, features)


def _parse_record_line(line: str, line_no: int, vocab: JointVocabulary) -> MultimodalDocument:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: invalid JSON record ({exc})") from None
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {line_no}: record is not an object")

    counts: dict[int, int] = {}
    for field_name, low, high in (
        ("visual", 0, vocab.visual_size),
        ("annotations", vocab.visual_size, vocab.size),
    ):
        for pair in record.get(field_name, []):
            try:
                token_id, count = int(pair[0]), int(pair[1])
            except (TypeError, ValueError, IndexError):
                raise CorpusFormatError(
                    f"line {line_no}: malformed {field_name} pair {pair!r}"
                ) from None
            if count < 0:
                raise CorpusFormatError(
                    f"line {line_no}: negative count in {field_name}"
                )
            _check_id(token_id, low, high, line_no, field_name)
            counts[token_id] = counts.get(token_id, 0) + count
    counts = {i: c for i, c in counts.items() if c > 0}

    labels = frozenset(int(x) for x in record.get("labels", []))
    feats = record.get("features")
    features = np.array([float(x) for x in feats]) if feats else None
    return MultimodalDocument(counts, labels, features)


def write_corpus(corpus: Corpus, path, format: str = "text-sparse") -> None:
    """Write a corpus plus sidecar header; parse_corpus inverts this exactly."""
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    vocab = corpus.vocabulary
    header = {
        **vocab.dims(),
        "C": corpus.n_classes,
        "N_f": corpus.n_features,
        "annotation_words": list(vocab.annotation_words),
    }
    with open(_header_path(path), "w") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")

    with open(path, "w") as fh:
        for doc in corpus.documents:
            visual = {i: c for i, c in sorted(doc.counts.items()) if i < vocab.visual_size}
            anno = {i: c for i, c in sorted(doc.counts.items()) if i >= vocab.visual_size}
            feats = [] if doc.features is None else [repr(float(x)) for x in doc.features]
            if format == "text-sparse":
                fields = (
                    " ".join(str(l) for l in sorted(doc.labels)),
                    " ".join(f"{i}:{c}" for i, c in visual.items()),
                    " ".join(f"{i}:{c}" for i, c in anno.items()),
                    " ".join(feats),
                )
                fh.write(" | ".join(fields) + "\n")
            else:
                record = {
                    "labels": sorted(doc.labels),
                    "visual": [[i, c] for i, c in visual.items()],
                    "annotations": [[i, c] for i, c in anno.items()],
                    "features": [float(x) for x in (doc.features if doc.features is not None else [])],
                }
                fh.write(json.dumps(record) + "\n")
