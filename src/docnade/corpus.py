"""Multimodal bag-of-words corpora: joint vocabulary, CSR rows, file formats.

Each document, one row of a `Corpus`, is a sparse nonnegative count vector
over a single joint id space that covers every (visual word, region) pair
plus every annotation word.
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

import itertools
import json
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

FORMATS = ("text-sparse", "record-lines")
_INT64_MAX = np.iinfo(np.int64).max


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


def _count_block(indptr, ids, counts, limit=None) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union `cols` of the ids (below `limit`, if given) that hold
    a nonzero count in the CSR rows, and the rows' count block on them."""
    keep = counts != 0
    if limit is not None:
        keep &= ids < limit
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))[keep]
    cols, inverse = np.unique(ids[keep], return_inverse=True)
    block = np.zeros((len(indptr) - 1, len(cols)), dtype=np.int64)
    block[row, inverse] = counts[keep]
    return cols, block


def count_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """`_count_block` of `rows`, a sequence of (ids, counts) pairs."""
    indptr = np.cumsum([0] + [len(row_ids) for row_ids, _ in rows])
    empty = [np.zeros(0, dtype=np.int64)]
    return _count_block(indptr, np.concatenate(empty + [ids for ids, _ in rows]),
                        np.concatenate(empty + [counts for _, counts in rows]))


def _csr(n_rows: int, row, ids, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, ids, counts) of the entries (row, id, count): each row's ids
    sorted and distinct, the counts of an id summed, zero counts dropped."""
    order = np.argsort(row * (int(ids.max(initial=0)) + 1) + ids, kind="stable")
    row, ids, counts = row[order], ids[order], counts[order]
    first = np.flatnonzero(np.diff(row, prepend=-1) | np.diff(ids, prepend=-1))
    counts = np.add.reduceat(counts, first) if len(first) else counts
    keep = counts != 0
    return np.searchsorted(row[first][keep], np.arange(n_rows + 1)), ids[first][keep], counts[keep]


def _gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR pointer array of `rows` and the positions of their entries."""
    lengths = ptr[rows + 1] - ptr[rows]
    new = np.concatenate(([0], np.cumsum(lengths)))
    return new, np.repeat(ptr[rows] - new[:-1], lengths) + np.arange(new[-1])


@dataclass(frozen=True, eq=False)
class Corpus:
    """Documents as CSR arrays over a joint vocabulary.

    Row i holds the sorted distinct token ids ids[indptr[i]:indptr[i+1]]
    and their positive int64 counts, the sorted distinct class labels
    labels[label_ptr[i]:label_ptr[i+1]] and the feature row features[i]
    of an (n, N_f) matrix, which is None when N_f is 0.
    """

    vocabulary: JointVocabulary
    n_classes: int
    n_features: int
    indptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    label_ptr: np.ndarray
    labels: np.ndarray
    features: np.ndarray | None

    @classmethod
    def from_entries(cls, vocabulary: JointVocabulary, n_classes: int, n_features: int,
                     n_rows: int, entries, labels, features) -> "Corpus":
        """The corpus of `n_rows` rows from their (row, id, count) entries, in
        any order and with the counts of a repeated id summed, their
        (row, label) pairs and their row-major feature values."""
        return cls(vocabulary, n_classes, n_features, *_csr(n_rows, *entries),
                   *_csr(n_rows, *labels, np.ones_like(labels[1]))[:2],
                   np.asarray(features, dtype=float).reshape(n_rows, n_features)
                   if n_features else None)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's sorted distinct token ids and their counts."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.ids[lo:hi], self.counts[lo:hi]

    def row_labels(self, i: int) -> np.ndarray:
        """Row i's sorted distinct class labels."""
        return self.labels[self.label_ptr[i] : self.label_ptr[i + 1]]

    def take(self, rows) -> "Corpus":
        """The corpus of `rows`, a slice or an array of row indices."""
        rows = np.arange(len(self))[rows]
        indptr, at = _gather(self.indptr, rows)
        label_ptr, label_at = _gather(self.label_ptr, rows)
        return replace(self, indptr=indptr, ids=self.ids[at], counts=self.counts[at],
                       label_ptr=label_ptr, labels=self.labels[label_at],
                       features=None if self.features is None else self.features[rows])

    def count_block(self, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The sorted union `cols` of the rows' ids (below `limit`, if given)
        and the rows' (len(self), len(cols)) count block on them."""
        return _count_block(self.indptr, self.ids, self.counts, limit)


def weight_vector(vocab: JointVocabulary, rho: float) -> np.ndarray:
    """Per-id histogram weights omega: 1 for visual ids, rho for annotation ids."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    omega = np.ones(vocab.size)
    omega[vocab.visual_size :] = rho
    return omega


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


def _add_count(counts: dict, token_id: int, count: int, line_no: int, field_name: str) -> None:
    """counts[token_id] += count, which must fit in int64 (ids do, being in range)."""
    total = counts[token_id] = counts.get(token_id, 0) + count
    if total > _INT64_MAX:
        raise CorpusFormatError(
            f"line {line_no}: {field_name} count {total} of id {token_id} exceeds int64"
        )


# The header's integer fields and their least values.
_HEADER_INTS = {"n_visual": 1, "n_regions": 1, "n_annotation": 0, "C": 0, "N_f": 0}


def read_header(path) -> tuple[dict, JointVocabulary]:
    """The sidecar header of a corpus file and the vocabulary it declares:
    a JSON object whose integer fields are JSON integers no less than their
    least values, and whose optional annotation_words is a list of
    n_annotation distinct strings."""
    header_file = _header_path(path)
    if not header_file.exists():
        raise CorpusFormatError(f"missing corpus header {header_file}")
    try:
        with open(header_file) as fh:
            header = json.load(fh)
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise CorpusFormatError(f"header {header_file} is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CorpusFormatError(f"header {header_file} is not a JSON object")
    for key, least in _HEADER_INTS.items():
        if key not in header:
            raise CorpusFormatError(f"header {header_file} missing field {key!r}")
        if not (is_json_int(header[key]) and header[key] >= least):
            raise CorpusFormatError(
                f"header {header_file} field {key!r} must be an integer >= {least}, "
                f"got {header[key]!r}"
            )
    words = header.get("annotation_words", [])
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise CorpusFormatError(
            f"header {header_file} field 'annotation_words' must be a list of strings"
        )
    if "annotation_words" in header and len(words) != header["n_annotation"]:
        raise CorpusFormatError(
            f"header {header_file} field 'annotation_words': header declares n_annotation="
            f"{header['n_annotation']} but lists {len(words)} annotation words"
        )
    words = words or [f"anno{i}" for i in range(header["n_annotation"])]
    try:
        vocab = build_vocabulary(header["n_visual"], header["n_regions"], words)
    except ValueError as exc:  # a duplicate annotation word
        raise CorpusFormatError(f"header {header_file} field 'annotation_words': {exc}") from None
    return header, vocab


def _read_text(path) -> str:
    """A corpus file's text; CorpusFormatError naming the file and the line
    of the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # read() decodes the whole file, so exc.object is it
        line_no = len(exc.object[: exc.start + 1].splitlines())  # that byte is no line break
        raise CorpusFormatError(f"{path}: line {line_no}: not UTF-8 text ({exc.reason})") from None


def parse_corpus(path, format: str = "text-sparse") -> Corpus:
    """Parse a corpus file plus its sidecar header into a Corpus.

    A text-sparse file is read field kind by field kind (`_parse_columns`).
    A record-lines file, and a text-sparse file in which that finds anything
    odd, is parsed line by line, so that every error names its line and field;
    each line's labels and features are checked here, for both formats.  Both
    paths build the corpus with `Corpus.from_entries`.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    header, vocab = read_header(path)
    n_classes, n_features = header["C"], header["N_f"]
    lines = [(line_no, raw.strip()) for line_no, raw in enumerate(_read_text(path).split("\n"), 1)]
    lines = [(line_no, line) for line_no, line in lines if line and not line.startswith("#")]
    text = format == "text-sparse"
    if text and lines:
        corpus = _parse_columns([line for _, line in lines], vocab, n_classes, n_features)
        if corpus is not None:
            return corpus
    parse_line = _parse_text_sparse_line if text else _parse_record_line
    label_field, feature_field = ("LABELS", "FEATURES") if text else ("labels", "features")
    # id bounds of the VISUAL and ANNOTATIONS fields, read once per file
    bounds = vocab.visual_size, vocab.size
    rows = [parse_line(line, line_no, *bounds) for line_no, line in lines]
    for (line_no, _), (_, labels, features) in zip(lines, rows):
        bad = [label for label in labels if not 0 <= label < n_classes]
        if bad:
            raise CorpusFormatError(
                f"line {line_no}: {label_field}: label {bad[0]} out of range [0, {n_classes})")
        if len(features) != n_features:
            raise CorpusFormatError(f"line {line_no}: {feature_field}: " + (
                f"feature vector has length {len(features)}, expected {n_features}"
                if len(features) else f"missing feature vector, expected {n_features} values"))
        if not np.isfinite(features).all():
            raise CorpusFormatError(
                f"line {line_no}: {feature_field}: non-finite global feature value")
    counts, labels, features = zip(*rows) if rows else ((), (), ())
    index, flat = np.arange(len(rows)), itertools.chain.from_iterable
    entries = (np.repeat(index, list(map(len, counts))), np.fromiter(flat(counts), np.int64),
               np.fromiter(flat(row.values() for row in counts), np.int64))
    label_pairs = np.repeat(index, list(map(len, labels))), np.fromiter(flat(labels), np.int64)
    del lines, rows, counts  # the text and the per-line dicts go before the CSR sort
    return Corpus.from_entries(vocab, n_classes, n_features, len(index), entries, label_pairs,
                               features)


# The characters each field kind may hold on the column path: no tabs (the
# colon checks look at spaces only), and no signs in integer fields, because
# np.fromstring reads a lone sign as 0.
_DIGITS = b"0123456789 "
_REALS = _DIGITS + b"eE.+-"


def _numbers(fields: list[str], allowed: bytes, dtype):
    """(row, value) of each number in one field kind of every line, from one
    `np.fromstring` over the fields, each closed by a sentinel (-1, or NaN
    for reals) that no field can hold; None if a field holds a character
    not `allowed` or does not parse to its end.  np.fromstring saturates an
    integer beyond int64 silently, so INT64_MAX counts as odd too."""
    if " ".join(fields).encode("ascii", "replace").translate(None, allowed):
        return None
    mark = " -1 " if dtype is np.int64 else " nan "
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # unparsed text only warns in older numpy
        try:
            values = np.fromstring(mark.join(fields + [""]).replace(":", " "), dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    sentinel = values == -1 if dtype is np.int64 else np.isnan(values)
    if sentinel.sum() != len(fields) or (values == _INT64_MAX).any():
        return None
    return np.cumsum(sentinel)[~sentinel], values[~sentinel]


def _entries(fields: list[str], low: int, high: int):
    """(row, id, count) of each entry of an id:count field kind, or None
    unless every colon joins two numbers, the entries are all pairs or all
    bare ids, and every id is in [low, high)."""
    text = f" {' '.join(fields)} "
    if " :" in text or ": " in text or re.search(":[0-9]*:", text):
        return None
    numbers = _numbers(fields, _DIGITS + b":", np.int64)
    if numbers is None:
        return None
    row, ids = numbers
    pairs = text.count(":")
    if pairs and 2 * pairs != len(ids):
        return None
    row, ids, counts = (row[::2], ids[::2], ids[1::2]) if pairs else (row, ids, np.ones_like(ids))
    if len(ids) and (ids.min() < low or ids.max() >= high):
        return None
    return row, ids, counts


def _parse_columns(lines: list[str], vocab: JointVocabulary, n_classes: int,
                   n_features: int) -> Corpus | None:
    """A text-sparse corpus read with one `np.fromstring` per field kind, or
    None wherever the per-line parser and validation might read it
    differently or reject it: a line without four fields, odd field text
    (`_numbers`, `_entries`), a label outside [0, C), counts that could sum
    past int64, or a feature row that is not N_f finite values."""
    fields = [line.split("|") for line in lines]
    if any(len(parts) != 4 for parts in fields):
        return None
    labels_f, visual_f, anno_f, feat_f = map(list, zip(*fields))
    n = len(lines)
    labels, feats = _numbers(labels_f, _DIGITS, np.int64), _numbers(feat_f, _REALS, float)
    entries = (_entries(visual_f, 0, vocab.visual_size),
               _entries(anno_f, vocab.visual_size, vocab.size))
    if labels is None or feats is None or None in entries:
        return None
    row, ids, counts = (np.concatenate(parts) for parts in zip(*entries))
    if (labels[1].max(initial=-1) >= n_classes or counts.sum(dtype=float) >= 2.0**62
            or (np.bincount(feats[0], minlength=n) != n_features).any()
            or not np.isfinite(feats[1]).all()):
        return None
    return Corpus.from_entries(vocab, n_classes, n_features, n, (row, ids, counts), labels,
                               feats[1])


def _parse_text_sparse_line(line: str, line_no: int, visual_size: int, size: int):
    """(counts, labels, features) of a text-sparse line: counts maps each id
    to its summed count, labels is a list and features an array."""
    parts = line.split("|")
    if len(parts) != 4:
        raise CorpusFormatError(
            f"line {line_no}: expected 4 '|'-separated fields, got {len(parts)}"
        )
    labels_s, visual_s, anno_s, feat_s = (p.strip() for p in parts)

    try:
        labels = [int(tok) for tok in labels_s.split()]
    except ValueError:
        raise CorpusFormatError(f"line {line_no}: malformed LABELS field") from None

    counts: dict[int, int] = {}
    for field_name, entries, low, high in (
        ("VISUAL", visual_s, 0, visual_size),
        ("ANNOTATIONS", anno_s, visual_size, size),
    ):
        for entry in entries.split():
            token_id, count = _parse_id_count(entry, line_no, field_name)
            _check_id(token_id, low, high, line_no, field_name)
            _add_count(counts, token_id, count, line_no, field_name)

    try:
        features = np.array([float(tok) for tok in feat_s.split()])
    except ValueError:
        raise CorpusFormatError(f"line {line_no}: malformed FEATURES field") from None
    return counts, labels, features


def is_json_int(value) -> bool:
    """A JSON integer: an int but not a bool, which true and false parse as."""
    return isinstance(value, int) and not isinstance(value, bool)


def _record_list(record: dict, field_name: str, line_no: int) -> list:
    """A record field that must be a JSON list; missing or null is empty."""
    value = record.get(field_name)
    if value is None:
        return []
    if not isinstance(value, list):
        raise CorpusFormatError(f"line {line_no}: {field_name} field is not a list")
    return value


def _parse_record_line(line: str, line_no: int, visual_size: int, size: int):
    """(counts, labels, features) of a record-lines line, as for text-sparse."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: invalid JSON record ({exc})") from None
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {line_no}: record is not an object")

    counts: dict[int, int] = {}
    for field_name, low, high in (
        ("visual", 0, visual_size),
        ("annotations", visual_size, size),
    ):
        for pair in _record_list(record, field_name, line_no):
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_json_int, pair))):
                raise CorpusFormatError(
                    f"line {line_no}: malformed {field_name} pair {pair!r}"
                )
            token_id, count = pair
            if count < 0:
                raise CorpusFormatError(
                    f"line {line_no}: negative count in {field_name}"
                )
            _check_id(token_id, low, high, line_no, field_name)
            _add_count(counts, token_id, count, line_no, field_name)

    labels = _record_list(record, "labels", line_no)
    if not all(map(is_json_int, labels)):
        raise CorpusFormatError(f"line {line_no}: malformed labels field {labels!r}")
    feats = _record_list(record, "features", line_no)
    if not all(isinstance(x, float) or is_json_int(x) for x in feats):
        raise CorpusFormatError(f"line {line_no}: malformed features field {feats!r}")
    try:
        features = np.array(feats, dtype=float)
    except OverflowError:
        raise CorpusFormatError(f"line {line_no}: features: value beyond float range") from None
    return counts, labels, features
