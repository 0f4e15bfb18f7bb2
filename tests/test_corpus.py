import json

import numpy as np
import pytest

from docnade.corpus import (
    CorpusFormatError,
    build_vocabulary,
    count_rows,
    parse_corpus,
    weight_vector,
)
from gen import write_corpus
from oracles import (
    Document,
    annotation_id,
    annotation_index,
    corpus_of,
    dense_counts,
    documents,
    id_counts,
    to_weighted_histogram,
    token_array,
    total_tokens,
    visual_id,
    visual_pair,
    word_id,
)


class TestVocabulary:
    def test_paper_scale_size(self):
        # 2x2 grid over 240 clusters -> 960 visual/region pairs
        vocab = build_vocabulary(240, 4)
        assert vocab.size == 960
        assert vocab.visual_size == 960

    def test_minimal_vocabulary(self):
        vocab = build_vocabulary(1, 1, ["sky"])
        assert vocab.size == 2
        assert word_id(vocab, "sky") == 1

    def test_row_major_bijection(self):
        vocab = build_vocabulary(3, 2, ["a", "b"])
        assert vocab.size == 8
        assert visual_id(vocab, word=2, region=1) == 5
        # enumerate the full bijection by hand and round-trip every id
        seen = set()
        for region in range(2):
            for word in range(3):
                token_id = visual_id(vocab, word, region)
                assert token_id == region * 3 + word
                assert visual_pair(vocab, token_id) == (word, region)
                seen.add(token_id)
        for index, word in enumerate(["a", "b"]):
            token_id = annotation_id(vocab, index)
            assert token_id == 6 + index
            assert word_id(vocab, word) == token_id
            assert annotation_index(vocab, token_id) == index
            seen.add(token_id)
        assert seen == set(range(8))

    def test_duplicate_annotation_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            build_vocabulary(2, 2, ["sky", "tree", "tree"])

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            build_vocabulary(0, 1)
        with pytest.raises(ValueError):
            build_vocabulary(1, 0)


class TestCountRows:
    def test_union_of_nonzero_ids_and_their_block(self):
        rows = [
            (np.array([2, 5, 9]), np.array([1, 0, 3])),  # a zero count adds no column
            (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
            (np.array([0, 2]), np.array([4, 2])),
        ]
        cols, block = count_rows(rows)
        assert cols.tolist() == [0, 2, 9]
        assert block.tolist() == [[0, 1, 3], [0, 0, 0], [4, 2, 0]]

    def test_no_rows(self):
        cols, block = count_rows([])
        assert cols.shape == (0,) and block.shape == (0, 0)

    def test_id_counts_below_limit(self):
        doc = Document({7: 1, 0: 2, 3: 5})
        assert [a.tolist() for a in id_counts(doc)] == [[0, 3, 7], [2, 5, 1]]
        assert [a.tolist() for a in id_counts(doc, 4)] == [[0, 3], [2, 5]]


class TestWeightedHistogram:
    def test_rho_one_is_identity(self):
        vocab = build_vocabulary(3, 2, ["a", "b"])
        doc = Document({0: 2, 7: 1})
        hist = to_weighted_histogram(doc, weight_vector(vocab, 1.0))
        assert np.array_equal(hist, dense_counts(doc, 8).astype(float))

    def test_large_annotation_weight(self):
        vocab = build_vocabulary(3, 2, ["a", "b"])
        doc = Document({7: 1})
        hist = to_weighted_histogram(doc, weight_vector(vocab, 12_000.0))
        assert hist[7] == 12_000.0

    def test_zero_counts(self):
        vocab = build_vocabulary(3, 2, ["a", "b"])
        for rho in (0.0, 1.0, 5.5):
            hist = to_weighted_histogram(Document({}), weight_vector(vocab, rho))
            assert np.array_equal(hist, np.zeros(8))

    def test_weighted_sum_decomposition(self):
        vocab = build_vocabulary(4, 3, ["a", "b", "c"])
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = {int(i): int(rng.integers(1, 4)) for i in rng.choice(vocab.size, 6, replace=False)}
            doc = Document(counts)
            rho = float(rng.uniform(0, 10))
            hist = to_weighted_histogram(doc, weight_vector(vocab, rho))
            n_visual_tokens = sum(c for i, c in counts.items() if i < vocab.visual_size)
            n_anno_tokens = sum(c for i, c in counts.items() if i >= vocab.visual_size)
            assert hist.sum() == pytest.approx(n_visual_tokens + rho * n_anno_tokens)

    def test_length_mismatch(self):
        small = build_vocabulary(1, 1, ["a"])
        doc = Document({5: 1})
        with pytest.raises(ValueError):
            to_weighted_histogram(doc, weight_vector(small, 1.0))


def _write_header(path, n_visual, n_regions, n_annotation, C, N_f):
    import json

    with open(str(path) + ".header.json", "w") as fh:
        json.dump(
            {"n_visual": n_visual, "n_regions": n_regions, "n_annotation": n_annotation,
             "C": C, "N_f": N_f},
            fh,
        )


class TestParsing:
    def test_example_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("3 | 0:2 5:1 | 7 | 1.0 0.5\n")
        _write_header(path, 3, 2, 2, 4, 2)
        corpus = parse_corpus(path)
        assert len(corpus) == 1
        doc = documents(corpus)[0]
        assert doc.counts == {0: 2, 5: 1, 7: 1}
        assert doc.labels == frozenset({3})
        assert np.array_equal(doc.features, [1.0, 0.5])

    def test_empty_annotation_field(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | 1:1 |  | \n")
        _write_header(path, 3, 2, 2, 4, 0)
        doc = documents(parse_corpus(path))[0]
        assert doc.counts == {1: 1}
        assert doc.features is None

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("# header comment\n\n0 | 1:1 | | \n")
        _write_header(path, 3, 2, 0, 1, 0)
        assert len(parse_corpus(path)) == 1

    def test_unknown_format_is_named(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | 1:1 | | \n")
        _write_header(path, 3, 2, 0, 1, 0)
        with pytest.raises(ValueError, match="unknown corpus format 'csv'"):
            parse_corpus(path, "csv")

    def test_malformed_line_names_line_and_field(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | 1:1 | | \n0 | nope | | \n")
        _write_header(path, 3, 2, 0, 1, 0)
        with pytest.raises(CorpusFormatError, match="line 2.*VISUAL"):
            parse_corpus(path)

    @pytest.mark.parametrize("record, field", [
        ('{"labels": 5}', "labels"),
        ('{"visual": 5}', "visual"),
        ('{"features": 5}', "features"),
        ('{"features": [null]}', "features"),
        ('{"labels": [null]}', "labels"),
        ('{"visual": [[1.5, 2]]}', "visual"),
        ('{"visual": [[1, 2.5]]}', "visual"),
        pytest.param('{"features": [1%s]}' % ("0" * 400), "features", id="integer-beyond-float"),
        pytest.param('{"visual": [[1, 2]]', "invalid JSON record", id="invalid-json"),
        pytest.param('[[1, 2]]', "record is not an object", id="not-an-object"),
        pytest.param('{"visual": [[1, -2]]}', "negative count in visual", id="negative-count"),
    ])
    def test_record_field_of_wrong_type_names_line_and_field(self, tmp_path, record, field):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"labels": [0], "visual": [[1, 2]]}\n' + record + "\n")
        _write_header(path, 3, 2, 0, 1, 0)
        with pytest.raises(CorpusFormatError, match=f"line 2.*{field}"):
            parse_corpus(path, "record-lines")

    def test_id_out_of_range(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | 99:1 | | \n")
        _write_header(path, 3, 2, 0, 1, 0)
        with pytest.raises(CorpusFormatError, match="99"):
            parse_corpus(path)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | 1:-2 | | \n")
        _write_header(path, 3, 2, 0, 1, 0)
        with pytest.raises(CorpusFormatError, match="negative"):
            parse_corpus(path)

    def test_annotation_id_must_be_in_annotation_block(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | | 1 | \n")
        _write_header(path, 3, 2, 2, 1, 0)
        with pytest.raises(CorpusFormatError, match="ANNOTATIONS"):
            parse_corpus(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 | | | \n")
        with pytest.raises(CorpusFormatError, match="header"):
            parse_corpus(path)

    @pytest.mark.parametrize("key", ["n_visual", "n_regions", "n_annotation", "C", "N_f"])
    def test_header_missing_a_field(self, tmp_path, key):
        import json

        path = tmp_path / "corpus.txt"
        path.write_text("0 | | | \n")
        _write_header(path, 3, 2, 0, 1, 0)
        header_path = tmp_path / "corpus.txt.header.json"
        header = json.loads(header_path.read_text())
        del header[key]
        header_path.write_text(json.dumps(header))
        with pytest.raises(CorpusFormatError, match=f"header .* missing field '{key}'"):
            parse_corpus(path)


def _random_corpus(seed, n_docs=10, n_features=2):
    rng = np.random.default_rng(seed)
    vocab = build_vocabulary(5, 2, ["a", "b", "c"])
    docs = []
    for _ in range(n_docs):
        n_ids = int(rng.integers(0, 6))
        ids = rng.choice(vocab.size, n_ids, replace=False)
        counts = {int(i): int(rng.integers(1, 5)) for i in ids}
        labels = frozenset(int(x) for x in rng.choice(4, rng.integers(0, 3), replace=False))
        features = rng.normal(size=n_features) if n_features else None
        docs.append(Document(counts, labels, features))
    return corpus_of(vocab, tuple(docs), n_classes=4, n_features=n_features)


def _assert_corpora_equal(a, b):
    assert a.vocabulary == b.vocabulary
    assert a.n_classes == b.n_classes
    assert a.n_features == b.n_features
    assert len(a) == len(b)
    for left, right in zip(documents(a), documents(b)):
        assert left.counts == right.counts
        assert left.labels == right.labels
        if left.features is None:
            assert right.features is None
        else:
            assert np.array_equal(left.features, right.features)


class TestRoundTrip:
    @pytest.mark.parametrize("format", ["text-sparse", "record-lines"])
    def test_write_parse_identity(self, tmp_path, format):
        corpus = _random_corpus(17)
        path = tmp_path / "c.dat"
        write_corpus(corpus, path, format)
        _assert_corpora_equal(parse_corpus(path, format), corpus)

    def test_formats_parse_identically(self, tmp_path):
        corpus = _random_corpus(3)
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        write_corpus(corpus, p1, "text-sparse")
        write_corpus(corpus, p2, "record-lines")
        _assert_corpora_equal(
            parse_corpus(p1, "text-sparse"), parse_corpus(p2, "record-lines")
        )

    def test_document_order_preserved(self, tmp_path):
        corpus = _random_corpus(11)
        path = tmp_path / "c.dat"
        write_corpus(corpus, path)
        parsed = parse_corpus(path)
        for left, right in zip(documents(parsed), documents(corpus)):
            assert left.counts == right.counts


class TestDocumentValidation:
    def test_token_array_matches_counts(self):
        doc = Document({3: 2, 1: 1})
        assert token_array(doc).tolist() == [1, 3, 3]
        assert total_tokens(doc) == 3

    def test_zero_token_document_is_legal(self):
        vocab = build_vocabulary(2, 2)
        doc = Document({})
        assert corpus_of(vocab, [doc], n_classes=2).row(0)[0].tolist() == []
        assert total_tokens(doc) == 0

    @pytest.mark.parametrize("format", ["text-sparse", "record-lines"])
    @pytest.mark.parametrize("labels, features, field, message", [
        ([2], [0.5, 1.0], "labels", "label 2 out of range [0, 2)"),
        ([-1], [0.5, 1.0], "labels", "label -1 out of range [0, 2)"),
        ([0], [0.5], "features", "feature vector has length 1, expected 2"),
        ([0], [0.5, 1.0, 2.0], "features", "feature vector has length 3, expected 2"),
        ([0], [], "features", "missing feature vector, expected 2 values"),
        ([0], [0.5, float("inf")], "features", "non-finite global feature value"),
    ], ids=["label-too-large", "negative-label", "too-few-features", "too-many-features",
            "missing-features", "non-finite-feature"])
    def test_label_or_feature_error_names_line_and_field(self, tmp_path, format, labels,
                                                         features, field, message):
        vocab = build_vocabulary(2, 2)
        path = tmp_path / "c.dat"
        write_corpus(corpus_of(vocab, [Document({0: 1}, frozenset({1}), np.ones(2))] * 3, 2, 2),
                     path, format)
        lines = path.read_text().splitlines()
        if format == "text-sparse":
            field = field.upper()
            lines[1] = f"{' '.join(map(str, labels))} | 0:1 | | {' '.join(map(repr, features))}"
        else:
            lines[1] = json.dumps({"labels": labels, "visual": [[0, 1]], "features": features})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(path, format)
        assert f"line 2: {field}" in str(excinfo.value) and message in str(excinfo.value)


def _parse_lines(path, format="text-sparse"):
    """`parse_corpus` with the column parser switched off: the per-line parser
    and validation alone."""
    import docnade.corpus as corpus_mod

    original = corpus_mod._parse_columns
    corpus_mod._parse_columns = lambda *args: None
    try:
        return parse_corpus(path, format)
    finally:
        corpus_mod._parse_columns = original


def _outcome(parse, path):
    """The arrays a parse gives, or its exception type and message."""
    try:
        corpus = parse(path)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    arrays = [getattr(corpus, name) for name in
              ("indptr", "ids", "counts", "label_ptr", "labels", "features")]
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# Single tokens the column parser must read as the per-line parser does, or
# leave to it: odd spellings of numbers, numbers beyond int64, non-finite reals.
_ODD_TOKENS = [
    "1_0", "+5", "010", "0x10", "1e3", "٣", "١:2", "3:٢", "-1", "-0", "- 1",
    "+", "1:", ":2", "1::2", "1:2:3", "1:2:3 4", "1: 2", "1 :2", "1:-2", "2:0", "1.5", "3:1.0",
    "99999999999999999999", "1:99999999999999999999", "1:9223372036854775807",
    "1:5000000000000000000 1:5000000000000000000",  # counts that sum past int64
    "nan", "inf", "-inf", "1e400", "1e-400", "0x1p3", "1,5", ".5", "5.", "1E+2", "#",
]


class TestColumnParser:
    """The column parser (`_parse_columns`) against the per-line parser: the
    same arrays, or the same exception type and message."""

    @staticmethod
    def _lines(tmp_path, n_features=3):
        corpus = _random_corpus(23, n_docs=12, n_features=n_features)
        path = tmp_path / "c.txt"
        write_corpus(corpus, path)
        return path, path.read_text().splitlines()

    def _check(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        assert _outcome(parse_corpus, path) == _outcome(_parse_lines, path)

    def test_clean_corpus_takes_the_column_path(self, tmp_path, monkeypatch):
        path, lines = self._lines(tmp_path)
        # annotation ids written bare (an id repeated count times), and a
        # comment and a blank line
        for n, line in enumerate(lines):
            parts = line.split("|")
            pairs = [entry.split(":") for entry in parts[2].split()]
            parts[2] = " ".join(" ".join([i] * int(c)) for i, c in pairs)
            lines[n] = "|".join(parts)
        assert any(":" not in line.split("|")[2] and line.split("|")[2].strip() for line in lines)
        lines += ["# note", ""]
        path.write_text("\n".join(lines) + "\n")
        expected = _outcome(_parse_lines, path)

        def per_line(*args):
            raise AssertionError("fell back to the per-line parser")

        import docnade.corpus as corpus_mod
        monkeypatch.setattr(corpus_mod, "_parse_text_sparse_line", per_line)
        assert _outcome(parse_corpus, path) == expected

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("token", _ODD_TOKENS)
    def test_odd_token(self, tmp_path, field, token):
        path, lines = self._lines(tmp_path)
        for line_no in (0, 5):
            parts = lines[line_no].split("|")
            parts[field] = f" {token} {parts[field].strip()} "
            mutated = list(lines)
            mutated[line_no] = "|".join(parts)
            self._check(path, mutated)

    @pytest.mark.parametrize("edit", [
        "mixed-annotations", "mixed-visual", "duplicates", "zero-count", "comments", "missing-feature",
        "extra-feature", "no-features", "fifth-field", "three-fields", "nan-feature",
        "inf-feature", "label-too-large", "visual-id-in-annotations", "annotation-id-in-visual",
        "tab-separated", "vertical-tab", "unicode-space", "empty-line-fields",
    ])
    def test_line_edit(self, tmp_path, edit):
        path, lines = self._lines(tmp_path)
        labels, visual, anno, feats = lines[3].split("|")
        lines[3] = {
            "mixed-annotations": f"{labels}|{visual}| 10 11:2 12 |{feats}",
            "mixed-visual": f"{labels}|{visual} 3 |{anno}|{feats}",
            "duplicates": f"{labels}|{visual} 1:2 1:3 |{anno} 10:1 10 |{feats}",
            "zero-count": f"{labels}| 2:0 {visual}|{anno}|{feats}",
            "comments": f"# a comment\n\n   \n{lines[3]}\n  # indented comment",
            "missing-feature": f"{labels}|{visual}|{anno}| {' '.join(feats.split()[1:])}",
            "extra-feature": f"{labels}|{visual}|{anno}|{feats} 0.25",
            "no-features": f"{labels}|{visual}|{anno}|",
            "fifth-field": f"{lines[3]} | 1",
            "three-fields": f"{labels}|{visual}|{anno}",
            "nan-feature": f"{labels}|{visual}|{anno}| nan {' '.join(feats.split()[1:])}",
            "inf-feature": f"{labels}|{visual}|{anno}| {' '.join(feats.split()[1:])} -inf",
            "label-too-large": f" 4 |{visual}|{anno}|{feats}",
            "visual-id-in-annotations": f"{labels}|{visual}| 3 |{feats}",
            "annotation-id-in-visual": f"{labels}| 11:1 |{anno}|{feats}",
            "tab-separated": "\t|\t".join(part.strip() for part in lines[3].split("|")),
            "vertical-tab": f"{labels}|{visual}\x0b|{anno}|{feats}",
            "unicode-space": f"{labels}|{visual} |{anno}|{feats}",
            "empty-line-fields": f"|||{feats}",
        }[edit]
        self._check(path, "\n".join(lines).split("\n"))

    def test_no_features_declared(self, tmp_path):
        path, lines = self._lines(tmp_path, n_features=0)
        self._check(path, lines)
        lines[2] = lines[2] + " 1.0"
        self._check(path, lines)

    def test_random_line_mutations(self, tmp_path):
        rng = np.random.default_rng(29)
        path, lines = self._lines(tmp_path)
        alphabet = list("0123456789 :|-+.eE#\t") + ["nan", "٣", "99999999999999999999"]
        for _ in range(60):
            mutated = list(lines)
            line_no = int(rng.integers(len(lines)))
            chars = list(mutated[line_no])
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(len(chars) + 1))
                chars[at:at + int(rng.integers(0, 2))] = [str(rng.choice(alphabet))]
            mutated[line_no] = "".join(chars)
            self._check(path, mutated)

    def test_features_round_trip_bit_exactly(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        vocab = build_vocabulary(5, 2, ["a", "b", "c"])
        values = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 300, size=(40, 6))
        values = np.array([[float(f"{x:.17g}") for x in row] for row in values])
        docs = [Document({i % vocab.size: 1}, frozenset({i % 4}), row)
                for i, row in enumerate(values)]
        path = tmp_path / "c.txt"
        write_corpus(corpus_of(vocab, docs, 4, 6), path)
        import docnade.corpus as corpus_mod
        monkeypatch.setattr(corpus_mod, "_parse_text_sparse_line", None)  # column path only
        parsed = parse_corpus(path)
        assert parsed.features.tobytes() == values.tobytes()
