"""Seeded corpus generator for the benchmark.

Writes ``text-sparse`` corpora and their ``<path>.header.json`` sidecar in the
format the README documents, without calling any writer of the library, so
the program under test only ever sees files.

Every class owns a Zipf distribution over the visual words (a class-specific
permutation of the ranks) and another over the annotation words, so documents
repeat words the way bag-of-visual-words data does.  Regions are uniform.
Each document carries a fixed number of distinct annotation words drawn from
its first label's annotation distribution.  Multi-label documents draw each
visual token from one of their labels, and their global feature vector is the
mean of the labels' feature centroids plus noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ZIPF_EXPONENT = 1.07  # rank-frequency slope a little above 1, as in word counts
SECOND_LABEL_PROB = 0.5
FEATURE_NOISE = 0.5


@dataclass(frozen=True)
class Vocab:
    n_visual: int
    n_regions: int
    n_annotation: int
    n_classes: int
    n_features: int = 0

    @property
    def visual_size(self) -> int:
        return self.n_visual * self.n_regions

    @property
    def size(self) -> int:
        return self.visual_size + self.n_annotation


def _zipf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


class World:
    """Per-class word distributions and feature centroids shared by the
    corpora drawn from it (so a held-out corpus matches its training corpus)."""

    def __init__(self, vocab: Vocab, rng: np.random.Generator):
        self.vocab = vocab
        C = vocab.n_classes
        self.visual_p = _zipf(vocab.n_visual)
        self.visual_perm = np.array([rng.permutation(vocab.n_visual) for _ in range(C)])
        if vocab.n_annotation:
            self.anno_p = _zipf(vocab.n_annotation)
            self.anno_perm = np.array([rng.permutation(vocab.n_annotation) for _ in range(C)])
        self.centroids = rng.normal(size=(C, vocab.n_features)) if vocab.n_features else None

    def draw(
        self,
        rng: np.random.Generator,
        n_docs: int,
        visual_tokens: int,
        anno_per_doc: int,
        multi_label: bool,
    ) -> list[str]:
        """``n_docs`` text-sparse lines."""
        v = self.vocab
        lines = []
        for _ in range(n_docs):
            labels = [int(rng.integers(v.n_classes))]
            if multi_label and rng.random() < SECOND_LABEL_PROB:
                other = int(rng.integers(v.n_classes - 1))
                labels.append(other + (other >= labels[0]))
            token_class = np.asarray(labels)[rng.integers(len(labels), size=visual_tokens)]
            ranks = rng.choice(v.n_visual, size=visual_tokens, p=self.visual_p)
            words = self.visual_perm[token_class, ranks]
            regions = rng.integers(v.n_regions, size=visual_tokens)
            ids, counts = np.unique(regions * v.n_visual + words, return_counts=True)
            visual = " ".join(f"{i}:{c}" for i, c in zip(ids.tolist(), counts.tolist()))
            anno = ""
            if anno_per_doc:
                picks = rng.choice(v.n_annotation, size=anno_per_doc, replace=False, p=self.anno_p)
                anno_ids = np.sort(v.visual_size + self.anno_perm[labels[0], picks])
                anno = " ".join(map(str, anno_ids.tolist()))
            feats = ""
            if self.centroids is not None:
                f = self.centroids[labels].mean(axis=0)
                f = f + FEATURE_NOISE * rng.normal(size=v.n_features)
                feats = " ".join(f"{x:.5f}" for x in f)
            lines.append(f"{' '.join(map(str, sorted(labels)))} | {visual} | {anno} | {feats}")
        return lines


def write_corpus(path: str, vocab: Vocab, lines: list[str]) -> None:
    header = {
        "n_visual": vocab.n_visual,
        "n_regions": vocab.n_regions,
        "n_annotation": vocab.n_annotation,
        "C": vocab.n_classes,
        "N_f": vocab.n_features,
        "annotation_words": [f"w{i}" for i in range(vocab.n_annotation)],
    }
    with open(path + ".header.json", "w") as fh:
        json.dump(header, fh)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_docs(path: str) -> list[tuple[list[int], dict[int, int]]]:
    """(labels, counts) per document of a corpus this module wrote."""
    docs = []
    with open(path) as fh:
        for line in fh:
            labels_s, visual_s, anno_s, _ = line.split("|")
            counts = {}
            for entry in visual_s.split():
                i, c = entry.split(":")
                counts[int(i)] = int(c)
            for entry in anno_s.split():
                counts[int(entry)] = counts.get(int(entry), 0) + 1
            docs.append(([int(x) for x in labels_s.split()], counts))
    return docs


def describe(path: str, vocab: Vocab) -> dict:
    """Q, document count, mean tokens and unique tokens per document, and
    label cardinality of a written corpus."""
    docs = read_docs(path)
    return {
        "Q": vocab.size,
        "docs": len(docs),
        "mean_tokens": float(np.mean([sum(c.values()) for _, c in docs])),
        "mean_unique_tokens": float(np.mean([len(c) for _, c in docs])),
        "label_cardinality": float(np.mean([len(labels) for labels, _ in docs])),
    }
