"""Balanced binary tree over the vocabulary for O(log Q) word conditionals.

The probability of a word is the product of sigmoid left/right choices along
the root-to-leaf path.  The tree is the implicit heap layout on 2Q-1 nodes:
node 0 is the root, node i has children 2i+1 (left) and 2i+2 (right), nodes
0..Q-2 are internal and Q-1..2Q-2 are leaves.  Words map to leaves through a
seeded permutation, so (leaf count, seed) fully reconstruct the tree.

Bit convention: 0 means the path continues into the left subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import named_stream


@dataclass
class WordTree:
    size: int  # leaf count Q
    seed: int
    _table: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def leaf_of_word(self) -> np.ndarray:
        """word -> leaf node index in [Q-1, 2Q-2], drawn only when first read."""
        perm = named_stream(self.seed, "tree").permutation(self.size)
        return ((self.size - 1) + perm).astype(np.int64)

    @property
    def n_internal(self) -> int:
        return self.size - 1

    @property
    def max_path_length(self) -> int:
        return int(2 * self.size - 1).bit_length() - 1

    def path_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded (nodes, bits, lengths) arrays for every word, built lazily.

        nodes and bits have shape (Q, max depth); unused slots hold -1 / 0.
        By heap arithmetic: the 1-based leaf j = leaf + 1 at depth L has the
        k-th root-first path node (j >> (L - k)) - 1, branch bit (j >> (L - k - 1)) & 1.
        """
        if self._table is None:
            j = self.leaf_of_word[:, None] + 1
            lengths = np.frexp(j[:, 0])[1].astype(np.int64) - 1
            shift = lengths[:, None] - np.arange(max(self.max_path_length, 1))
            shift[shift < 1] = 63  # past a path's end: j >> 63 is 0, so node -1 and bit 0
            nodes = j >> shift
            nodes -= 1
            shift -= 1
            bits = np.right_shift(j, shift, out=shift)  # in place: one (Q, depth) temporary
            bits &= 1
            self._table = (nodes, bits, lengths)
        return self._table


def build_tree(size: int, seed: int) -> WordTree:
    """Complete balanced binary tree over `size` leaves with seeded word layout."""
    if size < 1:
        raise ValueError("tree needs at least one leaf")
    return WordTree(size=size, seed=seed)


def words_log_prob(
    tree: WordTree, h: np.ndarray, words: np.ndarray, V: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """log p(w | h) for many candidate words, given one hidden state or each
    row of an (n, H) matrix of them; the result has shape (len(words),) or
    (n, len(words)).

    The candidates' paths share nodes, so each unique path node's activation
    is computed once per hidden state (one matrix product), with both of its
    log-sigmoids; each word then sums its path's terms one tree level at a
    time.
    """
    nodes, bits, _ = tree.path_table()
    nodes, bits = nodes[words], bits[words]
    valid = nodes >= 0
    unique, inverse = np.unique(nodes[valid], return_inverse=True)
    act = V[unique] @ np.atleast_2d(h).T + b[unique, None]  # (nodes, states)
    # log sigmoid(+-a) = min(+-a, 0) - log(1 + exp(-|a|)); the rows are log p(left)
    # of every unique node, then log p(right), then 0 for the padding slots
    soft = np.log1p(np.exp(-np.abs(act)))
    table = np.vstack([np.minimum(-act, 0.0) - soft, np.minimum(act, 0.0) - soft,
                       np.zeros((1, act.shape[1]))])
    slots = np.full(nodes.shape, 2 * len(unique))
    slots[valid] = inverse + bits[valid] * len(unique)
    log_probs = np.zeros((len(words), act.shape[1]))
    for level in slots.T:
        log_probs += table[level]
    return log_probs.T if np.ndim(h) == 2 else log_probs[:, 0]
