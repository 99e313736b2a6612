"""Test-side oracles for the world model: the per-word construction.

``world_model.merge_global`` pools transition counts over all words at
once. The functions here build the same thing one word at a time, as the
dictionary construction is usually stated, for the tests to check the
pooled estimate against:

- a ``GeneralizedLetter`` is a letter with its outgoing edge inside a
  word, and ``glyphs`` lists a word's, each letter but the last with the
  edge to its successor (a one-letter word has none);
- ``letter_rows`` is a vocabulary as the model holds it, each letter,
  ascending, mapped to its row;
- ``adjacency`` and ``degree`` are a word's binary edge-presence and
  diagonal out-degree matrices over a vocabulary;
- ``word_transition`` is the adjacency scaled by out-degree.
"""

from typing import Iterable, NamedTuple

import numpy as np

from uavplan.world_model import TransitionMatrix, Word


class GeneralizedLetter(NamedTuple):
    """A letter plus its outgoing edge (start -> edge_to)."""

    start: int
    edge_to: int


def glyphs(w: Word) -> tuple[GeneralizedLetter, ...]:
    letters = w.letters
    return tuple(GeneralizedLetter(a, b) for a, b in zip(letters, letters[1:]))


def letter_rows(letters: Iterable[int]) -> dict[int, int]:
    """The distinct ``letters``, ascending, each mapped to its row: the
    letter map ``world_model`` builds."""
    return {l: k for k, l in enumerate(sorted(set(letters)))}


def adjacency(w: Word, vocab: dict[int, int]) -> np.ndarray:
    """Binary edge-presence matrix of a word over the vocabulary."""
    mat = np.zeros((len(vocab), len(vocab)))
    for g in glyphs(w):
        mat[vocab[g.start], vocab[g.edge_to]] = 1.0
    if w.letters:
        vocab[w.letters[-1]]  # membership check only
    return mat


def degree(w: Word, vocab: dict[int, int]) -> np.ndarray:
    """Diagonal out-degree matrix of a word."""
    return np.diag(adjacency(w, vocab).sum(axis=1))


def word_transition(w: Word, vocab: dict[int, int]) -> TransitionMatrix:
    """Per-word transition matrix: rows of the adjacency scaled by out-degree.

    Zero-out-degree rows are left empty and flagged inactive (diagonal
    pseudo-inverse convention).
    """
    adj = adjacency(w, vocab)
    out = adj.sum(axis=1)
    probs = np.zeros_like(adj)
    active = out > 0
    probs[active] = adj[active] / out[active, None]
    tm = TransitionMatrix(probs=probs, active=active)
    tm.validate()
    return tm
