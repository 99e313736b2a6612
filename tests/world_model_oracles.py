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
- ``word_transition`` is the adjacency scaled by out-degree;
- ``reference_merge_global`` and ``reference_learn`` are the pooling and
  the learning as they were written before ``learn`` made each distinct
  order a word once and ``merge_global`` wrote each count once: one numpy
  ``+=`` per transition, and a ``Word`` built from every demonstration
  and again from every distinct word.
"""

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from uavplan.environment import Hotspot, MissionConfig
from uavplan.errors import ConsistencyError, DegenerateWordError, TrainingError
from uavplan.oracle import Tour
from uavplan.world_model import (NoiseConfig, TransitionMatrix, Word,
                                 WorldModel, _build, word_from_tour)


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


def reference_merge_global(words: Sequence[Word], vocab: dict[int, int],
                           multiplicities: Sequence[int] | None = None
                           ) -> TransitionMatrix:
    """Pooled transition counts, one numpy ``+=`` per transition, then
    row-normalized."""
    counts = np.zeros((len(vocab), len(vocab)))
    if multiplicities is None:
        multiplicities = [1] * len(words)
    for w, m in zip(words, multiplicities):
        letters = w.letters
        for a, b in zip(letters, letters[1:]):
            counts[vocab[a], vocab[b]] += m
    out = counts.sum(axis=1)
    active = out > 0
    probs = np.zeros_like(counts)
    probs[active] = counts[active] / out[active, None]
    tm = TransitionMatrix(probs=probs, active=active)
    tm.validate()
    return tm


def reference_learn(demos: Sequence[Tour], pool: Sequence[Hotspot],
                    noise: NoiseConfig, mission: MissionConfig) -> WorldModel:
    """``learn`` with a ``Word`` made from every demonstration, each
    checked as it comes, and one more per distinct word."""
    if not demos:
        raise TrainingError("no demonstrations to learn from")
    by_id = {h.id: h for h in pool}

    tally: dict[tuple[int, ...], int] = {}
    word_cost: dict[tuple[int, ...], float] = {}
    for k, t in enumerate(demos):
        try:
            key = word_from_tour(t).letters
        except DegenerateWordError as e:
            raise DegenerateWordError(
                f"demonstration {k}, order {list(t.order)}: {e}; the oracle "
                "keeps a hotspot only where its profit pays for its detour "
                "under the config's weights") from None
        tally[key] = tally.get(key, 0) + 1
        prev = word_cost.get(key)
        word_cost[key] = t.total_cost_m if prev is None else min(prev, t.total_cost_m)

    keys = sorted(tally)
    counts = [tally[k] for k in keys]

    letters = sorted({l for k in keys for l in k})
    for l in letters:
        if l not in by_id:
            raise ConsistencyError(f"demonstrated letter {l} missing from pool")

    occ = {l: 0 for l in letters}
    profit_sum = {l: 0.0 for l in letters}
    total_profit = 0.0
    total_visits = 0
    total_cost = 0.0
    total_legs = 0
    for k, c in zip(keys, counts):
        for l in k:
            occ[l] += c
            p = by_id[l].profit_bps
            profit_sum[l] += c * p
            total_profit += c * p
            total_visits += c
        total_cost += c * word_cost[k]
        total_legs += c * (len(k) + 1)

    return _build({l: (by_id[l].center_m, profit_sum[l] / occ[l])
                   for l in letters},
                  [Word(k) for k in keys], counts,
                  total_profit / total_visits,
                  total_cost / total_legs / mission.uav_speed_m_per_s, noise)
