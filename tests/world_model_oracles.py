"""Test-side oracles for the world model: the per-word construction.

``world_model.merge_global`` pools transition counts over all words at
once. The functions here build the same thing one word at a time, as the
dictionary construction is usually stated, for the tests to check the
pooled estimate against:

- a ``GeneralizedLetter`` is a letter with its outgoing edge inside a
  word, and ``glyphs`` lists a word's, each letter but the last with the
  edge to its successor (a one-letter word has none); a word here is its
  letter tuple, as the model stores it;
- ``letter_rows`` is a vocabulary as the model holds it, each letter,
  ascending, mapped to its row;
- ``adjacency`` and ``degree`` are a word's binary edge-presence and
  diagonal out-degree matrices over a vocabulary;
- ``word_transition`` is the adjacency scaled by out-degree;
- ``reference_merge_global`` and ``reference_learn`` are the pooling and
  the learning as they were written before ``learn`` made each distinct
  order a word once and ``merge_global`` wrote each count once: one numpy
  ``+=`` per transition, and a word made of every demonstration;
- ``reference_model_from_dict`` is the world-model reader as it was
  written before ``model_from_dict`` took the one checked reader: type
  checks on the words and letters written key by key, and casts for the
  means and the noise config, so that it takes string means, a bool
  noise scale and unknown keys. The tests hold the checked reader to it
  on well-formed models and show where it accepted damage;
- ``as_v3`` is a ``uavplan.world_model.v4`` object in the older
  ``uavplan.world_model.v3`` layout, each stored word an object of its
  letters and its count, which the tests hash a run's model through to
  hold it to bytes pinned in that layout.
"""

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from uavplan.environment import Hotspot, MissionConfig
from uavplan.errors import ConsistencyError, DegenerateWordError, TrainingError
from uavplan.oracle import Tour
from uavplan.world_model import (WORLD_MODEL_SCHEMA, NoiseConfig,
                                 TransitionMatrix, WorldModel, _build,
                                 _LetterSources, _word)

Letters = tuple[int, ...]


class GeneralizedLetter(NamedTuple):
    """A letter plus its outgoing edge (start -> edge_to)."""

    start: int
    edge_to: int


def glyphs(w: Letters) -> tuple[GeneralizedLetter, ...]:
    return tuple(GeneralizedLetter(a, b) for a, b in zip(w, w[1:]))


def letter_rows(letters: Iterable[int]) -> dict[int, int]:
    """The distinct ``letters``, ascending, each mapped to its row: the
    letter map ``world_model`` builds."""
    return {l: k for k, l in enumerate(sorted(set(letters)))}


def adjacency(w: Letters, vocab: dict[int, int]) -> np.ndarray:
    """Binary edge-presence matrix of a word over the vocabulary."""
    mat = np.zeros((len(vocab), len(vocab)))
    for g in glyphs(w):
        mat[vocab[g.start], vocab[g.edge_to]] = 1.0
    if w:
        vocab[w[-1]]  # membership check only
    return mat


def degree(w: Letters, vocab: dict[int, int]) -> np.ndarray:
    """Diagonal out-degree matrix of a word."""
    return np.diag(adjacency(w, vocab).sum(axis=1))


def word_transition(w: Letters, vocab: dict[int, int]) -> TransitionMatrix:
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


def reference_merge_global(words: Sequence[Letters], vocab: dict[int, int],
                           multiplicities: Sequence[int] | None = None
                           ) -> TransitionMatrix:
    """Pooled transition counts, one numpy ``+=`` per transition, then
    row-normalized."""
    counts = np.zeros((len(vocab), len(vocab)))
    if multiplicities is None:
        multiplicities = [1] * len(words)
    for w, m in zip(words, multiplicities):
        for a, b in zip(w, w[1:]):
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
    """``learn`` with a word made of every demonstration, each tallied
    as it comes."""
    if not demos:
        raise TrainingError("no demonstrations to learn from")
    by_id = {h.id: h for h in pool}

    tally: dict[tuple[int, ...], int] = {}
    word_cost: dict[tuple[int, ...], float] = {}
    for k, t in enumerate(demos):
        try:
            key = _word(t.order)
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

    return _build({l: _LetterSources(by_id[l].center_m, profit_sum[l] / occ[l])
                   for l in letters},
                  keys, counts,
                  total_profit / total_visits,
                  total_cost / total_legs / mission.uav_speed_m_per_s, noise)


def reference_model_from_dict(d: dict) -> WorldModel:
    """Read a ``uavplan.world_model.v4`` object; each word's letters and
    each count must be JSON integers, each letter key a decimal integer, and
    its ``center_m`` two JSON numbers and its ``mean_profit_bps`` one.
    The rest is cast."""
    found = d.get("schema")
    if found != WORLD_MODEL_SCHEMA:
        raise ConsistencyError(
            f"schema {found!r}, not {WORLD_MODEL_SCHEMA!r} (an older format or "
            "not this artifact); delete it and run again to regenerate it")
    words, counts = d["words"], d["word_counts"]
    for k, (w, c) in enumerate(zip(words, counts)):
        if not all(type(v) is int for v in (*w, c)):
            raise ConsistencyError(
                f"word {k} has letters {w} and count {c}, which must be "
                "integers")
    letters = {}
    for key, s in d["letters"].items():
        center, profit = s["center_m"], s["mean_profit_bps"]
        if not (key.isascii() and key.removeprefix("-").isdigit()):
            raise ConsistencyError(
                f"letters.{key} names no letter: a letter is a decimal "
                "integer")
        if not (type(center) is list and len(center) == 2
                and all(type(v) in (int, float) for v in center)):
            raise ConsistencyError(
                f"letters.{key}.center_m is {center!r}, which must be a "
                "list of two numbers")
        if type(profit) not in (int, float):
            raise ConsistencyError(
                f"letters.{key}.mean_profit_bps is {profit!r}, which must "
                "be a number")
        letters[int(key)] = _LetterSources((float(center[0]), float(center[1])),
                                           float(profit))
    return _build(
        letters,
        [tuple(w) for w in words], list(counts),
        float(d["mean_profit_bps"]), float(d["mean_leg_time_s"]),
        NoiseConfig(**d["noise_config"]))


def as_v3(obj: dict) -> dict:
    """The ``uavplan.world_model.v3`` object of the model that the
    ``uavplan.world_model.v4`` object ``obj`` holds: ``words`` as one
    ``{"letters", "count"}`` object per stored word, in stored order, in
    place of the two lists, and every other key as it is."""
    v3 = {key: value for key, value in obj.items() if key != "word_counts"}
    v3["schema"] = "uavplan.world_model.v3"
    v3["words"] = [{"letters": w, "count": c} for w, c in
                   zip(obj["words"], obj["word_counts"], strict=True)]
    return v3
