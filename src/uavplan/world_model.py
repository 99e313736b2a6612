"""Dictionary world model learned from demonstration tours.

Each hotspot id is a letter; a letter together with its outgoing edge is
a generalized letter; a demonstrated tour becomes a word. Per-word
adjacency/degree matrices yield per-word transition matrices, and the
global transition matrix pools transition counts across the whole
demonstration set (maximum-likelihood Markov estimate). Rows with no
observed outgoing transition are flagged inactive rather than filled in.

Learning is a pure function of the demonstration multiset: permuting the
demos yields an identical model, including its serialized bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .environment import Hotspot, MissionConfig
from .errors import ConfigurationError, ConsistencyError, DegenerateWordError, TrainingError
from .oracle import Tour

_ROW_TOL = 1e-9


class GeneralizedLetter(NamedTuple):
    """A letter plus its outgoing edge (start -> edge_to)."""

    start: int
    edge_to: int


@dataclass(frozen=True)
class Word:
    """An ordered visitation sequence stored as chained generalized letters.

    The terminal letter has no outgoing edge inside the word and is kept
    separately; a one-letter word has no glyphs at all.
    """

    glyphs: tuple[GeneralizedLetter, ...]
    terminal: int | None

    def __post_init__(self) -> None:
        seen: set[int] = set()
        prev_end: int | None = None
        for g in self.glyphs:
            if g.start == g.edge_to:
                raise ConsistencyError("self-loop generalized letter")
            if prev_end is not None and g.start != prev_end:
                raise ConsistencyError("generalized letters do not chain")
            if g.start in seen:
                raise ConsistencyError("repeated letter in word")
            seen.add(g.start)
            prev_end = g.edge_to
        if self.glyphs:
            if self.terminal != self.glyphs[-1].edge_to:
                raise ConsistencyError("terminal letter does not close the chain")
            if self.terminal in seen:
                raise ConsistencyError("repeated letter in word")

    @classmethod
    def from_letters(cls, letters: Sequence[int]) -> "Word":
        letters = [int(x) for x in letters]
        if not letters:
            return cls(glyphs=(), terminal=None)
        glyphs = tuple(GeneralizedLetter(a, b) for a, b in zip(letters, letters[1:]))
        return cls(glyphs=glyphs, terminal=letters[-1])

    def _spliced(self, position: int, letter: int) -> "Word":
        """This non-empty word with ``letter``, which it must not contain,
        inserted before index ``position`` (``len(self)`` appends).

        Only the glyphs at the splice are new and the rest of the chain was
        validated with this word, so the chain is not walked again.
        """
        glyphs, terminal = self.glyphs, self.terminal
        if position == 0:
            head = glyphs[0].start if glyphs else terminal
            glyphs = (GeneralizedLetter(letter, head),) + glyphs
        elif position == len(glyphs) + 1:
            glyphs = glyphs + (GeneralizedLetter(terminal, letter),)
            terminal = letter
        else:
            u, v = glyphs[position - 1]
            glyphs = (glyphs[:position - 1]
                      + (GeneralizedLetter(u, letter), GeneralizedLetter(letter, v))
                      + glyphs[position:])
        out = object.__new__(Word)
        object.__setattr__(out, "glyphs", glyphs)
        object.__setattr__(out, "terminal", terminal)
        return out

    @property
    def letters(self) -> tuple[int, ...]:
        if self.terminal is None:
            return ()
        return tuple(g.start for g in self.glyphs) + (self.terminal,)

    def __len__(self) -> int:
        return len(self.letters)


class Vocabulary:
    """Sorted letter ids with a stable id -> row index mapping."""

    def __init__(self, letters: Iterable[int]):
        self.letters: tuple[int, ...] = tuple(sorted(set(int(x) for x in letters)))
        self._index = {letter: k for k, letter in enumerate(self.letters)}

    def index(self, letter: int) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ConsistencyError(f"letter {letter} not in vocabulary") from None

    def __contains__(self, letter: int) -> bool:
        return letter in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.letters == other.letters


@dataclass
class TransitionMatrix:
    """Row-stochastic next-letter matrix; inactive rows flagged, not faked."""

    probs: np.ndarray
    active: np.ndarray
    vocab: Vocabulary

    def row(self, letter: int) -> np.ndarray:
        return self.probs[self.vocab.index(letter)]

    def is_active(self, letter: int) -> bool:
        return bool(self.active[self.vocab.index(letter)])

    def validate(self) -> None:
        sums = self.probs.sum(axis=1)
        for k in range(len(self.vocab)):
            if self.active[k]:
                if abs(sums[k] - 1.0) > _ROW_TOL:
                    raise ConsistencyError(f"active row {k} sums to {sums[k]}")
            elif sums[k] != 0.0:
                raise ConsistencyError(f"inactive row {k} has mass")


def word_from_tour(t: Tour) -> Word:
    """Transcribe a tour's visitation order; the depot is not a letter."""
    if len(t.order) < 2:
        raise DegenerateWordError("a word needs at least two visited vertices")
    return Word.from_letters(t.order)


def adjacency(w: Word, vocab: Vocabulary) -> np.ndarray:
    """Binary edge-presence matrix of a word over the vocabulary."""
    mat = np.zeros((len(vocab), len(vocab)))
    for g in w.glyphs:
        mat[vocab.index(g.start), vocab.index(g.edge_to)] = 1.0
    if w.terminal is not None:
        vocab.index(w.terminal)  # membership check only
    return mat


def degree(w: Word, vocab: Vocabulary) -> np.ndarray:
    """Diagonal out-degree matrix of a word."""
    return np.diag(adjacency(w, vocab).sum(axis=1))


def word_transition(w: Word, vocab: Vocabulary) -> TransitionMatrix:
    """Per-word transition matrix: rows of the adjacency scaled by out-degree.

    Zero-out-degree rows are left empty and flagged inactive (diagonal
    pseudo-inverse convention).
    """
    adj = adjacency(w, vocab)
    out = adj.sum(axis=1)
    probs = np.zeros_like(adj)
    active = out > 0
    probs[active] = adj[active] / out[active, None]
    tm = TransitionMatrix(probs=probs, active=active, vocab=vocab)
    tm.validate()
    return tm


def merge_global(words: Sequence[Word], vocab: Vocabulary,
                 multiplicities: Sequence[int] | None = None) -> TransitionMatrix:
    """Pool transition counts across words, then row-normalize.

    This is the maximum-likelihood estimate of the letter Markov chain;
    restricted to a single word it coincides with word_transition().
    """
    counts = np.zeros((len(vocab), len(vocab)))
    if multiplicities is None:
        multiplicities = [1] * len(words)
    for w, m in zip(words, multiplicities):
        for g in w.glyphs:
            counts[vocab.index(g.start), vocab.index(g.edge_to)] += m
    out = counts.sum(axis=1)
    active = out > 0
    probs = np.zeros_like(counts)
    probs[active] = counts[active] / out[active, None]
    tm = TransitionMatrix(probs=probs, active=active, vocab=vocab)
    tm.validate()
    return tm


@dataclass(frozen=True)
class LetterStats:
    """Training statistics attached to one letter."""

    center_m: tuple[float, float]
    mean_profit_bps: float
    var_profit: float
    count: int
    start_count: int


@dataclass(frozen=True)
class NoiseConfig:
    """Scale-relative defaults for the planner's Gaussian noise.

    Process noise is diag((process_scale * mean profit)^2,
    (process_scale * mean leg time)^2); measurement noise is that matrix
    times measurement_ratio.
    """

    process_scale: float = 0.02
    measurement_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.process_scale <= 0 or self.measurement_ratio <= 0:
            raise ConfigurationError("noise scales must be positive")


@dataclass
class WorldModel:
    """Letter vocabulary, stored words, global transitions and noise terms."""

    vocab: Vocabulary
    stats: dict[int, LetterStats]
    words: list[Word]
    word_counts: list[int]
    transition: TransitionMatrix
    process_noise: np.ndarray
    measurement_noise: np.ndarray
    mean_profit_bps: float
    mean_leg_time_s: float
    noise_config: NoiseConfig
    fingerprint: str

    @cached_property
    def word_index(self) -> "WordIndex":
        """Index of the stored words, built on first use. It is derived
        state: not serialized, and stale if ``words`` is changed later."""
        return WordIndex.build(self.words, self.vocab)


@dataclass(frozen=True)
class WordIndex:
    """The stored words in a form for bounding edit distances in bulk.

    ``incidence[column[letter], k]`` is 1 when stored word k contains
    ``letter``. Rows are letters so that the overlap of a candidate with
    every stored word, the product of the transposed matrix with the
    candidate's 0/1 letter vector, is a sum of contiguous rows.
    """

    letters: tuple[tuple[int, ...], ...]
    lengths: np.ndarray      # int64, one per word
    incidence: np.ndarray    # uint8, vocabulary x words
    column: dict[int, int]

    @classmethod
    def build(cls, words: Sequence[Word], vocab: Vocabulary) -> "WordIndex":
        letters = tuple(w.letters for w in words)
        column = {l: vocab.index(l) for l in vocab}
        lengths = np.array([len(word) for word in letters], np.int64)
        incidence = np.zeros((len(vocab), len(letters)), np.uint8)
        incidence[[column[l] for word in letters for l in word],
                  np.repeat(np.arange(len(letters)), lengths)] = 1
        return cls(letters=letters, lengths=lengths, incidence=incidence,
                   column=column)


def _fingerprint(keys: Sequence[tuple[int, ...]], counts: Sequence[int]) -> str:
    payload = json.dumps([[list(k), c] for k, c in zip(keys, counts)],
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def demonstration_fingerprint(demos: Sequence[Tour]) -> str:
    """The fingerprint ``learn`` records for a model learned from ``demos``:
    a hash of the distinct demonstrated words and their counts."""
    tally: dict[tuple[int, ...], int] = {}
    for t in demos:
        key = word_from_tour(t).letters
        tally[key] = tally.get(key, 0) + 1
    keys = sorted(tally)
    return _fingerprint(keys, [tally[k] for k in keys])


def learn(demos: Sequence[Tour], pool: Sequence[Hotspot],
          noise: NoiseConfig, mission: MissionConfig) -> WorldModel:
    """Build the dictionary from demonstration tours.

    Letters are deduplicated hotspot ids observed in the demos; words are
    deduplicated with multiplicities; per-letter profit statistics come
    from the pool entries the demos visited. The result depends only on
    the demo multiset, never on its ordering.
    """
    if not demos:
        raise TrainingError("no demonstrations to learn from")
    by_id = {h.id: h for h in pool}

    tally: dict[tuple[int, ...], int] = {}
    word_cost: dict[tuple[int, ...], float] = {}
    for t in demos:
        key = word_from_tour(t).letters
        tally[key] = tally.get(key, 0) + 1
        # identical words imply identical geometry; keep the smaller cost
        # so accumulation order cannot matter
        prev = word_cost.get(key)
        word_cost[key] = t.total_cost_m if prev is None else min(prev, t.total_cost_m)

    keys = sorted(tally)
    words = [Word.from_letters(k) for k in keys]
    counts = [tally[k] for k in keys]

    letters = sorted({l for k in keys for l in k})
    for l in letters:
        if l not in by_id:
            raise ConsistencyError(f"demonstrated letter {l} missing from pool")
    vocab = Vocabulary(letters)

    occ = {l: 0 for l in letters}
    started = {l: 0 for l in letters}
    profit_sum = {l: 0.0 for l in letters}
    profit_sq = {l: 0.0 for l in letters}
    total_profit = 0.0
    total_visits = 0
    total_cost = 0.0
    total_legs = 0
    for k, c in zip(keys, counts):
        started[k[0]] += c
        for l in k:
            occ[l] += c
            p = by_id[l].profit_bps
            profit_sum[l] += c * p
            profit_sq[l] += c * p * p
            total_profit += c * p
            total_visits += c
        total_cost += c * word_cost[k]
        total_legs += c * (len(k) + 1)

    stats = {}
    for l in letters:
        mean = profit_sum[l] / occ[l]
        var = max(profit_sq[l] / occ[l] - mean * mean, 0.0)
        stats[l] = LetterStats(center_m=by_id[l].center_m, mean_profit_bps=mean,
                               var_profit=var, count=occ[l],
                               start_count=started[l])

    mean_profit = total_profit / total_visits
    mean_leg_time = total_cost / total_legs / mission.uav_speed_m_per_s
    q = np.diag([(noise.process_scale * mean_profit) ** 2,
                 (noise.process_scale * mean_leg_time) ** 2])
    rm = q * noise.measurement_ratio

    return WorldModel(
        vocab=vocab,
        stats=stats,
        words=words,
        word_counts=counts,
        transition=merge_global(words, vocab, counts),
        process_noise=q,
        measurement_noise=rm,
        mean_profit_bps=mean_profit,
        mean_leg_time_s=mean_leg_time,
        noise_config=noise,
        fingerprint=_fingerprint(keys, counts),
    )


def model_to_dict(wm: WorldModel) -> dict:
    return {
        "schema": "uavplan.world_model.v1",
        "vocabulary": list(wm.vocab.letters),
        "letters": {
            str(l): {
                "center_m": list(s.center_m),
                "mean_profit_bps": s.mean_profit_bps,
                "var_profit": s.var_profit,
                "count": s.count,
                "start_count": s.start_count,
            }
            for l, s in sorted(wm.stats.items())
        },
        "words": [{"letters": list(w.letters), "count": c}
                  for w, c in zip(wm.words, wm.word_counts)],
        "transition": {
            "probs": [[float(x) for x in row] for row in wm.transition.probs],
            "active": [bool(a) for a in wm.transition.active],
        },
        "process_noise": [[float(x) for x in row] for row in wm.process_noise],
        "measurement_noise": [[float(x) for x in row] for row in wm.measurement_noise],
        "mean_profit_bps": wm.mean_profit_bps,
        "mean_leg_time_s": wm.mean_leg_time_s,
        "noise_config": {"process_scale": wm.noise_config.process_scale,
                         "measurement_ratio": wm.noise_config.measurement_ratio},
        "fingerprint": wm.fingerprint,
    }


def model_from_dict(d: dict) -> WorldModel:
    vocab = Vocabulary(d["vocabulary"])
    stats = {
        int(l): LetterStats(
            center_m=(float(s["center_m"][0]), float(s["center_m"][1])),
            mean_profit_bps=float(s["mean_profit_bps"]),
            var_profit=float(s["var_profit"]),
            count=int(s["count"]),
            start_count=int(s["start_count"]),
        )
        for l, s in d["letters"].items()
    }
    words = [Word.from_letters(w["letters"]) for w in d["words"]]
    counts = [int(w["count"]) for w in d["words"]]
    tm = TransitionMatrix(probs=np.array(d["transition"]["probs"], float),
                          active=np.array(d["transition"]["active"], bool),
                          vocab=vocab)
    tm.validate()
    return WorldModel(
        vocab=vocab,
        stats=stats,
        words=words,
        word_counts=counts,
        transition=tm,
        process_noise=np.array(d["process_noise"], float),
        measurement_noise=np.array(d["measurement_noise"], float),
        mean_profit_bps=float(d["mean_profit_bps"]),
        mean_leg_time_s=float(d["mean_leg_time_s"]),
        noise_config=NoiseConfig(**d["noise_config"]),
        fingerprint=str(d["fingerprint"]),
    )
