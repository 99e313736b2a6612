"""Dictionary world model learned from demonstration tours.

Each hotspot id is a letter, and a demonstrated tour becomes a word: the
tuple of its distinct letters in visiting order. The global transition
matrix pools transition counts across the whole demonstration set
(maximum-likelihood Markov estimate). Rows with no observed outgoing
transition are flagged inactive rather than filled in.

The per-word construction this pooling generalizes (generalized letters,
each a letter with its outgoing edge, and per-word adjacency, degree and
transition matrices) is kept in tests/world_model_oracles.py, which the
tests check ``merge_global`` against.

Learning is a pure function of the demonstration multiset: permuting the
demos yields an identical model, including its serialized bytes.

``world_model.json`` (``uavplan.world_model.v3``) stores only what
the demonstrations and the pool give and nothing else determines: the
distinct words with their counts, each letter's center and mean profit,
the mean profit and mean leg time, and the noise config. The vocabulary,
the start counts, the transition matrix and both noise matrices follow
from those, so ``learn`` and ``model_from_dict`` both end in ``_build``,
which derives them; a stored file cannot contradict itself, and one
edited by hand is a model of the words it now holds. The pipeline learns
the model on every run and only compares the file with it;
``model_from_dict`` reads a model given to ``uavplan plan --model``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .environment import Hotspot, MissionConfig
from .errors import ConfigurationError, ConsistencyError, DegenerateWordError, TrainingError
from .oracle import Tour

_ROW_TOL = 1e-9
WORLD_MODEL_SCHEMA = "uavplan.world_model.v3"


@dataclass(frozen=True)
class Word:
    """An ordered visitation sequence: a tuple of distinct letters."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.letters)) != len(self.letters):
            raise ConsistencyError("repeated letter in word")

    @classmethod
    def from_letters(cls, letters: Sequence[int]) -> "Word":
        return cls(tuple(int(x) for x in letters))

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

    def validate(self) -> None:
        n = len(self.vocab)
        if self.probs.shape != (n, n) or self.active.shape != (n,):
            raise ConsistencyError(
                f"transition probs {self.probs.shape} and active "
                f"{self.active.shape} do not fit a vocabulary of {n} letters")
        if not np.isfinite(self.probs).all() or (self.probs < 0).any():
            raise ConsistencyError(
                "transition probabilities must be finite and non-negative")
        sums = self.probs.sum(axis=1)
        for k in range(n):
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


def merge_global(words: Sequence[Word], vocab: Vocabulary,
                 multiplicities: Sequence[int] | None = None) -> TransitionMatrix:
    """Pool transition counts across words, then row-normalize.

    This is the maximum-likelihood estimate of the letter Markov chain;
    restricted to a single word it coincides with that word's transition
    matrix (``word_transition`` in tests/world_model_oracles.py).
    """
    counts = np.zeros((len(vocab), len(vocab)))
    if multiplicities is None:
        multiplicities = [1] * len(words)
    for w, m in zip(words, multiplicities):
        letters = w.letters
        for a, b in zip(letters, letters[1:]):
            counts[vocab.index(a), vocab.index(b)] += m
    out = counts.sum(axis=1)
    active = out > 0
    probs = np.zeros_like(counts)
    probs[active] = counts[active] / out[active, None]
    tm = TransitionMatrix(probs=probs, active=active, vocab=vocab)
    tm.validate()
    return tm


@dataclass(frozen=True)
class LetterStats:
    """Training statistics attached to one letter: a finite center and
    mean profit, and the non-negative number of words it starts."""

    center_m: tuple[float, float]
    mean_profit_bps: float
    start_count: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.center_m, self.mean_profit_bps))):
            raise ConsistencyError(f"{self}: center and profit must be finite")
        if self.start_count < 0:
            raise ConsistencyError(f"{self}: counts must be non-negative")


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

    @cached_property
    def word_index(self) -> "WordIndex":
        """Index of the stored words, built on first use. It is derived
        state: not serialized, and stale if ``words`` is changed later."""
        return WordIndex.build(self.words, self.vocab)

    @cached_property
    def surprise_terms(self) -> dict[int, tuple]:
        """The planner's table of covariances and surprise terms per
        reference length for this model's noise (see
        ``planner.PlanContext``), filled as planning
        needs it. It is derived state: not serialized, and stale if the
        noise matrices are changed later."""
        return {}


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


def _build(letters: dict[int, tuple[tuple[float, float], float]],
           words: list[Word], counts: list[int], mean_profit_bps: float,
           mean_leg_time_s: float, noise: NoiseConfig) -> WorldModel:
    """The model that its sources determine: each letter's center and mean
    profit (``letters``), the stored words with their counts, the two
    training means and the noise config. Derives the vocabulary (the
    words' letters), the start counts, the transitions and both noise
    matrices (see ``NoiseConfig``)."""
    if not (math.isfinite(mean_profit_bps) and math.isfinite(mean_leg_time_s)):
        raise ConsistencyError(
            f"mean_profit_bps {mean_profit_bps} and mean_leg_time_s "
            f"{mean_leg_time_s} must be finite")
    started: dict[int, int] = {}
    for w, c in zip(words, counts):
        if c < 1:
            raise ConsistencyError(
                f"word {list(w.letters)} has count {c}; a stored word's "
                "count must be at least 1")
        started[w.letters[0]] = started.get(w.letters[0], 0) + c
    vocab = Vocabulary(l for w in words for l in w.letters)
    missing = [l for l in vocab if l not in letters]
    if missing:
        raise ConsistencyError(
            f"stored words name letters {missing} that have no statistics")
    q = np.diag([(noise.process_scale * mean_profit_bps) ** 2,
                 (noise.process_scale * mean_leg_time_s) ** 2])
    return WorldModel(
        vocab=vocab,
        stats={l: LetterStats(*letters[l], start_count=started.get(l, 0))
               for l in vocab},
        words=words,
        word_counts=counts,
        transition=merge_global(words, vocab, counts),
        process_noise=q,
        measurement_noise=q * noise.measurement_ratio,
        mean_profit_bps=mean_profit_bps,
        mean_leg_time_s=mean_leg_time_s,
        noise_config=noise,
    )


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


def model_to_dict(wm: WorldModel) -> dict:
    """The model's sources (see ``_build``) as a ``uavplan.world_model.v3``
    object. The words come before the letters because a rerun compares
    the file with this object in its key order: another word list changes
    the letter statistics too, and is reported as such."""
    return {
        "schema": WORLD_MODEL_SCHEMA,
        "words": [{"letters": list(w.letters), "count": c}
                  for w, c in zip(wm.words, wm.word_counts)],
        "letters": {
            str(l): {"center_m": list(s.center_m),
                     "mean_profit_bps": s.mean_profit_bps}
            for l, s in sorted(wm.stats.items())
        },
        "mean_profit_bps": wm.mean_profit_bps,
        "mean_leg_time_s": wm.mean_leg_time_s,
        "noise_config": asdict(wm.noise_config),
    }


def model_from_dict(d: dict) -> WorldModel:
    found = d.get("schema")
    if found != WORLD_MODEL_SCHEMA:
        raise ConsistencyError(
            f"schema {found!r}, not {WORLD_MODEL_SCHEMA!r} (an older format or "
            "not this artifact); delete it and run again to regenerate it")
    return _build(
        {int(l): ((float(s["center_m"][0]), float(s["center_m"][1])),
                  float(s["mean_profit_bps"]))
         for l, s in d["letters"].items()},
        [Word.from_letters(w["letters"]) for w in d["words"]],
        [int(w["count"]) for w in d["words"]],
        float(d["mean_profit_bps"]), float(d["mean_leg_time_s"]),
        NoiseConfig(**d["noise_config"]))
