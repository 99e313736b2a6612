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
the mean profit and mean leg time, and the noise config. The vocabulary
(one dict, ``WorldModel.vocab``, that maps each letter, ascending, to its
row of the transition matrix and of the word index), the start counts,
the transition matrix and both noise matrices follow from those, so
``learn`` and ``model_from_dict`` both end in ``_build``, which derives
them; a stored file cannot contradict itself, and one edited by hand is
a model of the words it now holds. The pipeline learns
the model on every run and only compares the file with it;
``model_from_dict`` reads a model given to ``uavplan plan --model``, by
the package's one checked reader (``environment._from_json``), as three
private records: the file (``_ModelFile``, its schema required), each
stored word (``_StoredWord``: letters and count, JSON integers) and each
letter's sources (``_LetterSources``: a center of two JSON numbers and a
mean profit), keyed by the ``str`` of the letter. A mistyped, unknown or
missing key is refused naming its dotted key (``words.3.count``,
``letters.7.center_m``, ``noise_config.process_scale``); ``_build`` then
refuses sources that contradict each other.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .environment import Hotspot, MissionConfig, _record_from_dict
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
        return cls(tuple(map(int, letters)))

    def __len__(self) -> int:
        return len(self.letters)


@dataclass
class TransitionMatrix:
    """Row-stochastic next-letter matrix; inactive rows flagged, not faked."""

    probs: np.ndarray
    active: np.ndarray

    def validate(self) -> None:
        n = len(self.active)
        if self.probs.shape != (n, n) or self.active.shape != (n,):
            raise ConsistencyError(
                f"transition probs {self.probs.shape} do not fit active "
                f"{self.active.shape}, one flag per letter")
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


def merge_global(words: Sequence[Word], vocab: dict[int, int],
                 multiplicities: Sequence[int] | None = None) -> TransitionMatrix:
    """Pool transition counts across words, then row-normalize; letter l
    owns row and column ``vocab[l]``.

    This is the maximum-likelihood estimate of the letter Markov chain;
    restricted to a single word it coincides with that word's transition
    matrix (``word_transition`` in tests/world_model_oracles.py).
    """
    if multiplicities is None:
        multiplicities = [1] * len(words)
    pairs: dict[tuple[int, int], int] = {}
    for w, m in zip(words, multiplicities):
        letters = w.letters
        for pair in zip(letters, letters[1:]):
            pairs[pair] = pairs.get(pair, 0) + m
    counts = np.zeros((len(vocab), len(vocab)))
    # each count is summed as an int and written once; below 2**53 it is
    # the float that adding the multiplicities one by one gives
    counts[[vocab[a] for a, _ in pairs], [vocab[b] for _, b in pairs]] = list(
        pairs.values())
    out = counts.sum(axis=1)
    active = out > 0
    probs = np.zeros_like(counts)
    probs[active] = counts[active] / out[active, None]
    tm = TransitionMatrix(probs=probs, active=active)
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
    """Letter vocabulary, stored words, global transitions and noise terms.
    ``vocab`` maps each letter, ascending, to its row of the transition
    matrix and of the word index."""

    vocab: dict[int, int]
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
    def surprise_terms(self) -> dict[int, tuple[float, float]]:
        """The planner's table of surprise terms, (S^-1)_tt and const, per
        reference length for this model's noise (see
        ``planner.PlanContext``), filled as planning needs it. It is
        derived state: not serialized, and stale if the noise matrices are
        changed later."""
        return {}


@dataclass(frozen=True)
class WordIndex:
    """The stored words in a form for bounding edit distances in bulk.

    ``incidence[vocab[letter], k]`` is 1 when stored word k contains
    ``letter``, ``vocab`` being the model's letter map. Rows are letters
    so that the overlap of a candidate with
    every stored word, the product of the transposed matrix with the
    candidate's 0/1 letter vector, is a sum of contiguous rows.
    """

    letters: tuple[tuple[int, ...], ...]
    lengths: np.ndarray      # int64, one per word
    incidence: np.ndarray    # uint8, vocabulary x words

    @classmethod
    def build(cls, words: Sequence[Word], vocab: dict) -> "WordIndex":
        letters = tuple(w.letters for w in words)
        lengths = np.array([len(word) for word in letters], np.int64)
        incidence = np.zeros((len(vocab), len(letters)), np.uint8)
        incidence[[vocab[l] for word in letters for l in word],
                  np.repeat(np.arange(len(letters)), lengths)] = 1
        return cls(letters=letters, lengths=lengths, incidence=incidence)


@dataclass(frozen=True)
class _LetterSources:
    """A letter's center and mean profit, as ``world_model.json`` holds
    them."""

    center_m: tuple[float, float]
    mean_profit_bps: float


@dataclass(frozen=True)
class _StoredWord:
    """A stored word and its count, as ``world_model.json`` holds them."""

    letters: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class _ModelFile:
    """A ``uavplan.world_model.v3`` object but its schema: the sources of
    a model (see ``_build``)."""

    words: tuple[_StoredWord, ...]
    letters: dict[int, _LetterSources]
    mean_profit_bps: float
    mean_leg_time_s: float
    noise_config: NoiseConfig


def _build(letters: dict[int, _LetterSources], words: list[Word],
           counts: list[int], mean_profit_bps: float,
           mean_leg_time_s: float, noise: NoiseConfig) -> WorldModel:
    """The model that its sources determine: each letter's center and mean
    profit (``letters``), the stored words with their counts, the two
    training means and the noise config. Derives the vocabulary (the
    words' letters, ascending, each mapped to its row), the start counts,
    the transitions and both noise matrices (see ``NoiseConfig``)."""
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
    vocab = {l: k for k, l in
             enumerate(sorted({l for w in words for l in w.letters}))}
    missing = [l for l in vocab if l not in letters]
    if missing:
        raise ConsistencyError(
            f"stored words name letters {missing} that have no statistics")
    try:
        q = np.diag([(noise.process_scale * mean_profit_bps) ** 2,
                     (noise.process_scale * mean_leg_time_s) ** 2])
    except OverflowError:
        raise ConfigurationError(
            f"config noise: the process noise, process_scale "
            f"{noise.process_scale} times the training mean_profit_bps "
            f"{mean_profit_bps} or mean_leg_time_s {mean_leg_time_s} (which "
            "the pool and mission give), overflows float arithmetic when "
            "squared") from None
    return WorldModel(
        vocab=vocab,
        stats={l: LetterStats(**vars(letters[l]), start_count=started.get(l, 0))
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
    the demo multiset, never on its ordering. Each distinct order is
    made a word, and so validated, once (``word_from_tour``), at its
    first demonstration; a demonstration of fewer than two hotspots is
    refused, naming the first by its index.
    """
    if not demos:
        raise TrainingError("no demonstrations to learn from")
    by_id = {h.id: h for h in pool}

    # each distinct order's word, the smallest cost among its
    # demonstrations (identical words imply identical geometry, so
    # accumulation order cannot matter), and how often it repeats
    words: dict[tuple[int, ...], Word] = {}
    word_cost: dict[tuple[int, ...], float] = {}
    repeats: dict[tuple[int, ...], int] = {}
    for k, t in enumerate(demos):
        key = t.order
        if key in words:
            repeats[key] = repeats.get(key, 0) + 1
            word_cost[key] = min(word_cost[key], t.total_cost_m)
            continue
        try:
            words[key] = word_from_tour(t)
        except DegenerateWordError as e:
            raise DegenerateWordError(
                f"demonstration {k}, order {list(t.order)}: {e}; the oracle "
                "keeps a hotspot only where its profit pays for its detour "
                "under the config's weights") from None
        word_cost[key] = t.total_cost_m

    keys = sorted(words)
    counts = [1 + repeats.get(k, 0) for k in keys]

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
                  [words[k] for k in keys], counts,
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
    """Read a ``uavplan.world_model.v3`` object, its schema required, by
    the one checked reader (``_ModelFile``)."""
    read = _record_from_dict(_ModelFile, WORLD_MODEL_SCHEMA, "world model", d,
                             required=True)
    return _build(read.letters, [Word(w.letters) for w in read.words],
                  [w.count for w in read.words], read.mean_profit_bps,
                  read.mean_leg_time_s, read.noise_config)
