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
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .environment import Hotspot, MissionConfig
from .errors import ConfigurationError, ConsistencyError, DegenerateWordError, TrainingError
from .oracle import Tour

_ROW_TOL = 1e-9
WORLD_MODEL_SCHEMA = "uavplan.world_model.v2"


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

    def row(self, letter: int) -> np.ndarray:
        return self.probs[self.vocab.index(letter)]

    def is_active(self, letter: int) -> bool:
        return bool(self.active[self.vocab.index(letter)])

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
    mean profit, and non-negative counts."""

    center_m: tuple[float, float]
    mean_profit_bps: float
    count: int
    start_count: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.center_m, self.mean_profit_bps))):
            raise ConsistencyError(f"{self}: center and profit must be finite")
        if min(self.count, self.start_count) < 0:
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
    first: dict[tuple[int, ...], Word] = {}
    for t in demos:
        w = word_from_tour(t)
        key = w.letters
        first.setdefault(key, w)
        tally[key] = tally.get(key, 0) + 1
        # identical words imply identical geometry; keep the smaller cost
        # so accumulation order cannot matter
        prev = word_cost.get(key)
        word_cost[key] = t.total_cost_m if prev is None else min(prev, t.total_cost_m)

    keys = sorted(tally)
    words = [first[k] for k in keys]
    counts = [tally[k] for k in keys]

    letters = sorted({l for k in keys for l in k})
    for l in letters:
        if l not in by_id:
            raise ConsistencyError(f"demonstrated letter {l} missing from pool")
    vocab = Vocabulary(letters)

    occ = {l: 0 for l in letters}
    started = {l: 0 for l in letters}
    profit_sum = {l: 0.0 for l in letters}
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
            total_profit += c * p
            total_visits += c
        total_cost += c * word_cost[k]
        total_legs += c * (len(k) + 1)

    stats = {l: LetterStats(center_m=by_id[l].center_m,
                            mean_profit_bps=profit_sum[l] / occ[l],
                            count=occ[l], start_count=started[l])
             for l in letters}

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
        "schema": WORLD_MODEL_SCHEMA,
        "vocabulary": list(wm.vocab.letters),
        "letters": {
            str(l): {
                "center_m": list(s.center_m),
                "mean_profit_bps": s.mean_profit_bps,
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


def _noise_matrix(d: dict, key: str) -> np.ndarray:
    """A stored noise covariance: finite, 2 x 2, symmetric and positive
    semi-definite."""
    m = np.array(d[key], float)
    if m.shape != (2, 2) or not np.isfinite(m).all():
        raise ConsistencyError(f"{key} {d[key]} is not a finite 2 x 2 matrix")
    if (m[0, 1] != m[1, 0]
            or min(m[0, 0], m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) < 0):
        raise ConsistencyError(
            f"{key} {m.tolist()} is not symmetric positive semi-definite")
    return m


def model_from_dict(d: dict) -> WorldModel:
    found = d.get("schema") if isinstance(d, dict) else None
    if found != WORLD_MODEL_SCHEMA:
        raise ConsistencyError(
            f"schema {found!r}, not {WORLD_MODEL_SCHEMA!r} (an older format or "
            "not this artifact); delete it and run again to regenerate it")
    vocab = Vocabulary(d["vocabulary"])
    stats = {
        int(l): LetterStats(
            center_m=(float(s["center_m"][0]), float(s["center_m"][1])),
            mean_profit_bps=float(s["mean_profit_bps"]),
            count=int(s["count"]),
            start_count=int(s["start_count"]),
        )
        for l, s in d["letters"].items()
    }
    if set(stats) != set(vocab.letters):
        raise ConsistencyError("the letters' statistics do not key exactly "
                               "the vocabulary")
    words = [Word.from_letters(w["letters"]) for w in d["words"]]
    unknown = {l for w in words for l in w.letters} - set(vocab.letters)
    if unknown:
        raise ConsistencyError(
            f"stored words name letters {sorted(unknown)} not in the vocabulary")
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
        process_noise=_noise_matrix(d, "process_noise"),
        measurement_noise=_noise_matrix(d, "measurement_noise"),
        mean_profit_bps=float(d["mean_profit_bps"]),
        mean_leg_time_s=float(d["mean_leg_time_s"]),
        noise_config=NoiseConfig(**d["noise_config"]),
        fingerprint=str(d["fingerprint"]),
    )
