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
demos yields an identical model, including its serialized bytes. A stored
word is its letter tuple, of Python ints, in one form from ``learn``
through ``world_model.json`` and ``model_from_dict`` to the word index;
``_build`` is the one place that checks it (at least two letters, none
repeated, a count of at least 1). A word made of an order that is a
tuple of Python ints, as each order of ``oracle.demonstrate``'s record
is, is that tuple, so the demonstrations can be freed while the words
live on; the word index (``WordIndex``) maps letters to
rows through the vocabulary dict, never through an array indexed by
letter, since a letter is any int. ``Word`` is the planner's and
Q-learning's type, for the words they make.

``world_model.json`` (``uavplan.world_model.v4``) stores only what
the demonstrations and the pool give and nothing else determines: the
distinct words (``words``, each a list of its letters) and their counts
(``word_counts``), two lists in stored order under the ``WorldModel``
field names, each letter's center and mean profit, the mean profit and
mean leg time, and the noise config. The vocabulary
(one dict, ``WorldModel.vocab``, that maps each letter, ascending, to its
row of the transition matrix and of the word index), the start counts,
the transition matrix and both noise matrices follow from those, so
``learn`` and ``model_from_dict`` both end in ``_build``, which derives
them; a stored file cannot contradict itself, and one edited by hand is
a model of the words it now holds. The pipeline learns
the model on every run and only compares the file with it;
``model_from_dict`` reads a model given to ``uavplan plan --model``, by
the package's one checked reader (``environment._from_json``), as two
private records: the file (``_ModelFile``, its schema required; each
stored word's letters and each count JSON integers) and each
letter's sources (``_LetterSources``: a center of two JSON numbers and a
mean profit), keyed by the ``str`` of the letter. A mistyped, unknown or
missing key is refused naming its dotted key (``word_counts.3``,
``words.2.1``, ``letters.7.center_m``, ``noise_config.process_scale``);
``_build`` then refuses words and counts of two lengths, a stored word
that repeats a letter, naming its index and
letters, and sources that contradict each other (such as a stored word's
letter without statistics, or statistics of a letter that no stored
word holds), and a noise config whose
noise matrices, at the stored means, are not finite or, for a non-zero
mean, underflow below the smallest normal float. So ``model_to_dict``
gives back every file that ``model_from_dict`` accepts: its words,
counts, letters, means and noise config, with a noise key that the file
leaves out at its default. A stored word's letters, all Python ints, are
read in one step, as the tuple the model stores, and no record is built
per word. ``harness`` writes ``model_to_dict``'s object, the one
``uavplan plan --model`` reads, with the package's one encoder.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .environment import Hotspot, MissionConfig, _record_from_dict
from .errors import ConfigurationError, ConsistencyError, DegenerateWordError, TrainingError
from .oracle import Demonstrations, Tour

_ROW_TOL = 1e-9
WORLD_MODEL_SCHEMA = "uavplan.world_model.v4"


@dataclass(frozen=True)
class Word:
    """An ordered visitation sequence that the planner or Q-learning
    makes: a tuple of distinct letters. A stored word is its letter tuple
    alone (``WorldModel.words``)."""

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


def _word(order: Sequence[int]) -> tuple[int, ...]:
    """Transcribe a tour's visitation order as a stored word, its letter
    tuple; the depot is not a letter. An order that is a tuple of Python
    ints is that tuple, shared, not copied. ``_build`` checks the word."""
    if len(order) < 2:
        raise DegenerateWordError("a word needs at least two visited vertices")
    if type(order) is tuple and set(map(type, order)) == {int}:
        return order
    return tuple(map(int, order))


def merge_global(words: Sequence[tuple[int, ...]], vocab: dict[int, int],
                 multiplicities: Sequence[int]) -> TransitionMatrix:
    """Pool transition counts across words, then row-normalize; letter l
    owns row and column ``vocab[l]``.

    This is the maximum-likelihood estimate of the letter Markov chain;
    restricted to a single word it coincides with that word's transition
    matrix (``word_transition`` in tests/world_model_oracles.py).
    """
    pairs: dict[tuple[int, int], int] = {}
    for w, m in zip(words, multiplicities):
        for pair in zip(w, w[1:]):
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
    matrix and of the word index. Each stored word is its letter tuple,
    of Python ints (``learn`` lists them ascending)."""

    vocab: dict[int, int]
    stats: dict[int, LetterStats]
    words: list[tuple[int, ...]]
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
    """The stored words' lengths and letters in a form for bounding edit
    distances in bulk; the words themselves are the model's.

    ``incidence[vocab[letter], k]`` is 1 when stored word k contains
    ``letter``, ``vocab`` being the model's letter map. Rows are letters
    so that the overlap of a candidate with
    every stored word, the product of the transposed matrix with the
    candidate's 0/1 letter vector, is a sum of contiguous rows.
    """

    lengths: np.ndarray      # int64, one per word
    incidence: np.ndarray    # uint8, vocabulary x words

    @classmethod
    def build(cls, words: Sequence[tuple[int, ...]], vocab: dict) -> "WordIndex":
        lengths = np.fromiter(map(len, words), np.int64, len(words))
        # each letter's row, streamed through ``vocab``: a letter may be
        # any int, so no array is indexed by letter
        rows = np.fromiter(map(vocab.__getitem__, chain(*words)), np.intp)
        incidence = np.zeros((len(vocab), len(words)), np.uint8)
        incidence[rows, np.repeat(np.arange(len(words)), lengths)] = 1
        return cls(lengths=lengths, incidence=incidence)


@dataclass(frozen=True)
class _LetterSources:
    """A letter's center and mean profit, as ``world_model.json`` holds
    them."""

    center_m: tuple[float, float]
    mean_profit_bps: float


@dataclass(frozen=True)
class _ModelFile:
    """A ``uavplan.world_model.v4`` object but its schema: the sources of
    a model (see ``_build``), the stored words and their counts as two
    lists in stored order."""

    words: tuple[tuple[int, ...], ...]
    word_counts: tuple[int, ...]
    letters: dict[int, _LetterSources]
    mean_profit_bps: float
    mean_leg_time_s: float
    noise_config: NoiseConfig


def _build(letters: dict[int, _LetterSources], words: list[tuple[int, ...]],
           counts: list[int], mean_profit_bps: float,
           mean_leg_time_s: float, noise: NoiseConfig) -> WorldModel:
    """The model that its sources determine: each letter's center and mean
    profit (``letters``), the stored words with their counts, the two
    training means and the noise config. Derives the vocabulary (the
    words' letters, ascending, each mapped to its row), the start counts,
    the transitions and both noise matrices (see ``NoiseConfig``). The one
    check of a stored word, for ``learn`` and ``model_from_dict`` alike:
    refuses sources that ``learn`` never gives, words and counts of two
    lengths, a stored word that
    repeats a letter, of fewer than two letters or with a count below 1,
    a letter without statistics, statistics
    of a letter that no stored word holds, a mean or a noise matrix that
    is not finite, and a noise matrix whose entry for a non-zero mean
    underflows below the smallest normal float."""
    if not (math.isfinite(mean_profit_bps) and math.isfinite(mean_leg_time_s)):
        raise ConsistencyError(
            f"mean_profit_bps {mean_profit_bps} and mean_leg_time_s "
            f"{mean_leg_time_s} must be finite")
    if len(words) != len(counts):
        raise ConsistencyError(
            f"{len(words)} stored words but {len(counts)} word counts; each "
            "stored word has one count")
    started: dict[int, int] = {}
    for k, (w, c) in enumerate(zip(words, counts)):
        if len(set(w)) != len(w):
            raise ConsistencyError(f"word {k} {list(w)}: repeated letter in word")
        if len(w) < 2 or c < 1:
            raise ConsistencyError(
                f"word {k} has letters {list(w)} and count {c}; a "
                "stored word has at least two letters and a count of at "
                "least 1")
        started[w[0]] = started.get(w[0], 0) + c
    vocab = {l: k for k, l in enumerate(sorted({l for w in words for l in w}))}
    if letters.keys() != vocab.keys():
        raise ConsistencyError(
            f"stored words name letters {sorted(vocab.keys() - letters)} that "
            f"have no statistics, and letters {sorted(letters.keys() - vocab)}"
            " that no stored word holds have statistics")
    # numpy's scalar power is the C pow that Python's ``**`` calls, and
    # gives inf where ``**`` raises
    means = (mean_profit_bps, mean_leg_time_s)
    with np.errstate(over="ignore"):
        q = np.diag([np.float64(noise.process_scale * m) ** 2 for m in means])
        r = q * noise.measurement_ratio
    # a noise that scales a non-zero mean must be a normal float
    small = ((np.diagonal([q, r], 0, 1, 2) < np.finfo(float).smallest_normal)
             & np.not_equal(means, 0)).any()
    if small or not np.isfinite([q, r]).all():
        raise ConfigurationError(
            f"config noise: the process noise, process_scale "
            f"{noise.process_scale} times the training mean_profit_bps "
            f"{mean_profit_bps} or mean_leg_time_s {mean_leg_time_s} (which "
            "the pool and mission give), squared, or the measurement noise, "
            f"that times measurement_ratio {noise.measurement_ratio}, "
            + ("underflows below the smallest normal float" if small else
               "overflows float arithmetic"))
    return WorldModel(
        vocab=vocab,
        stats={l: LetterStats(**vars(letters[l]), start_count=started.get(l, 0))
               for l in vocab},
        words=words,
        word_counts=counts,
        transition=merge_global(words, vocab, counts),
        process_noise=q,
        measurement_noise=r,
        mean_profit_bps=mean_profit_bps,
        mean_leg_time_s=mean_leg_time_s,
        noise_config=noise,
    )


def learn(demos: Demonstrations | Sequence[Tour], pool: Sequence[Hotspot],
          noise: NoiseConfig, mission: MissionConfig) -> WorldModel:
    """Build the dictionary from the demonstrations: ``demonstrate``'s
    columns, or tours.

    Letters are deduplicated hotspot ids observed in the demos; words are
    deduplicated with multiplicities; per-letter profit statistics come
    from the pool entries the demos visited. The result depends only on
    the demo multiset, never on its ordering. Only the orders and the
    costs are read, as two columns; each distinct order is made a word
    once (``_word``), at its first demonstration; a demonstration of
    fewer than two hotspots is refused, naming the first by its index.
    """
    orders, costs = (
        (demos.orders, demos.cost_m) if isinstance(demos, Demonstrations)
        else ([t.order for t in demos], [t.total_cost_m for t in demos]))
    if not orders:
        raise TrainingError("no demonstrations to learn from")
    by_id = {h.id: h for h in pool}

    # each distinct order's word, mapped to how many demonstrations have
    # it and to the smallest cost among them (identical words imply
    # identical geometry, so accumulation order cannot matter)
    tally: dict[tuple[int, ...], int] = {}
    cost: dict[tuple[int, ...], float] = {}
    for k, (order, c) in enumerate(zip(orders, costs)):
        if order not in tally:
            try:
                word = _word(order)
            except DegenerateWordError as e:
                raise DegenerateWordError(
                    f"demonstration {k}, order {list(order)}: {e}; the "
                    "oracle keeps a hotspot only where its profit pays for "
                    "its detour under the config's weights") from None
            tally[word], cost[word] = 0, c
        tally[order] += 1
        cost[order] = min(cost[order], c)

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
        total_cost += c * cost[k]
        total_legs += c * (len(k) + 1)

    return _build({l: _LetterSources(by_id[l].center_m, profit_sum[l] / occ[l])
                   for l in letters},
                  keys, counts,
                  total_profit / total_visits,
                  total_cost / total_legs / mission.uav_speed_m_per_s, noise)


def model_to_dict(wm: WorldModel) -> dict:
    """The model's sources (see ``_build``) as a ``uavplan.world_model.v4``
    object. The words come first, then their counts, and then the letters,
    because a rerun compares the file with this object in its key order:
    another word list changes the counts and the letter statistics too,
    and is reported as such. Each word is the model's own letter tuple,
    which the encoder writes as a JSON list: no object is made per word."""
    return {
        "schema": WORLD_MODEL_SCHEMA,
        "words": list(wm.words),
        "word_counts": list(wm.word_counts),
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
    """Read a ``uavplan.world_model.v4`` object, its schema required, by
    the one checked reader (``_ModelFile``)."""
    read = _record_from_dict(_ModelFile, WORLD_MODEL_SCHEMA, "world model", d,
                             required=True)
    return _build(read.letters, list(read.words), list(read.word_counts),
                  read.mean_profit_bps, read.mean_leg_time_s,
                  read.noise_config)
