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
field names, each letter's record (``LetterStats``: its center and mean
profit), the mean profit and mean leg time, and the noise config. The
vocabulary (one dict, ``WorldModel.vocab``, that maps each letter,
ascending, to its row of the transition matrix, of the start counts and
of the word index), the start counts (``WorldModel.start_counts``, one
per row), the transition matrix and both noise matrices follow from
those, so ``learn`` and ``model_from_dict`` both end in ``_build``,
which derives them; a stored file cannot contradict itself, and one
edited by hand is a model of the words it now holds. The pipeline learns
the model on every run and only compares the file with it;
``model_from_dict`` reads a model given to ``uavplan plan --model``, by
the package's one checked reader (``environment._from_json``), as the
file's record (``_ModelFile``, its schema required; each stored word's
letters and each count JSON integers) and each letter's ``LetterStats``
(a center of two JSON numbers and a mean profit), keyed by the ``str``
of the letter, the one record ``learn`` makes too. A mistyped, unknown or
missing key is refused naming its dotted key (``word_counts.3``,
``words.2.1``, ``letters.7.center_m``, ``noise_config.process_scale``);
``_build`` then refuses words and counts of two lengths, a stored word
that repeats a letter, naming its index and letters, word counts that
add up to 2**53 or more, and sources that contradict each other (such
as a stored word's
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

Past the one dict pass of ``learn`` that tallies the distinct orders,
the stored words are read in array passes. They are flattened once per
model, by ``learn`` or ``model_from_dict``, in stored order, into each
letter's row, which each letter gets through the vocabulary dict
(``_rows``), and each word's length (``_layout``); the checks, the start
counts, the letter occurrences and the pair counts (``merge_global``)
are numpy passes over that layout, each over every word at once, and
each pass's temporaries are dropped when it ends. The counts are
tallied as floats, by weighted ``bincount``s: while the word counts add
up to less than 2**53, which ``_build`` requires and ``learn``'s, adding
up to the number of demonstrations, meet, every partial sum is an
integer that a float holds, so each tally is exact in any order. Each sum of floats adds in
the order a loop over the sorted words and their letters adds: a
weighted ``bincount`` adds in the order of its input, and a total is the
last of an ``np.add.accumulate`` (``oracle._row_sums``, which sums the
demonstrations' totals by the same rule), never the pairwise
``np.sum``. So the model is the loop's, bit for bit;
tests/world_model_oracles.py keeps the loops (``reference_learn``,
``reference_build``) for the tests to hold these passes to.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .environment import Hotspot, MissionConfig, _record_from_dict
from .errors import ConfigurationError, ConsistencyError, DegenerateWordError, TrainingError
from .oracle import Demonstrations, Tour, _row_sums

_ROW_TOL = 1e-9
# the word counts' total is below it: every count and every sum of counts
# is then an integer that a float holds exactly
_COUNT_BOUND = 2 ** 53
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
    if (type(order) is tuple
            and operator.countOf(map(type, order), int) == len(order)):
        return order
    return tuple(map(int, order))


def _rows(words: Sequence[tuple[int, ...]], vocab: dict[int, int]
          ) -> tuple[np.ndarray, np.ndarray]:
    """Each letter's row in ``vocab``, word after word, and each word's
    length, both int64 (an index numpy takes with no copy). A letter may
    be any int, so each is streamed through ``vocab``, never through an
    array indexed by letter."""
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    rows = np.fromiter(map(vocab.__getitem__, chain.from_iterable(words)),
                       np.intp, int(lengths.sum()))
    return rows, lengths


def merge_global(rows: np.ndarray, lengths: np.ndarray,
                 multiplicities: Sequence[int], n: int) -> TransitionMatrix:
    """Pool the transition counts of the words laid out as ``rows`` and
    ``lengths`` (``_rows``: each letter's row, word after word, and each
    word's length) over a vocabulary of ``n`` letters, then
    row-normalize; a letter owns the row and the column its row number
    names.

    This is the maximum-likelihood estimate of the letter Markov chain;
    restricted to a single word it coincides with that word's transition
    matrix (``word_transition`` in tests/world_model_oracles.py). Each
    word has one multiplicity (words and multiplicities of two lengths
    raise ``ValueError``). Each count is one weighted ``bincount`` of the
    multiplicities as floats. It is the float of the exact sum only while
    the multiplicities add up to less than 2**53, where every partial sum
    is an integer that a float holds; ``_build`` refuses counts that add
    up to more, but this function does not check. The counts are one
    float64 array, on every input (``bincount`` of an empty key gives
    int64), and each active row is divided by its sum in place, one
    division per entry, so the returned ``probs`` is that array: the one
    n x n array made here.
    """
    # each letter paired with the letter after it, as the key
    # letter * n + next letter, weighted by the next letter's word's
    # multiplicity, and by 0 where the next letter starts a word: a word
    # of L letters adds its multiplicity to its L - 1 pairs
    weight = np.repeat(np.asarray(multiplicities, np.float64), lengths)
    weight[(np.cumsum(lengths) - lengths)[lengths > 0]] = 0.0
    key = rows[:-1] * n
    key += rows[1:]
    counts = np.bincount(key, weight[1:], n * n).astype(float, copy=False).reshape(n, n)
    del key, weight
    out = counts.sum(axis=1)
    active = out > 0
    # an inactive row is all +0.0, and divided by 1.0 it stays so
    counts /= np.where(active, out, 1.0)[:, None]
    tm = TransitionMatrix(probs=counts, active=active)
    tm.validate()
    return tm


@dataclass(frozen=True)
class LetterStats:
    """Training statistics attached to one letter, as ``learn`` makes them
    and ``world_model.json`` holds them: a finite center and mean
    profit."""

    center_m: tuple[float, float]
    mean_profit_bps: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.center_m, self.mean_profit_bps))):
            raise ConsistencyError(f"{self}: center and profit must be finite")


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
    matrix, of ``start_counts`` and of the word index; ``stats`` holds each
    letter's record, in the same order. ``start_counts`` (float64, an
    exact integer each) is the number of stored words, by their counts,
    that start with each row's letter. Each stored word is its letter
    tuple, of Python ints (``learn`` lists them ascending)."""

    vocab: dict[int, int]
    stats: dict[int, LetterStats]
    start_counts: np.ndarray
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
        state: not serialized, and stale if ``words`` is changed later.
        It is not built with the model, from ``_build``'s layout: its
        vocabulary x words incidence would then be held from the world
        stage on, through Q-learning, which never reads it, and raise the
        pipeline's peak memory; only planning reads it."""
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
        rows, lengths = _rows(words, vocab)
        incidence = np.zeros((len(vocab), len(words)), np.uint8)
        incidence[rows, np.repeat(np.arange(len(words)), lengths)] = 1
        return cls(lengths=lengths, incidence=incidence)


@dataclass(frozen=True)
class _ModelFile:
    """A ``uavplan.world_model.v4`` object but its schema: the sources of
    a model (see ``_build``), the stored words and their counts as two
    lists in stored order."""

    words: tuple[tuple[int, ...], ...]
    word_counts: tuple[int, ...]
    letters: dict[int, LetterStats]
    mean_profit_bps: float
    mean_leg_time_s: float
    noise_config: NoiseConfig


def _layout(words: Sequence[tuple[int, ...]]
            ) -> tuple[dict[int, int], np.ndarray, np.ndarray]:
    """The vocabulary of ``words`` (their letters, ascending, each mapped
    to its row) and ``_rows`` of the words over it."""
    vocab = {l: k for k, l in
             enumerate(sorted(set(chain.from_iterable(words))))}
    return (vocab, *_rows(words, vocab))


def _build(letters: dict[int, LetterStats], words: list[tuple[int, ...]],
           counts: list[int], mean_profit_bps: float,
           mean_leg_time_s: float, noise: NoiseConfig,
           layout: tuple[dict[int, int], np.ndarray, np.ndarray]
           ) -> WorldModel:
    """The model that its sources determine: each letter's record
    (``letters``, stored in vocabulary order), the stored words with their
    counts, the two training means and the noise config. Derives the
    vocabulary (the words' letters, ascending, each mapped to its row),
    the start counts, the transitions and both noise matrices (see
    ``NoiseConfig``). The one check of a stored word, for ``learn`` and
    ``model_from_dict`` alike: refuses sources that ``learn`` never
    gives, words and counts of two lengths, a stored word that repeats a
    letter, of fewer than two letters or with a count below 1, counts that
    add up to 2**53 or more, a letter without statistics, statistics of a
    letter that no stored word holds, a mean or a noise matrix that is not
    finite, and a noise matrix whose entry for a non-zero mean underflows
    below the smallest normal float.

    The words are read in array passes over their ``layout`` (``_layout``
    of the words, which ``learn`` and ``model_from_dict`` hand over): the
    vocabulary, each letter's row, word after word, and each word's
    length. A word repeats a letter where the sorted keys word * n + row
    hold two equal neighbours, and the first word that fails a check
    (``argmax`` of a mask) is named, as a loop in stored order named it. The start counts (a weighted ``bincount``) and
    the pair counts (``merge_global``, over the same layout) are tallies of
    the counts as floats; below 2**53 in total every partial sum is an
    exact integer, so they are the exact sums."""
    if not (math.isfinite(mean_profit_bps) and math.isfinite(mean_leg_time_s)):
        raise ConsistencyError(
            f"mean_profit_bps {mean_profit_bps} and mean_leg_time_s "
            f"{mean_leg_time_s} must be finite")
    if len(words) != len(counts):
        raise ConsistencyError(
            f"{len(words)} stored words but {len(counts)} word counts; each "
            "stored word has one count")
    vocab, rows, lengths = layout
    n = len(vocab)
    # a word repeats a letter where two of its letters share a row: the
    # keys word * n + row, sorted, hold two equal neighbours
    keys = np.repeat(np.arange(len(words), dtype=np.int64) * n, lengths)
    keys += rows
    keys.sort()
    repeated = np.zeros(len(words), bool)
    repeated[keys[1:][keys[1:] == keys[:-1]] // max(n, 1)] = True
    del keys
    bad = (repeated | (lengths < 2)
           | np.fromiter(map(operator.lt, counts, repeat(1)), bool, len(counts)))
    if bad.any():
        k = int(bad.argmax())
        w, c = words[k], counts[k]
        if repeated[k]:
            raise ConsistencyError(f"word {k} {list(w)}: repeated letter in word")
        raise ConsistencyError(
            f"word {k} has letters {list(w)} and count {c}; a "
            "stored word has at least two letters and a count of at "
            "least 1")
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
    # a count past the float range raises OverflowError here
    weights = np.array(counts, np.float64)
    if (total := sum(counts)) >= _COUNT_BOUND:
        raise ConsistencyError(
            f"word_counts add up to {total}; a model's word counts add up "
            f"to less than 2**53 ({_COUNT_BOUND}), below which their float "
            "tallies are exact")
    starts = rows[np.cumsum(lengths) - lengths]
    return WorldModel(
        vocab=vocab,
        stats={l: letters[l] for l in vocab},
        start_counts=np.bincount(starts, weights, n),
        words=words,
        word_counts=counts,
        transition=merge_global(rows, lengths, weights, n),
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

    One dict pass tallies the distinct orders; the rest are array passes
    over the sorted words' ``_layout``, which ``_build`` reuses. The
    letter occurrences are a weighted ``bincount``; each float sum adds in
    stored order, the words sorted and each word's letters in its order,
    as a loop over them adds: a letter's profit sum by a weighted
    ``bincount``, which adds in the order of its input, and the total
    profit and the total cost by ``_row_sums``, never by the pairwise
    ``np.sum``. So the model is the loop's, bit for bit (the loop is kept
    in tests/world_model_oracles.py as ``reference_learn``).
    """
    orders, costs = (
        (demos.orders, demos.cost_m) if isinstance(demos, Demonstrations)
        else ([t.order for t in demos], [t.total_cost_m for t in demos]))
    if not orders:
        raise TrainingError("no demonstrations to learn from")
    by_id = {h.id: h for h in pool}

    # each distinct order's word, in the order first seen, mapped to its
    # slot: the number of demonstrations that have it and the smallest
    # cost among them (identical words imply identical geometry, so
    # accumulation order cannot matter); one dict lookup per demonstration
    slots: dict[tuple[int, ...], int] = {}
    seen: list[int] = []
    least: list[float] = []
    for k, (order, c) in enumerate(zip(orders, costs)):
        slot = slots.get(order)
        if slot is None:
            try:
                word = _word(order)
            except DegenerateWordError as e:
                raise DegenerateWordError(
                    f"demonstration {k}, order {list(order)}: {e}; the "
                    "oracle keeps a hotspot only where its profit pays for "
                    "its detour under the config's weights") from None
            slot = slots[word] = len(seen)
            seen.append(0)
            least.append(c)
        seen[slot] += 1
        if c < least[slot]:
            least[slot] = c
    # the slots of the words sorted by word: ``sorted(slots)``, the stored
    # order, with no second lookup per word
    words = list(slots)
    del slots
    stored = sorted(range(len(words)), key=words.__getitem__)
    keys = list(map(words.__getitem__, stored))
    counts = list(map(seen.__getitem__, stored))
    cost = np.fromiter(map(least.__getitem__, stored), np.float64, len(keys))
    del words, seen, least, stored
    per_word = np.array(counts, np.float64)
    # each float sum adds the words in stored order and each word's
    # letters in its order: a weighted bincount adds in the order of its
    # input, and ``_row_sums`` left to right
    with np.errstate(over="ignore", invalid="ignore"):
        cost *= per_word
        total_cost = _row_sums(cost[None]).item()
    del cost

    layout = vocab, rows, lengths = _layout(keys)
    for l in vocab:
        if l not in by_id:
            raise ConsistencyError(f"demonstrated letter {l} missing from pool")

    # each letter of each word, weighted by the word's count
    profit = np.repeat(per_word, lengths)
    del per_word
    occ = np.bincount(rows, profit, len(vocab))
    bps = np.array([by_id[l].profit_bps for l in vocab])
    with np.errstate(over="ignore", invalid="ignore"):
        profit *= bps[rows]
        mean_profit = (np.bincount(rows, profit, len(vocab)) / occ).tolist()
        total_profit = _row_sums(profit[None]).item()
    del profit
    # exact, as the counts add up to the number of demonstrations
    total_visits = int(occ.sum())
    total_legs = total_visits + len(orders)

    return _build({l: LetterStats(by_id[l].center_m, m)
                   for l, m in zip(vocab, mean_profit)},
                  keys, counts,
                  total_profit / total_visits,
                  total_cost / total_legs / mission.uav_speed_m_per_s, noise,
                  layout)


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
                  read.noise_config, _layout(read.words))
