"""Online mission planner driven by expected surprise.

Given a test instance and a learned world model, the planner classifies
the instance's letters into known and unseen, samples candidate
reference words from the transition matrix (each letter the one
``Generator.choice`` draws from its restricted row, drawn by the seed's
stream, ``environment._Stream.choice``, the rows among the known letters
read once as Python lists), keeps the one closest (by edit distance) to
the stored dictionary, and then grows the route one unseen letter at a
time, always the one nearest to the centroid of the current word's
letters (the depot while the word is empty). Every
possible single-edge insertion is scored by the Bhattacharyya distance
between the belief the candidate route predicts and the belief implied
by the current reference; the least surprising insertion wins. The
realized tour is scored with the experiment's one ``ObjectiveWeights``,
passed in by the caller.

State beliefs are 2-D Gaussians over (cumulative sum-rate, elapsed
time); the per-leg transition adds the next letter's mean profit and the
leg travel time (plus dwell) to the mean and the process covariance Q to
the covariance. Observations are the identity map plus measurement noise
R. That transition (``kalman_predict``), its fold over a word
(``rollout``) and the observation (``predict_observation``) are kept in
tests/planner_oracles.py as the reference the tests check the closed form
below against.

With constant additive Q and R that fold has a closed form, which is
what ``insert_best`` evaluates. Inserting letter x into edge (u, v) of a
p-letter reference adds the detour d = |ux| + |xv| - |uv|. Every
candidate covers the same letters and has p + 2 legs, so all candidates
share the profit mean and the covariance (p+2)Q + R, and differ from the
target only by d/v in time. The surprise is therefore
(1/8) (d/v)^2 (S^-1)_tt + const with S and const fixed per step:
monotone in d, i.e. the planner performs cheapest insertion
(Rosenkrantz, Stearns & Lewis 1977). The two covariances, and so
(S^-1)_tt and const, depend only on p, Q and R, so one table entry per
reference length holds (S^-1)_tt and const, both covariances validated
once when the entry is made; every instance planned against one world
model shares the table (``PlanContext.surprise_terms``). A step builds
no belief: it scores its candidates from their detours alone (legs
measured by ``edge_cost``'s ``math.dist``) and splices
only the winner into a new word. It records only what the decision
compared: the target mean, the reference tour length L, k =
(1/8)(S^-1)_tt / v^2 and c = const, and each candidate's detour d, in
edge order; each candidate's removed edge (u, v) follows from the step's
word without its letter (``InsertionStep.candidates``). The rest
follows by the operations ``insert_best`` scores with: the candidate's
tour length L + d, its surprise max(k d d + c, 0) and its detour time
d / v; the target covariance (p+2)Q (Q for p = 0) and the observation
covariance (p+2)Q + R; its word, the step's letter spliced into the
step's reference right after u, or in front when u is the depot (None),
the first step's reference being the plan's and every later one the
previous step's word; and its predicted observation, the target mean
moved by (0, d / v) with the observation covariance.

Reference selection needs the exact minimum edit distance of each
candidate to the dictionary. A stored word is its letter tuple, which
the world model checked once to be repeat-free (``world_model._build``),
so max(m, n) - |shared letters| bounds every distance from below; the
world model's word index (the stored words' lengths and letter
incidence) yields all bounds as one incidence-matrix product, computed
once per distinct letter set, and only stored words whose bound can
still beat the best distance found are scored. Only a distance
below the best candidate's so far can change the pick, as the earliest
candidate wins ties, so that distance is the next candidate's cutoff
(Ukkonen's threshold, *Algorithms for approximate string matching*,
1985): its scan visits only bounds below it, and a candidate with no
closer stored word is dropped without its exact distance. A candidate
that repeats an earlier one's letters is not scanned. A repeat-free
candidate and stored word share each letter at most once, so their edit
distance is the cheapest increasing chain of those shared letters, a
chain costing the sum of max(gap in a, gap in b) over its leading,
inner and trailing gaps, or max(m, n) with no shared letter: a sparse
dynamic program over at most n match points (Eppstein, Galil, Giancarlo
& Italiano 1992) instead of an m x n table. The evaluation scores each
method's word against the oracle's with the same ``_chain_distance``
(``harness.word_similarity``). ``levenshtein``, the m x n table, is the
reference that C4 and the tests check it against; no code of the package
calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, sub
from typing import NamedTuple, Sequence

import numpy as np

from .environment import Instance, MissionConfig, _Stream
from .errors import ConfigurationError, NumericError
from .oracle import ObjectiveWeights, Tour, make_tour
from .world_model import Word, WorldModel

_SURPRISE_TIE = 1e-12
_LENGTH_TIE = 1e-9


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """2-D Gaussian over (cumulative sum-rate, elapsed mission time)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, float).reshape(-1)
        cov = np.asarray(self.cov, float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.size != 2 or cov.shape != (2, 2):
            raise NumericError(f"a belief is 2-D, not a mean of {mean.size} "
                               f"and a covariance of shape {cov.shape}")
        scale = max(float(np.trace(cov)), 1.0)
        tol = 1e-9 * scale
        # closed-form symmetry/PSD check
        if abs(cov[0, 1] - cov[1, 0]) > tol:
            raise NumericError("covariance not symmetric")
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        if cov[0, 0] < -tol or cov[1, 1] < -tol or det < -tol * scale:
            raise NumericError("covariance not positive semi-definite")

    @classmethod
    def zero(cls) -> "GaussianBelief":
        return cls(mean=np.zeros(2), cov=np.zeros((2, 2)))


class PlanCandidate(NamedTuple):
    """One tentative insertion of the step's letter into ``removed_edge``
    of the reference word, and the detour it adds to the reference tour."""

    removed_edge: tuple[int | None, int | None]
    detour_m: float


@dataclass(frozen=True)
class InsertionStep:
    """Trace of one planning iteration: the target belief's mean, the
    reference tour length ``ref_length_m`` (L), the surprise terms
    ``surprise_k`` and ``surprise_c`` (a candidate with detour d scores
    max(k d d + c, 0) and has tour length L + d), every candidate's
    detour in edge order, the winner, and ``word``, the reference grown by
    the winner."""

    inserted: int
    target_mean: tuple[float, float]
    ref_length_m: float
    surprise_k: float
    surprise_c: float
    detours_m: tuple[float, ...]
    winner_index: int
    word: Word

    @property
    def candidates(self) -> tuple[PlanCandidate, ...]:
        """Each candidate's removed edge, derived from ``word`` without the
        inserted letter, and its detour."""
        ref = tuple(l for l in self.word.letters if l != self.inserted)
        stops = (None, *ref, None)
        first = 1 if len(ref) > 1 else 0
        return tuple(map(PlanCandidate, zip(stops[first:], stops[first + 1:]),
                         self.detours_m))

    @property
    def chosen(self) -> PlanCandidate:
        return self.candidates[self.winner_index]


@dataclass(frozen=True)
class PlannerConfig:
    n_words: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_words < 1:
            raise ConfigurationError("need at least one generated word")
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, not {self.rng_seed}")


@dataclass
class PlanContext:
    """Geometry, profit estimates and noise shared by one planning run.

    Profit estimates come from the world model for known letters and from
    the instance itself for unseen ones; centers always come from the
    instance being planned. ``surprise_terms`` maps a reference length p
    to what ``insert_best`` needs of p, Q and R alone: the (S^-1)_tt and
    const of the target covariance (p+2)Q (Q for p = 0) and the
    observation covariance (p+2)Q + R. An entry is made on first use of
    its p, after both covariances are validated as belief covariances;
    an entry that fails is not stored. A context built by
    ``from_instance`` shares its world model's table, so all instances
    planned against one model fill one table; a context built directly
    starts its own.
    """

    centers: dict[int, tuple[float, float]]
    profits: dict[int, float]
    depot: tuple[float, float]
    mission: MissionConfig
    process_noise: np.ndarray
    measurement_noise: np.ndarray
    surprise_terms: dict[int, tuple[float, float]] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_instance(cls, inst: Instance, wm: WorldModel) -> "PlanContext":
        centers = {h.id: h.center_m for h in inst.hotspots}
        profits = {}
        for h in inst.hotspots:
            if h.id in wm.vocab:
                profits[h.id] = wm.stats[h.id].mean_profit_bps
            else:
                profits[h.id] = h.profit_bps
        return cls(centers=centers, profits=profits, depot=inst.depot_m,
                   mission=inst.mission,
                   process_noise=np.array(wm.process_noise, float),
                   measurement_noise=np.array(wm.measurement_noise, float),
                   surprise_terms=wm.surprise_terms)


def classify_letters(test_ids: Sequence[int],
                     wm: WorldModel) -> tuple[frozenset[int], frozenset[int]]:
    """Split test letters into (seen during training, never seen)."""
    ids = frozenset(int(i) for i in test_ids)
    normal = frozenset(i for i in ids if i in wm.vocab)
    return normal, ids - normal


def levenshtein(w1, w2) -> int:
    """Edit distance between two letter sequences (unit costs), by the
    textbook row-by-row dynamic program; the letters may repeat. No code
    of the package calls it: it is the reference that C4 and the tests
    check ``_chain_distance`` against."""
    a = w1.letters if isinstance(w1, Word) else tuple(w1)
    b = w2.letters if isinstance(w2, Word) else tuple(w2)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def generate_words(wm: WorldModel, normal: Sequence[int], n: int,
                   rng_seed: int) -> list[Word]:
    """Sample n words covering each known letter exactly once.

    The start letter follows the empirical start frequencies of the
    training words (restricted to the requested letters); successors
    follow the global transition row renormalized over the letters still
    unvisited. Whenever the restricted row has no mass, the nearest
    unvisited letter (by center distance) is taken instead.

    The transition rows among the requested letters are read once into
    Python lists. Each letter is the one ``Generator.choice(letters,
    p=w / w.sum())`` draws for its row of weights ``w``, drawn by
    ``_Stream.choice`` from the seed's stream (``environment._Stream``),
    or one ``integers(len(letters))`` for a start when no word starts in
    the set; the words equal those of calling ``choice`` bit for bit. An
    inactive row is all zeros, so its restriction has no mass.
    """
    normal = sorted(set(int(i) for i in normal))
    if not normal:
        raise ConfigurationError("cannot generate words over an empty letter set")
    if n < 1:
        raise ConfigurationError("need n >= 1 words")
    rng = _Stream(rng_seed)
    columns = [wm.vocab[l] for l in normal]
    starts = wm.start_counts[columns].tolist()
    # row i, column j: the transition from normal[i] to normal[j]
    rows = wm.transition.probs[np.ix_(columns, columns)].tolist()
    out: list[Word] = []
    for _ in range(n):
        # the places in ``normal`` of the letters not yet drawn
        remaining = list(range(len(normal)))
        k = rng.choice(starts)
        if k is None:
            k = rng.integers(len(normal))
        current = remaining.pop(k)
        letters = [normal[current]]
        while remaining:
            k = rng.choice(list(map(rows[current].__getitem__, remaining)))
            if k is None:
                here = wm.stats[normal[current]].center_m
                k = remaining.index(min(
                    remaining,
                    key=lambda j: (math.dist(here, wm.stats[normal[j]].center_m),
                                   normal[j])))
            current = remaining.pop(k)
            letters.append(normal[current])
        out.append(Word(tuple(letters)))
    return out


class _BoundScan:
    """The stored words grouped by their lower bound on the edit distance
    to one letter set.

    Words carry no repeated letters, so aligned matches are bounded by the
    set overlap and d >= max(m, n) - overlap. The overlaps with every
    stored word are the incidence matrix times the set's 0/1 letter
    vector, i.e. the sum of its letters' rows, each letter's row the one
    the model's letter map (``vocab``) gives it. The words of a bound are
    listed in stored order, each bound on first use.
    """

    def __init__(self, letters: tuple, wm: WorldModel):
        index, vocab = wm.word_index, wm.vocab
        rows = [vocab[l] for l in letters if l in vocab]
        self.bounds = (np.maximum(index.lengths, len(letters))
                       - index.incidence[rows].sum(axis=0, dtype=np.int32))
        self.lowest = int(self.bounds.min())
        self.words = wm.words
        self._levels: dict[int, list[int]] = {}

    def level(self, bound: int) -> list[int]:
        ks = self._levels.get(bound)
        if ks is None:
            ks = self._levels[bound] = np.flatnonzero(self.bounds == bound).tolist()
        return ks


def _chain_distance(pos: dict[int, int], m: int, b: tuple) -> int:
    """Edit distance between a repeat-free word of length ``m`` with
    letter positions ``pos`` and the repeat-free word ``b``.

    Each letter of ``b`` in ``pos`` is a match point (i, j). The distance
    is the least cost of a chain of match points increasing in both
    words, costing max(i, j) for the leading gap, max(i' - i, j' - j) - 1
    for each inner gap and max(m - i, n - j) - 1 for the trailing gap; the
    empty chain costs max(m, n).
    """
    n = len(b)
    best = m if m > n else n
    chain: list[tuple[int, int, int]] = []   # (i, j, cheapest chain to it)
    for j, letter in enumerate(b):
        i = pos.get(letter)
        if i is None:
            continue
        cost = i if i > j else j
        for pi, pj, pcost in chain:
            if pi < i:
                via = pcost + (i - pi if i - pi > j - pj else j - pj) - 1
                if via < cost:
                    cost = via
        chain.append((i, j, cost))
        tail = cost + (m - i if m - i > n - j else n - j) - 1
        if tail < best:
            best = tail
    return best


def _min_dictionary_distance(letters: tuple, scan: _BoundScan,
                             below: int | None) -> int | None:
    """Exact min edit distance of one candidate against the whole
    dictionary if it is below ``below`` (any, for None), else None.

    Words are scanned by increasing bound (stored order within a bound),
    stopping at the first bound the running best, or ``below``, cannot
    beat.
    """
    pos = {l: i for i, l in enumerate(letters)}
    m = len(letters)
    words = scan.words
    best: int | None = None
    level = scan.lowest
    while below is None or level < below:
        for k in scan.level(level):
            d = _chain_distance(pos, m, words[k])
            if below is None or d < below:
                best = below = d
                if best <= level:
                    return best
        level += 1
    return best


def select_reference(candidates: Sequence[Word], wm: WorldModel) -> Word:
    """Keep the candidate closest to any stored word; earliest index wins ties.

    Only a distance below the best so far can change the pick, so each
    candidate is scanned with that distance as its cutoff, and a candidate
    that repeats an earlier one's letters is skipped. The bounds are
    computed once per distinct letter set: every word ``generate_words``
    samples for one instance covers the same letters.
    """
    if not candidates:
        raise ConfigurationError("no candidate words to select from")
    if not wm.words:
        raise ConfigurationError("world model has no stored words")
    scans: dict[frozenset[int], _BoundScan] = {}
    seen: set[tuple] = set()
    best, best_d = None, None
    for cand in candidates:
        letters = cand.letters
        if letters in seen:
            continue
        seen.add(letters)
        key = frozenset(letters)
        scan = scans.get(key)
        if scan is None:
            scan = scans[key] = _BoundScan(letters, wm)
        d = _min_dictionary_distance(letters, scan, best_d)
        if d is not None:
            best, best_d = cand, d
    return best


def _splice(letters: tuple, position: int, letter: int) -> tuple:
    return letters[:position] + (letter,) + letters[position:]


def _regularized(cov: np.ndarray) -> np.ndarray:
    floor = 1e-12 * max(float(np.trace(cov)), 1.0)
    return cov + floor * np.eye(cov.shape[0])


def _bhattacharyya_terms(cov1: np.ndarray,
                         cov2: np.ndarray) -> tuple[np.ndarray, float]:
    """(S^-1, log-determinant term) of the Bhattacharyya distance between
    Gaussians with covariances cov1 and cov2, S their average.

    Both covariances get a tiny trace-relative floor; a singular S is
    retried once with a larger bump before giving up.
    """
    c1 = _regularized(cov1)
    c2 = _regularized(cov2)
    mixed = 0.5 * (c1 + c2)
    for attempt in range(2):
        try:
            inverse = np.linalg.inv(mixed)
            sign_m, logdet_m = np.linalg.slogdet(mixed)
            sign_1, logdet_1 = np.linalg.slogdet(c1)
            sign_2, logdet_2 = np.linalg.slogdet(c2)
            if min(sign_m, sign_1, sign_2) <= 0:
                raise np.linalg.LinAlgError("non-positive determinant")
            return inverse, 0.5 * (logdet_m - 0.5 * (logdet_1 + logdet_2))
        except np.linalg.LinAlgError:
            if attempt == 1:
                raise NumericError("persistently singular covariance") from None
            bump = 1e-9 * max(float(np.trace(mixed)), 1.0) * np.eye(mixed.shape[0])
            c1 = c1 + bump
            c2 = c2 + bump
            mixed = mixed + bump
    raise NumericError("unreachable")


def expected_surprise(ref_belief: GaussianBelief,
                      cand_obs: GaussianBelief) -> float:
    """Bhattacharyya distance between two Gaussian beliefs (closed form).

    (1/8) dm' S^-1 dm + (1/2) ln det(S) / sqrt(det S1 det S2) with S the
    average covariance. Symmetric, zero iff the distributions coincide.
    """
    inverse, const = _bhattacharyya_terms(ref_belief.cov, cand_obs.cov)
    diff = ref_belief.mean - cand_obs.mean
    return max(0.125 * float(diff @ inverse @ diff) + const, 0.0)


def _surprise_entry(p: int, ctx: PlanContext) -> tuple[float, float]:
    """The ``ctx.surprise_terms`` entry of reference length p, made on
    first use: the (S^-1)_tt and const of the target and observation
    covariances. A covariance that is not one, or a persistently singular
    pair, raises ``NumericError`` and stores nothing."""
    terms = ctx.surprise_terms.get(p)
    if terms is None:
        q = ctx.process_noise
        zero = np.zeros(2)
        target = GaussianBelief(mean=zero, cov=(p + 2 if p else 1) * q)
        obs = GaussianBelief(mean=zero, cov=(p + 2) * q + ctx.measurement_noise)
        inverse, const = _bhattacharyya_terms(target.cov, obs.cov)
        terms = ctx.surprise_terms[p] = (float(inverse[1, 1]), const)
    return terms


def insert_best(ref: Word, novel: int, ctx: PlanContext) -> InsertionStep:
    """Insert one unseen letter where the expected surprise is smallest.

    The comparison target is the reference belief extended by the new
    letter's own profit and dwell at zero detour: for p reference letters
    and reference tour length L, its mean is (sum of the p + 1 profits,
    L/v + (p+1) dwell) and its covariance (p+2)Q, or Q for an empty
    reference, which has no legs. Splicing the letter into edge (u, v)
    adds the detour d = |ux| + |xv| - |uv|, so that candidate predicts the
    observation target mean + (0, d/v) with covariance (p+2)Q + R, shared
    by all candidates. Its surprise is
    max(k d d + c, 0) with k = (1/8) (S^-1)_tt / v^2 and c = const, where
    (S^-1)_tt and const depend only on p, Q and R: they are made for the
    first step with p reference letters and read from
    ``ctx.surprise_terms`` after that. Its tour length is L + d. The
    surprise grows with d, so this is cheapest insertion. Surprise ties
    fall back to the shorter candidate tour, then the smaller word.

    The removable edges are each letter's outgoing leg, closing at the
    depot, or both depot legs of a one-letter reference, or the one
    depot-to-depot leg of an empty one. One pass over them scores every
    candidate from its detour; candidate words are spliced only to break
    a tie in both surprise and length, and the winner is the one word
    built. The step records the target mean, L, k, c and each
    candidate's detour, from which ``InsertionStep.candidates`` derives
    the removed edges; it builds no belief.
    """
    letters = ref.letters
    letter = int(novel)
    if letter in letters:
        raise ConfigurationError(f"letter {novel} already in reference")
    p = len(letters)
    speed = ctx.mission.uav_speed_m_per_s
    inverse_tt, const = _surprise_entry(p, ctx)
    per_detour_sq = 0.125 * inverse_tt / (speed * speed)
    # points[k] -> points[k + 1] is leg k of the reference tour, closing
    # at the depot, points[0]; edge_cost inlined
    points = [ctx.depot] + [ctx.centers[l] for l in letters]
    dist = math.dist
    to_x = list(map(dist, points, repeat(ctx.centers[novel])))
    legs = list(map(dist, points, points[1:] + points[:1]))
    ref_length = reduce(add, legs, 0.0)     # left to right, depot leg first
    target_mean = (reduce(add, map(ctx.profits.__getitem__, (*letters, novel)), 0.0),
                   ref_length / speed + (p + 1) * ctx.mission.dwell_time_s)

    # removable edges are legs 1..p (each letter's outgoing leg), or both
    # depot legs of a one-letter reference; inserting into leg k puts the
    # new letter at position k of the word; its detour is to_x[k] +
    # to_x[k + 1] - legs[k], the last leg ending at the depot
    first = 1 if p > 1 else 0
    detours = tuple(map(sub, map(add, to_x[first:], to_x[first + 1:] + to_x[:1]),
                        legs[first:]))
    best_k = first
    best_s = best_len = tol = 0.0
    for k, detour in enumerate(detours, first):
        length = ref_length + detour
        surprise = max(per_detour_sq * detour * detour + const, 0.0)
        if k > first:
            if surprise < best_s - tol:
                best_k = k
            elif abs(surprise - best_s) <= tol:
                if length < best_len - _LENGTH_TIE:
                    best_k = k
                elif (abs(length - best_len) <= _LENGTH_TIE
                      and _splice(letters, k, letter) < _splice(letters, best_k, letter)):
                    best_k = k
        if best_k == k:
            best_s, best_len = surprise, length
            tol = _SURPRISE_TIE * (1.0 + abs(best_s))
    return InsertionStep(inserted=novel, target_mean=target_mean,
                         ref_length_m=ref_length, surprise_k=per_detour_sq,
                         surprise_c=const, detours_m=detours,
                         winner_index=best_k - first,
                         word=Word(_splice(letters, best_k, letter)))


@dataclass
class PlanResult:
    generated: list[Word]
    reference: Word
    steps: list[InsertionStep]
    final_word: Word
    tour: Tour
    context: PlanContext            # the speed and noise the steps used


def _next_novel(word: Word, pending: list[int], ctx: PlanContext) -> int:
    """The pending letter nearest the centroid of the word's letters (the
    depot for an empty word); distance ties go to the lower id."""
    letters = word.letters
    if letters:
        xs = [ctx.centers[l][0] for l in letters]
        ys = [ctx.centers[l][1] for l in letters]
        centroid = (reduce(add, xs, 0.0) / len(xs), reduce(add, ys, 0.0) / len(ys))
    else:
        centroid = ctx.depot
    return min(pending, key=lambda l: (math.dist(ctx.centers[l], centroid), l))


def plan_mission(test: Instance, wm: WorldModel, cfg: PlannerConfig,
                 weights: ObjectiveWeights) -> PlanResult:
    """Full online planning pass over one test instance.

    Classify letters, sample and select a reference word over the known
    ones, then insert unseen letters one at a time, always the one nearest
    to the centroid of the current word's letters first, re-enumerating
    the grown graph's edges at every step. Returns the final word, the
    realized tour (scored with ``weights``, the experiment's objective)
    and the full decision trace.
    """
    normal, novel = classify_letters(test.ids, wm)
    generated: list[Word] = []
    if normal:
        generated = generate_words(wm, sorted(normal), cfg.n_words, cfg.rng_seed)
        reference = select_reference(generated, wm)
    else:
        reference = Word.from_letters([])
    ctx = PlanContext.from_instance(test, wm)
    pending = sorted(novel)
    word = reference
    steps: list[InsertionStep] = []
    while pending:
        nxt = _next_novel(word, pending, ctx)
        pending.remove(nxt)
        step = insert_best(word, nxt, ctx)
        steps.append(step)
        word = step.word
    tour = make_tour(word.letters, test, weights)
    return PlanResult(generated=generated, reference=reference, steps=steps,
                      final_word=word, tour=tour, context=ctx)


def plan_to_dict(res: PlanResult) -> dict:
    """The plan as a ``uavplan.plan.v3`` trace: what each decision compared
    and nothing that the other fields determine (see the module docstring
    for how a candidate's tour length, surprise, detour time, word and
    predicted observation, and a step's covariances, are recovered)."""
    ctx = res.context
    return {
        "schema": "uavplan.plan.v3",
        "speed_m_per_s": ctx.mission.uav_speed_m_per_s,
        "process_noise": ctx.process_noise.tolist(),
        "measurement_noise": ctx.measurement_noise.tolist(),
        "generated": [list(w.letters) for w in res.generated],
        "reference": list(res.reference.letters),
        "steps": [
            {
                "inserted": s.inserted,
                "target_mean": list(s.target_mean),
                "ref_length_m": s.ref_length_m,
                "surprise_k": s.surprise_k,
                "surprise_c": s.surprise_c,
                "winner_index": s.winner_index,
                "detours_m": list(s.detours_m),
            }
            for s in res.steps
        ],
        "final_word": list(res.final_word.letters),
        "tour": {
            "order": list(res.tour.order),
            "total_cost_m": res.tour.total_cost_m,
            "total_profit_bps": res.tour.total_profit_bps,
            "objective": res.tour.objective,
        },
    }
