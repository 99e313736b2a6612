"""Online mission planner driven by expected surprise.

Given a test instance and a learned world model, the planner classifies
the instance's letters into known and unseen, samples candidate
reference words from the transition matrix, keeps the one closest (by
edit distance) to the stored dictionary, and then grows the route one
unseen letter at a time, always the one nearest to the centroid of the
current word's letters (the depot while the word is empty). Every
possible single-edge insertion is scored by the Bhattacharyya distance
between the belief the candidate route predicts and the belief implied
by the current reference; the least surprising insertion wins. The
realized tour is scored with the experiment's one ``ObjectiveWeights``,
passed in by the caller.

State beliefs are 2-D Gaussians over (cumulative sum-rate, elapsed
time); the per-leg transition adds the next letter's mean profit and the
leg travel time (plus dwell) to the mean and the process covariance Q to
the covariance (``kalman_predict``, folded over a word by ``rollout``).
Observations are the identity map plus measurement noise R.

With constant additive Q and R that fold has a closed form, which is
what ``insert_best`` evaluates. Inserting letter x into edge (u, v) of a
p-letter reference adds the detour d = |ux| + |xv| - |uv|. Every
candidate covers the same letters and has p + 2 legs, so all candidates
share the profit mean and the covariance (p+2)Q + R, and differ from the
target only by d/v in time. The surprise is therefore
(1/8) (d/v)^2 (S^-1)_tt + const with S and const fixed per step:
monotone in d, i.e. the planner performs cheapest insertion
(Rosenkrantz, Stearns & Lewis 1977). ``rollout`` and
``expected_surprise`` remain the reference the tests check it against.

Reference selection needs the exact minimum edit distance of each
candidate to the dictionary. Stored words are repeat-free, so
max(m, n) - |shared letters| bounds every distance from below; the
world model's word index yields all bounds as one incidence-matrix
product, and the dynamic program runs only on words whose bound can
still beat the best distance found (Ukkonen 1985).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .environment import Instance, MissionConfig, edge_cost
from .errors import ConfigurationError, NumericError
from .oracle import ObjectiveWeights, Tour, make_tour
from .world_model import GeneralizedLetter, Word, WordIndex, WorldModel

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
        if cov.shape != (mean.size, mean.size):
            raise NumericError("covariance shape does not match mean")
        scale = max(float(np.trace(cov)), 1.0)
        tol = 1e-9 * scale
        if mean.size == 1:
            if cov[0, 0] < -tol:
                raise NumericError("covariance not positive semi-definite")
        elif mean.size == 2:
            # closed-form symmetry/PSD check
            if abs(cov[0, 1] - cov[1, 0]) > tol:
                raise NumericError("covariance not symmetric")
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
            if cov[0, 0] < -tol or cov[1, 1] < -tol or det < -tol * scale:
                raise NumericError("covariance not positive semi-definite")
        else:
            if not np.allclose(cov, cov.T, atol=tol):
                raise NumericError("covariance not symmetric")
            if np.linalg.eigvalsh(cov).min() < -tol:
                raise NumericError("covariance not positive semi-definite")

    @classmethod
    def zero(cls, dim: int = 2) -> "GaussianBelief":
        return cls(mean=np.zeros(dim), cov=np.zeros((dim, dim)))

    def shifted(self, delta: np.ndarray) -> "GaussianBelief":
        """The same covariance around a mean moved by ``delta``.

        The covariance was validated when this belief was built and is
        shared, not copied, so the check is not repeated.
        """
        out = object.__new__(GaussianBelief)
        object.__setattr__(out, "mean", self.mean + delta)
        object.__setattr__(out, "cov", self.cov)
        return out


@dataclass(frozen=True)
class PlanCandidate:
    """One tentative insertion: the grown word and its score."""

    word: Word
    removed_edge: tuple[int | None, int | None]
    inserted: int
    tour_length_m: float | None = None
    predicted_obs: GaussianBelief | None = None
    surprise: float | None = None


@dataclass(frozen=True)
class InsertionStep:
    """Trace of one planning iteration: all candidates plus the winner."""

    inserted: int
    target: GaussianBelief
    candidates: tuple[PlanCandidate, ...]
    winner_index: int

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


@dataclass
class PlanContext:
    """Geometry, profit estimates and noise shared by one planning run.

    Profit estimates come from the world model for known letters and from
    the instance itself for unseen ones; centers always come from the
    instance being planned.
    """

    centers: dict[int, tuple[float, float]]
    profits: dict[int, float]
    depot: tuple[float, float]
    mission: MissionConfig
    process_noise: np.ndarray
    measurement_noise: np.ndarray

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
                   measurement_noise=np.array(wm.measurement_noise, float))

    def leg_length(self, a: int | None, b: int | None) -> float:
        pa = self.depot if a is None else self.centers[a]
        pb = self.depot if b is None else self.centers[b]
        return edge_cost(pa, pb)

    def word_length_m(self, w: Word) -> float:
        letters = w.letters
        if not letters:
            return 0.0
        total = self.leg_length(None, letters[0])
        for a, b in zip(letters, letters[1:]):
            total += self.leg_length(a, b)
        return total + self.leg_length(letters[-1], None)


def classify_letters(test_ids: Sequence[int],
                     wm: WorldModel) -> tuple[frozenset[int], frozenset[int]]:
    """Split test letters into (seen during training, never seen)."""
    ids = frozenset(int(i) for i in test_ids)
    normal = frozenset(i for i in ids if i in wm.vocab)
    return normal, ids - normal


def levenshtein(w1, w2) -> int:
    """Edit distance between two letter sequences (unit costs)."""
    a = tuple(w1.letters) if isinstance(w1, Word) else tuple(w1)
    b = tuple(w2.letters) if isinstance(w2, Word) else tuple(w2)
    return _levenshtein(a, b)


def _levenshtein(a: tuple, b: tuple, cutoff: int | None = None) -> int:
    """Two-row DP; with a cutoff, bail out once the row minimum reaches it.

    Row minima never decrease, so an early return is a valid lower bound
    (>= cutoff) whenever it fires.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        row_min = i
        left = i
        diag = prev[0]
        append = cur.append
        for j, cb in enumerate(b, start=1):
            up = prev[j]
            v = diag if ca == cb else diag + 1
            if up + 1 < v:
                v = up + 1
            if left + 1 < v:
                v = left + 1
            append(v)
            if v < row_min:
                row_min = v
            left = v
            diag = up
        if cutoff is not None and row_min >= cutoff:
            return row_min
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
    """
    normal = sorted(set(int(i) for i in normal))
    if not normal:
        raise ConfigurationError("cannot generate words over an empty letter set")
    if n < 1:
        raise ConfigurationError("need n >= 1 words")
    rng = np.random.default_rng(rng_seed)
    start_counts = np.array([wm.stats[l].start_count for l in normal], float)
    out: list[Word] = []
    for _ in range(n):
        remaining = list(normal)
        if start_counts.sum() > 0:
            p = start_counts / start_counts.sum()
            current = int(rng.choice(normal, p=p))
        else:
            current = int(rng.choice(normal))
        letters = [current]
        remaining.remove(current)
        while remaining:
            weights = None
            if current in wm.vocab and wm.transition.is_active(current):
                row = wm.transition.row(current)
                weights = np.array([row[wm.vocab.index(r)] for r in remaining])
                if weights.sum() <= 0.0:
                    weights = None
            if weights is not None:
                nxt = int(rng.choice(remaining, p=weights / weights.sum()))
            else:
                here = wm.stats[current].center_m
                nxt = min(remaining,
                          key=lambda r: (edge_cost(here, wm.stats[r].center_m), r))
            letters.append(nxt)
            remaining.remove(nxt)
            current = nxt
        out.append(Word.from_letters(letters))
    return out


def _min_dictionary_distance(letters: tuple, index: WordIndex) -> int:
    """Exact min edit distance of one candidate against the whole dictionary.

    Words carry no repeated letters, so aligned matches are bounded by the
    set overlap and d >= max(m, n) - overlap. The overlaps with every
    stored word are the incidence matrix times the candidate's 0/1 letter
    vector, i.e. the sum of its letters' rows. Words are then scanned by
    increasing bound (stored order within a bound), stopping at the first
    bound the running best cannot beat.
    """
    m = len(letters)
    rows = [index.column[l] for l in letters if l in index.column]
    bounds = (np.maximum(index.lengths, m)
              - index.incidence[rows].sum(axis=0, dtype=np.int32))
    words = index.letters
    best: int | None = None
    level = int(bounds.min())
    while best is None or level < best:
        for k in np.flatnonzero(bounds == level).tolist():
            d = _levenshtein(letters, words[k], best)
            if best is None or d < best:
                best = d
                if best <= level:
                    return best
        level += 1
    return best


def select_reference(candidates: Sequence[Word], wm: WorldModel) -> Word:
    """Keep the candidate closest to any stored word; earliest index wins ties."""
    if not candidates:
        raise ConfigurationError("no candidate words to select from")
    if not wm.words:
        raise ConfigurationError("world model has no stored words")
    index = wm.word_index
    best = candidates[0]
    best_d = _min_dictionary_distance(candidates[0].letters, index)
    for cand in candidates[1:]:
        d = _min_dictionary_distance(cand.letters, index)
        if d < best_d:
            best, best_d = cand, d
    return best


def reference_edges(ref: Word) -> tuple[tuple[int | None, int | None], ...]:
    """Removable edges of the reference graph (None marks the depot).

    For p letters these are the p-1 inner edges plus the return-to-depot
    closure, i.e. each letter's outgoing edge. A single-letter graph has
    no inner structure, so both depot legs are offered.
    """
    letters = ref.letters
    if not letters:
        return ()
    if len(letters) == 1:
        return ((None, letters[0]), (letters[0], None))
    inner = tuple((a, b) for a, b in zip(letters, letters[1:]))
    return inner + ((letters[-1], None),)


def enumerate_insertions(ref: Word, novel: int) -> list[PlanCandidate]:
    """All words obtained by splicing ``novel`` into one removable edge."""
    letters = ref.letters
    novel = int(novel)
    if novel in letters:
        raise ConfigurationError(f"letter {novel} already in reference")
    if not letters:
        return [PlanCandidate(word=Word.from_letters([novel]),
                              removed_edge=(None, None), inserted=novel)]
    return [PlanCandidate(
                word=ref._spliced(0 if u is None else letters.index(u) + 1, novel),
                removed_edge=(u, v), inserted=novel)
            for u, v in reference_edges(ref)]


def _advance(b: GaussianBelief, leg_m: float, profit_bps: float,
             dwell_s: float, ctx: PlanContext) -> GaussianBelief:
    shift = np.array([profit_bps,
                      leg_m / ctx.mission.uav_speed_m_per_s + dwell_s])
    return GaussianBelief(mean=b.mean + shift, cov=b.cov + ctx.process_noise)


def kalman_predict(b: GaussianBelief, gl: GeneralizedLetter,
                   ctx: PlanContext) -> GaussianBelief:
    """One event transition: gain the successor's profit, spend the leg time."""
    leg = ctx.leg_length(gl.start, gl.edge_to)
    return _advance(b, leg, ctx.profits[gl.edge_to], ctx.mission.dwell_time_s, ctx)


def predict_observation(b: GaussianBelief, ctx: PlanContext) -> GaussianBelief:
    """Expected observation: identity map plus measurement noise."""
    return GaussianBelief(mean=b.mean, cov=b.cov + ctx.measurement_noise)


def rollout(word: Word, ctx: PlanContext,
            b0: GaussianBelief | None = None) -> GaussianBelief:
    """Fold the per-leg prediction over a whole mission word.

    Covers the depot departure leg, every generalized letter, and the
    return leg (travel time only). An empty word is a no-op.
    """
    b = GaussianBelief.zero() if b0 is None else b0
    letters = word.letters
    if not letters:
        return b
    b = _advance(b, ctx.leg_length(None, letters[0]),
                 ctx.profits[letters[0]], ctx.mission.dwell_time_s, ctx)
    for gl in word.glyphs:
        b = kalman_predict(b, gl, ctx)
    return _advance(b, ctx.leg_length(letters[-1], None), 0.0, 0.0, ctx)


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
    max((1/8) (d/v)^2 (S^-1)_tt + const, 0), where S^-1 and const depend
    only on the two covariances and are computed once per step, and its
    tour length is L + d. The surprise grows with d, so this is cheapest
    insertion. Surprise ties fall back to the shorter candidate tour,
    then the smaller word.
    """
    letters = ref.letters
    p = len(letters)
    speed = ctx.mission.uav_speed_m_per_s
    q = ctx.process_noise
    ref_length = ctx.word_length_m(ref)
    ref_legs = p + 1 if letters else 0
    target = GaussianBelief(
        mean=np.array([sum(ctx.profits[l] for l in letters) + ctx.profits[novel],
                       ref_length / speed + (p + 1) * ctx.mission.dwell_time_s]),
        cov=(ref_legs + 1) * q)
    obs = GaussianBelief(mean=target.mean,
                         cov=(p + 2) * q + ctx.measurement_noise)
    inverse, const = _bhattacharyya_terms(target.cov, obs.cov)
    per_detour_sq = 0.125 * float(inverse[1, 1]) / (speed * speed)

    candidates = []
    best_idx = 0
    for k, cand in enumerate(enumerate_insertions(ref, novel)):
        u, v = cand.removed_edge
        detour = (ctx.leg_length(u, novel) + ctx.leg_length(novel, v)
                  - ctx.leg_length(u, v))
        scored = replace(cand,
                         tour_length_m=ref_length + detour,
                         predicted_obs=obs.shifted(np.array([0.0, detour / speed])),
                         surprise=max(per_detour_sq * detour * detour + const, 0.0))
        candidates.append(scored)
        if k == 0:
            continue
        best = candidates[best_idx]
        tol = _SURPRISE_TIE * (1.0 + abs(best.surprise))
        if scored.surprise < best.surprise - tol:
            best_idx = k
        elif abs(scored.surprise - best.surprise) <= tol:
            if scored.tour_length_m < best.tour_length_m - _LENGTH_TIE:
                best_idx = k
            elif (abs(scored.tour_length_m - best.tour_length_m) <= _LENGTH_TIE
                  and scored.word.letters < best.word.letters):
                best_idx = k
    return InsertionStep(inserted=novel, target=target,
                         candidates=tuple(candidates), winner_index=best_idx)


@dataclass
class PlanResult:
    normal: tuple[int, ...]
    novel: tuple[int, ...]          # in insertion order
    generated: list[Word]
    reference: Word
    steps: list[InsertionStep]
    final_word: Word
    tour: Tour


def _next_novel(word: Word, pending: list[int], ctx: PlanContext) -> int:
    """The pending letter nearest the centroid of the word's letters (the
    depot for an empty word); distance ties go to the lower id."""
    letters = word.letters
    if letters:
        xs = [ctx.centers[l][0] for l in letters]
        ys = [ctx.centers[l][1] for l in letters]
        centroid = (sum(xs) / len(xs), sum(ys) / len(ys))
    else:
        centroid = ctx.depot
    return min(pending, key=lambda l: (edge_cost(ctx.centers[l], centroid), l))


def plan_mission(test: Instance, wm: WorldModel,
                 cfg: PlannerConfig | None = None,
                 weights: ObjectiveWeights | None = None) -> PlanResult:
    """Full online planning pass over one test instance.

    Classify letters, sample and select a reference word over the known
    ones, then insert unseen letters one at a time, always the one nearest
    to the centroid of the current word's letters first, re-enumerating
    the grown graph's edges at every step. Returns the final word, the
    realized tour (scored with ``weights``, the experiment's objective)
    and the full decision trace.
    """
    cfg = cfg or PlannerConfig()
    normal, _ = classify_letters(test.ids, wm)
    generated: list[Word] = []
    if normal:
        generated = generate_words(wm, sorted(normal), cfg.n_words, cfg.rng_seed)
        reference = select_reference(generated, wm)
    else:
        reference = Word.from_letters([])
    return _complete(reference, generated, normal, test, wm, weights)


def online_replan(current: Word, test: Instance, wm: WorldModel,
                  weights: ObjectiveWeights | None = None) -> PlanResult:
    """Resume planning mid-mission: grow an existing word by the instance
    letters it does not yet cover, using the same insertion machinery."""
    normal, _ = classify_letters(test.ids, wm)
    return _complete(current, [], normal, test, wm, weights)


def _complete(reference: Word, generated: list[Word], normal: frozenset[int],
              test: Instance, wm: WorldModel,
              weights: ObjectiveWeights | None) -> PlanResult:
    """Insert every instance letter the reference lacks, one per step, and
    realize the grown word as a tour."""
    ctx = PlanContext.from_instance(test, wm)
    have = set(reference.letters)
    pending = sorted(i for i in test.ids if i not in have)
    word = reference
    steps: list[InsertionStep] = []
    inserted_order: list[int] = []
    while pending:
        nxt = _next_novel(word, pending, ctx)
        pending.remove(nxt)
        step = insert_best(word, nxt, ctx)
        steps.append(step)
        inserted_order.append(nxt)
        word = step.chosen.word
    tour = make_tour(word.letters, test, weights or ObjectiveWeights())
    return PlanResult(normal=tuple(sorted(normal)), novel=tuple(inserted_order),
                      generated=generated, reference=reference, steps=steps,
                      final_word=word, tour=tour)


def _belief_to_dict(b: GaussianBelief) -> dict:
    return {"mean": [float(x) for x in b.mean],
            "cov": [[float(x) for x in row] for row in b.cov]}


def plan_to_dict(res: PlanResult) -> dict:
    return {
        "schema": "uavplan.plan.v1",
        "normal": list(res.normal),
        "novel": list(res.novel),
        "generated": [list(w.letters) for w in res.generated],
        "reference": list(res.reference.letters),
        "steps": [
            {
                "inserted": s.inserted,
                "target": _belief_to_dict(s.target),
                "winner_index": s.winner_index,
                "candidates": [
                    {
                        "word": list(c.word.letters),
                        "removed_edge": [c.removed_edge[0], c.removed_edge[1]],
                        "tour_length_m": c.tour_length_m,
                        "surprise": c.surprise,
                        "predicted_obs": _belief_to_dict(c.predicted_obs),
                    }
                    for c in s.candidates
                ],
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
