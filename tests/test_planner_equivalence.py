"""Planner decisions against the implementations they replaced.

The ``ref_*`` functions below are the earlier implementations, kept
verbatim as the test oracle (only their names, the names of the
candidate, step and plan classes they build, some docstrings, how
``ref_enumerate_insertions`` builds a spliced word from its letters,
that ``ref_insert_best`` shifts a belief with the test-side ``shifted``
and measures legs and words with the test-side ``leg_length`` and
``word_length_m``, that ``ref_complete`` gives its plan the context
it planned in, and that ``ref_min_dictionary_distance`` reads the bounds
and the stored words from the model differ):

- ``ref_insert_best`` builds a spliced ``Word``, a copied candidate and a
  shifted belief for every candidate and breaks ties on the candidates'
  words;
- ``ref_min_dictionary_distance`` runs the full edit-distance table
  (``ref_levenshtein``, with a cutoff) on every stored word the bound
  scan visits, and
  ``ref_select_reference`` recomputes the bounds for every candidate and
  scans each one, repeated ones too, to its exact minimum, as
  ``uncut_select_reference`` does with the production scan;
- ``ref_plan_to_dict`` writes the ``uavplan.plan.v1`` trace from each
  candidate's stored word and belief;
- ``ref_generate_words`` (in planner_oracles.py) calls
  ``Generator.choice`` once per letter, and ``ref_insert_best`` builds
  and validates the target and observation beliefs and computes the
  surprise terms at every step.

The production planner must sample the same words and make the same
decisions, and report them with the same float bits, on random and
lattice geometry and on every full-scale test instance, whatever other
world models were planned against in the same process; its
``uavplan.plan.v3`` trace, expanded by ``expand_v2`` and then
``expand_v1``, must be the v1 trace byte for byte.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavplan import planner
from uavplan.environment import (ChannelParams, Instance, MissionConfig,
                                 _Stream, edge_cost, sample_instance,
                                 sample_pool)
from uavplan.errors import ConfigurationError, NumericError
from uavplan.harness import ExperimentConfig, iter_test_instances, run_pipeline
from uavplan.oracle import ObjectiveWeights, Tour, make_tour, solve
from uavplan.planner import (_LENGTH_TIE, _SURPRISE_TIE, GaussianBelief,
                             PlanCandidate, PlanContext, PlannerConfig,
                             PlanResult, _bhattacharyya_terms, _BoundScan,
                             _chain_distance, _min_dictionary_distance,
                             _next_novel, _splice, classify_letters,
                             generate_words, insert_best, levenshtein,
                             plan_mission, plan_to_dict, select_reference)
from uavplan.world_model import (NoiseConfig, Word, WorldModel,
                                 learn, model_from_dict, model_to_dict)

from planner_oracles import (NOVEL, candidate_word, enumerate_insertions,
                             expand_v1, expand_v2, leg_length,
                             random_insertion_contexts,
                             ref_generate_words, reference_edges, shifted,
                             step_covariances, step_values, word_length_m)
from world_model_oracles import letter_rows


# --- reference: every candidate spliced, every distance a full table -----------

@dataclass(frozen=True)
class RefPlanCandidate:
    """One tentative insertion: the grown word and its score."""

    word: Word
    removed_edge: tuple[int | None, int | None]
    inserted: int
    tour_length_m: float | None = None
    predicted_obs: GaussianBelief | None = None
    surprise: float | None = None


@dataclass(frozen=True)
class RefInsertionStep:
    """Trace of one planning iteration: all candidates plus the winner."""

    inserted: int
    target: GaussianBelief
    candidates: tuple[RefPlanCandidate, ...]
    winner_index: int

    @property
    def chosen(self) -> RefPlanCandidate:
        return self.candidates[self.winner_index]


def ref_enumerate_insertions(ref: Word, novel: int) -> list[RefPlanCandidate]:
    """All words obtained by splicing ``novel`` into one removable edge."""
    letters = ref.letters
    novel = int(novel)
    if novel in letters:
        raise ConfigurationError(f"letter {novel} already in reference")
    if not letters:
        return [RefPlanCandidate(word=Word.from_letters([novel]),
                                 removed_edge=(None, None), inserted=novel)]
    return [RefPlanCandidate(
                word=Word(_splice(letters,
                                  0 if u is None else letters.index(u) + 1,
                                  novel)),
                removed_edge=(u, v), inserted=novel)
            for u, v in reference_edges(ref)]


def ref_insert_best(ref: Word, novel: int, ctx: PlanContext) -> RefInsertionStep:
    letters = ref.letters
    p = len(letters)
    speed = ctx.mission.uav_speed_m_per_s
    q = ctx.process_noise
    ref_length = word_length_m(ctx, ref)
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
    for k, cand in enumerate(ref_enumerate_insertions(ref, novel)):
        u, v = cand.removed_edge
        detour = (leg_length(ctx, u, novel) + leg_length(ctx, novel, v)
                  - leg_length(ctx, u, v))
        scored = replace(cand,
                         tour_length_m=ref_length + detour,
                         predicted_obs=shifted(obs, np.array([0.0, detour / speed])),
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
    return RefInsertionStep(inserted=novel, target=target,
                            candidates=tuple(candidates), winner_index=best_idx)


def ref_levenshtein(a: tuple, b: tuple, cutoff: int | None = None) -> int:
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


def ref_min_dictionary_distance(letters: tuple, wm: WorldModel) -> int:
    m = len(letters)
    index = wm.word_index
    rows = [wm.vocab[l] for l in letters if l in wm.vocab]
    bounds = (np.maximum(index.lengths, m)
              - index.incidence[rows].sum(axis=0, dtype=np.int32))
    words = wm.words
    best: int | None = None
    level = int(bounds.min())
    while best is None or level < best:
        for k in np.flatnonzero(bounds == level).tolist():
            d = ref_levenshtein(letters, words[k], best)
            if best is None or d < best:
                best = d
                if best <= level:
                    return best
        level += 1
    return best


def ref_select_reference(candidates, wm: WorldModel) -> Word:
    """Keep the candidate closest to any stored word; earliest index wins ties."""
    if not candidates:
        raise ConfigurationError("no candidate words to select from")
    if not wm.words:
        raise ConfigurationError("world model has no stored words")
    best = candidates[0]
    best_d = ref_min_dictionary_distance(candidates[0].letters, wm)
    for cand in candidates[1:]:
        d = ref_min_dictionary_distance(cand.letters, wm)
        if d < best_d:
            best, best_d = cand, d
    return best


@dataclass
class RefPlanResult(PlanResult):
    """A plan with the letter classes the v1 trace records: ``normal``,
    the known letters sorted, and ``novel``, the unseen ones in insertion
    order."""

    normal: tuple[int, ...]
    novel: tuple[int, ...]


def ref_complete(reference: Word, generated: list[Word], normal: frozenset[int],
                 test: Instance, wm: WorldModel,
                 weights: ObjectiveWeights | None) -> RefPlanResult:
    """Insert every instance letter the reference lacks, one per step, and
    realize the grown word as a tour."""
    ctx = PlanContext.from_instance(test, wm)
    have = set(reference.letters)
    pending = sorted(i for i in test.ids if i not in have)
    word = reference
    steps: list[RefInsertionStep] = []
    inserted_order: list[int] = []
    while pending:
        nxt = _next_novel(word, pending, ctx)
        pending.remove(nxt)
        step = ref_insert_best(word, nxt, ctx)
        steps.append(step)
        inserted_order.append(nxt)
        word = step.chosen.word
    tour = make_tour(word.letters, test, weights or ObjectiveWeights())
    return RefPlanResult(normal=tuple(sorted(normal)),
                         novel=tuple(inserted_order), generated=generated,
                         reference=reference, steps=steps, final_word=word,
                         tour=tour, context=ctx)


def _belief_to_dict(b: GaussianBelief) -> dict:
    return {"mean": [float(x) for x in b.mean],
            "cov": [[float(x) for x in row] for row in b.cov]}


def ref_plan_to_dict(res: RefPlanResult) -> dict:
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


def ref_plan_mission(test: Instance, wm: WorldModel, cfg: PlannerConfig,
                     weights: ObjectiveWeights) -> RefPlanResult:
    normal, _ = classify_letters(test.ids, wm)
    generated: list[Word] = []
    if normal:
        generated = ref_generate_words(wm, sorted(normal), cfg.n_words,
                                       cfg.rng_seed)
        reference = ref_select_reference(generated, wm)
    else:
        reference = Word.from_letters([])
    return ref_complete(reference, generated, normal, test, wm, weights)


# --- comparison helpers ---------------------------------------------------------

def _belief_repr(b: GaussianBelief) -> str:
    return repr((b.mean.tolist(), b.cov.tolist()))


def _step_fields(step) -> list[str]:
    """Every field of a step and its candidates, as reprs (floats exactly)."""
    out = [repr(step.inserted), _belief_repr(step.target),
           repr(step.winner_index), repr(len(step.candidates))]
    for c in step.candidates:
        out += [repr(c.word), repr(c.removed_edge), repr(c.inserted),
                repr(c.tour_length_m), repr(c.surprise),
                _belief_repr(c.predicted_obs)]
    return out


def _as_reference_step(step, ref: Word, ctx: PlanContext) -> RefInsertionStep:
    """A production step planned in ``ctx`` with its target belief and
    each candidate's word, tour length, surprise and predicted observation
    rebuilt from the reference, the context's speed and noise, the step's
    terms and the candidate's removed edge and detour."""
    target_cov, obs_cov = step_covariances(len(ref), ctx.process_noise,
                                           ctx.measurement_noise)
    mean = np.array(step.target_mean)
    obs = GaussianBelief(mean=mean, cov=obs_cov)
    return RefInsertionStep(
        inserted=step.inserted,
        target=GaussianBelief(mean=mean, cov=target_cov),
        winner_index=step.winner_index,
        candidates=tuple(RefPlanCandidate(
            word=candidate_word(ref.letters, c.removed_edge, step.inserted),
            removed_edge=c.removed_edge, inserted=step.inserted,
            tour_length_m=length,
            predicted_obs=shifted(obs, np.array([0.0, detour_s])),
            surprise=surprise)
            for c, (length, surprise, detour_s) in zip(
                step.candidates,
                step_values(step, ctx.mission.uav_speed_m_per_s))))


def _tie_decided(step) -> bool:
    """More than one candidate ties the winner in surprise and length, so
    the word rule picks among them."""
    win = step.chosen
    tol = _SURPRISE_TIE * (1.0 + abs(win.surprise))
    return sum(abs(c.surprise - win.surprise) <= tol
               and abs(c.tour_length_m - win.tour_length_m) <= _LENGTH_TIE
               for c in step.candidates) > 1


def _context(rng, ids, lattice: bool) -> PlanContext:
    """A context over ``ids``: centers uniform in a 2 km square, or on a
    4 x 4 lattice of 100 m spacing (so detours tie exactly), with random
    profits and correlated noise."""
    if lattice:
        cells = rng.permutation(16)[:len(ids)]
        centers = {i: (100.0 * float(c % 4), 100.0 * float(c // 4))
                   for i, c in zip(ids, cells)}
        depot = (100.0 * float(rng.integers(0, 4)), -100.0)
    else:
        centers = {i: (float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
                   for i in ids}
        depot = (1000.0, 1000.0)
    sp, st_, rho = 1e6, 0.8, float(rng.uniform(-0.9, 0.9))
    q = np.array([[sp * sp, rho * sp * st_], [rho * sp * st_, st_ * st_]])
    return PlanContext(
        centers=centers, profits={i: float(rng.uniform(1e6, 1e8)) for i in ids},
        depot=depot,
        mission=MissionConfig(uav_speed_m_per_s=float(rng.uniform(5, 40)),
                              dwell_time_s=float(rng.choice([0.0, 3.0]))),
        process_noise=q, measurement_noise=0.25 * q)


class TestInsertBestAgainstReference:
    @pytest.mark.parametrize("lattice", [False, True], ids=["random", "lattice"])
    def test_same_steps_field_by_field(self, lattice):
        rng = np.random.default_rng(41 if lattice else 40)
        ties = 0
        for trial in range(600):
            p = trial % (12 if lattice else 25)    # empty, 1 letter and more
            ids = [int(x) for x in rng.permutation(60)[:p + 1]]
            ctx = _context(rng, ids, lattice)
            ref, novel = Word.from_letters(ids[:p]), ids[p]
            want = ref_insert_best(ref, novel, ctx)
            got = insert_best(ref, novel, ctx)
            assert (_step_fields(_as_reference_step(got, ref, ctx))
                    == _step_fields(want))
            assert got.word == want.chosen.word
            ties += _tie_decided(want)
        if lattice:
            assert ties > 50
        else:
            assert ties >= 20      # the two depot legs of a 1-letter word

    def test_letter_already_in_reference_rejected(self):
        ctx = _context(np.random.default_rng(0), [1, 2, 3], False)
        with pytest.raises(ConfigurationError, match="already in reference"):
            insert_best(Word.from_letters([1, 2, 3]), 2, ctx)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 9, 24])
    def test_candidates_are_the_removable_edges_in_order(self, p):
        """A step stores only the detours; its candidates, derived from
        its word, are the removable edges in the enumeration's order, each
        with the detour |ux| + |xv| - |uv| measured by ``edge_cost``, and
        the chosen one splices the letter into the step's word."""
        rng = np.random.default_rng(70 + p)
        for _ in range(20):
            ids = [int(x) for x in rng.permutation(60)[:p + 1]]
            ctx = _context(rng, ids, False)
            ref, novel = Word.from_letters(ids[:p]), ids[p]
            step = insert_best(ref, novel, ctx)
            assert step.candidates == tuple(
                PlanCandidate((u, v), leg_length(ctx, u, novel)
                              + leg_length(ctx, novel, v) - leg_length(ctx, u, v))
                for (u, v), _ in enumerate_insertions(ref, novel))
            assert tuple(c.detour_m for c in step.candidates) == step.detours_m
            assert candidate_word(ref.letters, step.chosen.removed_edge,
                                  novel) == step.word


def _coordinates(rng, n):
    """n random points with coordinates up to +-1e6, at scales from 1e-3
    to 1e6."""
    return rng.uniform(-1, 1, size=(n, 2)) * 10.0 ** rng.integers(-3, 7, size=(n, 1))


def _hypot_leg(p, q):
    """A leg as ``edge_cost`` formed it before it was ``math.dist``:
    ``math.hypot`` of the coordinate differences."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def test_math_dist_is_edge_cost():
    """``math.dist``, the one leg formula (``edge_cost``), gives the bits
    of ``math.hypot`` of the coordinate differences in either direction, so
    every artifact kept its bytes when legs moved to it: on random pairs,
    on pairs a few ulps to 1e-9 apart, on coincident points and on pairs
    one axis apart."""
    rng = np.random.default_rng(17)
    a = _coordinates(rng, 100_000)
    far = _coordinates(rng, 100_000)
    near = a + a * rng.uniform(-1, 1, size=a.shape) * 10.0 ** rng.integers(
        -16, -8, size=(len(a), 1))
    axis = a * np.array([1.0, 0.0]) + far * np.array([0.0, 1.0])
    for b in (far, near, a, axis):
        for p, q in zip(a.tolist(), b.tolist()):
            assert math.dist(p, q) == _hypot_leg(p, q) == edge_cost(p, q)
            assert math.dist(q, p) == _hypot_leg(p, q)


@settings(max_examples=500, deadline=None)
@given(st.tuples(*[st.floats(-1e6, 1e6)] * 2),
       st.tuples(*[st.integers(-4, 4)] * 2))
def test_math_dist_is_edge_cost_between_neighbouring_floats(p, ulps):
    """Points up to four floats apart on each axis."""
    def moved(x, k):
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(math.inf, k))
        return x

    q = tuple(map(moved, p, ulps))
    assert math.dist(p, q) == math.dist(q, p) == _hypot_leg(p, q)


# --- reference selection ------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), max_size=50, unique=True),
    st.lists(st.integers(0, n - 1), max_size=9, unique=True))))
def test_chain_distance_is_edit_distance(pair):
    """On repeat-free words (0-50 letters against 0-9, from one alphabet of
    1-60 letters) the sparse chain DP equals the full table."""
    a, b = (tuple(w) for w in pair)
    pos = {l: i for i, l in enumerate(a)}
    assert _chain_distance(pos, len(a), b) == levenshtein(a, b)


@pytest.fixture(scope="module")
def world():
    """A small learned world model, the template for random dictionaries."""
    chan, mission, w = ChannelParams(), MissionConfig(), ObjectiveWeights()
    testing_pool = sample_pool(5150, 30, 5.0, mission, chan)
    training_pool = testing_pool[:15]
    demos = [solve(sample_instance(900 + k, training_pool, 5,
                                   (1000.0, 1000.0), chan, mission), w)
             for k in range(200)]
    return testing_pool, learn(demos, training_pool, NoiseConfig(), mission)


words_of = lambda alphabet, hi: st.lists(   # noqa: E731
    st.integers(0, alphabet - 1), min_size=1, max_size=hi, unique=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.lists(words_of(n, 5), min_size=1, max_size=60),
    st.lists(words_of(n + 4, 12), min_size=1, max_size=10))))
def test_select_reference_picks_the_references_candidate(world, drawn):
    """Random dictionaries of words of up to 5 letters and candidates that
    may mix letter sets and hold letters the dictionary lacks."""
    stored, cands = drawn
    keys = list(dict.fromkeys(tuple(w) for w in stored))
    wm = replace(world[1], vocab=letter_rows(l for k in keys for l in k),
                 words=keys,
                 word_counts=[1] * len(keys))
    words = [Word.from_letters(c) for c in cands]
    assert select_reference(words, wm) is ref_select_reference(words, wm)


def _with_dictionary(wm: WorldModel, stored) -> WorldModel:
    """``wm`` with the distinct words of ``stored`` as its dictionary."""
    keys = list(dict.fromkeys(tuple(w) for w in stored))
    return replace(wm, vocab=letter_rows(l for k in keys for l in k),
                   words=keys,
                   word_counts=[1] * len(keys))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(words_of(n, 4), min_size=1, max_size=25),
    st.lists(words_of(n + 1, 5), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=12))))
def test_select_reference_with_repeats_and_ties(world, drawn):
    """Over alphabets of 2 to 7 letters, short stored words tie often,
    and candidates repeat one another: the pick is the earliest of the
    reference's distance, the object ``ref_select_reference`` picks."""
    stored, pool, picks = drawn
    wm = _with_dictionary(world[1], stored)
    words = [Word.from_letters(pool[k % len(pool)]) for k in picks]
    assert select_reference(words, wm) is ref_select_reference(words, wm)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.lists(words_of(n, 6), min_size=1, max_size=40),
    words_of(n + 3, 10),
    st.one_of(st.none(), st.integers(0, 12)))))
def test_min_dictionary_distance_below_a_cutoff(world, drawn):
    """The scan returns the exact minimum edit distance to the stored
    words when it is below ``below`` (or ``below`` is None), and None
    when no stored word is closer."""
    stored, letters, below = drawn
    wm = _with_dictionary(world[1], stored)
    letters = tuple(letters)
    exact = min(levenshtein(letters, w) for w in wm.words)
    scan = _BoundScan(letters, wm)
    got = _min_dictionary_distance(letters, scan, below)
    assert got == (exact if below is None or exact < below else None)


def test_select_reference_on_shared_letter_sets(world):
    """generate_words candidates all cover one letter set, so they share
    one bound vector: the pick is still the reference's."""
    testing_pool, wm = world
    rng = np.random.default_rng(3)
    for seed in range(40):
        ids = [int(x) for x in rng.choice(len(testing_pool), size=int(
            rng.integers(2, 25)), replace=False)]
        normal, _ = classify_letters(ids, wm)
        if not normal:
            continue
        cands = generate_words(wm, sorted(normal), 10, seed)
        assert select_reference(cands, wm) is ref_select_reference(cands, wm)


# --- word sampling -------------------------------------------------------------

# rows of 1 to 130 entries cross ``_pairwise_sum``'s splits at 8 and 128:
# rows of one magnitude, where the order of the additions shows in the
# sum, rows that mix zeros and magnitudes from subnormal to huge, and rows
# with a single non-zero entry; 130 entries of any of them have a finite
# sum
weight_rows = st.one_of(
    st.tuples(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=130),
              st.sampled_from([1e-300, 1.0, 1e300])).map(
        lambda row: [x * row[1] for x in row[0]]),
    st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e-300),
                       st.floats(1e-300, 1e300)), min_size=1, max_size=130),
    st.integers(1, 130).flatmap(lambda n: st.tuples(
        st.integers(0, n - 1), st.floats(5e-324, 1e300)).map(
            lambda kv: [kv[1] if j == kv[0] else 0.0 for j in range(n)])))


@settings(max_examples=400, deadline=None)
@given(weight_rows, st.integers(0, 2 ** 63))
@example([0.0] * 130, 7)
@example([0.0] * 7 + [1e300] + [0.0] * 122, 7)
def test_choice_index_is_generator_choice(weights, seed):
    """On rows of non-negative weights with zeros, a single non-zero entry,
    tiny and huge magnitudes, and 1 to 130 entries, ``_Stream.choice``
    draws the index ``Generator.choice`` draws on the row normalized by
    numpy, and leaves the stream where ``choice`` leaves the generator,
    also when the uniform draw lands on a boundary of the cumulative
    distribution; a row whose sum is 0 gives None and leaves the stream
    where it was."""
    w = np.array(weights)
    ours, numpy_s = _Stream(seed), np.random.default_rng(seed)
    if w.sum() > 0:
        for _ in range(3):
            assert ours.choice(weights) == numpy_s.choice(len(w),
                                                          p=w / w.sum())
        # numpy's own steps: the running sum of p scaled by its last
        # entry, and a right-sided search; a uniform draw that lands on an
        # entry, or just below one, tells a last-bit difference apart
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        for u in {*cdf.tolist(), *np.nextafter(cdf, 0.0).tolist()}:
            assert (_Drawing(u).choice(weights)
                    == int(cdf.searchsorted(u, side="right")))
    else:
        assert ours.choice(weights) is None
    assert ours.random() == numpy_s.random()


class _Drawing(_Stream):
    """A stream whose every ``random()`` is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=60, unique=True),
       st.integers(0, 2 ** 63))
def test_choice_without_p_is_integers(letters, seed):
    """``choice(letters)`` without ``p`` is ``letters[integers(n)]``, the
    stream's draw."""
    ours, numpy_s = _Stream(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert letters[ours.integers(len(letters))] == numpy_s.choice(letters)
    assert ours.random() == numpy_s.random()


def test_generate_words_is_reference(world):
    """Letter sets of 1 to 15 known letters, and the set of letters that
    start no stored word (drawn uniformly), give the reference's words."""
    testing_pool, wm = world
    rng = np.random.default_rng(5)
    sets = [sorted(classify_letters(
        [int(x) for x in rng.choice(len(testing_pool), size=int(
            rng.integers(1, 30)), replace=False) + 1], wm)[0])
        for _ in range(60)]
    never_start = [l for l, k in wm.vocab.items() if wm.start_counts[k] == 0]
    assert never_start
    for letters in [ls for ls in sets if ls] + [never_start]:
        for seed in (0, 1, 12345):
            assert (generate_words(wm, letters, 10, seed)
                    == ref_generate_words(wm, letters, 10, seed))


@pytest.fixture(scope="module")
def full_scale_world(tmp_path_factory):
    """The acceptance suite's full-scale config (C6-C8: 5000
    demonstrations, 30 test instances of each size 5-50) run up to its
    world model in a directory of its own: (config, world model, the 180
    test instances)."""
    cfg = ExperimentConfig(test_sizes=(5, 10, 20, 30, 40, 50),
                           seeds_per_size=30, m_training=5000,
                           output_dir=str(tmp_path_factory.mktemp("world")))
    wm = run_pipeline(cfg, last="world")
    testing_pool, _ = run_pipeline(cfg, last="pools")
    instances = [inst for _, inst in iter_test_instances(cfg, testing_pool)]
    assert len(instances) == 180
    return cfg, wm, instances


@pytest.mark.slow
def test_generate_words_is_reference_at_full_scale(full_scale_world):
    """Every full-scale test instance (180, sizes 5-50) samples the
    reference's words with seeds 0, 1 and 12345."""
    cfg, wm, instances = full_scale_world
    for inst in instances:
        normal = sorted(classify_letters(inst.ids, wm)[0])
        for seed in (0, 1, 12345):
            assert (generate_words(wm, normal, cfg.planner.n_words, seed)
                    == ref_generate_words(wm, normal, cfg.planner.n_words,
                                          seed))


def uncut_select_reference(candidates, wm: WorldModel) -> Word:
    """``select_reference`` without its cutoff: every candidate, repeated
    ones too, scanned to its exact minimum distance (``below`` None)."""
    scans: dict[frozenset[int], _BoundScan] = {}
    best, best_d = None, None
    for cand in candidates:
        key = frozenset(cand.letters)
        scan = scans.get(key)
        if scan is None:
            scan = scans[key] = _BoundScan(cand.letters, wm)
        d = _min_dictionary_distance(cand.letters, scan, None)
        if best_d is None or d < best_d:
            best, best_d = cand, d
    return best


@pytest.mark.slow
def test_cutoff_scores_under_a_quarter_of_the_distances(full_scale_world,
                                                        monkeypatch):
    """On the 180 full-scale test instances, reference selection with the
    cutoff makes under a quarter of the ``_chain_distance`` calls of the
    uncut scan, and picks the same word. The counts do not depend on the
    host."""
    cfg, wm, instances = full_scale_world
    calls = []
    chain = planner._chain_distance
    monkeypatch.setattr(planner, "_chain_distance",
                        lambda *args: calls.append(1) or chain(*args))
    cut = uncut = 0
    for inst in instances:
        normal = sorted(classify_letters(inst.ids, wm)[0])
        cands = generate_words(wm, normal, cfg.planner.n_words,
                               cfg.planner.rng_seed)
        start = len(calls)
        got = select_reference(cands, wm)
        middle = len(calls)
        assert got is uncut_select_reference(cands, wm)
        cut += middle - start
        uncut += len(calls) - middle
    assert 0 < 4 * cut < uncut


# --- whole plans --------------------------------------------------------------

class TestPlanAgainstReference:
    def test_same_trace_json(self, world):
        testing_pool, wm = world
        chan, mission = ChannelParams(), MissionConfig()
        weights = ObjectiveWeights()
        for s in range(24):
            size = (5, 12, 20, 30)[s % 4]
            inst = sample_instance(61000 + s, testing_pool, size,
                                   (1000.0, 1000.0), chan, mission)
            cfg = PlannerConfig(n_words=10, rng_seed=s)
            got = plan_to_dict(plan_mission(inst, wm, cfg, weights))
            want = ref_plan_to_dict(ref_plan_mission(inst, wm, cfg, weights))
            assert (json.dumps(expand_v1(expand_v2(got)), sort_keys=True)
                    == json.dumps(want, sort_keys=True))
            assert math.isfinite(got["tour"]["total_cost_m"])

    @pytest.mark.slow
    def test_same_trace_json_at_full_scale(self, full_scale_world):
        """Every full-scale test instance (180, sizes 5-50) gets the
        reference's trace, planned with the run's planner config and
        weights."""
        cfg, wm, instances = full_scale_world
        for inst in instances:
            got = plan_to_dict(plan_mission(inst, wm, cfg.planner, cfg.weights))
            want = ref_plan_to_dict(ref_plan_mission(inst, wm, cfg.planner,
                                                     cfg.weights))
            assert (json.dumps(expand_v1(got), sort_keys=True)
                    == json.dumps(want, sort_keys=True))

    def test_same_trace_json_on_random_contexts(self):
        """One insertion in each random context of the closed-form tests,
        empty and one-letter references included, written as a one-step
        plan."""
        def one_step_plan(ref, step, word, ctx):
            tour = Tour(order=word.letters, total_cost_m=0.0,
                        total_profit_bps=0.0, objective=0.0)
            return RefPlanResult(normal=tuple(sorted(ref.letters)),
                                 novel=(NOVEL,), generated=[], reference=ref,
                                 steps=[step], final_word=word, tour=tour,
                                 context=ctx)

        sizes = set()
        for ref, ctx in random_insertion_contexts():
            got = insert_best(ref, NOVEL, ctx)
            want = ref_insert_best(ref, NOVEL, ctx)
            assert (json.dumps(expand_v1(expand_v2(plan_to_dict(
                        one_step_plan(ref, got, got.word, ctx)))),
                        sort_keys=True)
                    == json.dumps(ref_plan_to_dict(one_step_plan(
                        ref, want, want.chosen.word, ctx)), sort_keys=True))
            sizes.add(len(ref))
        assert {0, 1} <= sizes


class TestSurpriseTermsTable:
    """Surprise terms are kept per reference length in a table that the
    contexts of one world model share."""

    @staticmethod
    def _traces(models, instances):
        cfg, weights = PlannerConfig(n_words=10, rng_seed=0), ObjectiveWeights()
        return [[json.dumps(plan_to_dict(plan_mission(inst, wm, cfg, weights)))
                 for wm in models] for inst in instances]

    def test_two_noise_models_alternately_as_alone(self, world):
        """Two models with other noise, planned alternately in one process,
        write the traces each writes alone, and the reference's."""
        testing_pool, wm = world
        chan, mission = ChannelParams(), MissionConfig()
        noisy = {**model_to_dict(wm), "noise_config": {
            "process_scale": 0.07, "measurement_ratio": 1.5}}
        instances = [sample_instance(62000 + s, testing_pool,
                                     (5, 12, 20, 30)[s % 4],
                                     (1000.0, 1000.0), chan, mission)
                     for s in range(12)]
        # every model_from_dict call builds a model with an empty table
        a, b = model_from_dict(model_to_dict(wm)), model_from_dict(noisy)
        together = self._traces([a, b], instances)
        assert a.surprise_terms and b.surprise_terms
        alone_a = self._traces([model_from_dict(model_to_dict(wm))], instances)
        alone_b = self._traces([model_from_dict(noisy)], instances)
        assert [t[0] for t in together] == [t[0] for t in alone_a]
        assert [t[1] for t in together] == [t[0] for t in alone_b]
        assert [t[0] for t in together] != [t[1] for t in together]
        cfg = PlannerConfig(n_words=10, rng_seed=0)
        for inst, (got, _) in zip(instances, together):
            want = ref_plan_to_dict(ref_plan_mission(inst, a, cfg,
                                                     ObjectiveWeights()))
            assert (json.dumps(expand_v1(expand_v2(json.loads(got))),
                               sort_keys=True)
                    == json.dumps(want, sort_keys=True))

    def test_direct_contexts_keep_their_own_table(self):
        """Contexts built directly share no table: each step's surprises
        equal the reference's, reference lengths repeating across
        contexts with other noise."""
        tables = []
        for ref, ctx in random_insertion_contexts(seed=29, trials=60):
            got = insert_best(ref, NOVEL, ctx)
            want = ref_insert_best(ref, NOVEL, ctx)
            assert ([s for _, s, _ in step_values(
                        got, ctx.mission.uav_speed_m_per_s)]
                    == [c.surprise for c in want.candidates])
            assert list(ctx.surprise_terms) == [len(ref)]
            tables.append(ctx.surprise_terms)
        assert len({id(t) for t in tables}) == len(tables)

    def test_numeric_error_is_not_cached(self, monkeypatch):
        """A failure to make a table entry is raised at every step and
        leaves no entry: terms that cannot be computed, and a direct
        context whose measurement noise is not positive semi-definite."""
        ref, ctx = next(random_insertion_contexts(seed=31, trials=5))
        with monkeypatch.context() as patched:
            def singular(cov1, cov2):
                raise NumericError("persistently singular covariance")

            patched.setattr(planner, "_bhattacharyya_terms", singular)
            for _ in range(2):
                with pytest.raises(NumericError, match="singular"):
                    insert_best(ref, NOVEL, ctx)
            assert ctx.surprise_terms == {}

        ref, ctx = next(random_insertion_contexts(seed=31, trials=5))
        ctx = replace(ctx, measurement_noise=-10.0 * ctx.process_noise)
        for _ in range(2):
            with pytest.raises(NumericError, match="positive semi-definite"):
                insert_best(ref, NOVEL, ctx)
        assert ctx.surprise_terms == {}
